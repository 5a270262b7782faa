"""Independent reference routes that the tests compare the runtime closed forms against.

None of these is called by ``lglab`` itself; each is a slower, element-by-element
computation of a quantity the package gets from a closed form or a faster route:
the unitary propagation, the expectation <s|M|s> and the Born rule on a
projector, the projector pair of a Hermitian M with M^2 = I, the five-check
projector-pair validation (:func:`check_projector_pair`), the precession
observables with their K3, the matrix K route (:func:`two_time_lg`,
:func:`mz_two_time_lg`), the projector-product quasiprobability with the
eigenvalue check of a density matrix (:func:`quasi_matrix`,
:func:`density_matrix`), the numpy matrix-vector route of the sequential joint
(:func:`sequential_joint_numpy`), the route of the MZ weak values through
the pre-selected amplitudes divided by ``np.linalg.norm``
(:func:`mz_pre_amps`, :func:`mz_weak_values_state`) that
``weakval.mz_weak_values`` must match bit for bit, the two-step Lueders route of the
projective signaling gap (:func:`projective_gap`), the numpy expressions of
the MZ closed forms (:func:`mz_kernel_numpy`) that
``interferometer._mz_probabilities`` and ``interferometer._mz_k`` must match
bit for bit, the complex modulus of p on every input
(:func:`mz_probabilities_complex`) that ``_mz_probabilities`` skips where
beta*sin(phi) is zero, the freshly keyed Philox
generator per run (:func:`philox_counts`) that ``experiment.run``'s reused,
rekeyed one must match count for count, drawn from the run probabilities with
the sequential kind's from the generic state route (:func:`run_probabilities`,
the route ``interferometer._mz_sequential`` must match bit for bit), and the
checked numpy constructions
of a projector and of an observable's M (:func:`projector_checked`,
:func:`observable_operator_checked`) and the sign-table K formula
(:func:`k_from_moments_table`) that the unchecked flat-entry routes and the
written-out ``k_from_moments`` must match bit for bit, and the exact rational
MZ table at phi = 0 (:func:`exact_mz_q`, with :func:`ulps` to read a float's
distance from it), which needs only the standard library and so never skips;
the exact comparison of a float with p / sqrt(S) for an exact ``Fraction`` S
(:func:`root_ratio_within`), against which a state's norm and stored parts
are read to the ulp; and the numpy parse of a state input followed by
``StateVector`` of the parsed pair (:func:`numpy_parse`,
:func:`normalized_state`), which ``StateVector`` must match bit for bit and
message for message.

Interferometer convention (fixed once, verified in tests): the physical
elements are modeled as an effective preparation phase ``diag(1, i)`` on path
psi2, an optional phase shifter ``diag(1, e^{i phi})`` on path psi2, the
symmetric 50:50 splitter ``U_BS = [[1, i], [i, 1]]/sqrt(2)``, and a fixed output
relabeling sending the psi1 axis to port psi4 and the psi2 axis to port psi3.
Only port probabilities are observable: :func:`propagate_unitary` agrees with
``detection_probabilities`` and with the folded ``input_state`` on them to 1e-12.
"""

import math
import sys
from fractions import Fraction

import numpy as np

from lglab import (
    DichotomicObservable,
    MZConfig,
    Operator,
    QuasiprobTable,
    RunSpec,
    StateVector,
    TwoTimeLGReport,
    detection_probabilities,
    input_state,
    k_from_moments,
    mz_basis,
    outcome_probabilities,
    output_observable,
    path_observable,
    projector_onto,
    sequential_correlation,
    sequential_joint,
)
from lglab.interferometer import _pre_amps
from lglab.lgi import _K_SIGNS
from lglab.qcore import INPUT_TOL, STRUCT_TOL
from lglab.weakval import OVERLAP_TOL

_SQRT2 = np.sqrt(2.0)
OUTCOMES = (+1, -1)


def close(a, b, tol: float = STRUCT_TOL) -> bool:
    """Every entry of the arrays a - b within ``tol`` in modulus: ``allclose`` with ``rtol=0``."""
    return bool(np.all(np.abs(a - b) <= tol))


def unitary(entries) -> np.ndarray:
    """``entries`` as a read-only complex matrix, checked to satisfy U^dagger U = I to STRUCT_TOL."""
    u = np.array(entries, dtype=complex)
    if not close(u.conj().T @ u, np.eye(len(u))):
        raise ValueError("matrix is not unitary: U^dagger U != I")
    u.setflags(write=False)
    return u


def expectation(M: Operator, s: StateVector) -> float:
    """<s|M|s> for an operator M, Hermitian by type; the (vanishing) imaginary
    part is asserted away.

    Oracle of the moments that :func:`two_time_lg` and the Born rule read.
    """
    val = complex(np.vdot(s.amps, M.entries @ s.amps))
    if abs(val.imag) >= STRUCT_TOL:
        raise AssertionError(f"Hermitian expectation has imaginary part {val.imag}")
    return val.real


def mz_kernel_numpy(alpha: float, beta: float, phi: float) -> tuple[float, ...]:
    """(p3, p4, K31..K34) as numpy scalars form them: the reference of the
    ``interferometer`` kernels ``_mz_probabilities`` (p) and ``_mz_k`` (K).

    The port amplitude is ``alpha +- np.exp(1j phi) beta``, a numpy complex;
    its modulus is numpy's complex ``abs``, squared with ``** 2`` and clipped
    at 1. The K products are those of the closed forms in ``lglab.lgi``.
    """
    eb = np.exp(1.0j * phi) * beta
    c = math.cos(phi)
    return (
        min(float(abs(alpha + eb) ** 2 / 2.0), 1.0),
        min(float(abs(alpha - eb) ** 2 / 2.0), 1.0),
        2.0 * beta * (beta - alpha * c),
        2.0 * alpha * (alpha - beta * c),
        2.0 * beta * (beta + alpha * c),
        2.0 * alpha * (alpha + beta * c),
    )


def mz_probabilities_complex(alpha: float, beta: float, c: float, s: float) -> tuple[float, float]:
    """(p3, p4) as ``min(abs(complex(alpha +- beta c, beta s)) ** 2 / 2, 1)`` on
    every input: the expression ``interferometer._mz_probabilities`` evaluated
    before it squared the real amplitude directly where beta*s is zero."""
    bc, bs = beta * c, beta * s
    return (
        min(abs(complex(alpha + bc, bs)) ** 2 / 2.0, 1.0),
        min(abs(complex(alpha - bc, bs)) ** 2 / 2.0, 1.0),
    )


def run_probabilities(cfg: MZConfig, kind: str) -> dict[str, float]:
    """``outcome_probabilities(cfg, kind)``, but the sequential kind's from the
    generic state route, ``sequential_joint`` on ``input_state(cfg)``: the
    route that ``interferometer._mz_sequential`` must match bit for bit."""
    if kind != "sequential":
        return outcome_probabilities(cfg, kind)
    joint = sequential_joint(input_state(cfg), path_observable(), output_observable())
    return {f"m2={m2:+d},m3={m3:+d}": p for (m2, m3), p in joint.items()}


def philox_counts(spec: RunSpec) -> dict[str, int]:
    """The counts of ``run(spec)`` from a new ``Generator(Philox(key=seed))``,
    drawn from :func:`run_probabilities`.

    ``experiment.run`` keeps one generator per thread and resets it to
    (seed, counter 0) instead, and reads the sequential kind's closed form;
    its counts must be these, draw for draw.
    """
    probs = run_probabilities(spec.cfg, spec.kind)
    pvec = sampling_vector_numpy(probs)
    counts = np.random.Generator(np.random.Philox(key=int(spec.seed))).multinomial(spec.shots, pvec)
    return dict(zip(probs, counts.tolist()))


def sampling_vector_numpy(probs: dict[str, float]) -> np.ndarray:
    """The run's normalised probability vector as numpy forms it, ``pvec /
    pvec.sum()``: the expression ``experiment._sampling_vectors`` replaced with a
    Python sum and division that must give its bits."""
    pvec = np.array(list(probs.values()))
    return pvec / pvec.sum()


def projector_checked(s: StateVector) -> Operator:
    """|s><s| through the checked constructor, from the entries array of the
    unchecked projector: what ``projector_onto`` built before it skipped the
    second check."""
    return Operator(projector_onto(s).entries)


def observable_operator_checked(plus_proj: Operator, minus_proj: Operator) -> Operator:
    """M = P_plus - P_minus as a numpy difference through the checked
    constructor: what ``DichotomicObservable`` built before it formed M on the
    flat entries."""
    return Operator(plus_proj.entries - minus_proj.entries)


def k_from_moments_table(e2: float, e3: float, e23: float) -> dict[int, float]:
    """K31..K34 as 1 + s2 e2 + s2 s3 e23 + s3 e3 over the sign table: the
    comprehension that ``k_from_moments`` wrote out."""
    return {idx: 1.0 + s2 * e2 + s2 * s3 * e23 + s3 * e3 for idx, (s2, s3) in _K_SIGNS.items()}


def born_probability(P: Operator, s: StateVector) -> float:
    """<s|P|s> for a projector P, clipped to [0, 1] within STRUCT_TOL.

    Oracle of ``detection_probabilities`` and of the quasiprobability marginals.
    """
    p = expectation(P, s)  # P is Hermitian by type, so only P^2 = P is left
    if not close(P.entries @ P.entries, P.entries):
        raise ValueError("born_probability requires a projector")
    if p < -STRUCT_TOL or p > 1.0 + STRUCT_TOL:
        raise AssertionError(f"Born probability {p} outside [0, 1]")
    return float(min(max(p, 0.0), 1.0))


def dichotomic_from_hermitian(M: Operator) -> DichotomicObservable:
    """Build a DichotomicObservable from M (Hermitian by type) with M^2 = I via P_pm = (I pm M)/2."""
    m = M.entries
    eye = np.eye(2)
    if not close(m @ m, eye):
        raise ValueError("observable must satisfy M^2 = I (eigenvalues +-1)")
    plus = Operator((eye + m) / 2.0)
    minus = Operator((eye - m) / 2.0)
    return DichotomicObservable(plus, minus)


def check_projector_pair(plus_proj: Operator, minus_proj: Operator) -> None:
    """The five checks that ``DichotomicObservable`` made before it kept two:
    P^2 = P for each projector, P_plus P_minus = 0, P_plus + P_minus = I and
    M^2 = I, in that order, each a ValueError at ``STRUCT_TOL``.

    Oracle of the two checks left, which imply the other three.
    """
    pp, pm = plus_proj.entries, minus_proj.entries
    for name, p in (("plus", pp), ("minus", pm)):
        if not close(p @ p, p):
            raise ValueError(f"{name} projector fails P^2 = P")
    if not close(pp @ pm, 0.0):
        raise ValueError("projectors are not mutually orthogonal")
    eye = np.eye(2)
    if not close(pp + pm, eye):
        raise ValueError("projectors do not sum to the identity")
    m = pp - pm
    if not close(m @ m, eye):
        raise ValueError("reconstructed observable does not satisfy M^2 = I")


def density_matrix(state) -> np.ndarray:
    """rho of a StateVector, or a density matrix checked with numpy: finite,
    Hermitian, of unit trace and with its smallest eigenvalue (``eigvalsh``)
    at least -INPUT_TOL.

    Oracle of the entry checks of ``quasiprob._as_density``.
    """
    if isinstance(state, StateVector):
        return projector_onto(state).entries
    rho = np.asarray(state, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"density matrix must be 2x2, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix entries must be finite")
    if not close(rho, rho.conj().T, INPUT_TOL):
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > INPUT_TOL:
        raise ValueError("density matrix must have unit trace")
    if np.linalg.eigvalsh(rho)[0] < -INPUT_TOL:
        raise ValueError("density matrix must be positive semidefinite")
    return rho


def quasi_matrix(rho_state, Mi: DichotomicObservable, Mj: DichotomicObservable) -> QuasiprobTable:
    """q(mi, mj) = 1/2 Tr[(P_mj P_mi + P_mi P_mj) rho] as numpy matrix products,
    with the marginal-vs-Born residuals Tr(P rho).

    Oracle of ``quasi``, which reads the same table off three moments.
    """
    rho = density_matrix(rho_state)
    q = {}
    for mi in OUTCOMES:
        pi = Mi.projector(mi).entries
        for mj in OUTCOMES:
            pj = Mj.projector(mj).entries
            q[(mi, mj)] = float((0.5 * np.trace((pj @ pi + pi @ pj) @ rho)).real)
    res_i = max(
        abs(sum(q[(mi, mj)] for mj in OUTCOMES) - np.trace(Mi.projector(mi).entries @ rho).real)
        for mi in OUTCOMES
    )
    res_j = max(
        abs(sum(q[(mi, mj)] for mi in OUTCOMES) - np.trace(Mj.projector(mj).entries @ rho).real)
        for mj in OUTCOMES
    )
    return QuasiprobTable(q, (float(res_i), float(res_j)))


def sequential_joint_numpy(
    state: StateVector, Mi: DichotomicObservable, Mj: DichotomicObservable
) -> dict[tuple[int, int], float]:
    """p(mi, mj) = || P_mj P_mi |state> ||^2 with numpy matrix-vector products and ``np.vdot``.

    Oracle of ``sequential_joint``, which matches it bit for bit on interferometer inputs.
    """
    joint = {}
    for mi in OUTCOMES:
        first = Mi.projector(mi).entries @ state.amps
        for mj in OUTCOMES:
            second = Mj.projector(mj).entries @ first
            joint[(mi, mj)] = float(np.vdot(second, second).real)
    return joint


def mz_pre_amps(cfg: MZConfig) -> tuple[complex, complex]:
    """The amplitudes of ``input_state(cfg)`` as ``v / np.linalg.norm(v)``
    forms them, the BLAS norm that the MZ weak-value kernel keeps."""
    v = np.array(_pre_amps(cfg))
    return tuple((v / np.linalg.norm(v)).tolist())


def mz_weak_values_state(cfg: MZConfig) -> tuple:
    """(w3, w4) as (value, postselect_prob) pairs, None where |overlap|^2 is at
    most ``OVERLAP_TOL``, through the pre-selected amplitudes of :func:`mz_pre_amps`.

    Oracle of ``mz_weak_values``, which normalises the same amplitudes by
    per-row dots: those amplitudes against each port as one (1, 2) @ (2, 1)
    ``np.matmul``, then d4 / d3 and d3 / d4 with p(f) = |overlap|^2 clipped
    at 1.
    """
    pre, basis = np.array(mz_pre_amps(cfg)).conj()[None, :], mz_basis()
    d3, d4 = (complex(np.matmul(pre, port.amps[:, None])[0, 0]) for port in (basis.psi3, basis.psi4))
    return tuple(
        (numer / overlap, prob) if (prob := min(abs(overlap) ** 2, 1.0)) > OVERLAP_TOL else None
        for numer, overlap in ((d4, d3), (d3, d4))
    )


def exact_mz_q(alpha: float, beta: float) -> dict[tuple[int, int], Fraction]:
    """q(m2, m3) = K/4 at phi = 0, exactly, for the float inputs alpha and beta:
    K31 = 2 beta (beta - alpha), K32 = 2 alpha (alpha - beta), K33 = 2 beta
    (beta + alpha) and K34 = 2 alpha (alpha + beta), keyed by ``_K_SIGNS``."""
    a, b = Fraction(alpha), Fraction(beta)
    ks = {31: 2 * b * (b - a), 32: 2 * a * (a - b), 33: 2 * b * (b + a), 34: 2 * a * (a + b)}
    return {_K_SIGNS[i]: k / 4 for i, k in ks.items()}


def ulps(x: float, exact: Fraction) -> float:
    """|x - exact| in units of the spacing of the doubles at |exact|: the ulp of
    the largest double not above |exact| (``math.ulp(0.0)`` at zero)."""
    low = float(abs(exact))
    if Fraction(low) > abs(exact):
        low = math.nextafter(low, 0.0)
    return float(abs(Fraction(x) - exact) / Fraction(math.ulp(low)))


def root_ratio_within(x: float, p: float, sq: Fraction, n: int) -> bool:
    """Whether x lies within ``n`` ulp of p / sqrt(sq), for sq > 0, decided
    exactly by comparing squares. The ulp is that of the double just below
    |x| (``math.ulp(0.0)`` at zero), never larger than the ulp at the exact
    value when x is within a few ulp of it. An infinite x stands for every
    value past 2^1024, the overflow threshold, so it is within n ulp of
    everything beyond 2^1024 - n ulp(max) of its sign."""
    p = Fraction(p)

    def sign_from(c: Fraction) -> int:
        # the sign of p / sqrt(sq) - c: p's sign if c has the other one,
        # else the sign of p^2 - c^2 sq, turned for a negative p
        if (p >= 0) != (c >= 0):
            return 1 if p > c else -1
        d = p * p - c * c * sq
        return ((d > 0) - (d < 0)) * (1 if p >= 0 else -1)

    edge = 2**1024 - n * Fraction(math.ulp(sys.float_info.max))
    if x == math.inf:
        return sign_from(edge) >= 0
    if x == -math.inf:
        return sign_from(-edge) <= 0
    u = Fraction(math.ulp(math.nextafter(abs(x), 0.0)))
    return sign_from(Fraction(x) - n * u) >= 0 and sign_from(Fraction(x) + n * u) <= 0


def numpy_parse(data, shape: tuple, rule: str) -> tuple:
    """The flat parts of ``data`` as ``np.asarray(data, dtype=complex)``
    reads them, and a ValueError naming any other shape: the parse that
    ``StateVector`` ran through numpy on every input."""
    a = np.asarray(data, dtype=complex)
    if a.shape != shape:
        raise ValueError(f"{rule}, got shape {a.shape}")
    return tuple(a.ravel().tolist())


def normalized_state(amps, normalize: bool) -> StateVector:
    """``StateVector`` of the pair that the numpy parse reads from ``amps``
    (:func:`numpy_parse`), with the ValueError naming any other shape: the
    bits and messages of a state whose input numpy parses, as every input
    once was."""
    return StateVector(numpy_parse(amps, (2,), "state must be a two-amplitude one-dimensional vector"),
                       normalize=normalize)


def projective_gap(cfg: MZConfig) -> float:
    """|p_seq(psi3) - p(psi3)| with p_seq from the two-step Lueders joint of
    the path then the output observable on ``input_state(cfg)``.

    Oracle of ``signaling_gap_projective``, which is the closed form |alpha*beta*cos(phi)|.
    """
    joint = sequential_joint(input_state(cfg), path_observable(), output_observable())
    # psi3 is the m3 = -1 outcome
    p_seq = sum(joint[(m, -1)] for m in OUTCOMES)
    p3, _ = detection_probabilities(cfg)
    return abs(p_seq - p3)


def bs_unitary() -> np.ndarray:
    """Symmetric 50:50 beam splitter [[1, i], [i, 1]]/sqrt(2) in the path basis."""
    return unitary(np.array([[1.0, 1.0j], [1.0j, 1.0]]) / _SQRT2)


def phase_unitary(phi: float) -> np.ndarray:
    """Phase e^{i phi} on path psi2 only."""
    return unitary(np.diag([1.0, np.exp(1.0j * phi)]))


def _bs1_effective() -> np.ndarray:
    # preparation phase i on path psi2: turns the pre-selected state into the
    # post-first-splitter amplitudes (alpha, i beta)
    return unitary(np.diag([1.0, 1.0j]))


def _output_relabel() -> np.ndarray:
    # psi1 axis -> port psi4, psi2 axis -> port psi3
    b = mz_basis()
    return unitary(np.column_stack([b.psi4.amps, b.psi3.amps]))


def propagate_unitary(cfg: MZConfig) -> StateVector:
    """Oracle of ``detection_probabilities`` and the phase fold: the element unitaries on raw (alpha, beta)."""
    u = (
        _output_relabel()
        @ bs_unitary()
        @ phase_unitary(cfg.phi)
        @ _bs1_effective()
    )
    return StateVector(u @ np.array([cfg.alpha, cfg.beta]))


def precession_observables(theta: float) -> tuple[DichotomicObservable, ...]:
    """Equal-angle qubit precession observables M_k at angles 0, theta, 2*theta.

    M_k = cos(k*theta) sigma_z + sin(k*theta) sigma_x: rotation about an axis
    orthogonal to the measured observable with equal angles between the three
    measurement times.
    """
    obs = []
    for k in range(3):
        ang = k * theta
        m = np.array(
            [[np.cos(ang), np.sin(ang)], [np.sin(ang), -np.cos(ang)]], dtype=complex
        )
        obs.append(dichotomic_from_hermitian(Operator(m)))
    return tuple(obs)


def k3(
    state: StateVector,
    m1: DichotomicObservable,
    m2: DichotomicObservable,
    m3: DichotomicObservable,
) -> float:
    """Three-time LG expression from sequential correlators; macrorealist bound K3 <= 0.

    Oracle of ``precession_k3`` on :func:`precession_observables`.
    """
    c12 = sequential_correlation(state, m1, m2)
    c23 = sequential_correlation(state, m2, m3)
    c13 = sequential_correlation(state, m1, m3)
    return c12 + c23 - c13 - 1.0


def two_time_lg(
    pre_state: StateVector, M2: DichotomicObservable, M3: DichotomicObservable
) -> TwoTimeLGReport:
    """The matrix K route: K31..K34 for a system prepared in ``pre_state``.

    Each K is computed along two routes and cross-asserted to 1e-12: the
    direct expectation/correlator form, and the weak-value form
    2 p(f) [1 -+ Re (M2)_w^f] evaluated through the always-finite products
    p(f) = <i|P_f|i> and <i|M2 P_f|i> so that zero-probability branches work.
    Oracle of ``mz_lg_closed_form`` and of ``lg_from_quasi``.
    """
    m2op = M2.operator()
    ks = k_from_moments(
        expectation(m2op, pre_state),
        expectation(M3.operator(), pre_state),
        sequential_correlation(pre_state, M2, M3),
    )
    amps = pre_state.amps
    for idx, (s2, s3) in _K_SIGNS.items():
        # weak-value route: post-select on the M3 outcome carrying sign s3
        proj = M3.projector(+1 if s3 > 0 else -1).entries
        p_f = float(np.vdot(amps, proj @ amps).real)
        t_f = complex(np.vdot(amps, m2op.entries @ proj @ amps))
        weak_form = 2.0 * (p_f + s2 * t_f.real)
        if abs(ks[idx] - weak_form) >= STRUCT_TOL:
            raise AssertionError(
                f"K{idx} routes disagree: direct {ks[idx]} vs weak-value {weak_form}"
            )
    return TwoTimeLGReport.from_values(*ks.values())


def mz_two_time_lg(cfg: MZConfig) -> TwoTimeLGReport:
    """:func:`two_time_lg` on the interferometer: oracle of ``mz_lg_closed_form`` at any phase."""
    return two_time_lg(input_state(cfg), path_observable(), output_observable())
