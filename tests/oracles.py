"""Independent reference routes that the tests compare the runtime closed forms against.

None of these is called by ``lglab`` itself; each is a slower, element-by-element
computation of a quantity the package gets from a closed form or a faster route:
the unitary propagation, the expectation <s|M|s> and the Born rule on a
projector, the projector pair of a Hermitian M with M^2 = I, the precession
observables with their K3, the matrix K route (:func:`two_time_lg`,
:func:`mz_two_time_lg`), and the numpy expressions of the MZ closed forms
(:func:`mz_kernel_numpy`) that ``interferometer._mz_kernel`` must match bit for bit.

Interferometer convention (fixed once, verified in tests): the physical
elements are modeled as an effective preparation phase ``diag(1, i)`` on path
psi2, an optional phase shifter ``diag(1, e^{i phi})`` on path psi2, the
symmetric 50:50 splitter ``U_BS = [[1, i], [i, 1]]/sqrt(2)``, and a fixed output
relabeling sending the psi1 axis to port psi4 and the psi2 axis to port psi3.
Only port probabilities are observable: :func:`propagate_unitary` agrees with
``detection_probabilities`` and with the folded ``input_state`` on them to 1e-12.
"""

import math

import numpy as np

from lglab import (
    DichotomicObservable,
    MZConfig,
    Operator,
    StateVector,
    TwoTimeLGReport,
    input_state,
    k_from_moments,
    mz_basis,
    output_observable,
    path_observable,
    sequential_correlation,
)
from lglab.lgi import _K_SIGNS
from lglab.qcore import STRUCT_TOL, _check_dims, _close

_SQRT2 = np.sqrt(2.0)


def unitary(entries) -> Operator:
    """A plain operator from ``entries``, checked to satisfy U^dagger U = I to STRUCT_TOL."""
    u = Operator(entries)
    if not _close(u.entries.conj().T @ u.entries, np.eye(u.dim)):
        raise ValueError("matrix is not unitary: U^dagger U != I")
    return u


def expectation(M: Operator, s: StateVector) -> float:
    """<s|M|s> for Hermitian M; the (vanishing) imaginary part is asserted away.

    Oracle of the moments that :func:`two_time_lg` and the Born rule read.
    """
    if not M.is_hermitian():
        raise ValueError("expectation requires a Hermitian operator")
    _check_dims(M.dim, s.dim)
    val = complex(np.vdot(s.amps, M.entries @ s.amps))
    if abs(val.imag) >= STRUCT_TOL:
        raise AssertionError(f"Hermitian expectation has imaginary part {val.imag}")
    return val.real


def mz_kernel_numpy(alpha: float, beta: float, phi: float) -> tuple[float, ...]:
    """(p3, p4, K31..K34) as numpy scalars form them: the reference of ``_mz_kernel``.

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


def born_probability(P: Operator, s: StateVector) -> float:
    """<s|P|s> for a projector P, clipped to [0, 1] within STRUCT_TOL.

    Oracle of ``detection_probabilities`` and of the quasiprobability marginals.
    """
    p = expectation(P, s)  # tests M = M^dagger, so only P^2 = P is left
    if not _close(P.entries @ P.entries, P.entries):
        raise ValueError("born_probability requires a projector")
    if p < -STRUCT_TOL or p > 1.0 + STRUCT_TOL:
        raise AssertionError(f"Born probability {p} outside [0, 1]")
    return float(min(max(p, 0.0), 1.0))


def dichotomic_from_hermitian(M: Operator) -> DichotomicObservable:
    """Build a DichotomicObservable from Hermitian M with M^2 = I via P_pm = (I pm M)/2."""
    if not M.is_hermitian():
        raise ValueError("observable must be Hermitian")
    m = M.entries
    eye = np.eye(M.dim)
    if not _close(m @ m, eye):
        raise ValueError("observable must satisfy M^2 = I (eigenvalues +-1)")
    plus = Operator((eye + m) / 2.0, kind="hermitian")
    minus = Operator((eye - m) / 2.0, kind="hermitian")
    return DichotomicObservable(plus, minus)


def bs_unitary() -> Operator:
    """Symmetric 50:50 beam splitter [[1, i], [i, 1]]/sqrt(2) in the path basis."""
    return unitary(np.array([[1.0, 1.0j], [1.0j, 1.0]]) / _SQRT2)


def phase_unitary(phi: float) -> Operator:
    """Phase e^{i phi} on path psi2 only."""
    return unitary(np.diag([1.0, np.exp(1.0j * phi)]))


def _bs1_effective() -> Operator:
    # preparation phase i on path psi2: turns the pre-selected state into the
    # post-first-splitter amplitudes (alpha, i beta)
    return unitary(np.diag([1.0, 1.0j]))


def _output_relabel() -> Operator:
    # psi1 axis -> port psi4, psi2 axis -> port psi3
    b = mz_basis()
    return unitary(np.column_stack([b.psi4.amps, b.psi3.amps]))


def propagate_unitary(cfg: MZConfig) -> StateVector:
    """Oracle of ``detection_probabilities`` and the phase fold: the element unitaries on raw (alpha, beta)."""
    u = (
        _output_relabel().entries
        @ bs_unitary().entries
        @ phase_unitary(cfg.phi).entries
        @ _bs1_effective().entries
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
        obs.append(dichotomic_from_hermitian(Operator(m, kind="hermitian")))
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
