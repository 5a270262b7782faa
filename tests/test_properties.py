"""Property tests for the one K/q primitive, the fixed interferometer objects,
the unitary propagation oracle, the once-validated observables, the one
closeness test, the closed-form precession K3, the one interferometer model
(the phase shifter folded into the pre-selected state) and the precomputed
port vectors of the interferometer weak values over the whole (beta, phi)
domain, including configurations within rounding of saturation, the one
violation rule down to K at its tolerance, the scalar MZ kernel against the
numpy expressions it replaced, its zero-phase branch against the complex
modulus it skips, the sequential closed form against the generic state route
of the joint, the beta sweep against the per-point
routes, and the interferometer quasiprobability table against K/4 of the
closed form, all bit for bit. The qubit core against its matrix oracles: the
moment-expansion quasiprobability against the projector-product trace on pure
states, density matrices and the interferometer, the determinant rule of a
positive semidefinite density matrix against eigvalsh, and the two projector
checks against the five they replaced. The unchecked flat-entry projector and
observable operator, and the written-out K formula, against the checked and
tabulated constructions they replaced, bit for bit. The Monte Carlo
estimators against their child runs replayed through ``run``, bit for bit.

Hypothesis runs derandomized with a bounded example count, so every run of
the suite checks the same inputs.
"""

import math
import struct
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lglab import (
    CorrelationTriple,
    DichotomicObservable,
    MZConfig,
    Operator,
    OrthogonalPostSelection,
    RunSpec,
    StateVector,
    SweepRow,
    detection_probabilities,
    empirical_lg,
    empirical_nsit,
    feasibility_oracle,
    input_state,
    k_from_moments,
    lg_from_quasi,
    macrorealist_feasible,
    mz_basis,
    mz_lg_closed_form,
    mz_quasi,
    mz_weak_values,
    nsit_check,
    output_observable,
    path_observable,
    precession_k3,
    projector_onto,
    quasi,
    run,
    sequential_joint,
    sweep_beta,
    weak_value,
)
from lglab.experiment import SEQ_OUTCOMES
from lglab.interferometer import _mz_k, _mz_probabilities, _mz_sequential, _pre_amps
from lglab.lgi import _K_SIGNS
from lglab.qcore import INPUT_TOL, STRUCT_TOL, VIOLATION_TOL, _close, _from_flat
from lglab.quasiprob import _as_density
from lglab.weakval import _mz_weak_value_columns

from conftest import outcome
from oracles import (
    check_projector_pair,
    density_matrix,
    k3,
    k_from_moments_table,
    mz_kernel_numpy,
    mz_pre_amps,
    mz_probabilities_complex,
    mz_two_time_lg,
    mz_weak_values_state,
    observable_operator_checked,
    precession_observables,
    projector_checked,
    propagate_unitary,
    quasi_matrix,
    root_ratio_within,
    two_time_lg,
)

PROPS = settings(derandomize=True, max_examples=300, deadline=None, database=None)

# 4 * (K / 4) == K unless K is subnormal, so subnormal moments are left out
moment = st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False)
angle = st.floats(min_value=0.0, max_value=2 * np.pi)
EXCEPTIONAL = (-1.0, -1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 1.0)
# the whole beta range, with the dark ports and both single-path ends always in play
beta_st = st.one_of(st.sampled_from(EXCEPTIONAL), st.floats(min_value=-1.0, max_value=1.0))
# beta = x +- 10^u next to an exceptional point x, u in [-17, -6], where the
# smallest K crosses the violation tolerance
beta_off_exceptional = st.builds(
    lambda x, sign, u: float(x + sign * 10.0**u),
    st.sampled_from(EXCEPTIONAL),
    st.sampled_from([1.0, -1.0]),
    st.floats(min_value=-17.0, max_value=-6.0),
).filter(lambda b: abs(b) <= 1.0)
# no fringe, full fringe either way, or any phase
phi_st = st.one_of(
    st.sampled_from([0.0, np.pi / 2, -np.pi / 2, np.pi]),
    st.floats(min_value=-1e6, max_value=1e6),
)
# alpha on the unit circle, or off it by nearly the INPUT_TOL MZConfig allows
stretch_st = st.sampled_from([0.0, 4e-10, -4e-10])


# an entry of b - a: zero, exactly at either tolerance, just past one, anywhere
# small, or NaN
offset = st.one_of(
    st.sampled_from([0.0, STRUCT_TOL, -STRUCT_TOL, 1j * INPUT_TOL, 2 * STRUCT_TOL, np.nan]),
    st.floats(min_value=-1e-8, max_value=1e-8),
)
entry = st.floats(min_value=-2.0, max_value=2.0)


def qubit_state(theta: float, phase: float) -> StateVector:
    return StateVector([np.cos(theta / 2), np.exp(1j * phase) * np.sin(theta / 2)])


def dichotomic(theta: float, phase: float) -> DichotomicObservable:
    """+1 projector onto the Bloch direction (theta, phase), -1 onto its antipode."""
    up = qubit_state(theta, phase)
    down = StateVector([-up.amps[1].conjugate(), up.amps[0].conjugate()])
    return DichotomicObservable(projector_onto(up), projector_onto(down))


@PROPS
@given(moment, moment, moment)
def test_k_is_four_times_mr_reading(e2, e3, e23):
    """K = 4q on the macrorealist reading (the moment-matching table) of any triple."""
    ks = k_from_moments(e2, e3, e23)
    table = macrorealist_feasible(CorrelationTriple(e2, e3, e23))
    for idx, (s2, s3) in _K_SIGNS.items():
        assert ks[idx] == 4.0 * table.entry(s2, s3)


@PROPS
@given(moment, moment, moment)
def test_feasibility_routes_agree(e2, e3, e23):
    t = CorrelationTriple(e2, e3, e23)
    direct, oracle = macrorealist_feasible(t), feasibility_oracle(t)
    assert direct.feasible == oracle.feasible
    assert direct.margin == pytest.approx(oracle.margin, abs=1e-12)


@PROPS
@given(*(angle,) * 6)
def test_two_time_lg_equals_quasi_route(t0, p0, t2, p2, t3, p3):
    state, m2, m3 = qubit_state(t0, p0), dichotomic(t2, p2), dichotomic(t3, p3)
    direct = two_time_lg(state, m2, m3).values()
    via_quasi = lg_from_quasi(quasi(state, m2, m3)).values()
    for idx in direct:
        assert direct[idx] == pytest.approx(via_quasi[idx], abs=1e-12)


@settings(PROPS, max_examples=50)
@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_empirical_lg_reads_k_from_moments(beta, shots, seed):
    est = empirical_lg(MZConfig(beta=beta), shots, seed)
    assert est.report.values() == k_from_moments(est.m2_est, est.m3_est, est.corr_est)


# one shot to 10^6, the smallest counts always in play, and one numpy integer
replay_shots = st.one_of(st.sampled_from([1, 2, 3, 10**6, np.int64(1000)]),
                         st.integers(min_value=1, max_value=10**6))


@PROPS
@given(beta_st, phi_st, replay_shots, st.integers(min_value=0, max_value=2**64 - 1))
def test_estimators_are_their_replayed_runs_bit_for_bit(beta, phi, shots, seed):
    """``empirical_lg``'s moments and ``empirical_nsit``'s gap and error, rebuilt
    from public ``run`` calls at the ``run_seeds`` entries of the master seed:
    each kind at its own seed for the LG moments; for the gap, the interference
    run and the sequential run at the seed labelled ``path``."""
    cfg = MZConfig(beta=beta, phi=phi)
    lg = empirical_lg(cfg, shots, seed)
    seeds = lg.run_seeds

    def counts(kind, child):
        return run(RunSpec(cfg, shots, child, kind)).counts

    n = int(shots)
    inter, path, seq = (counts(kind, seeds[kind]) for kind in ("interference", "path", "sequential"))
    corr = 0.0
    for m2, m3 in SEQ_OUTCOMES:
        corr += m2 * m3 * (seq[f"m2={m2:+d},m3={m3:+d}"] / n)
    want = (path["psi1"] / n - path["psi2"] / n, inter["psi4"] / n - inter["psi3"] / n, corr)
    assert bits((lg.m2_est, lg.m3_est, lg.corr_est)) == bits(want)

    seq = counts("sequential", seeds["path"])
    p3_int = inter["psi3"] / n
    p3_seq = seq["m2=+1,m3=-1"] / n + seq["m2=-1,m3=-1"] / n
    se = math.sqrt(p3_int * (1.0 - p3_int) / n + p3_seq * (1.0 - p3_seq) / n)
    assert bits(empirical_nsit(cfg, shots, seed)) == bits((p3_int - p3_seq, se))


def test_fixed_objects_built_once_and_immutable():
    for make in (path_observable, output_observable, mz_basis):
        assert make() is make()
    with pytest.raises(AttributeError):
        mz_basis().psi1 = mz_basis().psi2
    with pytest.raises(AttributeError):
        path_observable().plus_proj = output_observable().plus_proj
    for arr in (mz_basis().psi3.amps, path_observable().plus_proj.entries):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@PROPS
@given(beta_st, st.floats(allow_nan=False, allow_infinity=False), st.booleans())
def test_both_propagation_routes_give_detection_probabilities(beta, phi, negative_alpha):
    alpha = float(np.sqrt(1.0 - beta**2)) * (-1.0 if negative_alpha else 1.0)
    cfg = MZConfig(beta=beta, alpha=alpha, phi=phi)
    b = mz_basis()
    p3, p4 = detection_probabilities(cfg)
    out = propagate_unitary(cfg)
    assert abs(np.vdot(b.psi3.amps, out.amps)) ** 2 == pytest.approx(p3, abs=1e-12)
    assert abs(np.vdot(b.psi4.amps, out.amps)) ** 2 == pytest.approx(p4, abs=1e-12)


@PROPS
@given(angle, angle)
def test_observable_carries_one_operator(theta, phase):
    obs = dichotomic(theta, phase)
    assert obs.operator() is obs.operator()
    assert np.array_equal(obs.operator().entries, obs.plus_proj.entries - obs.minus_proj.entries)


@PROPS
@given(*(angle,) * 6)
def test_nsit_check_matches_quasi_residual(t0, p0, ti, pi, tj, pj):
    state, mi, mj = qubit_state(t0, p0), dichotomic(ti, pi), dichotomic(tj, pj)
    assert nsit_check(state, mi, mj) == quasi(state, mi, mj).nsit_residuals


@PROPS
@given(
    st.lists(entry, min_size=8, max_size=8),
    st.lists(offset, min_size=4, max_size=4),
    st.sampled_from([STRUCT_TOL, INPUT_TOL]),
    st.booleans(),
)
def test_close_is_allclose_without_rtol(parts, offsets, tol, from_zero):
    a = np.zeros((2, 2), complex)
    if not from_zero:  # from zero, b - a is the offset exactly
        a = (np.array(parts[:4]) + 1j * np.array(parts[4:])).reshape(2, 2)
    b = a + np.array(offsets).reshape(2, 2)
    # _close reads flat entries, as every 2x2 check passes them
    flat_a, flat_b = a.ravel().tolist(), b.ravel().tolist()
    assert _close(flat_a, flat_b, tol) == np.allclose(a, b, atol=tol, rtol=0)
    assert _close(flat_b, flat_a, tol) == np.allclose(b, a, atol=tol, rtol=0)


@PROPS
@given(st.floats(min_value=-4 * np.pi, max_value=4 * np.pi))
def test_precession_k3_closed_form_matches_matrix_route(theta):
    oracle = k3(StateVector([1.0, 0.0]), *precession_observables(theta))
    assert precession_k3(theta) == pytest.approx(oracle, abs=1e-12)


def mz_config(beta, phi, negative_alpha, stretch=0.0) -> MZConfig:
    alpha = float(np.sqrt(1.0 - beta**2)) * (-1.0 if negative_alpha else 1.0) * (1.0 + stretch)
    return MZConfig(beta=beta, alpha=alpha, phi=phi)


def k_routes(cfg):
    """The closed form, the two-time matrix route and the quasiprobability route."""
    quasi_route = lg_from_quasi(quasi(input_state(cfg), path_observable(), output_observable()))
    return mz_lg_closed_form(cfg), mz_two_time_lg(cfg), quasi_route


@PROPS
@given(beta_st, phi_st, st.booleans(), stretch_st)
def test_k_routes_agree_at_every_phase(beta, phi, negative_alpha, stretch):
    closed, *others = k_routes(mz_config(beta, phi, negative_alpha, stretch))
    for other in others:
        for idx, value in other.values().items():
            assert closed.values()[idx] == pytest.approx(value, abs=1e-12)


@PROPS
@given(beta_st, phi_st, st.booleans(), stretch_st)
def test_folded_state_gives_port_probabilities(beta, phi, negative_alpha, stretch):
    cfg = mz_config(beta, phi, negative_alpha, stretch)
    b, pre, out = mz_basis(), input_state(cfg).amps, propagate_unitary(cfg).amps
    for port, p in zip((b.psi3, b.psi4), detection_probabilities(cfg)):
        assert abs(np.vdot(port.amps, pre)) ** 2 == pytest.approx(p, abs=1e-12)
        assert abs(np.vdot(port.amps, out)) ** 2 == pytest.approx(p, abs=1e-12)


# the lowest K is 2 min(p3, p4) - |<M2>| exactly for the MZ state (<M2 M3> = 0
# and alpha^2 + beta^2 = 1); the computed pair differs by the roundings of
# each, about ten operations on values below 2, and by c^2 + s^2 - 1. 200000
# random configs, half within 1e-17 to 1e-6 of an exceptional point, showed at
# most 2 ulp of 1
PORT_BAND = 8 * 2.0**-52


@PROPS
@example(1e-12, 0.0, False)
@given(st.one_of(beta_st, beta_off_exceptional), st.one_of(phi_st, st.just(1e-7)), st.booleans())
def test_violation_verdict_and_anomaly_agree_at_every_phase(beta, phi, negative_alpha):
    """One violation rule, on K: the K routes (the quasiprobability one read as
    K = 4q) and the anomaly flag on 2 p(f) (|Re w| - 1) agree, down to K at
    the tolerance. At every config, the port criterion 2 min(p3, p4) -
    |alpha^2 - beta^2| violates exactly when the closed form does, outside
    ``PORT_BAND`` of -VIOLATION_TOL."""
    cfg = mz_config(beta, phi, negative_alpha)
    reports = k_routes(cfg)
    p3, p4 = detection_probabilities(cfg)
    port = 2.0 * min(p3, p4) - abs(cfg.alpha**2 - cfg.beta**2)
    if (port < -VIOLATION_TOL) != (reports[0].violated_index is not None):
        assert abs(port + VIOLATION_TOL) <= PORT_BAND, (port, reports[0].values())
    # a lit pair of ports keeps both weak values defined
    ws = mz_weak_values(cfg, allow_undefined=True)
    if None in ws:
        return
    violated = reports[0].violated_index
    assert all(r.violated_index == violated for r in reports)
    assert any(w.anomalous_real for w in ws) == (violated is not None)


def within_ulps(x: float, n: int = 300):
    """Floats at most ``n`` ulp of ``x`` away from it."""
    return st.integers(min_value=-n, max_value=n).map(lambda k: x + k * math.ulp(x))


# the saturation points and a few hundred ulp either side of each, or anywhere
beta_near_saturation = st.one_of(
    *(within_ulps(x) for x in (0.0, 1 / np.sqrt(2), -1 / np.sqrt(2), 1.0, -1.0)),
    st.floats(min_value=-1.0, max_value=1.0),
)


@PROPS
@given(
    beta_near_saturation,
    st.one_of(st.sampled_from([0.0, 1e-7]), st.floats(allow_nan=False, allow_infinity=False)),
    st.booleans(),
    stretch_st,
)
def test_mz_routes_never_raise_on_an_accepted_config(beta, phi, negative_alpha, stretch):
    assume(abs(beta) <= 1.0)
    cfg = mz_config(beta, phi, negative_alpha, stretch)
    mz_weak_values(cfg, allow_undefined=True)
    mz_lg_closed_form(cfg)


def result_bits(w) -> tuple | None:
    """Re w, Im w and p(f) of a weak value as IEEE bytes; None stays None."""
    return None if w is None else bits((w.value.real, w.value.imag, w.postselect_prob))


# the exact dark ports: alpha = beta darkens psi4, alpha = -beta psi3
DARK = 2**-0.5


@PROPS
@given(
    st.builds(
        mz_config,
        beta_near_saturation.filter(lambda b: abs(b) <= 1.0),
        st.floats(allow_nan=False, allow_infinity=False),
        st.booleans(),
    )
)
@example(MZConfig(beta=DARK, alpha=DARK))
@example(MZConfig(beta=DARK, alpha=-DARK))
def test_mz_weak_values_are_the_generic_weak_values_bit_for_bit(cfg):
    """The two port overlaps give the generic route's bits, down to the sign
    of a zero, which ``==`` would not see, on the pre-selected state that
    the kernel's BLAS norm forms (``mz_pre_amps``)."""
    m2, pre, basis = path_observable().operator(), _from_flat(StateVector, mz_pre_amps(cfg)), mz_basis()
    for fast, post in zip(mz_weak_values(cfg, allow_undefined=True), (basis.psi3, basis.psi4)):
        try:
            generic = weak_value(m2, pre, post)
        except OrthogonalPostSelection:
            generic = None
        assert result_bits(fast) == result_bits(generic)  # same None pattern, same bits


def state_route_bits(w) -> tuple | None:
    """An oracle weak value's (value, p(f)) as the bytes of :func:`result_bits`."""
    return None if w is None else bits((w[0].real, w[0].imag, w[1]))


@PROPS
@given(
    st.lists(
        st.tuples(
            beta_near_saturation.filter(lambda b: abs(b) <= 1.0),
            st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(allow_nan=False, allow_infinity=False)),
            st.sampled_from([None, 1.0, -1.0]),
            stretch_st,
        ),
        min_size=1,
        max_size=20,
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example([(DARK, 0.0, 1.0, 0.0), (DARK, 0.0, -1.0, 0.0), (DARK, 1.0, -1.0, 0.0), (-1.0, -0.0, None, 0.0)], 0)
def test_mz_weak_values_are_the_state_route_bit_for_bit(points, seed):
    """The one overlap kernel normalises the pre-selected amplitudes with no
    state built: each weak value and p(f) has the bits of the route through
    ``input_state``'s StateVector (``tests/oracles.py``), zero signs and the
    undefined pattern included, at any phase and with alpha omitted or given
    with either sign. Each example adds 40 uniform configs from ``seed``."""
    rng = np.random.default_rng(seed)
    uniform = zip(
        rng.uniform(-1.0, 1.0, 40).tolist(),
        rng.uniform(-7.0, 7.0, 40).tolist(),
        rng.choice([1.0, -1.0], 40).tolist(),
        rng.choice([0.0, 4e-10, -4e-10], 40).tolist(),
    )
    for beta, phi, sign, stretch in [*points, *uniform]:
        if sign is None:
            cfg = MZConfig(beta=beta, phi=phi)
        else:
            cfg = mz_config(beta, phi, sign < 0, stretch)
        got = tuple(map(result_bits, mz_weak_values(cfg, allow_undefined=True)))
        assert got == tuple(map(state_route_bits, mz_weak_values_state(cfg))), (cfg,)


@PROPS
@given(beta_near_saturation)
def test_default_alpha_has_the_bits_of_numpy_sqrt(beta):
    # beta**2, as MZConfig squares it: on a Python float it is libm pow, which
    # differs from beta*beta in the last bit for about 0.1% of inputs
    assume(abs(beta) <= 1.0)
    assert MZConfig(beta=beta).alpha == float(np.sqrt(1.0 - beta**2))


# subnormal and zero betas, and the phases where cos or sin is exact or tiny
tiny_beta = st.floats(min_value=-sys.float_info.min, max_value=sys.float_info.min)
kernel_beta = st.one_of(beta_near_saturation, beta_off_exceptional, tiny_beta).filter(
    lambda b: abs(b) <= 1.0
)
kernel_phi = st.one_of(phi_st, st.sampled_from([-0.0, 1e-7, 5e-324]))


@PROPS
@given(
    st.lists(st.tuples(kernel_beta, kernel_phi, st.booleans(), stretch_st), min_size=1, max_size=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mz_kernel_is_the_numpy_expressions_bit_for_bit(configs, seed):
    """The two scalar kernels in plain math, p and K on one cos(phi), give the
    bits of numpy's complex exp, abs and power, dark ports and subnormal betas
    included. Last-bit differences (hypot, x * x) show on under 1% of generic
    configs, so each example adds 40 uniform (beta, phi) draws from ``seed``."""
    rng = np.random.default_rng(seed)
    uniform = zip(
        rng.uniform(-1.0, 1.0, 40).tolist(),
        rng.uniform(-7.0, 7.0, 40).tolist(),
        (rng.random(40) < 0.5).tolist(),
        rng.choice([0.0, 4e-10, -4e-10], 40).tolist(),
    )
    for beta, phi, negative_alpha, stretch in [*configs, *uniform]:
        cfg = mz_config(beta, phi, negative_alpha, stretch)
        args = (cfg.alpha, cfg.beta, cfg.phi)
        c, s = math.cos(cfg.phi), math.sin(cfg.phi)
        kernel = (*_mz_probabilities(cfg.alpha, cfg.beta, c, s), *_mz_k(cfg.alpha, cfg.beta, c))
        assert bits(kernel) == bits(mz_kernel_numpy(*args)), args


def kernel_outcome(kernel, *args):
    """The IEEE bytes of ``kernel(*args)``, or the type of the error it raises
    (a square past the double range is an OverflowError on either path)."""
    try:
        return bits(kernel(*args))
    except OverflowError as exc:
        return type(exc)


# alpha and beta each over [-1, 1], both zeros, the five exceptional points and
# a few hundred ulp around each saturation point; cos either sign of 1 or 0,
# or anywhere in [-1, 1]; sin either zero, or any finite value
amplitude_st = st.one_of(st.sampled_from([0.0, -0.0, *EXCEPTIONAL]), beta_near_saturation)
cos_st = st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0]), st.floats(min_value=-1.0, max_value=1.0))
sin_st = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))


@PROPS
@given(
    st.lists(st.tuples(amplitude_st, amplitude_st, cos_st, sin_st), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(
    [(DARK, DARK, 1.0, 0.0), (DARK, -DARK, 1.0, -0.0), (-DARK, DARK, -1.0, 0.0),
     (1.0, 0.0, 1.0, 0.0), (1.0, -0.0, -1.0, -0.0), (0.0, 1.0, 1.0, 0.0)],
    0,
)
def test_zero_phase_branch_is_the_complex_modulus_bit_for_bit(points, seed):
    """Where beta*s is zero, ``_mz_probabilities`` squares alpha +- beta*c with
    no complex modulus: hypot(x, +-0) = |x|, so the bits are those of the
    modulus route, dark ports and beta = +-0 included. x * x in place of
    ``** 2`` would differ on about 0.09% of uniform draws, so each example adds
    40 uniform (alpha, beta) at s = +-0 from ``seed``."""
    rng = np.random.default_rng(seed)
    uniform = zip(
        rng.uniform(-1.0, 1.0, 40).tolist(),
        rng.uniform(-1.0, 1.0, 40).tolist(),
        rng.choice([1.0, -1.0], 40).tolist(),
        rng.choice([0.0, -0.0], 40).tolist(),
    )
    for args in [*points, *uniform]:
        assert kernel_outcome(_mz_probabilities, *args) == kernel_outcome(mz_probabilities_complex, *args), args


def seq_config(beta: float, phi: float, alpha_sign: float | None) -> MZConfig:
    """The config at (beta, phi), alpha omitted (None) or +-sqrt(1 - beta^2)."""
    if alpha_sign is None:
        return MZConfig(beta=beta, phi=phi)
    return MZConfig(beta=beta, alpha=alpha_sign * math.sqrt(1.0 - beta * beta), phi=phi)


# the sequential closed form's edge table: beta at both zeros, both ends and
# one ulp inside each, the dark ports, the smallest subnormals and 1e-300; phi
# at both zeros, +-pi, pi/2, +-1e300, the smallest subnormal and 1e6
SEQ_EDGE_BETAS = (0.0, -0.0, 1.0, -1.0, DARK, -DARK, math.nextafter(1.0, 0.0),
                  math.nextafter(-1.0, 0.0), 5e-324, -5e-324, 1e-300)
SEQ_EDGE_PHIS = (0.0, -0.0, math.pi, -math.pi, math.pi / 2, 1e300, -1e300, 5e-324, 1e6)


def seq_edges(alpha_sign: float | None) -> list[tuple]:
    return [(beta, phi, alpha_sign) for beta in SEQ_EDGE_BETAS for phi in SEQ_EDGE_PHIS]


@PROPS
@given(
    st.lists(
        st.tuples(
            st.one_of(beta_near_saturation, beta_off_exceptional).filter(lambda b: abs(b) <= 1.0),
            st.one_of(phi_st, st.floats(allow_nan=False, allow_infinity=False)),
            st.sampled_from([None, 1.0, -1.0]),
        ),
        min_size=1,
        max_size=20,
    )
)
@example(seq_edges(None))
@example(seq_edges(1.0))
@example(seq_edges(-1.0))
def test_mz_sequential_is_the_state_route_bit_for_bit(points):
    """The sequential closed form gives the IEEE bytes of ``sequential_joint``
    on ``input_state``, at beta near +-1, 0 and the dark ports, at any finite
    phase, with alpha omitted or explicit of either sign."""
    for point in points:
        cfg = seq_config(*point)
        joint = sequential_joint(input_state(cfg), path_observable(), output_observable())
        assert bits(_mz_sequential(cfg)) == bits(joint.values()), point


@PROPS
@given(
    st.lists(
        st.tuples(
            st.one_of(beta_st, beta_near_saturation).filter(lambda b: abs(b) <= 1.0),
            st.one_of(phi_st, st.sampled_from([1e300, -1e300]), st.floats(allow_nan=False, allow_infinity=False)),
            st.sampled_from([None, 1.0, -1.0]),
            stretch_st,
        ),
        min_size=1,
        max_size=20,
    )
)
@example([(*point, 0.0) for point in seq_edges(None)])
@example([(*point, stretch) for sign in (1.0, -1.0) for point in seq_edges(sign) for stretch in (0.0, 4e-10, -4e-10)])
def test_input_state_is_the_validated_state_bit_for_bit(points):
    """``input_state`` builds its state from the checked config, with no
    ``StateVector`` call: it holds the IEEE bits that ``StateVector`` gives
    the same amplitudes, at beta near +-1, 0 and the dark ports, at phi = 0,
    pi and far past any period, with alpha omitted or explicit of either sign
    and off the unit circle by up to the INPUT_TOL that ``MZConfig`` allows."""

    def parts(flat):
        return [(z.real.hex(), z.imag.hex()) for z in flat]

    for beta, phi, alpha_sign, stretch in points:
        if alpha_sign is None:
            cfg = MZConfig(beta=beta, phi=phi)
        else:
            alpha = alpha_sign * math.sqrt(1.0 - beta * beta) * (1.0 + stretch)
            cfg = MZConfig(beta=beta, alpha=alpha, phi=phi)
        got = input_state(cfg)._flat
        assert all(type(z) is complex for z in got)
        assert parts(got) == parts(StateVector(_pre_amps(cfg))._flat), (beta, phi, alpha_sign, stretch)


_ROW_FIELDS = list(SweepRow.__slots__)


def per_point_weak_values(cfg: MZConfig) -> tuple:
    """(Re w3, Re w4) from ``mz_weak_values``, None where undefined."""
    return tuple(None if w is None else w.value.real for w in mz_weak_values(cfg, allow_undefined=True))


def per_point_row(beta: float) -> tuple:
    """One sweep row, in SweepRow field order, from the per-point routes."""
    beta = float(beta)
    cfg = MZConfig(beta=beta)
    report = mz_lg_closed_form(cfg)
    p3, p4 = detection_probabilities(cfg)
    w3, w4 = per_point_weak_values(cfg)
    return (beta, cfg.alpha, *report.values().values(), w3, w4, p3, p4, report.violated_index)


def bits(values) -> tuple:
    """Each float as its IEEE bytes, so 0.0 and -0.0 differ; None and ints as they are."""
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in values)


def assert_sweep_is_per_point(betas: list[float]) -> None:
    """Every field of every sweep row has the per-point routes' bits."""
    rows = sweep_beta(betas)
    assert len(rows) == len(betas)
    mismatched = [
        beta for row, beta in zip(rows, betas)
        if bits(getattr(row, name) for name in _ROW_FIELDS) != bits(per_point_row(beta))
    ]
    assert mismatched == []


def weak_value_bits(column) -> np.ndarray:
    """Each weak value as its IEEE bits, with None as NaN's."""
    return np.array([math.nan if w is None else w for w in column]).view(np.int64)


def assert_weak_value_columns_are_per_point(betas: list[float]) -> int:
    """The sweep's weak-value columns have the bits of ``mz_weak_values`` at
    every beta; returns the number of undefined weak values.

    w3 and w4 are the only sweep fields that come from a second route
    (``weakval._mz_weak_value_columns``); alpha, K, p and the violated index
    come from the scalar kernel that the per-point routes call too.
    """
    cfgs = [MZConfig(beta=beta) for beta in betas]
    columns = _mz_weak_value_columns(np.array([cfg.alpha for cfg in cfgs]), np.array(betas))
    for column, per_point in zip(columns, zip(*map(per_point_weak_values, cfgs))):
        mismatched = np.flatnonzero(weak_value_bits(column) != weak_value_bits(per_point))
        assert [betas[i] for i in mismatched] == []
    return sum(w is None for column in columns for w in column)


# the whole beta range, both zeros, the five exceptional points, and a few
# hundred ulp around each saturation point
sweep_beta_st = st.one_of(st.sampled_from([0.0, -0.0]), beta_st, beta_near_saturation).filter(
    lambda b: abs(b) <= 1.0
)


@PROPS
@given(st.lists(sweep_beta_st, min_size=1, max_size=40))
def test_sweep_columns_are_the_per_point_routes_bit_for_bit(betas):
    assert_sweep_is_per_point(betas)


def test_sweep_columns_match_on_a_uniform_sample():
    """Squaring a float scalar is libm pow, which differs from numpy's array
    square on about 0.08% of uniform betas; 50001 draws give the weak-value
    columns dozens of chances to show such a difference."""
    assert_weak_value_columns_are_per_point(np.random.default_rng(8).uniform(-1.0, 1.0, 50001).tolist())


@pytest.mark.parametrize("dark", [1 / np.sqrt(2), -1 / np.sqrt(2)])
def test_sweep_columns_match_across_the_overlap_threshold(dark):
    """200001 points within 1e-7 of a dark port, where |<pre|post>|^2 crosses
    OVERLAP_TOL: the defined/undefined pattern and every weak value match too."""
    grid = np.linspace(dark - 1e-7, dark + 1e-7, 200001).tolist()
    undefined = assert_weak_value_columns_are_per_point(grid)
    assert 0 < undefined < len(grid)


def test_failing_property_reports_a_falsifying_example(tmp_path):
    """Under the suite's warning filters a falsified property fails (exit 1)
    with hypothesis's report, rather than crashing pytest (exit 3)."""
    (tmp_path / "test_falsified.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, settings
            from hypothesis import strategies as st

            @settings(derandomize=True, database=None)
            @given(st.integers())
            def test_falsified(n):
                assert n < 10
            """
        )
    )
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout


def bloch_density(r: float, theta: float, phase: float) -> np.ndarray:
    """(I + r n.sigma)/2 for the unit vector n at (theta, phase): mixed for r < 1, pure at r = 1."""
    x, y, z = r * np.sin(theta) * np.cos(phase), r * np.sin(theta) * np.sin(phase), r * np.cos(theta)
    return np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]]) / 2.0


def marginals(table) -> list[float]:
    """The two marginals of Mi, then the two of Mj."""
    q = table.q
    return [q[(m, +1)] + q[(m, -1)] for m in (+1, -1)] + [q[(+1, m)] + q[(-1, m)] for m in (+1, -1)]


def assert_quasi_is_the_matrix_oracle(state, mi, mj) -> None:
    table, oracle = quasi(state, mi, mj), quasi_matrix(state, mi, mj)
    for key, value in oracle.q.items():
        assert abs(table.q[key] - value) <= 1e-15, key
    for got, want in zip(marginals(table), marginals(oracle)):
        assert abs(got - want) <= 1e-15


@PROPS
@given(*(angle,) * 6)
def test_quasi_is_the_matrix_oracle_on_pure_states(t0, p0, ti, pi, tj, pj):
    assert_quasi_is_the_matrix_oracle(qubit_state(t0, p0), dichotomic(ti, pi), dichotomic(tj, pj))


@PROPS
@given(st.floats(min_value=0.0, max_value=1.0), *(angle,) * 6)
def test_quasi_is_the_matrix_oracle_on_density_matrices(r, t0, p0, ti, pi, tj, pj):
    rho = bloch_density(r, t0, p0)
    assert_quasi_is_the_matrix_oracle(rho, dichotomic(ti, pi), dichotomic(tj, pj))


@PROPS
@given(st.one_of(beta_st, beta_off_exceptional), phi_st, st.booleans())
def test_quasi_is_the_matrix_oracle_on_the_interferometer(beta, phi, negative_alpha):
    cfg = mz_config(beta, phi, negative_alpha)
    assert_quasi_is_the_matrix_oracle(input_state(cfg), path_observable(), output_observable())


# the worst |mz_quasi - quasi| entry and NSIT residual measured on 800000 random
# draws of the domain below (the dark ports, +-1 and their neighbours, phases up
# to 1e300) was 2^-51 = 4.4e-16 each; the next larger sum of such roundings is 5.6e-16
MZ_QUASI_TO_GENERIC = 5e-16


@PROPS
@given(
    st.one_of(beta_st, beta_off_exceptional, beta_near_saturation.filter(lambda b: abs(b) <= 1.0)),
    st.one_of(phi_st, st.floats(allow_nan=False, allow_infinity=False)),
    st.booleans(),
    stretch_st,
)
def test_mz_quasi_is_k_over_4_of_the_closed_form(beta, phi, negative_alpha, stretch):
    """4q of the interferometer table is mz_lg_closed_form's K bit for bit: dividing
    by 4 is exact unless K/4 is subnormal, where it rounds by at most half of
    ``math.ulp(0.0)``. The table reads the same verdict, and it lies within
    MZ_QUASI_TO_GENERIC of the generic moment route on the state, which K = 4q
    (criterion 7) keeps; its NSIT residuals lie within the same bound."""
    cfg = mz_config(beta, phi, negative_alpha, stretch)
    table, report = mz_quasi(cfg), mz_lg_closed_form(cfg)
    for idx, k in report.values().items():
        four_q = 4.0 * table.entry(*_K_SIGNS[idx])
        if abs(k) >= 4.0 * sys.float_info.min:
            assert bits([four_q]) == bits([k]), idx
        else:
            assert abs(four_q - k) <= 2.0 * math.ulp(0.0), idx
    assert table.feasible == (report.violated_index is None)
    generic = quasi(input_state(cfg), path_observable(), output_observable())
    for key, value in generic.q.items():
        assert abs(table.q[key] - value) <= MZ_QUASI_TO_GENERIC, key
    assert max(table.nsit_residuals) <= MZ_QUASI_TO_GENERIC


# the smallest eigenvalue's distance from -INPUT_TOL: anywhere, near the
# boundary, or just outside the band the property leaves out
eigen_offset = st.one_of(
    st.floats(min_value=-0.5, max_value=0.5),
    st.floats(min_value=-1e-12, max_value=1e-12),
    st.sampled_from([3e-15, -3e-15, 1e-14, -1e-14, 1e-13, -1e-13]),
)


def verdict(call) -> str:
    """The message of the ValueError that ``call()`` raises, or "accepted"."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return "accepted"


@PROPS
@given(eigen_offset, angle, angle)
def test_determinant_rule_is_the_eigenvalue_rule(offset, theta, phase):
    """A unit-trace Hermitian 2x2 with smallest eigenvalue -INPUT_TOL + offset:
    det >= -INPUT_TOL accepts it exactly when eigvalsh does, outside +-1e-15
    of the boundary."""
    low = -INPUT_TOL + offset
    u = np.column_stack([qubit_state(theta, phase).amps, qubit_state(theta + np.pi, phase).amps])
    rho = u @ np.diag([low, 1.0 - low]) @ u.conj().T
    if abs(np.linalg.eigvalsh(rho)[0] + INPUT_TOL) <= 1e-15:
        return
    assert verdict(lambda: _as_density(rho)) == verdict(lambda: density_matrix(rho))


def pair_residuals(pp: np.ndarray, pm: np.ndarray) -> list[float]:
    """The largest entry of each of the five residuals of ``check_projector_pair``."""
    eye, m = np.eye(2), pp - pm
    return [float(np.abs(r).max())
            for r in (pp @ pp - pp, pm @ pm - pm, pp @ pm, pp + pm - eye, m @ m - eye)]


hermitian_noise = st.builds(
    lambda parts, u: 10.0**u * (np.array(parts[:4]) + 1j * np.array(parts[4:])).reshape(2, 2),
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=8, max_size=8),
    # mostly near the tolerance, where the two rules could part
    st.one_of(st.floats(min_value=-17.0, max_value=-10.0), st.floats(min_value=-10.0, max_value=-0.5)),
).map(lambda z: (z + z.conj().T) / 2.0)


@PROPS
@given(angle, angle, angle, angle, hermitian_noise, hermitian_noise,
       st.sampled_from(["antipode", "antipode", "complement", "zero", "independent"]))
def test_two_projector_checks_reject_what_the_five_reject(ta, pa, tb, pb, noise_p, noise_m, minus_is):
    """P_plus P_minus = 0 and P_plus + P_minus = I reject exactly the Hermitian
    pairs that the five checks reject, for pairs with no residual within a
    factor 4 of STRUCT_TOL. P_plus is a noisy projector; P_minus is a noisy
    projector onto its antipode or onto an independent direction, I - P_plus
    (complete by construction, so only orthogonality can reject it), or noise
    alone (orthogonal to within the noise, so only completeness can)."""
    up = qubit_state(ta, pa)
    plus = Operator(projector_onto(up).entries + noise_p)
    if minus_is == "complement":
        minus = Operator(np.eye(2) - plus.entries)
    elif minus_is == "zero":
        minus = Operator(noise_m)
    else:
        down = qubit_state(tb, pb)
        if minus_is == "antipode":
            down = StateVector([-up.amps[1].conjugate(), up.amps[0].conjugate()])
        minus = Operator(projector_onto(down).entries + noise_m)
    if any(STRUCT_TOL / 4 <= r <= 4 * STRUCT_TOL for r in pair_residuals(plus.entries, minus.entries)):
        return
    accepted = verdict(lambda: DichotomicObservable(plus, minus)) == "accepted"
    assert accepted == (verdict(lambda: check_projector_pair(plus, minus)) == "accepted")


# any finite amplitude, subnormals included, rescaled by a power of two that
# can take the vector's squared norm past overflow or below the normal range
amplitude = st.floats(min_value=-1.0, max_value=1.0)
amplitude_scale = st.one_of(st.sampled_from([1.0, 2.0**-1074, 2.0**-600, 2.0**600, 2.0**1023]),
                            st.integers(min_value=-1074, max_value=1023).map(lambda k: 2.0**k))


# a part of a state: any finite float (signed zeros and subnormals included),
# or one within 2^+-440 to 2^+-520, across the edges where its square
# overflows or leaves the normal range
state_part = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 2.0**e, st.floats(min_value=-2.0, max_value=2.0),
              st.one_of(st.integers(min_value=440, max_value=520),
                        st.integers(min_value=-520, max_value=-440))),
)


@st.composite
def near_unit_parts(draw) -> list[float]:
    """The parts of a unit vector, each moved by up to 4 ulp."""
    theta = draw(st.floats(min_value=0.0, max_value=np.pi / 2))
    phase_x, phase_y = draw(angle), draw(angle)
    parts = [math.cos(theta) * math.cos(phase_x), math.cos(theta) * math.sin(phase_x),
             math.sin(theta) * math.cos(phase_y), math.sin(theta) * math.sin(phase_y)]
    for i, steps in enumerate(draw(st.lists(st.integers(-4, 4), min_size=4, max_size=4))):
        for _ in range(abs(steps)):
            parts[i] = math.nextafter(parts[i], math.copysign(math.inf, steps))
    return parts


MIN, MAX = sys.float_info.min, sys.float_info.max
# 0.6 and 0.8 of the smallest normal double, on the subnormal grid: their
# norm rounds to MIN itself, and one step down it is subnormal
AT_MIN = [MIN * 0.6, 0.0, 0.0, MIN * 0.8]
BELOW_MIN = [math.nextafter(MIN * 0.6, 0.0), 0.0, 0.0, math.nextafter(MIN * 0.8, 0.0)]


def refused_by_norm(sq: Fraction) -> bool | None:
    """Whether a state of exact squared norm ``sq`` is off 1 by more than
    ``INPUT_TOL``, or None where its norm is within 4 ulp of that bound."""
    tol, near = Fraction(INPUT_TOL), 4 * Fraction(math.ulp(1.0))
    if not (1 - tol - near) ** 2 <= sq <= (1 + tol + near) ** 2:
        return True
    if (1 - tol + near) ** 2 <= sq <= (1 + tol - near) ** 2:
        return False
    return None


@PROPS
@given(st.one_of(st.lists(state_part, min_size=4, max_size=4), near_unit_parts()),
       st.sampled_from([list, tuple, np.array]), st.booleans())
@example([0.135, 0.0, 0.721, 0.0], list, False)
@example([-0.0, 0.6, 0.0, -0.8], np.array, True)
@example([2.0**-450, 2.0**-451, 2.0**450, -2.0**449], tuple, True)
@example([3.0, 0.0, 4.0, 0.0], list, True)
@example(AT_MIN, list, False)
@example(AT_MIN, tuple, True)
@example(BELOW_MIN, list, False)
@example(BELOW_MIN, np.array, True)
@example([MAX, 0.0, 0.0, -0.0], list, False)
@example([MAX, 0.0, 0.0, -0.0], tuple, True)
@example([MAX, -MAX, 0.0, 5e-324], list, False)
@example([MAX, -MAX, 0.0, 5e-324], np.array, True)
def test_state_is_the_exact_normalisation_to_the_ulp(parts, container, normalize):
    """``StateVector`` against an exact ``Fraction`` oracle that never skips,
    on every finite input. With S the exact squared norm of the parts: the
    norm a rejection reports is within 1 ulp of sqrt(S) (``math.hypot``'s
    documented bound, checked by squares); each stored part is within 2 ulp
    of part / sqrt(S), with the sign of the part, zeros included; and the
    input is refused, with the one message, exactly when sqrt(S) is off 1 by
    more than ``INPUT_TOL``, but within 4 ulp of that bound."""
    xr, xi, yr, yi = parts
    amps = container([complex(xr, xi), complex(yr, yi)])
    got = outcome(lambda: StateVector(amps, normalize=normalize))
    sq = sum(Fraction(part) ** 2 for part in parts)
    if sq == 0:
        assert got == ("ValueError", "cannot normalize the zero vector")
        return
    refused = refused_by_norm(sq)
    if got[0] == "accepted":
        assert normalize or refused is not True, parts
        stored = [float.fromhex(h) for pair in got[1] for h in pair]
        for x, part in zip(stored, parts):
            assert math.copysign(1.0, x) == math.copysign(1.0, part), parts
            assert root_ratio_within(x, part, sq, 2), (parts, x)
    else:
        norm = float(got[1].split()[2])
        assert got == ("ValueError", f"state norm {norm!r} deviates from 1 by more than {INPUT_TOL}")
        assert not normalize and refused is not False, parts
        # sqrt(S) is 1 / sqrt(1 / S)
        assert root_ratio_within(norm, 1.0, 1 / sq, 1), (parts, norm)


@st.composite
def random_state(draw) -> StateVector:
    parts = draw(st.lists(amplitude, min_size=4, max_size=4))
    scale = draw(amplitude_scale)
    amps = [complex(parts[0] * scale, parts[1] * scale), complex(parts[2] * scale, parts[3] * scale)]
    assume(any(amps))
    return StateVector(amps, normalize=True)


def operator_bits(op: Operator) -> tuple:
    """The bytes, dtype, shape and write flag of ``entries``, and the exact
    type and bits of each ``_flat`` entry."""
    flat = tuple((type(z), z.real.hex(), z.imag.hex()) for z in op._flat)
    e = op.entries
    return e.tobytes(), e.dtype, e.shape, e.flags.writeable, type(op._flat), flat


def antipode(s: StateVector) -> StateVector:
    x, y = s.amps.tolist()
    return StateVector([-y.conjugate(), x.conjugate()])


@PROPS
@given(random_state())
def test_projector_is_the_checked_construction_bit_for_bit(s):
    assert operator_bits(projector_onto(s)) == operator_bits(projector_checked(s))


@PROPS
@given(random_state(), st.one_of(st.none(), random_state()), hermitian_noise, hermitian_noise,
       st.sampled_from([0.0, 4e-13, 9e-13j, 9e-13, -6e-13 + 6e-13j]))
@example(StateVector([1.0, 0.0]), None, np.zeros((2, 2)), np.zeros((2, 2)), 9e-13)
def test_observable_operator_is_the_checked_construction_bit_for_bit(up, down, noise_p, noise_m, skew):
    """M of a pair of projectors, exact (onto a state and its antipode) or
    noisy and checked, is the numpy difference through ``Operator``; a pair
    that is refused is refused with the message of that construction. The
    skew leaves each noisy projector Hermitian to STRUCT_TOL, and up to twice
    that off for M."""
    down = antipode(up) if down is None else down
    skewed = np.array([[0.0, skew], [0.0, 0.0]])
    exact = (projector_onto(up), projector_onto(antipode(up)))
    noisy = (Operator(projector_onto(up).entries + noise_p + skewed),
             Operator(projector_onto(down).entries + noise_m - skewed))
    for pp, pm in (exact, noisy):
        got = verdict(lambda: DichotomicObservable(pp, pm))
        if got == "accepted":
            m = DichotomicObservable(pp, pm).operator()
            assert operator_bits(m) == operator_bits(observable_operator_checked(pp, pm))
        elif "projectors" not in got:
            assert got == verdict(lambda: observable_operator_checked(pp, pm))


# every float, signed zeros, subnormals, infinities and NaN included
any_moment = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats())


@PROPS
@given(any_moment, any_moment, any_moment)
def test_k_from_moments_is_the_sign_table_bit_for_bit(e2, e3, e23):
    def bits(ks):
        return [(idx, type(k), k.hex()) for idx, k in ks.items()]

    assert bits(k_from_moments(e2, e3, e23)) == bits(k_from_moments_table(e2, e3, e23))
