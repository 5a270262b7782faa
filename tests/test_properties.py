"""Property tests for the one K/q primitive, the fixed interferometer objects,
the two propagation routes, the once-validated observables, the one closeness
test and the closed-form precession K3.

Hypothesis runs derandomized with a bounded example count, so every run of
the suite checks the same inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglab import (
    CorrelationTriple,
    DichotomicObservable,
    MZConfig,
    StateVector,
    ThreeTimeSpec,
    detection_probabilities,
    empirical_lg,
    feasibility_oracle,
    k3,
    k_from_moments,
    lg_from_quasi,
    macrorealist_feasible,
    mr_reading,
    mz_basis,
    nsit_check,
    output_observable,
    path_observable,
    precession_k3,
    precession_observables,
    projector_onto,
    propagate,
    propagate_unitary,
    quasi,
    two_time_lg,
)
from lglab.lgi import _K_SIGNS
from lglab.qcore import INPUT_TOL, STRUCT_TOL, _close

PROPS = settings(derandomize=True, max_examples=300, deadline=None, database=None)

# 4 * (K / 4) == K unless K is subnormal, so subnormal moments are left out
moment = st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False)
angle = st.floats(min_value=0.0, max_value=2 * np.pi)
# the whole beta range, with the dark ports and both single-path ends always in play
beta_st = st.one_of(
    st.sampled_from([-1.0, -1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 1.0]),
    st.floats(min_value=-1.0, max_value=1.0),
)


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
    ks = k_from_moments(e2, e3, e23)
    table = mr_reading(e2, e3, e23)
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
    for route in (propagate, propagate_unitary):
        out = route(cfg)
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
    assert max(nsit_check(state, mi, mj)) == quasi(state, mi, mj).nsit_residual


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
    assert _close(a, b, tol) == np.allclose(a, b, atol=tol, rtol=0)
    assert _close(b, a, tol) == np.allclose(b, a, atol=tol, rtol=0)


@PROPS
@given(st.floats(min_value=-4 * np.pi, max_value=4 * np.pi))
def test_precession_k3_closed_form_matches_matrix_route(theta):
    spec = ThreeTimeSpec(StateVector([1.0, 0.0]), *precession_observables(theta))
    assert precession_k3(theta) == pytest.approx(k3(spec), abs=1e-12)
