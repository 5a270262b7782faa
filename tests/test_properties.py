"""Property tests for the one K/q primitive and the fixed interferometer objects.

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
    empirical_lg,
    feasibility_oracle,
    k_from_moments,
    lg_from_quasi,
    macrorealist_feasible,
    mr_reading,
    mz_basis,
    output_observable,
    path_observable,
    projector_onto,
    quasi,
    two_time_lg,
)
from lglab.lgi import _K_SIGNS

PROPS = settings(derandomize=True, max_examples=300, deadline=None, database=None)

# 4 * (K / 4) == K unless K is subnormal, so subnormal moments are left out
moment = st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False)
angle = st.floats(min_value=0.0, max_value=2 * np.pi)


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
