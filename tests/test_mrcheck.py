"""Macrorealist feasibility: moment route, vertex-solve oracle, LGI equivalence."""

import numpy as np
import pytest

from lglab import (
    CorrelationTriple,
    MZConfig,
    feasibility_oracle,
    lg_from_quasi,
    macrorealist_feasible,
    mz_lg_closed_form,
    mz_verdict,
    mz_weak_values,
    sequential_joint,
)

from conftest import random_dichotomic, random_state

SQ3 = np.sqrt(3.0)


class TestCorrelationTriple:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CorrelationTriple(e2=1.1, e3=0.0, e23=0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            CorrelationTriple(e2=np.nan, e3=0.0, e23=0.0)


class TestMacrorealistFeasible:
    def test_uniform_center(self):
        v = macrorealist_feasible(CorrelationTriple(0.0, 0.0, 0.0))
        assert v.feasible
        assert v.margin == pytest.approx(0.25, abs=1e-15)

    def test_perfect_anticorrelation_boundary(self):
        v = macrorealist_feasible(CorrelationTriple(0.0, 0.0, -1.0))
        assert v.feasible
        assert v.margin == pytest.approx(0.0, abs=1e-15)

    def test_mz_triple_infeasible(self):
        v = macrorealist_feasible(CorrelationTriple(0.5, -SQ3 / 2, 0.0))
        assert not v.feasible
        assert v.margin == pytest.approx((1 - SQ3) / 8, abs=1e-12)

    def test_witness_reproduces_moments(self, rng):
        for _ in range(200):
            t = CorrelationTriple(*(rng.uniform(-1, 1, 3)))
            v = macrorealist_feasible(t)
            ei, ej, eij = v.witness.moments()
            assert ei == pytest.approx(t.e2, abs=1e-12)
            assert ej == pytest.approx(t.e3, abs=1e-12)
            assert eij == pytest.approx(t.e23, abs=1e-12)


class TestFeasibilityOracle:
    def test_point_mass(self):
        v = feasibility_oracle(CorrelationTriple(1.0, 1.0, 1.0))
        assert v.feasible
        assert v.witness.entry(+1, +1) == pytest.approx(1.0, abs=1e-12)
        for key in ((+1, -1), (-1, +1), (-1, -1)):
            assert v.witness.q[key] == pytest.approx(0.0, abs=1e-12)

    def test_direct_arithmetic_counterexample(self):
        # 1 - e2 - e3 + e23 = -1.7 < 0 even though 1 + e2 + e3 + e23 >= 0
        v = feasibility_oracle(CorrelationTriple(0.9, 0.9, -0.9))
        assert not v.feasible
        assert v.witness.entry(-1, -1) == pytest.approx(-1.7 / 4, abs=1e-12)

    def test_cross_validation_random(self, rng):
        for _ in range(10_000):
            t = CorrelationTriple(*(rng.uniform(-1, 1, 3)))
            a = macrorealist_feasible(t)
            b = feasibility_oracle(t)
            assert a.feasible == b.feasible
            assert a.margin == pytest.approx(b.margin, abs=1e-12)

    def test_vertex_system_is_built_once(self):
        from lglab import mrcheck

        assert not mrcheck._VERTEX_SYSTEM.flags.writeable
        t = CorrelationTriple(0.3, -0.2, 0.1)
        expected = np.linalg.solve(
            [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], [1.0, 0.3, -0.2, 0.1]
        )
        assert list(feasibility_oracle(t).witness.q.values()) == expected.tolist()


class TestRouteEquivalence:
    def test_three_routes_agree_random(self, rng):
        from lglab import mr_reading

        for _ in range(2000):
            t = CorrelationTriple(*(rng.uniform(-1, 1, 3)))
            via_moments = macrorealist_feasible(t).feasible
            via_vertices = feasibility_oracle(t).feasible
            report = lg_from_quasi(mr_reading(t.e2, t.e3, t.e23))
            via_lgi = (
                min(report.k31, report.k32, report.k33, report.k34) >= -4e-12
            )
            assert via_moments == via_vertices == via_lgi

    def test_beta_grid(self):
        for beta in np.linspace(-1.0, 1.0, 1001):
            cfg = MZConfig(beta=float(beta))
            e2 = cfg.alpha**2 - cfg.beta**2
            from lglab import detection_probabilities

            p3, p4 = detection_probabilities(cfg)
            t = CorrelationTriple(e2=e2, e3=p4 - p3, e23=0.0)
            assert macrorealist_feasible(t).feasible == feasibility_oracle(t).feasible


class TestQuantumSequentialStatistics:
    def test_lueders_joints_always_feasible(self, rng):
        # sequential joint probabilities are proper probabilities, so their
        # moments always admit the macrorealist joint (themselves)
        for _ in range(300):
            joint = sequential_joint(random_state(rng), random_dichotomic(rng), random_dichotomic(rng))
            e2 = sum(mi * p for (mi, _), p in joint.items())
            e3 = sum(mj * p for (_, mj), p in joint.items())
            e23 = sum(mi * mj * p for (mi, mj), p in joint.items())
            t = CorrelationTriple(
                e2=float(np.clip(e2, -1, 1)),
                e3=float(np.clip(e3, -1, 1)),
                e23=float(np.clip(e23, -1, 1)),
            )
            assert macrorealist_feasible(t).feasible


class TestMZVerdict:
    def test_endpoint_feasible(self):
        assert mz_verdict(MZConfig(beta=0.0)).feasible

    def test_generic_infeasible(self):
        v = mz_verdict(MZConfig(beta=0.5))
        assert not v.feasible
        assert v.margin == pytest.approx((1 - SQ3) / 8, abs=1e-12)

    def test_balanced_saturation_feasible(self):
        v = mz_verdict(MZConfig(beta=1 / np.sqrt(2)))
        assert v.feasible
        assert v.margin == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_exactly_off_exceptional(self):
        exceptional = (-1.0, -1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 1.0)
        for beta in np.linspace(-1.0, 1.0, 401):
            v = mz_verdict(MZConfig(beta=float(beta)))
            near = any(abs(beta - e) < 1e-9 for e in exceptional)
            assert v.feasible == near


class TestOneViolationRule:
    """K below -VIOLATION_TOL (1e-12) is a violation, whether it is read as K,
    as q = K/4 or as the K = 2 p(f) (1 -+ Re w) of a weak value."""

    def test_k_at_twice_the_tolerance_is_infeasible(self):
        cfg = MZConfig(beta=1e-12)
        report = mz_lg_closed_form(cfg)
        assert report.violated_index == 31
        assert -4e-12 < report.k31 < -1e-12
        assert not mz_verdict(cfg).feasible

    def test_q_at_half_the_tolerance_is_infeasible_on_both_routes(self):
        # 4 q(-1, -1) = 1 - e2 - e3 + e23 = -2e-12
        t = CorrelationTriple(e2=0.5, e3=0.5, e23=-2e-12)
        for route in (macrorealist_feasible, feasibility_oracle):
            v = route(t)
            assert v.margin == pytest.approx(-5e-13, abs=1e-15)
            assert not v.feasible

    def test_real_part_past_one_on_a_nearly_dark_port_is_not_anomalous(self):
        # w3 = 1.09 - 2e7 i, but p3 = 2.5e-15 and K33 = 2 p3 (1 - Re w3) = -3e-16
        cfg = MZConfig(beta=-0.7071067811865457, phi=1e-7)
        report = mz_lg_closed_form(cfg)
        assert report.violated_index is None
        assert -1e-12 < report.k33 < 0.0
        w3, _ = mz_weak_values(cfg)
        assert w3.value.real > 1.0
        assert not w3.anomalous_real
