"""Macrorealist feasibility: moment route, vertex-solve oracle, LGI equivalence."""

from types import SimpleNamespace

import numpy as np
import pytest

from lglab import (
    CorrelationTriple,
    MZConfig,
    feasibility_oracle,
    lg_from_quasi,
    macrorealist_feasible,
    mz_lg_closed_form,
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

    @pytest.mark.parametrize("index, bad", [(0, 1.0 + 5e-10), (1, -np.inf), (2, np.nan)])
    def test_message_names_the_moment(self, index, bad):
        """The bound is 1 exactly, and the message names the moment."""
        moments = [0.0, 0.0, 0.0]
        moments[index] = bad
        name = ("e2", "e3", "e23")[index]
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[-1, 1\], got {bad}$"):
            CorrelationTriple(*moments)


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
            ei, ej, eij = v.moments()
            assert ei == pytest.approx(t.e2, abs=1e-12)
            assert ej == pytest.approx(t.e3, abs=1e-12)
            assert eij == pytest.approx(t.e23, abs=1e-12)

    def test_triple_is_checked_once(self, rng, monkeypatch):
        """The moment route reads the triple CorrelationTriple checked, with
        the bits of the one table formula, and does not check it again."""
        from lglab import mrcheck, quasiprob

        triples = [CorrelationTriple(*rng.uniform(-1, 1, 3).tolist()) for _ in range(1000)]
        triples += [CorrelationTriple(-0.0, 1.0, -1.0), CorrelationTriple(0.0, -0.0, 1)]
        want = [quasiprob._q_from_moments(t.e2, t.e3, t.e23) for t in triples]

        def refused(*args, **kwargs):
            raise AssertionError("the triple was checked again")

        # the one check is CorrelationTriple's, on math.isfinite and the bound 1
        monkeypatch.setattr(CorrelationTriple, "__post_init__", refused)
        monkeypatch.setattr(mrcheck, "math", SimpleNamespace(isfinite=refused))
        for t, q in zip(triples, want):
            got = macrorealist_feasible(t).q
            assert list(got) == list(q)
            assert [v.hex() for v in got.values()] == [v.hex() for v in q.values()]


class TestFeasibilityOracle:
    def test_point_mass(self):
        v = feasibility_oracle(CorrelationTriple(1.0, 1.0, 1.0))
        assert v.feasible
        assert v.entry(+1, +1) == pytest.approx(1.0, abs=1e-12)
        for key in ((+1, -1), (-1, +1), (-1, -1)):
            assert v.q[key] == pytest.approx(0.0, abs=1e-12)

    def test_direct_arithmetic_counterexample(self):
        # 1 - e2 - e3 + e23 = -1.7 < 0 even though 1 + e2 + e3 + e23 >= 0
        v = feasibility_oracle(CorrelationTriple(0.9, 0.9, -0.9))
        assert not v.feasible
        assert v.entry(-1, -1) == pytest.approx(-1.7 / 4, abs=1e-12)

    def test_cross_validation_random(self, rng):
        for _ in range(10_000):
            t = CorrelationTriple(*(rng.uniform(-1, 1, 3)))
            a = macrorealist_feasible(t)
            b = feasibility_oracle(t)
            assert a.feasible == b.feasible
            assert a.margin == pytest.approx(b.margin, abs=1e-12)

    def test_vertex_system_is_built_once(self, rng, monkeypatch):
        """The vertex system and its inverse are read-only constants: the
        inverse is exactly V^T / 4, which is also what LAPACK's inverse gives,
        and within 4.5e-16 of a per-call solve."""
        from lglab import mrcheck

        system, inverse = mrcheck._VERTEX_SYSTEM, mrcheck._VERTEX_INVERSE
        assert not system.flags.writeable and not inverse.flags.writeable
        assert inverse.tobytes() == (system.T / 4).tobytes()
        assert inverse.tobytes() == np.linalg.inv(system).tobytes()
        assert system.tolist() == [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]

        triples = [(0.3, -0.2, 0.1), *(tuple(rng.uniform(-1, 1, 3).tolist()) for _ in range(10_000))]
        solved = [np.linalg.solve(system, [1.0, *t]).tolist() for t in triples]

        def refused(*args, **kwargs):
            raise AssertionError("the vertex system was factored again")

        monkeypatch.setattr(np.linalg, "solve", refused)
        monkeypatch.setattr(np.linalg, "inv", refused)
        worst = max(
            abs(a - b)
            for t, want in zip(triples, solved)
            for a, b in zip(feasibility_oracle(CorrelationTriple(*t)).q.values(), want)
        )
        assert worst <= 4.5e-16


class TestRouteEquivalence:
    def test_three_routes_agree_random(self, rng):
        for _ in range(2000):
            t = CorrelationTriple(*(rng.uniform(-1, 1, 3)))
            table = macrorealist_feasible(t)
            via_moments = table.feasible
            via_vertices = feasibility_oracle(t).feasible
            report = lg_from_quasi(table)
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
    """The interferometer's verdict, read off :func:`mz_lg_closed_form`: the
    joint q = K/4 is feasible exactly when no K is violated."""

    def test_endpoint_feasible(self):
        assert mz_lg_closed_form(MZConfig(beta=0.0)).violated_index is None

    def test_generic_infeasible(self):
        report = mz_lg_closed_form(MZConfig(beta=0.5))
        assert report.violated_index == 31
        assert min(report.values().values()) / 4 == pytest.approx((1 - SQ3) / 8, abs=1e-12)

    def test_balanced_saturation_feasible(self):
        report = mz_lg_closed_form(MZConfig(beta=1 / np.sqrt(2)))
        assert report.violated_index is None
        assert min(report.values().values()) / 4 == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_exactly_off_exceptional(self):
        exceptional = (-1.0, -1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 1.0)
        for beta in np.linspace(-1.0, 1.0, 401):
            report = mz_lg_closed_form(MZConfig(beta=float(beta)))
            near = any(abs(beta - e) < 1e-9 for e in exceptional)
            assert (report.violated_index is None) == near


class TestOneViolationRule:
    """K below -VIOLATION_TOL (1e-12) is a violation, whether it is read as K,
    as q = K/4 or as the K = 2 p(f) (1 -+ Re w) of a weak value."""

    def test_k_at_twice_the_tolerance_is_infeasible(self):
        cfg = MZConfig(beta=1e-12)
        report = mz_lg_closed_form(cfg)
        assert report.violated_index == 31
        assert -4e-12 < report.k31 < -1e-12

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
