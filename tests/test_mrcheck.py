"""Macrorealist feasibility: moment route, vertex-solve oracle, LGI equivalence."""

import json
import math
import re

import numpy as np
import pytest

from lglab import (
    CorrelationTriple,
    MZConfig,
    QuasiprobTable,
    TwoTimeLGReport,
    WeakValueResult,
    feasibility_oracle,
    lg_from_quasi,
    macrorealist_feasible,
    mz_lg_closed_form,
    mz_weak_values,
    sequential_joint,
    sweep_beta,
)
from lglab.cli import main
from lglab.qcore import VIOLATION_TOL

from conftest import random_dichotomic, random_state

SQ3 = np.sqrt(3.0)

# a K one ulp below -VIOLATION_TOL, at it and one ulp above it, each with
# whether it is a violation: the boundary of the one rule, ``qcore._violates``
BOUNDARY = [
    (math.nextafter(-VIOLATION_TOL, -math.inf), True),
    (-VIOLATION_TOL, False),
    (math.nextafter(-VIOLATION_TOL, 0.0), False),
]
BOUNDARY_IDS = ["one-ulp-below", "at", "one-ulp-above"]
at_the_boundary = pytest.mark.parametrize("k, violates", BOUNDARY, ids=BOUNDARY_IDS)


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

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_an_int_past_the_double_range_is_named(self, index):
        # float() cannot convert it to a double; qcore._real names the field, as for every field
        moments = [0.0, 0.0, 0.0]
        moments[index] = 10**400
        name = ("e2", "e3", "e23")[index]
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got a number past the double range$"):
            CorrelationTriple(*moments)

    @pytest.mark.parametrize("moments, name", [(("0.5", 0, 0), "e2"), ((0, 0.5j, 0), "e3"), ((0, 0, None), "e23")])
    def test_a_value_that_is_not_a_real_number_is_named(self, moments, name):
        # qcore._real refuses it
        bad = moments[("e2", "e3", "e23").index(name)]
        with pytest.raises(ValueError, match=rf"^{name} must be a real number, got {bad!r}$"):
            CorrelationTriple(*moments)


    def test_a_numpy_scalar_is_stored_as_a_float(self):
        # a float32 moment used to reach the table as it was, so the verdict was single precision
        t = CorrelationTriple(np.float32(0.1), np.int64(0), 0)
        assert t == CorrelationTriple(float(np.float32(0.1)), 0.0, 0.0)
        assert {type(v) for v in macrorealist_feasible(t).q.values()} == {float}


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
        from lglab.lgi import k_from_moments

        triples = [CorrelationTriple(*rng.uniform(-1, 1, 3).tolist()) for _ in range(1000)]
        triples += [CorrelationTriple(-0.0, 1.0, -1.0), CorrelationTriple(0.0, -0.0, 1)]
        want = [quasiprob._q_table(k_from_moments(t.e2, t.e3, t.e23)) for t in triples]

        def refused(*args, **kwargs):
            raise AssertionError("the triple was checked again")

        # the one check is CorrelationTriple's, on qcore._real and the bound 1
        monkeypatch.setattr(CorrelationTriple, "__init__", refused)
        monkeypatch.setattr(mrcheck, "_real", refused)
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
        """The vertex rows are a constant map of each vertex to its row: over 4
        they are exactly the inverse of the vertex system V, what LAPACK's
        inverse gives, and the oracle stays within 4.5e-16 of a per-call solve."""
        from lglab import mrcheck

        assert all(row == (1, m2, m3, m2 * m3) for (m2, m3), row in mrcheck._VERTEX_ROWS.items())
        rows = tuple(mrcheck._VERTEX_ROWS.values())
        system = np.array(rows).T
        assert (np.array(rows) / 4).tobytes() == np.linalg.inv(system).tobytes()
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
    as q = K/4 or as the K = 2 p(f) (1 -+ Re w) of a weak value. Each verdict
    reader is fed K at -VIOLATION_TOL and one ulp on either side of it."""

    @at_the_boundary
    def test_violated_index_at_the_boundary(self, k, violates):
        assert TwoTimeLGReport(0.5, 0.5, k, 1.0).violated_index == (33 if violates else None)

    @at_the_boundary
    def test_from_values_at_the_boundary(self, k, violates):
        """One K at the boundary is the verdict; two are an AssertionError
        exactly when both violate."""
        assert TwoTimeLGReport.from_values(0.5, k, 0.1, 1.0).violated_index == (32 if violates else None)
        if violates:
            with pytest.raises(AssertionError, match="more than one negative LG value"):
                TwoTimeLGReport.from_values(k, 0.5, k, 1.0)
        else:
            assert TwoTimeLGReport.from_values(k, 0.5, k, 1.0).violated_index is None

    # each beta's K31 = 2 beta (beta - alpha) is exactly the boundary K of its
    # position in BOUNDARY, at the default alpha (1.0 here) and phi = 0
    @pytest.mark.parametrize(
        "beta, k, violates",
        [
            (beta, k, violates)
            for beta, (k, violates) in zip(
                (5.000000000002501e-13, 5.0000000000025e-13, 5.000000000002499e-13), BOUNDARY
            )
        ],
        ids=BOUNDARY_IDS,
    )
    def test_sweep_row_and_closed_form_at_the_boundary(self, beta, k, violates):
        (row,) = sweep_beta([beta])
        assert row.k31.hex() == k.hex()
        assert row.violated_index == (31 if violates else None)
        report = mz_lg_closed_form(MZConfig(beta=beta))
        assert report.k31.hex() == k.hex()
        assert report.violated_index == row.violated_index

    @at_the_boundary
    def test_feasible_at_the_boundary_on_both_routes(self, k, violates):
        # K31 = 4 q(-1, +1) = 1 - e2 - e23 + e3 = -e23, exactly
        t = CorrelationTriple(e2=1.0, e3=0.0, e23=-k)
        for route in (macrorealist_feasible, feasibility_oracle):
            v = route(t)
            assert (4.0 * v.margin).hex() == k.hex()
            assert v.feasible is not violates

    @at_the_boundary
    @pytest.mark.parametrize("w", [2.0, -2.0])
    def test_anomalous_real_at_the_boundary(self, k, violates, w):
        # K = 2 p(f) (1 - |Re w|) = -2 p(f) = k, exactly
        result = WeakValueResult(complex(w, 0.0), -k / 2.0)
        assert (2.0 * result.postselect_prob * (1.0 - abs(w))).hex() == k.hex()
        assert result.anomalous_real is violates

    @at_the_boundary
    def test_mr_check_record_at_the_boundary(self, capsys, k, violates):
        """``--e2 1 --e3 0 --e23 1e-12`` gives K31 = -1e-12 exactly: feasible."""
        assert main(["mr-check", "--e2", "1", "--e3", "0", "--e23", repr(-k)]) == 0
        out = capsys.readouterr().out
        feasible = json.dumps(not violates)
        assert out == f'{{"e2": 1.0, "e3": 0.0, "e23": 1e-12, "feasible": {feasible}, "margin": -2.5e-13}}\n'

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


# q keys in the order a table holds them
Q_KEYS = [(+1, +1), (+1, -1), (-1, +1), (-1, -1)]


class TestNanIsNamed:
    """``sorted`` and ``min`` do not order NaN, so a verdict read past one would
    depend on where it sits. Every verdict reader, and ``negativity``, whose
    ``< 0`` skips a NaN, raises a ValueError naming the NaN, wherever it is; the
    other entries hold one violation (none once the NaN replaces the -0.25)."""

    @pytest.mark.parametrize("pos", range(4), ids=["K31", "K32", "K33", "K34"])
    def test_a_nan_k_is_named_at_every_position(self, pos):
        ks = [0.5, -1.0, 0.5, 0.5]
        ks[pos] = math.nan
        with pytest.raises(ValueError, match=f"^K{31 + pos} is nan$"):
            TwoTimeLGReport(*ks).violated_index
        with pytest.raises(ValueError, match=f"^K{31 + pos} is nan$"):
            TwoTimeLGReport.from_values(*ks)

    @pytest.mark.parametrize("key", Q_KEYS, ids=[f"q({mi:+d},{mj:+d})" for mi, mj in Q_KEYS])
    @pytest.mark.parametrize("reader", ["margin", "feasible", "negativity"])
    def test_a_nan_q_is_named_at_every_position(self, key, reader):
        q = dict(zip(Q_KEYS, (0.25, 0.25, -0.25, 0.75)))
        q[key] = math.nan
        with pytest.raises(ValueError, match=re.escape(f"q({key[0]:+d},{key[1]:+d}) is nan")):
            getattr(QuasiprobTable(q), reader)
