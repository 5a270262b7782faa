"""Leggett-Garg evaluators: sequential correlators, K3, two-time forms, sweep."""

import math

import numpy as np
import pytest

from lglab import (
    CorrelationTriple,
    DichotomicObservable,
    MZConfig,
    Operator,
    StateVector,
    TwoTimeLGReport,
    detection_probabilities,
    input_state,
    lg_from_quasi,
    macrorealist_feasible,
    mz_lg_closed_form,
    mz_weak_values,
    output_observable,
    path_observable,
    precession_k3,
    quasi,
    sequential_correlation,
    sequential_joint,
    sweep_beta,
)
from lglab.cli import _sweep_rows

from conftest import random_dichotomic, random_state
from oracles import (
    k3,
    mz_two_time_lg,
    precession_observables,
    sequential_joint_numpy,
    two_time_lg,
)

SQ3 = np.sqrt(3.0)


def joint_oracle(state, Mi, Mj):
    """Brute-force enumeration: explicit collapse and renormalization per branch."""
    probs = {}
    for mi in (+1, -1):
        branch = Mi.projector(mi).entries @ state.amps
        pi = float(np.vdot(branch, branch).real)
        if pi == 0.0:
            for mj in (+1, -1):
                probs[(mi, mj)] = 0.0
            continue
        collapsed = branch / np.sqrt(pi)
        for mj in (+1, -1):
            pj = float(np.vdot(collapsed, Mj.projector(mj).entries @ collapsed).real)
            probs[(mi, mj)] = pi * pj
    return probs


class TestSequentialCorrelation:
    def test_repeated_measurement_on_eigenstate(self):
        m2 = path_observable()
        assert sequential_correlation(StateVector([1.0, 0.0]), m2, m2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [-0.9, -0.3, 0.0, 0.5, 1 / np.sqrt(2), 0.99])
    def test_unbiased_bases_vanish(self, beta):
        # oracle: explicit sum of the four joint terms
        state = input_state(MZConfig(beta=beta))
        m2, m3 = path_observable(), output_observable()
        oracle = sum(mi * mj * p for (mi, mj), p in joint_oracle(state, m2, m3).items())
        val = sequential_correlation(state, m2, m3)
        assert val == pytest.approx(oracle, abs=1e-12)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_precession_pair(self):
        # successive observables separated by pi/3 -> correlator 1/2
        m1, m2, _ = precession_observables(np.pi / 3)
        val = sequential_correlation(StateVector([1.0, 0.0]), m1, m2)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_matches_oracle_random(self, rng):
        for _ in range(300):
            state = random_state(rng)
            mi, mj = random_dichotomic(rng), random_dichotomic(rng)
            oracle = sum(a * b * p for (a, b), p in joint_oracle(state, mi, mj).items())
            assert sequential_correlation(state, mi, mj) == pytest.approx(oracle, abs=1e-12)
            joint = sequential_joint(state, mi, mj)
            assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)

    def test_in_range(self, rng):
        for _ in range(100):
            val = sequential_correlation(
                random_state(rng), random_dichotomic(rng), random_dichotomic(rng)
            )
            assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


class TestSequentialJointBits:
    """The plain-Python joint against the numpy matrix-vector route it replaced:
    the same bits on interferometer inputs, which the pinned ``simulate``
    counts draw from, and 1e-15 on any state and observables."""

    @staticmethod
    def mz_configs():
        rng = np.random.default_rng(16)
        cfgs = [MZConfig(beta=float(b)) for b in np.linspace(-1.0, 1.0, 1001)]
        cfgs += [MZConfig(beta=b) for b in (-1.0, -1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 1.0)]
        for beta, phi, sign in zip(rng.uniform(-1.0, 1.0, 2000).tolist(),
                                   rng.uniform(-10.0, 10.0, 2000).tolist(),
                                   rng.choice([1.0, -1.0], 2000).tolist()):
            cfgs.append(MZConfig(beta=beta, alpha=sign * np.sqrt(1.0 - beta**2), phi=phi))
        return cfgs

    def test_bit_identical_on_interferometer_inputs(self):
        m2, m3 = path_observable(), output_observable()
        mismatched = [
            cfg for cfg in self.mz_configs()
            if sequential_joint(input_state(cfg), m2, m3)
            != sequential_joint_numpy(input_state(cfg), m2, m3)
        ]
        assert mismatched == []

    def test_within_1e_15_on_random_states(self, rng):
        for _ in range(2000):
            state, mi, mj = random_state(rng), random_dichotomic(rng), random_dichotomic(rng)
            fast, oracle = sequential_joint(state, mi, mj), sequential_joint_numpy(state, mi, mj)
            assert max(abs(fast[k] - oracle[k]) for k in oracle) <= 1e-15


class TestK3:
    def test_identical_observables_saturate(self):
        m = path_observable()
        assert k3(StateVector([1.0, 0.0]), m, m, m) == pytest.approx(0.0, abs=1e-12)

    def test_precession_maximum(self):
        # oracle: exhaustive joint-outcome enumeration via joint_oracle
        theta = np.pi / 3
        m1, m2, m3 = precession_observables(theta)
        state = StateVector([1.0, 0.0])
        cs = []
        for a, b in ((m1, m2), (m2, m3), (m1, m3)):
            cs.append(sum(x * y * p for (x, y), p in joint_oracle(state, a, b).items()))
        oracle = cs[0] + cs[1] - cs[2] - 1.0
        assert precession_k3(theta) == pytest.approx(oracle, abs=1e-12)
        assert precession_k3(theta) == pytest.approx(0.5, abs=1e-9)

    def test_right_angle(self):
        # cos-law: K3 = 2 cos(pi/2) - cos(pi) - 1 = 0
        assert precession_k3(np.pi / 2) == pytest.approx(0.0, abs=1e-12)


class TestTwoTimeLG:
    def test_mz_violation_example(self):
        report = mz_two_time_lg(MZConfig(beta=0.5))
        assert report.k31 == pytest.approx((1 - SQ3) / 2, abs=1e-12)
        assert report.violated_index == 31

    def test_no_interference_endpoint(self):
        report = mz_two_time_lg(MZConfig(beta=0.0))
        assert (report.k31, report.k32, report.k33, report.k34) == pytest.approx(
            (0.0, 2.0, 0.0, 2.0), abs=1e-12
        )
        assert report.violated_index is None

    def test_balanced_saturation(self):
        report = mz_two_time_lg(MZConfig(beta=1 / np.sqrt(2)))
        assert report.k31 == pytest.approx(0.0, abs=1e-12)
        assert report.k32 == pytest.approx(0.0, abs=1e-12)
        assert report.k33 == pytest.approx(2.0, abs=1e-12)
        assert report.k34 == pytest.approx(2.0, abs=1e-12)
        assert report.violated_index is None

    def test_generic_states_consistent(self, rng):
        # internal weak-value-route assertion runs on every call
        for _ in range(200):
            two_time_lg(random_state(rng), random_dichotomic(rng), random_dichotomic(rng))


class TestDerivedReadings:
    """The verdict is read off the four K values."""

    def test_most_negative_of_several_is_named(self):
        # two violations: finite-shot estimates can give these, exact routes cannot
        report = TwoTimeLGReport(-0.3, -0.1, 0.5, 0.9)
        assert report.violated_index == 31
        with pytest.raises(AssertionError, match="more than one negative LG value"):
            TwoTimeLGReport.from_values(-0.3, -0.1, 0.5, 0.9)
        later = TwoTimeLGReport(-0.1, 0.5, -0.3, 0.9)
        assert later.violated_index == 33

    def test_ties_go_to_the_first_index(self):
        assert TwoTimeLGReport(0.5, -0.2, 0.1, -0.2).violated_index == 32

    def test_tolerance_decides(self):
        report = TwoTimeLGReport(0.5, -1e-13, 0.1, 1.0)
        assert report.violated_index is None
        assert TwoTimeLGReport(0.5, 0.0, -2e-12, 1.0).violated_index == 33

    def test_from_values_stores_only_the_k_values(self):
        report = TwoTimeLGReport.from_values(0.5, -0.2, 0.1, 1.0)
        assert report == TwoTimeLGReport(0.5, -0.2, 0.1, 1.0)
        assert report.violated_index == 32


class TestClosedForm:
    def test_beta_half(self):
        report = mz_lg_closed_form(MZConfig(beta=0.5))
        expected = ((1 - SQ3) / 2, (3 - SQ3) / 2, (1 + SQ3) / 2, (3 + SQ3) / 2)
        assert (report.k31, report.k32, report.k33, report.k34) == pytest.approx(expected, abs=1e-12)

    def test_beta_zero(self):
        report = mz_lg_closed_form(MZConfig(beta=0.0))
        assert (report.k31, report.k32, report.k33, report.k34) == pytest.approx(
            (0.0, 2.0, 0.0, 2.0), abs=1e-12
        )

    def test_large_beta_violates_second(self):
        cfg = MZConfig(beta=0.9)
        report = mz_lg_closed_form(cfg)
        assert report.k32 == pytest.approx(2 * cfg.alpha * (cfg.alpha - 0.9), abs=1e-12)
        assert report.k32 < 0
        assert report.violated_index == 32

    @pytest.mark.parametrize("beta", np.linspace(-1.0, 1.0, 101))
    def test_agrees_with_full_evaluation(self, beta):
        cfg = MZConfig(beta=float(beta))
        closed = mz_lg_closed_form(cfg)
        full = mz_two_time_lg(cfg)
        for c, f in zip(
            (closed.k31, closed.k32, closed.k33, closed.k34),
            (full.k31, full.k32, full.k33, full.k34),
        ):
            assert c == pytest.approx(f, abs=1e-12)


class TestPhase:
    """The phase shifter turns the effect on and off for every route at once."""

    @staticmethod
    def reports(cfg):
        m2, m3 = path_observable(), output_observable()
        return (
            mz_lg_closed_form(cfg),
            mz_two_time_lg(cfg),
            lg_from_quasi(quasi(input_state(cfg), m2, m3)),
        )

    def test_no_fringe_no_violation_on_grid(self):
        for beta in np.linspace(-1.0, 1.0, 1001):
            cfg = MZConfig(beta=float(beta), phi=np.pi / 2)
            assert detection_probabilities(cfg) == pytest.approx((0.5, 0.5), abs=1e-12)
            assert all(r.violated_index is None for r in self.reports(cfg))
            assert not any(w.anomalous_real for w in mz_weak_values(cfg))

    def test_phi_one_example(self):
        cfg = MZConfig(beta=0.5, phi=1.0)
        for report in self.reports(cfg):
            assert report.violated_index is None
            assert report.k31 == pytest.approx(2 * 0.5 * (0.5 - cfg.alpha * np.cos(1.0)), abs=1e-12)
        w3, w4 = mz_weak_values(cfg)
        b = 0.5 * np.exp(-1.0j)
        assert w3.value == pytest.approx((cfg.alpha - b) / (cfg.alpha + b), abs=1e-12)
        assert w4.value == pytest.approx((cfg.alpha + b) / (cfg.alpha - b), abs=1e-12)
        assert min(abs(w3.value.imag), abs(w4.value.imag)) > 0.1
        assert not (w3.anomalous_real or w4.anomalous_real)


EXCEPTIONAL = (-1.0, -1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 1.0)


def near_exceptional(beta):
    return any(abs(beta - e) < 1e-9 for e in EXCEPTIONAL)


class TestSweep:
    def test_single_point_no_violation(self):
        (row,) = sweep_beta([0.0])
        assert row.violated_index is None

    def test_single_point_violation(self):
        (row,) = sweep_beta([0.5])
        assert row.violated_index == 31

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sweep_beta([1.5])

    @pytest.mark.parametrize(
        "grid",
        [np.zeros((2, 2)), [[0.1, 0.2]], 0.5, "01", b"1", bytearray(b"1")],
        ids=["2d-ndarray", "nested-list", "bare-float", "str", "bytes", "bytearray"],
    )
    def test_rejects_a_grid_that_is_not_a_sequence_of_numbers(self, grid):
        with pytest.raises(ValueError, match="beta grid"):
            sweep_beta(grid)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"beta must lie in \[-1, 1\], got nan"):
            sweep_beta([0.0, math.nan])

    def test_list_tuple_and_ndarray_give_the_same_bits(self):
        # a float's repr round-trips its bits, the sign of a zero included
        betas = [-1.0, -0.0, 0.0, 0.3, 2**-0.5, 1.0]
        first, *others = (repr(sweep_beta(grid)) for grid in (betas, tuple(betas), np.array(betas)))
        assert others == [first, first]

    def test_grid_violation_pattern(self):
        # oracle: sign analysis of the four closed forms per beta region
        rows = sweep_beta(np.linspace(-1.0, 1.0, 1001))
        for row in rows:
            ks = (row.k31, row.k32, row.k33, row.k34)
            if near_exceptional(row.beta):
                assert row.violated_index is None
                assert min(ks) >= -1e-12
                continue
            negatives = [k for k in ks if k < -1e-12]
            assert len(negatives) == 1
            if 0 < row.beta < 1 / np.sqrt(2):
                assert row.violated_index == 31
            elif row.beta > 1 / np.sqrt(2):
                assert row.violated_index == 32
            elif -1 / np.sqrt(2) < row.beta < 0:
                assert row.violated_index == 33
            else:
                assert row.violated_index == 34

    def test_anomaly_matches_violation(self):
        rows = sweep_beta(np.linspace(-1.0, 1.0, 1001))
        for row in rows:
            if near_exceptional(row.beta):
                continue
            assert (row.violated_index == 31) == (row.w4 is not None and row.w4 > 1)
            assert (row.violated_index == 32) == (row.w4 is not None and row.w4 < -1)
            assert (row.violated_index == 33) == (row.w3 is not None and row.w3 > 1)
            assert (row.violated_index == 34) == (row.w3 is not None and row.w3 < -1)

    def test_fig2_rows_within_bounds_of_exact(self):
        """Every row ``reproduce-fig2`` writes, against 50-digit values of its
        double beta, with alpha = sqrt(1 - beta^2) exact: alpha within 8 eps
        relative, K within 4 eps, p within 2 eps, and each defined w within
        256 eps relative (alpha -+ beta cancels next to the dark ports). The
        worst errors measured were 7.0, 3.2, 1.4 and 200.6 eps."""
        mpmath = pytest.importorskip("mpmath")
        eps = 2.0**-52
        with mpmath.workdps(50):
            for row in _sweep_rows({"grid": 1001, "min": -1.0, "max": 1.0}):
                b = mpmath.mpf(row.beta)
                a = mpmath.sqrt(1 - b * b)
                assert abs(row.alpha - a) <= 8 * eps * a
                exact_k = (2 * b * (b - a), 2 * a * (a - b), 2 * b * (b + a), 2 * a * (a + b))
                for got, want in zip((row.k31, row.k32, row.k33, row.k34), exact_k):
                    assert abs(got - want) <= 4 * eps
                for got, want in ((row.p3, (a + b) ** 2 / 2), (row.p4, (a - b) ** 2 / 2)):
                    assert abs(got - want) <= 2 * eps
                for got, want in ((row.w3, (a - b) / (a + b)), (row.w4, (a + b) / (a - b))):
                    assert got is None or abs(got - want) <= 256 * eps * abs(want)

    def test_builds_one_state_and_no_fixed_object_per_point(self, monkeypatch):
        """Regression guard: the observables and port vectors are built once, at
        import, and the sweep works on whole columns, so it constructs no state,
        operator or observable at all."""
        counts = {}

        def counting(cls):
            init = cls.__init__

            def counted(self, *args, **kwargs):
                counts[cls.__name__] = counts.get(cls.__name__, 0) + 1
                init(self, *args, **kwargs)

            return counted

        for cls in (StateVector, Operator, DichotomicObservable):
            monkeypatch.setattr(cls, "__init__", counting(cls))
        sweep_beta(np.linspace(-1.0, 1.0, 1001))
        assert counts == {}


class TestMacrorealistBound:
    def test_classical_vertices_satisfy_all(self):
        # deterministic assignments: all four K >= 0 and K3 <= 0 exactly
        for e2 in (-1.0, 1.0):
            for e3 in (-1.0, 1.0):
                table = macrorealist_feasible(CorrelationTriple(e2, e3, e2 * e3))
                report = lg_from_quasi(table)
                assert min(report.k31, report.k32, report.k33, report.k34) >= 0.0
                # three-time form with M1 fixed at +1: K3 = e2 + e2*e3 - e3 - 1 <= 0
                assert e2 + e2 * e3 - e3 - 1.0 <= 0.0
