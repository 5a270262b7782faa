"""Leggett-Garg evaluators: sequential correlators, K3, two-time forms, sweep."""

import numpy as np
import pytest

from lglab import (
    DichotomicObservable,
    MZConfig,
    Operator,
    StateVector,
    detection_probabilities,
    input_state,
    lg_from_quasi,
    mr_reading,
    mz_lg_closed_form,
    mz_two_time_lg,
    mz_verdict,
    mz_weak_values,
    output_observable,
    path_observable,
    precession_k3,
    quasi,
    sequential_correlation,
    sequential_joint,
    sweep_beta,
    two_time_lg,
)

from conftest import random_dichotomic, random_state
from oracles import k3, precession_observables

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
        assert report.margin == pytest.approx((SQ3 - 1) / 2, abs=1e-12)

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
            assert mz_verdict(cfg).feasible
            assert not any(w.anomalous_real for w in mz_weak_values(cfg))

    def test_phi_one_example(self):
        cfg = MZConfig(beta=0.5, phi=1.0)
        for report in self.reports(cfg):
            assert report.violated_index is None
            assert report.k31 == pytest.approx(2 * 0.5 * (0.5 - cfg.alpha * np.cos(1.0)), abs=1e-12)
        assert mz_verdict(cfg).feasible
        w3, w4 = mz_weak_values(cfg)
        assert w3.nonzero_imag and w4.nonzero_imag
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
                table = mr_reading(e2, e3, e2 * e3)
                report = lg_from_quasi(table)
                assert min(report.k31, report.k32, report.k33, report.k34) >= 0.0
                # three-time form with M1 fixed at +1: K3 = e2 + e2*e3 - e3 - 1 <= 0
                assert e2 + e2 * e3 - e3 - 1.0 <= 0.0
