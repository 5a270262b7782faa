"""Monte Carlo harness: determinism, exact zeros, convergence to closed forms."""

import numpy as np
import pytest

from lglab import (
    MZConfig,
    RunSpec,
    empirical_lg,
    empirical_nsit,
    mz_lg_closed_form,
    outcome_probabilities,
    run,
)

SQ3 = np.sqrt(3.0)


class TestRunSpec:
    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError, match="shots"):
            RunSpec(cfg=MZConfig(beta=0.5), shots=0, seed=1, kind="path")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            RunSpec(cfg=MZConfig(beta=0.5), shots=10, seed=1, kind="magic")

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            RunSpec(cfg=MZConfig(beta=0.5), shots=10, seed=-1, kind="path")

    @pytest.mark.parametrize(
        "shots, seed, field",
        [(1000.5, 1, "shots"), (1000.0, 1, "shots"), ("10", 1, "shots"), (True, 1, "shots"),
         (10, 1.7, "seed"), (10, -0.5, "seed"), (10, 2.0, "seed"), (10, False, "seed")],
    )
    def test_rejects_non_integers(self, shots, seed, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            RunSpec(cfg=MZConfig(beta=0.5), shots=shots, seed=seed, kind="path")

    def test_numpy_integers_pass(self):
        spec = RunSpec(cfg=MZConfig(beta=0.5), shots=np.int64(1000), seed=np.uint64(7), kind="path")
        assert run(spec).counts == run(RunSpec(MZConfig(beta=0.5), 1000, 7, "path")).counts

    @pytest.mark.parametrize("seed", [2**64, -1, 0.5, True])
    @pytest.mark.parametrize("estimator", [empirical_lg, empirical_nsit])
    def test_master_seed_has_the_run_seed_rule(self, estimator, seed):
        with pytest.raises(ValueError, match="^seed must be"):
            estimator(MZConfig(beta=0.5), 10, seed)


class TestOutcomeProbabilities:
    def test_interference(self):
        probs = outcome_probabilities(MZConfig(beta=0.5), "interference")
        assert probs["psi3"] == pytest.approx((2 + SQ3) / 4, abs=1e-12)
        assert probs["psi4"] == pytest.approx((2 - SQ3) / 4, abs=1e-12)

    def test_path(self):
        probs = outcome_probabilities(MZConfig(beta=0.5), "path")
        assert probs["psi1"] == pytest.approx(0.75, abs=1e-12)
        assert probs["psi2"] == pytest.approx(0.25, abs=1e-12)

    def test_sequential_sums_to_one(self):
        probs = outcome_probabilities(MZConfig(beta=0.5), "sequential")
        assert len(probs) == 4
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


class TestDeterminism:
    def test_identical_spec_identical_counts(self):
        spec = RunSpec(cfg=MZConfig(beta=0.5), shots=100_000, seed=12345, kind="sequential")
        assert run(spec).counts == run(spec).counts

    def test_different_seeds_differ(self):
        cfg = MZConfig(beta=0.5)
        a = run(RunSpec(cfg=cfg, shots=100_000, seed=1, kind="interference"))
        b = run(RunSpec(cfg=cfg, shots=100_000, seed=2, kind="interference"))
        assert a.counts != b.counts

    def test_empirical_lg_reproducible(self):
        cfg = MZConfig(beta=0.5)
        r1 = empirical_lg(cfg, 10_000, 7)
        r2 = empirical_lg(cfg, 10_000, 7)
        assert r1.report == r2.report


class TestExactZeros:
    def test_dark_port_never_fires(self):
        cfg = MZConfig(beta=1 / np.sqrt(2))
        for seed in range(5):
            est = run(RunSpec(cfg=cfg, shots=10_000, seed=seed, kind="interference"))
            assert est.counts["psi4"] == 0
            assert est.stderr["psi4"] == pytest.approx(3.0 / 10_000)
            assert "rule-of-three" in est.metadata["zero_count_stderr_rule"]


class TestEstimates:
    def test_counts_sum_and_frequencies(self):
        est = run(RunSpec(cfg=MZConfig(beta=0.5), shots=50_000, seed=3, kind="sequential"))
        assert sum(est.counts.values()) == est.total == 50_000
        for k, c in est.counts.items():
            assert est.estimates[k] == pytest.approx(c / 50_000, abs=0)

    def test_interference_within_four_sigma(self):
        est = run(RunSpec(cfg=MZConfig(beta=0.5), shots=1_000_000, seed=42, kind="interference"))
        target = (2 - SQ3) / 4
        assert abs(est.estimates["psi4"] - target) < 4 * est.stderr["psi4"]

    def test_sequential_correlator_within_four_sigma(self):
        report = empirical_lg(MZConfig(beta=0.5), 1_000_000, 42)
        assert abs(report.corr_est - 0.0) < 4 * max(report.corr_stderr, 1e-6)

    def test_sequential_marginal_matches_balanced_prediction(self):
        # after a path measurement the psi3 port fires with probability 1/2
        cfg = MZConfig(beta=1 / np.sqrt(2))
        est = run(RunSpec(cfg=cfg, shots=1_000_000, seed=11, kind="sequential"))
        p3_seq = est.estimates["m2=+1,m3=-1"] + est.estimates["m2=-1,m3=-1"]
        assert abs(p3_seq - 0.5) < 4 * np.sqrt(0.25 / 1_000_000)


class TestEmpiricalLG:
    def test_k31_within_four_sigma(self):
        report = empirical_lg(MZConfig(beta=0.5), 1_000_000, 42)
        truth = (1 - SQ3) / 2
        assert abs(report.report.k31 - truth) < 4 * report.k_stderr[31]

    def test_no_false_violation_at_endpoint(self):
        report = empirical_lg(MZConfig(beta=0.0), 10_000, 5)
        for idx, val in report.report.values().items():
            assert val > -4 * report.k_stderr[idx]

    def test_strong_violation_detected(self):
        cfg = MZConfig(beta=0.9)
        report = empirical_lg(cfg, 1_000_000, 42)
        truth = 2 * cfg.alpha * (cfg.alpha - 0.9)
        assert report.report.k32 < -4 * report.k_stderr[32]
        assert abs(report.report.k32 - truth) < 4 * report.k_stderr[32]

    def test_rounding_zero_is_no_violation(self):
        # three shots make K31 = 0 in exact arithmetic; the float sum reads
        # -5.6e-17, above -VIOLATION_TOL, so it is no violation
        report = empirical_lg(MZConfig(beta=0.9), 3, 27).report
        assert -1e-12 < report.k31 < 0.0
        assert report.violated_index is None

    def test_phase_matches_closed_form(self):
        # the path and sequential runs are blind to phi (a global phase on each
        # collapsed path state); only <M3> carries it, as the closed form does
        cfg = MZConfig(beta=0.5, phi=1.0)
        report = empirical_lg(cfg, 1_000_000, 42)
        truth = mz_lg_closed_form(cfg).values()
        for idx, val in report.report.values().items():
            assert abs(val - truth[idx]) < 4 * report.k_stderr[idx]


class TestEmpiricalNSIT:
    def test_zero_gap_at_eigenstate(self):
        gap, se = empirical_nsit(MZConfig(beta=0.0), 100_000, 1)
        assert abs(gap) < 4 * se

    def test_generic_gap(self):
        gap, se = empirical_nsit(MZConfig(beta=0.5), 1_000_000, 42)
        assert abs(gap - SQ3 / 4) < 4 * se

    def test_balanced_gap(self):
        gap, se = empirical_nsit(MZConfig(beta=1 / np.sqrt(2)), 1_000_000, 42)
        assert abs(gap - 0.5) < 4 * max(se, 1e-6)


class TestConvergence:
    def test_large_shot_smoke(self):
        # 1e7-shot smoke check: all interference estimates inside shrinking bands
        est = run(RunSpec(cfg=MZConfig(beta=0.5), shots=10_000_000, seed=99, kind="interference"))
        assert abs(est.estimates["psi4"] - (2 - SQ3) / 4) < 4 * est.stderr["psi4"]

    def test_four_sigma_band_failure_rate(self):
        # binomial sanity: <= 2 misses out of 100 seeded repetitions
        cfg = MZConfig(beta=0.5)
        target = (2 - SQ3) / 4
        misses = 0
        for seed in range(100):
            est = run(RunSpec(cfg=cfg, shots=100_000, seed=seed, kind="interference"))
            if abs(est.estimates["psi4"] - target) >= 4 * est.stderr["psi4"]:
                misses += 1
        assert misses <= 2


def same_bits(got, want) -> bool:
    """Equal as IEEE doubles, signed zeros told apart."""
    return float(got).hex() == float(want).hex()


class TestPinnedReadings:
    """Every reading of a few seeded runs, as recorded before the readings
    became properties of the stored counts and moments."""

    def test_empirical_lg(self):
        lg = empirical_lg(MZConfig(beta=0.5), 1000, 7)
        want = {31: -0.32000000000000006, 32: 0.6079999999999999, 33: 1.312, 34: 2.4000000000000004}
        assert lg.report.values().keys() == want.keys()
        assert all(same_bits(lg.report.values()[i], want[i]) for i in want)
        assert lg.report.violated_index == 31
        assert same_bits(lg.report.values()[lg.report.violated_index], -0.32000000000000006)
        assert lg.k_stderr.keys() == want.keys()
        assert all(same_bits(se, 0.044851399086316135) for se in lg.k_stderr.values())
        for name, value in (
            ("m2_est", 0.504),
            ("m2_stderr", 0.02731270766511442),
            ("m3_est", -0.8560000000000001),
            ("m3_stderr", 0.01634821091128934),
            ("corr_est", -0.040000000000000036),
            ("corr_stderr", 0.0315974682530104),
        ):
            assert same_bits(getattr(lg, name), value), name
        assert (lg.shots, lg.seed) == (1000, 7)

    @pytest.mark.parametrize(
        "beta, kind, counts, stderr, zero",
        [
            (0.5, "interference", {"psi3": 952, "psi4": 48},
             {"psi3": 0.006759881655768837, "psi4": 0.006759881655768835}, []),
            (0.5, "path", {"psi1": 734, "psi2": 266},
             {"psi1": 0.013972973913952606, "psi2": 0.013972973913952606}, []),
            (0.5, "sequential",
             {"m2=+1,m3=+1": 390, "m2=+1,m3=-1": 360, "m2=-1,m3=+1": 116, "m2=-1,m3=-1": 134},
             {"m2=+1,m3=+1": 0.01542400726140908, "m2=+1,m3=-1": 0.015178932768808221,
              "m2=-1,m3=+1": 0.010126401137620413, "m2=-1,m3=-1": 0.010772372069326236}, []),
            (1 / np.sqrt(2), "interference", {"psi3": 1000, "psi4": 0},
             {"psi3": 0.0, "psi4": 0.003}, ["psi4"]),
            (0.0, "sequential",
             {"m2=+1,m3=+1": 514, "m2=+1,m3=-1": 486, "m2=-1,m3=+1": 0, "m2=-1,m3=-1": 0},
             {"m2=+1,m3=+1": 0.015805189021330938, "m2=+1,m3=-1": 0.015805189021330938,
              "m2=-1,m3=+1": 0.003, "m2=-1,m3=-1": 0.003}, ["m2=-1,m3=+1", "m2=-1,m3=-1"]),
        ],
    )
    def test_run(self, beta, kind, counts, stderr, zero):
        est = run(RunSpec(cfg=MZConfig(beta=float(beta)), shots=1000, seed=7, kind=kind))
        assert list(est.counts.items()) == list(counts.items())
        assert est.total == 1000
        assert list(est.estimates) == list(counts)
        for k, c in counts.items():
            assert same_bits(est.estimates[k], c / 1000) and same_bits(est.estimate(k), c / 1000)
            assert same_bits(est.stderr[k], stderr[k]), k
        meta = {"rng": "numpy Philox(4x64)", "seed": 7, "kind": kind}
        if zero:
            meta.update(zero_count_stderr_rule="rule-of-three upper bound 3/N", zero_count_outcomes=zero)
        assert list(est.metadata.items()) == list(meta.items())
