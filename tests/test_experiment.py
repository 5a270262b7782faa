"""Monte Carlo harness: determinism, the reused per-thread generator against a
fresh one per run, the memoised probability vectors and child seeds (numpy's
``SeedSequence`` bits), exact zeros, convergence to closed forms, and a canary
table of numpy's Philox multinomial stream that every seeded pin rests on."""

import dataclasses
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lglab import (
    MZConfig,
    RunSpec,
    empirical_lg,
    empirical_nsit,
    mz_lg_closed_form,
    outcome_probabilities,
    run,
)
from lglab import experiment
from lglab.experiment import KINDS, _child_seeds, _sampling_vectors
from lglab.qcore import _Record

from oracles import philox_counts, run_probabilities, sampling_vector_numpy

SQ3 = np.sqrt(3.0)


def typed_bits(value):
    """``value`` with each number as its exact type and bits (floats by
    ``float.hex``, so signed zeros count), through records (``_Record`` slots,
    or the fields of the one dataclass), dicts and sequences."""
    if isinstance(value, _Record):
        return type(value), typed_bits({name: getattr(value, name) for name in value.__slots__})
    if dataclasses.is_dataclass(value):
        return type(value), typed_bits({f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    if isinstance(value, dict):
        return {k: typed_bits(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [typed_bits(v) for v in value]
    return type(value), value.hex() if isinstance(value, float) else value


def builtin_only(bits) -> bool:
    """No number in a :func:`typed_bits` result has a numpy type."""
    if isinstance(bits, dict):
        return all(map(builtin_only, bits.values()))
    if isinstance(bits, tuple) and len(bits) == 2 and isinstance(bits[0], type):
        kind, inner = bits
        return builtin_only(inner) if isinstance(inner, (dict, list)) else kind.__module__ == "builtins"
    return all(map(builtin_only, bits))


def mz_config(beta: float, phi: float, alpha_sign: int | None) -> MZConfig:
    """The config at (beta, phi), with the default alpha or an explicit +-sqrt(1 - beta^2)."""
    if alpha_sign is None:
        return MZConfig(beta=beta, phi=phi)
    return MZConfig(beta=beta, alpha=alpha_sign * math.sqrt((1.0 - beta) * (1.0 + beta)), phi=phi)


# a run: any beta (dark ports, single-path ends and both zeros included), phase
# and alpha (default or explicit, either sign), any 64-bit seed (both ends and
# the top bit always in play), any kind, 1 to 1e9 shots
run_spec = st.builds(
    RunSpec,
    st.builds(
        mz_config,
        st.one_of(st.sampled_from([-1.0, -1 / np.sqrt(2), -0.0, 0.0, 1 / np.sqrt(2), 1.0]),
                  st.floats(min_value=-1.0, max_value=1.0)),
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-7.0, max_value=7.0)),
        st.sampled_from([None, +1, -1]),
    ),
    st.one_of(st.sampled_from([1, 10**9]), st.integers(min_value=1, max_value=10**9)),
    st.one_of(st.sampled_from([0, 2**63, 2**64 - 1]),
              st.integers(min_value=0, max_value=2**64 - 1)),
    st.sampled_from(KINDS),
)


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

    @pytest.mark.parametrize("cfg", [None, {"beta": 0.5}, 0.5])
    def test_rejects_a_cfg_that_is_not_an_mzconfig(self, cfg):
        with pytest.raises(ValueError, match="^cfg must be an MZConfig"):
            RunSpec(cfg=cfg, shots=10, seed=1, kind="path")
        for estimate in (empirical_lg, empirical_nsit):
            with pytest.raises(ValueError, match="^cfg must be an MZConfig"):
                estimate(cfg, 10, 1)

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

    @pytest.mark.parametrize("np_int", [np.int64, np.uint64])
    def test_numpy_integers_give_builtin_results(self, np_int):
        """numpy-integer shots and seeds give Python ints and floats, with the
        bits of the results for int inputs."""
        cfg = MZConfig(beta=0.5, phi=0.3)

        def sample(shots, seed):
            out = []
            for kind in KINDS:
                s = run(RunSpec(cfg, shots, seed, kind))
                out.append((s.spec.shots, s.spec.seed, s.total, s.counts, s.estimates,
                            [s.estimate(k) for k in s.counts], s.stderr, s.metadata))
            return out

        def estimators(shots, seed):
            est = empirical_lg(cfg, shots, seed)
            return (est, est.report, est.m2_stderr, est.m3_stderr, est.corr_stderr,
                    est.k_stderr, est.run_seeds, empirical_nsit(cfg, shots, seed))

        for produce in (sample, estimators):
            want = typed_bits(produce(1000, 7))
            assert builtin_only(want)
            assert typed_bits(produce(np_int(1000), np_int(7))) == want

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


class TestReusedGenerator:
    """``run`` rekeys one generator per thread; its counts are those of a new
    ``Generator(Philox(key=seed))`` per run (``oracles.philox_counts``)."""

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.lists(run_spec, min_size=1, max_size=8))
    def test_counts_are_those_of_a_fresh_generator(self, specs):
        # every draw after the first starts from a generator an earlier draw used
        counts = [run(spec).counts for spec in specs]
        assert counts == [philox_counts(spec) for spec in specs]

    def test_threads_get_the_serial_counts(self):
        rng = np.random.default_rng(2024)
        specs = [
            RunSpec(MZConfig(beta=float(beta)), int(shots), int(seed), KINDS[k])
            for beta, shots, seed, k in zip(
                rng.uniform(-1.0, 1.0, 200), rng.integers(1, 10**6, 200),
                rng.integers(0, 2**64, 200, dtype=np.uint64), rng.integers(0, 3, 200),
            )
        ]
        serial = [run(spec).counts for spec in specs]
        # four workers switching often, so that a generator shared between
        # threads would be rekeyed between another thread's reset and its draw
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(5):
                    threaded = pool.map(lambda spec: run(spec).counts, specs, timeout=60)
                    assert list(threaded) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_threads_get_the_serial_estimates(self):
        """``empirical_lg`` and ``empirical_nsit`` on 4 threads over fresh
        master seeds: each thread rekeys its own generator and state dict, and
        concurrent child-seed memo misses give the serial seeds."""
        rng = np.random.default_rng(2025)
        cases = [
            (MZConfig(beta=float(beta), phi=float(phi)), int(shots), int(seed))
            for beta, phi, shots, seed in zip(
                rng.uniform(-1.0, 1.0, 100), rng.uniform(-7.0, 7.0, 100), rng.integers(1, 10**6, 100),
                rng.integers(0, 2**64, 100, dtype=np.uint64),
            )
        ]

        def estimate(case):
            return empirical_lg(*case), empirical_nsit(*case)

        _child_seeds.cache_clear()
        serial = [estimate(case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(3):
                    # cold: every master seed a memo miss, on whichever thread draws it
                    _child_seeds.cache_clear()
                    assert list(pool.map(estimate, cases, timeout=60)) == serial
        finally:
            sys.setswitchinterval(interval)
        # CPython switches threads at no instruction between a key's store and
        # the state setter, so a template shared by threads would pass the
        # loop above: this checks that each thread keys its own
        with ThreadPoolExecutor(max_workers=1) as pool:
            theirs = pool.submit(lambda: (estimate(cases[0]), experiment._THREAD.philox)[1]).result()
        ours = experiment._THREAD.philox
        assert theirs[0] is not ours[0] and theirs[2] is not ours[2]


def seed_sequence(seed: int, n: int) -> list[int]:
    """The first ``n`` child seeds of ``seed``, straight from numpy's ``SeedSequence``."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, np.uint64)]


class TestMemos:
    """``run`` reads each config's three vectors, and ``empirical_lg`` and
    ``empirical_nsit`` each master seed's child seeds, from a bounded memo; a
    cold and a warm memo give the same counts and seeds."""

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(run_spec)
    def test_counts_are_those_of_a_fresh_generator_cold_and_warm(self, spec):
        want = philox_counts(spec)
        _sampling_vectors.cache_clear()
        assert run(spec).counts == want
        assert run(spec).counts == want

    @pytest.mark.parametrize(
        "a, b",
        [
            (MZConfig(beta=0.0), MZConfig(beta=-0.0)),
            (MZConfig(beta=0.5, phi=0.0), MZConfig(beta=0.5, phi=-0.0)),
            (MZConfig(beta=-0.0, phi=-0.0), MZConfig(beta=0.0, phi=0.0)),
            (MZConfig(beta=0.0), MZConfig(beta=0.0, alpha=1.0)),
            (MZConfig(beta=0.3), MZConfig(beta=0.3, alpha=math.sqrt(1.0 - 0.3**2))),
            (MZConfig(beta=1.0), MZConfig(beta=1.0, alpha=-0.0)),
            (MZConfig(beta=0.5, phi=1.0), MZConfig(beta=np.float64(0.5), phi=np.array(1.0))),
        ],
        ids=["beta0", "phi0", "both0", "alpha1", "alpha-default", "alpha0", "numpy"],
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_equal_configs_share_the_vector_bits(self, a, b, kind):
        assert a == b and hash(a) == hash(b)
        _sampling_vectors.cache_clear()
        labels_a, vec_a = _sampling_vectors(a)[kind]
        _sampling_vectors.cache_clear()
        labels_b, vec_b = _sampling_vectors(b)[kind]
        assert labels_a == labels_b
        assert vec_a.tobytes() == vec_b.tobytes()
        assert not vec_a.flags.writeable
        assert run(RunSpec(b, 1000, 7, kind)).counts == philox_counts(RunSpec(a, 1000, 7, kind))

    def test_vector_is_the_numpy_normalisation_bit_for_bit(self):
        """The Python left-to-right sum and division give ``pvec / pvec.sum()``
        in IEEE bytes, over 2007 beta (the ends, both zeros and the dark ports
        included) at phi = 0 and at a drawn phase, for every kind, the
        sequential one against the vector of the generic state route."""
        rng = random.Random(29)
        betas = [-1.0 + k / 1000 for k in range(2001)] + [-0.0, 0.0, 2**-0.5, -(2**-0.5), 1.0,
                                                           math.nextafter(1.0, 0.0)]
        checked = 0
        for beta in betas:
            for phi in (0.0, rng.uniform(-7.0, 7.0)):
                cfg = MZConfig(beta=beta, phi=phi)
                vectors = _sampling_vectors.__wrapped__(cfg)
                for kind in KINDS:
                    _, vec = vectors[kind]
                    want = sampling_vector_numpy(run_probabilities(cfg, kind))
                    assert vec.tobytes() == want.tobytes(), (beta, phi, kind)
                    checked += 1
        assert checked == 2007 * 2 * 3

    def test_a_configs_vectors_are_contiguous_views_of_one_read_only_array(self):
        vectors = _sampling_vectors.__wrapped__(MZConfig(beta=0.3, phi=0.7))
        assert tuple(vectors) == KINDS
        base = vectors["interference"][1].base
        assert base is not None and not base.flags.writeable
        for _, vec in vectors.values():
            assert vec.base is base and vec.flags.c_contiguous and not vec.flags.writeable
        assert b"".join(vec.tobytes() for _, vec in vectors.values()) == base.tobytes()

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @example(0)
    @example(1)
    @example(2**32 - 1)
    @example(2**32)
    @example(2**64 - 1)
    def test_child_seeds_are_the_seed_sequence_prefixes(self, seed):
        _child_seeds.cache_clear()
        for n in (1, 2, 3):
            assert list(_child_seeds(seed)[:n]) == seed_sequence(seed, n)

    def test_child_seeds_are_the_seed_sequence_bits(self):
        """The plain-Python hash gives numpy's three words on 20000 drawn
        seeds of 1 to 64 bits and on every seed within 2 of a word boundary."""
        rng = random.Random(33)
        edges = [b + d for b in (0, 2**32, 2**63, 2**64) for d in (-2, -1, 0, 1, 2) if 0 <= b + d < 2**64]
        seeds = edges + [rng.getrandbits(rng.randint(1, 64)) for _ in range(20000)]
        for seed in seeds:
            assert _child_seeds.__wrapped__(seed) == tuple(seed_sequence(seed, 3)), seed

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 12345])
    def test_nsit_and_lg_read_the_same_children_in_either_order(self, seed):
        cfg, shots = MZConfig(beta=0.4, phi=0.3), 1000
        s_int, s_seq = seed_sequence(seed, 2)
        inter = philox_counts(RunSpec(cfg, shots, s_int, "interference"))
        seq = philox_counts(RunSpec(cfg, shots, s_seq, "sequential"))
        gap = inter["psi3"] / shots - (seq["m2=+1,m3=-1"] / shots + seq["m2=-1,m3=-1"] / shots)
        _child_seeds.cache_clear()
        first = empirical_nsit(cfg, shots, seed)
        lg = empirical_lg(cfg, shots, seed)
        assert empirical_nsit(cfg, shots, seed) == first
        assert first[0] == gap
        assert list(lg.run_seeds.values()) == seed_sequence(seed, 3)
        _child_seeds.cache_clear()
        assert empirical_lg(cfg, shots, seed) == lg

    def test_a_bool_master_seed_is_rejected_after_an_equal_integer(self):
        cfg = MZConfig(beta=0.5)
        empirical_lg(cfg, 10, np.int64(1))
        with pytest.raises(ValueError, match="^seed must be"):
            empirical_lg(cfg, 10, True)


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


class TestPortCriterion:
    """The paper's claim from the two single-time runs alone: for the MZ state
    <M2 M3> = 0, so the lowest K of the three runs is 1 - |m3| - |m2|, that is
    2 min(p3, p4) - |e2|, read off the interference and path runs.

    The four K are 1 +- e2 +- e3 +- e23, so the three-run lowest K differs from
    1 - |m3| - |m2| by at most |corr_est|. With fixed seeds over a spread of
    beta and two phases, the bound stated is 4 standard errors: the two
    readings agree within 4 * k_stderr, and corr_est lies within
    4 * corr_stderr of 0.
    """

    BETAS = (-1.0, -0.9, -1 / math.sqrt(2), -0.5, -0.2, 0.0, 0.3, 0.6, 1 / math.sqrt(2), 0.8, 0.99, 1.0)
    SHOTS = 20_000

    @pytest.mark.parametrize("phi", [0.0, 1.0])
    def test_lowest_k_is_the_port_criterion_within_four_sigma(self, phi):
        for i, beta in enumerate(self.BETAS):
            cfg = MZConfig(beta=beta, phi=phi)
            report = empirical_lg(cfg, self.SHOTS, 900 + i)
            interference = run(RunSpec(cfg=cfg, shots=self.SHOTS, seed=report.run_seeds["interference"],
                                       kind="interference"))
            p3, p4 = interference.estimate("psi3"), interference.estimate("psi4")
            assert report.m3_est == p4 - p3
            port = 1.0 - abs(report.m3_est) - abs(report.m2_est)
            assert abs(port - (2.0 * min(p3, p4) - abs(report.m2_est))) <= 4 * 2.0**-53
            lowest = min(report.report.values().values())
            assert abs(lowest - port) <= abs(report.corr_est) + 4 * 2.0**-53, beta
            assert abs(lowest - port) < 4 * report.k_stderr[31], beta
            assert abs(report.corr_est) < 4 * report.corr_stderr, beta


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


class TestNumpyStreamCanary:
    """numpy's Philox stream and ``Generator.multinomial``, pinned apart from the
    model. numpy draws a multinomial as a chain of binomials, entry j at the
    ratio p_j / (the p left), by inversion when n * min(ratio, 1 - ratio) <= 30
    and by BTPE above; a ratio of exactly 0.5 sits on the edge of its
    ``p <= 0.5`` test. NEP 19 does not promise ``Generator`` streams across
    numpy feature releases; this table was drawn with numpy 2.4.6."""

    # (Philox key, shots, probability vector) -> counts
    TABLE = (
        (0, 20, (0.3, 0.7), [2, 18]),  # inversion, n * p = 6
        (1, 10**6, (0.3, 0.7), [299552, 700448]),  # BTPE
        (2**63, 60, (0.5, 0.5), [36, 24]),  # ratio 0.5 at n * p = 30: inversion
        # ratios 1/4, 1/3 and 1/2: BTPE
        (2**64 - 1, 10**6, (0.25, 0.25, 0.25, 0.25), [249615, 249975, 249973, 250437]),
        (12345, 10**6, (0.9, 0.1), [899946, 100054]),  # p > 0.5: BTPE on 1 - p
        (7, 100, (0.95, 0.05), [92, 8]),  # p > 0.5: inversion on 1 - p
    )

    @pytest.mark.parametrize("key, shots, pvec, want", TABLE)
    def test_counts_are_the_committed_table(self, key, shots, pvec, want):
        got = experiment._keyed(key).multinomial(shots, np.array(pvec)).tolist()
        assert got == want, (
            f"numpy {np.__version__} draws {got} where the table has {want}: every seeded "
            "pin (TestPinnedReadings, the pinned simulate and nsit records of test_cli.py) "
            "rests on this stream, so those move with it")


class TestPinnedReadings:
    """Every reading of a few seeded runs, as recorded before the readings
    became properties of the stored counts and moments. They rest on numpy's
    stream; ``TestNumpyStreamCanary`` says when that is what moved."""

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

    def test_correlator_is_a_left_fold_on_every_python(self, monkeypatch):
        """<M2 M3> is the left fold of the four signed frequencies, recorded on
        Python 3.11, whose builtin ``sum`` folds left. Python 3.12's ``sum``
        compensates its rounding; ``math.fsum`` stands in for it here and gives
        other bits at seed 19. With ``sum`` shadowed, the readings must not move."""
        monkeypatch.setattr(experiment, "sum", lambda items, start=0: math.fsum(items),
                            raising=False)
        for seed, want in ((7, -0.040000000000000036), (19, -0.008000000000000035)):
            assert same_bits(empirical_lg(MZConfig(beta=0.5), 1000, seed).corr_est, want), seed

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
        meta = {"rng": "numpy Philox(4x64)", "numpy": np.__version__, "seed": 7, "kind": kind}
        if zero:
            meta.update(zero_count_stderr_rule="rule-of-three upper bound 3/N", zero_count_outcomes=zero)
        assert list(est.metadata.items()) == list(meta.items())
