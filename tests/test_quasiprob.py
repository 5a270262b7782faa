"""Quasiprobability tables, NSIT residuals, moment expansion and the LG link."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglab import (
    CorrelationTriple,
    MZConfig,
    StateVector,
    detection_probabilities,
    input_state,
    k_from_moments,
    lg_from_quasi,
    macrorealist_feasible,
    mz_lg_closed_form,
    mz_quasi,
    nsit_check,
    output_observable,
    path_observable,
    projector_onto,
    quasi,
    sequential_correlation,
    sequential_joint,
    signaling_gap_projective,
)
from lglab.lgi import _K_SIGNS, TwoTimeLGReport
from lglab.quasiprob import QuasiprobTable

import portable_bits

from conftest import random_dichotomic, random_state
from oracles import born_probability, exact_mz_q, precession_observables, projective_gap, ulps

SQ3 = np.sqrt(3.0)
PROPS = settings(derandomize=True, max_examples=500, deadline=None, database=None)
# the whole beta range: both zeros, the five exceptional points, within 1e-8
# of either dark port, or anywhere
GAP_BETA = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -1 / math.sqrt(2), 1 / math.sqrt(2), 1.0]),
    st.builds(lambda x, d: x + d, st.sampled_from([-1 / math.sqrt(2), 1 / math.sqrt(2)]),
              st.floats(min_value=-1e-8, max_value=1e-8)),
    st.floats(min_value=-1.0, max_value=1.0),
)
# no fringe, a quarter or half turn, a phase far past any period, or any finite phase
GAP_PHI = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def mz_instance(beta):
    cfg = MZConfig(beta=beta)
    return cfg, input_state(cfg), path_observable(), output_observable()


class TestQuasi:
    def test_equal_observables_diagonal(self, rng):
        obs = random_dichotomic(rng)
        state = random_state(rng)
        table = quasi(state, obs, obs)
        for m in (+1, -1):
            assert table.entry(m, m) == pytest.approx(
                born_probability(obs.projector(m), state), abs=1e-12
            )
            assert table.entry(m, -m) == pytest.approx(0.0, abs=1e-12)

    def test_mz_negative_entry(self):
        _, state, m2, m3 = mz_instance(0.5)
        table = quasi(state, m2, m3)
        assert table.entry(-1, +1) == pytest.approx((1 - SQ3) / 8, abs=1e-12)
        assert table.negativity == pytest.approx((SQ3 - 1) / 8, abs=1e-12)

    def test_precession_negative_entry(self):
        # prepared in the +1 eigenstate of M1, the pair (M2, M3) at theta = pi/3 has K31 = -1/2
        _, m2, m3 = precession_observables(np.pi / 3)
        table = quasi(StateVector([1.0, 0.0]), m2, m3)
        assert table.entry(-1, +1) == pytest.approx(-1 / 8, abs=1e-12)
        assert not table.feasible

    def test_balanced_zero_entry(self):
        _, state, m2, m3 = mz_instance(1 / np.sqrt(2))
        table = quasi(state, m2, m3)
        assert table.entry(+1, +1) == pytest.approx(0.0, abs=1e-12)
        assert table.negativity == pytest.approx(0.0, abs=1e-12)

    def test_sums_to_one_random(self, rng):
        for _ in range(1000):
            table = quasi(random_state(rng), random_dichotomic(rng), random_dichotomic(rng))
            assert table.total() == pytest.approx(1.0, abs=1e-12)

    def test_accepts_density_matrix(self, rng):
        state = random_state(rng)
        mi, mj = random_dichotomic(rng), random_dichotomic(rng)
        t_pure = quasi(state, mi, mj)
        t_rho = quasi(projector_onto(state).entries, mi, mj)
        for key in t_pure.q:
            assert t_pure.q[key] == pytest.approx(t_rho.q[key], abs=1e-12)

    def test_mixed_state_table(self):
        rho = np.eye(2) / 2.0
        table = quasi(rho, path_observable(), output_observable())
        for v in table.q.values():
            assert v == pytest.approx(0.25, abs=1e-12)
        # the correlator of non-commuting observables survives, every first moment vanishes
        m1, _, m3 = precession_observables(np.pi / 3)
        assert quasi(rho, m1, m3).moments() == pytest.approx((0.0, 0.0, -0.5), abs=1e-12)

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            quasi(np.eye(2), path_observable(), output_observable())

    @pytest.mark.parametrize("route", ["quasi", "nsit_check"])
    def test_rejects_non_positive_density(self, route):
        # Hermitian with unit trace, but eigenvalue -1: no state has it
        rho = np.diag([2.0, -1.0])
        obs = (path_observable(), output_observable())
        call = {
            "quasi": lambda: quasi(rho, *obs),
            "nsit_check": lambda: nsit_check(rho, *obs),
        }[route]
        with pytest.raises(ValueError, match="positive semidefinite"):
            call()


class TestAccuracy:
    def test_grid_entries_within_4e_16_of_exact(self):
        """At phi = 0 the exact table of the double inputs (alpha, beta) is K/4
        with K31 = 2 beta (beta - alpha) and so on (``oracles.exact_mz_q``);
        every moment-route entry on the 1001-point grid lies within 4e-16 of
        it (the projector-product trace of ``oracles.quasi_matrix`` reaches 5.4e-16)."""
        m2, m3 = path_observable(), output_observable()
        worst = 0.0
        for beta in np.linspace(-1.0, 1.0, 1001):
            cfg = MZConfig(beta=float(beta))
            table = quasi(input_state(cfg), m2, m3)
            exact = exact_mz_q(cfg.alpha, cfg.beta)
            worst = max(worst, *(float(abs(Fraction(table.q[k]) - v)) for k, v in exact.items()))
        assert worst <= 4e-16


# the betas of ``lgi-sweep --grid 101``, the five exceptional points and the
# doubles either side of each that lie in [-1, 1]
EXCEPTIONAL = (-1.0, -1 / math.sqrt(2), 0.0, 1 / math.sqrt(2), 1.0)
EXACT_BETAS = [-1.0 + k * 0.02 for k in range(100)] + [1.0] + [
    b for x in EXCEPTIONAL for b in (math.nextafter(x, -2.0), x, math.nextafter(x, 2.0)) if abs(b) <= 1.0
]


class TestExactTable:
    """mz_quasi at phi = 0 against the exact rational table of its own float
    alpha and beta (``oracles.exact_mz_q``): standard library only, so these
    never skip."""

    @pytest.mark.parametrize("beta", EXACT_BETAS)
    def test_entries_within_2_ulps_of_exact(self, beta):
        cfg = MZConfig(beta=beta)
        table = mz_quasi(cfg)
        for key, exact in exact_mz_q(cfg.alpha, cfg.beta).items():
            assert ulps(table.q[key], exact) <= 2.0, key

    @pytest.mark.parametrize("beta", [1 / math.sqrt(2), -1 / math.sqrt(2)])
    def test_dark_port_negativity_is_exact(self, beta):
        """At the dark port the computed alpha sits one ulp below |beta|, so the
        one negative entry alpha (alpha -+ beta)/2 = -alpha 2^-54, 3.9e-17 in
        magnitude, is a double, and the kernel gives it exactly."""
        cfg = MZConfig(beta=beta)
        exact = sum(-v for v in exact_mz_q(cfg.alpha, cfg.beta).values() if v < 0)
        assert exact > 0
        assert mz_quasi(cfg).negativity == float(exact)

    def test_ulps_counts_in_the_binade_of_the_exact_value(self):
        below_one = 1 - Fraction(1, 2**60)
        assert ulps(1.0, below_one) == 2.0**-60 / 2.0**-53
        assert ulps(1.0 + 2.0**-52, Fraction(1)) == 1.0
        assert ulps(0.0, Fraction(0)) == 0.0


class TestNSIT:
    def test_random_instances_structural(self, rng):
        for _ in range(100):
            res_i, res_j = nsit_check(
                random_state(rng), random_dichotomic(rng), random_dichotomic(rng)
            )
            assert res_i < 1e-12 and res_j < 1e-12

    def test_mz_marginal_matches_detection(self):
        cfg, state, m2, m3 = mz_instance(0.5)
        table = quasi(state, m2, m3)
        marg_psi4 = table.entry(+1, +1) + table.entry(-1, +1)
        _, p4 = detection_probabilities(cfg)
        assert marg_psi4 == pytest.approx(p4, abs=1e-12)
        assert marg_psi4 == pytest.approx((2 - SQ3) / 4, abs=1e-12)

    def test_single_path_marginals(self):
        _, state, m2, m3 = mz_instance(0.0)
        table = quasi(state, m2, m3)
        for mj in (+1, -1):
            assert table.entry(+1, mj) + table.entry(-1, mj) == pytest.approx(0.5, abs=1e-12)


class TestCorrelationEquivalence:
    """The quasiprobability correlator equals the sequential (Lueders) one."""

    def test_mz_both_vanish(self):
        for beta in (-0.7, 0.0, 0.3, 0.9):
            _, state, m2, m3 = mz_instance(beta)
            assert quasi(state, m2, m3).moments()[2] == pytest.approx(0.0, abs=1e-12)
            assert sequential_correlation(state, m2, m3) == pytest.approx(0.0, abs=1e-12)

    def test_eigenstate_repeated(self):
        state, m2 = StateVector([1.0, 0.0]), path_observable()
        assert quasi(state, m2, m2).moments()[2] == pytest.approx(1.0, abs=1e-12)
        assert sequential_correlation(state, m2, m2) == pytest.approx(1.0, abs=1e-12)

    def test_identity_random(self, rng):
        for _ in range(1000):
            state, mi, mj = random_state(rng), random_dichotomic(rng), random_dichotomic(rng)
            cq = quasi(state, mi, mj).moments()[2]
            assert cq == pytest.approx(sequential_correlation(state, mi, mj), abs=1e-12)

    def test_sequential_correlation_is_the_ordered_left_fold(self, rng):
        for _ in range(1000):
            state, mi, mj = random_state(rng), random_dichotomic(rng), random_dichotomic(rng)
            p = sequential_joint(state, mi, mj)
            fold = 0.0 + p[(+1, +1)] - p[(+1, -1)] - p[(-1, +1)] + p[(-1, -1)]
            assert sequential_correlation(state, mi, mj).hex() == fold.hex()


def table_of(entries) -> QuasiprobTable:
    """The table of q(+1, +1), q(+1, -1), q(-1, +1), q(-1, -1), in that order."""
    return QuasiprobTable(dict(zip(((+1, +1), (+1, -1), (-1, +1), (-1, -1)), entries)))


class TestVersionStableSums:
    """``total``, ``moments`` and ``negativity`` are left folds over the
    entries: builtin ``sum`` is compensated since Python 3.12, and on these
    tables the two disagree (``math.fsum`` stands for a compensated sum)."""

    def test_total_is_a_left_fold(self):
        table = table_of((1e16, 1.0, -1e16, 1.0))
        assert math.fsum(table.q.values()) == 2.0
        assert table.total() == 1.0

    def test_moments_are_left_folds(self):
        table = table_of((1e16, 1.0, 1e16, -1.0))
        # <Mi> adds 1e16, 1, -1e16, 1 and <Mi Mj> adds 1e16, -1, -1e16, -1
        assert (math.fsum((1e16, 1.0, -1e16, 1.0)), math.fsum((1e16, -1.0, -1e16, -1.0))) == (2.0, -2.0)
        assert table.moments() == (1.0, 2e16, -1.0)
        # <Mj> of the total's table adds those of <Mi Mj> here
        assert table_of((1e16, 1.0, -1e16, 1.0)).moments()[1] == -1.0

    def test_negativity_is_a_left_fold(self):
        table = table_of((-1e16, -1.0, -1.0, 1e16))
        assert math.fsum((1e16, 1.0, 1.0)) == 1e16 + 2.0
        assert table.negativity == 1e16

    def test_portable_bits_digest_is_the_recorded_one(self):
        # the standard-library check that CI runs alone on other Pythons
        assert portable_bits.digest() == portable_bits.RECORDED


def reading(e_i, e_j, e_ij):
    """The macrorealist reading of three moments read off a table, each clipped
    into [-1, 1] first, since a moment read off a table may round past +-1."""
    return macrorealist_feasible(CorrelationTriple(*(min(max(e, -1.0), 1.0) for e in (e_i, e_j, e_ij))))


class TestMrReading:
    """The macrorealist reading: the moment-matching table of a checked triple."""

    def test_uniform(self):
        table = macrorealist_feasible(CorrelationTriple(0.0, 0.0, 0.0))
        for v in table.q.values():
            assert v == 0.25
        assert table.total() == pytest.approx(1.0, abs=0)

    def test_mz_moments_reproduce_quasi(self):
        _, state, m2, m3 = mz_instance(0.5)
        direct = quasi(state, m2, m3)
        rebuilt = reading(*direct.moments())
        for key in direct.q:
            assert rebuilt.q[key] == pytest.approx(direct.q[key], abs=1e-12)
        assert rebuilt.entry(-1, +1) == pytest.approx((1 - SQ3) / 8, abs=1e-12)

    def test_point_mass(self):
        table = macrorealist_feasible(CorrelationTriple(1.0, 1.0, 1.0))
        assert table.entry(+1, +1) == pytest.approx(1.0, abs=0)
        assert table.negativity == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CorrelationTriple(1.5, 0.0, 0.0)

    def test_in_range_moments_keep_their_bits(self, rng):
        """Every entry is K/4 of k_from_moments on the raw inputs, bit for bit
        (signed zeros too)."""
        triples = [tuple(rng.uniform(-1.0, 1.0, 3)) for _ in range(300)]
        triples += [(1.0, -1.0, -0.0), (-1.0, 1.0, 1.0), (-0.0, 0.0, -1.0), (0.5, -0.5, 0.25)]
        for e in triples:
            table, ks = macrorealist_feasible(CorrelationTriple(*e)), k_from_moments(*e)
            for idx, signs in _K_SIGNS.items():
                assert table.q[signs].hex() == (ks[idx] / 4.0).hex(), (e, idx)

    def test_moment_expansion_exact_random(self, rng):
        for _ in range(300):
            direct = quasi(random_state(rng), random_dichotomic(rng), random_dichotomic(rng))
            rebuilt = reading(*direct.moments())
            for key in direct.q:
                assert rebuilt.q[key] == pytest.approx(direct.q[key], abs=1e-12)


class TestLGFromQuasi:
    def test_mz_cross_module(self):
        cfg, state, m2, m3 = mz_instance(0.5)
        report = lg_from_quasi(quasi(state, m2, m3))
        closed = mz_lg_closed_form(cfg)
        assert report.k31 == pytest.approx(closed.k31, abs=1e-12)
        assert report.k31 == pytest.approx((1 - SQ3) / 2, abs=1e-12)
        assert report.violated_index == 31

    def test_uniform_table(self):
        report = lg_from_quasi(macrorealist_feasible(CorrelationTriple(0.0, 0.0, 0.0)))
        assert (report.k31, report.k32, report.k33, report.k34) == (1.0, 1.0, 1.0, 1.0)

    def test_endpoint(self):
        cfg, state, m2, m3 = mz_instance(0.0)
        report = lg_from_quasi(quasi(state, m2, m3))
        assert (report.k31, report.k32, report.k33, report.k34) == pytest.approx(
            (0.0, 2.0, 0.0, 2.0), abs=1e-12
        )

    @PROPS
    @given(st.tuples(*(st.floats(min_value=-1.0, max_value=1.0),) * 3), st.integers(0, 2**32 - 1))
    def test_reads_the_table_as_the_entry_generator_did(self, moments, seed):
        rng = np.random.default_rng(seed)
        for table in (macrorealist_feasible(CorrelationTriple(*moments)),
                      quasi(random_state(rng), random_dichotomic(rng), random_dichotomic(rng))):
            old = TwoTimeLGReport.from_values(*(4.0 * table.entry(s2, s3) for s2, s3 in _K_SIGNS.values()))
            new = lg_from_quasi(table)
            assert [k.hex() for k in new.values().values()] == [k.hex() for k in old.values().values()]

    @pytest.mark.parametrize("beta", np.linspace(-1.0, 1.0, 101))
    def test_matches_closed_form_on_grid(self, beta):
        cfg, state, m2, m3 = mz_instance(float(beta))
        report = lg_from_quasi(quasi(state, m2, m3))
        closed = mz_lg_closed_form(cfg)
        for a, b in zip(
            (report.k31, report.k32, report.k33, report.k34),
            (closed.k31, closed.k32, closed.k33, closed.k34),
        ):
            assert a == pytest.approx(b, abs=1e-12)


class TestSignalingGap:
    def test_balanced(self):
        assert signaling_gap_projective(MZConfig(beta=1 / np.sqrt(2))) == pytest.approx(0.5, abs=1e-12)

    def test_eigenstate(self):
        assert signaling_gap_projective(MZConfig(beta=0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_generic(self):
        # oracle: sequential two-step probability is exactly 1/2
        assert signaling_gap_projective(MZConfig(beta=0.5)) == pytest.approx(SQ3 / 4, abs=1e-12)

    def test_closed_form_across_grid(self):
        for beta in np.linspace(-1.0, 1.0, 201):
            cfg = MZConfig(beta=float(beta))
            gap = signaling_gap_projective(cfg)
            assert gap == pytest.approx(abs(cfg.alpha * cfg.beta), abs=1e-12)

    def test_builds_no_state(self, monkeypatch):
        """The gap is its closed form: no state is built, so no two-step route runs."""
        cfg = MZConfig(beta=0.5, phi=1.0)

        def refuse(self, *args, **kwargs):
            raise AssertionError("signaling_gap_projective built a StateVector")

        monkeypatch.setattr(StateVector, "__init__", refuse)
        assert signaling_gap_projective(cfg) == abs(cfg.alpha * cfg.beta * math.cos(1.0))

    @PROPS
    @given(beta=GAP_BETA, phi=GAP_PHI)
    def test_matches_two_step_route(self, beta, phi):
        cfg = MZConfig(beta=beta, phi=phi)
        assert abs(signaling_gap_projective(cfg) - projective_gap(cfg)) <= 1e-15

    def test_within_2_3e_16_of_exact(self):
        """Against 40-digit |alpha*beta*cos(phi)| of the stored doubles; the
        two-step route of ``oracles.projective_gap`` reaches 8.4e-16."""
        mpmath = pytest.importorskip("mpmath")

        @PROPS
        @given(beta=GAP_BETA, phi=GAP_PHI)
        def check(beta, phi):
            cfg = MZConfig(beta=beta, phi=phi)
            with mpmath.workdps(40):
                exact = abs(mpmath.mpf(cfg.alpha) * mpmath.mpf(cfg.beta) * mpmath.cos(mpmath.mpf(cfg.phi)))
                assert float(abs(signaling_gap_projective(cfg) - exact)) <= 2.3e-16

        check()


class TestSequentialQuasiIdentity:
    def test_symmetrized_equals_lueders_random(self, rng):
        # the quasi correlator is the sequential one, for any instance
        for _ in range(300):
            state = random_state(rng)
            mi, mj = random_dichotomic(rng), random_dichotomic(rng)
            assert quasi(state, mi, mj).moments()[2] == pytest.approx(
                sequential_correlation(state, mi, mj), abs=1e-12
            )
