"""Quasiprobability tables, NSIT residuals, moment expansion and the LG link."""

import numpy as np
import pytest

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
    nsit_check,
    output_observable,
    path_observable,
    quasi,
    sequential_correlation,
    signaling_gap_projective,
)
from lglab.lgi import _K_SIGNS

from conftest import random_dichotomic, random_state
from oracles import born_probability, precession_observables

SQ3 = np.sqrt(3.0)


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
        t_rho = quasi(state.density(), mi, mj)
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
        with K31 = 2 beta (beta - alpha) and so on; every moment-route entry on
        the 1001-point grid lies within 4e-16 of its 50-digit value (the
        projector-product trace of ``oracles.quasi_matrix`` reaches 5.4e-16)."""
        mpmath = pytest.importorskip("mpmath")
        m2, m3 = path_observable(), output_observable()
        worst = 0.0
        with mpmath.workdps(50):
            for beta in np.linspace(-1.0, 1.0, 1001):
                cfg = MZConfig(beta=float(beta))
                a, b = mpmath.mpf(cfg.alpha), mpmath.mpf(cfg.beta)
                exact = {(-1, +1): b * (b - a), (+1, +1): a * (a - b),
                         (-1, -1): b * (b + a), (+1, -1): a * (a + b)}
                table = quasi(input_state(cfg), m2, m3)
                worst = max(worst, *(float(abs(table.q[k] - v / 2)) for k, v in exact.items()))
        assert worst <= 4e-16


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


class TestSequentialQuasiIdentity:
    def test_symmetrized_equals_lueders_random(self, rng):
        # the quasi correlator is the sequential one, for any instance
        for _ in range(300):
            state = random_state(rng)
            mi, mj = random_dichotomic(rng), random_dichotomic(rng)
            assert quasi(state, mi, mj).moments()[2] == pytest.approx(
                sequential_correlation(state, mi, mj), abs=1e-12
            )
