"""Core linear-algebra layer: construction policies, Born rule, projector algebra."""

import re
import warnings

import numpy as np
import pytest

from lglab import (
    DichotomicObservable,
    DimensionMismatch,
    Operator,
    StateVector,
    born_probability,
    dichotomic_from_hermitian,
    expectation,
    expectation_decomposition,
    inner_product,
    path_observable,
    projector_onto,
    weak_value,
)
from lglab.interferometer import mz_basis
from lglab.qcore import STRUCT_TOL

from conftest import random_dichotomic, random_state

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


class TestStateVector:
    def test_normalized_after_construction(self):
        s = StateVector([0.6, 0.8])
        assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12

    def test_rejects_off_normal_input(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector([1.0, 1.0])

    def test_renormalize_flag(self):
        s = StateVector([1.0, 1.0], normalize=True)
        assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            StateVector([np.nan, 0.0])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            StateVector([0.0, 0.0], normalize=True)

    @pytest.mark.parametrize(
        "amps, direction",
        [
            ([1e200, 1e200], [1.0, 1.0]),  # squared norm overflows to inf
            ([1.7e308 + 1.7e308j, -1e308], [1.7 + 1.7j, -1.0]),  # so does |a_0|
            ([1e-170, 1e-170], [1.0, 1.0]),  # squared norm underflows to 0
            ([3e-162, 1e-170j], [3e8, 1j]),  # squared norm is subnormal: precision lost
            ([5e-324, 0.0], [1.0, 0.0]),  # the peak is subnormal, so 1/peak overflows
        ],
    )
    def test_normalize_rescales_extreme_magnitudes(self, amps, direction):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = StateVector(amps, normalize=True)
        assert abs(np.linalg.norm(s.amps) - 1.0) < STRUCT_TOL
        d = np.asarray(direction)
        np.testing.assert_allclose(s.amps, d / np.linalg.norm(d), rtol=0, atol=STRUCT_TOL)

    @pytest.mark.parametrize(
        "amps, norm",
        [
            ([1e200, 0.0], "1e+200"),  # squared norm overflows to inf
            ([1e-170, 1e-170], "1.4142135623730951e-170"),  # squared norm underflows to 0
        ],
    )
    def test_rejection_reports_the_true_norm_of_extreme_magnitudes(self, amps, norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"state norm {norm} deviates")):
                StateVector(amps)

    def test_norm_has_the_bits_of_linalg_norm(self, rng):
        for _ in range(200):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v *= 10.0 ** rng.uniform(-100, 100)
            assert np.array_equal(StateVector(v, normalize=True).amps, v / np.linalg.norm(v))

    def test_immutable(self):
        s = StateVector([1.0, 0.0])
        with pytest.raises(AttributeError):
            s.amps = np.array([0.0, 1.0])


class TestOperator:
    def test_hermitian_check(self):
        with pytest.raises(ValueError, match="hermitian"):
            Operator([[0.0, 1.0], [0.0, 0.0]], kind="hermitian")

    def test_square_required(self):
        with pytest.raises(ValueError):
            Operator(np.ones((2, 3)))


class TestInnerProduct:
    def test_normalization(self):
        psi1 = mz_basis().psi1
        assert inner_product(psi1, psi1) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_paths(self):
        b = mz_basis()
        assert inner_product(b.psi1, b.psi2) == pytest.approx(0.0, abs=1e-12)

    def test_input_output_overlap(self):
        # oracle: direct complex dot product
        psi_i = StateVector([SQ3 / 2, 0.5])
        psi3 = mz_basis().psi3
        oracle = np.conj(psi_i.amps) @ psi3.amps
        val = inner_product(psi_i, psi3)
        assert val == pytest.approx(oracle, abs=1e-12)
        assert val.real == pytest.approx((SQ3 + 1) / (2 * SQ2), abs=1e-12)

    def test_conjugate_linear_first_argument(self, rng):
        a, b = random_state(rng), random_state(rng)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner_product(StateVector([1.0, 0.0]), StateVector([1.0, 0.0, 0.0]))


class TestExpectation:
    def test_identity(self, rng):
        s = random_state(rng)
        assert expectation(Operator(np.eye(2), kind="hermitian"), s) == pytest.approx(1.0, abs=1e-12)

    def test_path_observable_value(self):
        # oracle: explicit matrix expectation <s|M|s>
        m = np.diag([1.0, -1.0])
        s = StateVector([SQ3 / 2, 0.5])
        oracle = float((np.conj(s.amps) @ m @ s.amps).real)
        assert expectation(Operator(m, kind="hermitian"), s) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(0.5, abs=1e-12)

    def test_balanced_superposition_is_zero(self):
        m = Operator(np.diag([1.0, -1.0]), kind="hermitian")
        assert expectation(m, mz_basis().psi3) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            expectation(Operator([[0.0, 1.0], [0.0, 0.0]]), StateVector([1.0, 0.0]))


class TestBornProbability:
    def test_eigenstate(self):
        b = mz_basis()
        assert born_probability(projector_onto(b.psi3), b.psi3) == pytest.approx(1.0, abs=1e-12)

    def test_destructive_limit(self):
        b = mz_basis()
        s = StateVector([1 / SQ2, 1 / SQ2])
        assert born_probability(projector_onto(b.psi4), s) == pytest.approx(0.0, abs=1e-12)

    def test_generic_value(self):
        # oracle: |<psi4|s>|^2
        b = mz_basis()
        s = StateVector([SQ3 / 2, 0.5])
        oracle = abs(np.conj(b.psi4.amps) @ s.amps) ** 2
        p = born_probability(projector_onto(b.psi4), s)
        assert p == pytest.approx(oracle, abs=1e-12)
        assert p == pytest.approx((2 - SQ3) / 4, abs=1e-12)

    def test_rejects_non_projector(self):
        with pytest.raises(ValueError, match="projector"):
            born_probability(Operator(np.diag([1.0, -1.0])), StateVector([1.0, 0.0]))


class TestProperties:
    def test_projector_completeness_random(self, rng):
        for _ in range(200):
            obs = random_dichotomic(rng)
            s = random_state(rng)
            total = born_probability(obs.plus_proj, s) + born_probability(obs.minus_proj, s)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_expectation_real_random(self, rng):
        from conftest import random_hermitian

        for _ in range(200):
            m = random_hermitian(rng)
            s = random_state(rng)
            val = np.vdot(s.amps, m.entries @ s.amps)
            assert abs(val.imag) < 1e-12
            assert expectation(m, s) == pytest.approx(val.real, abs=1e-12)


class TestDichotomicObservable:
    def test_from_hermitian_roundtrip(self, rng):
        obs = random_dichotomic(rng)
        rebuilt = dichotomic_from_hermitian(obs.operator())
        np.testing.assert_allclose(rebuilt.plus_proj.entries, obs.plus_proj.entries, atol=1e-12)

    def test_squares_to_identity(self, rng):
        m = random_dichotomic(rng).operator().entries
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-12)

    def test_rejects_non_orthogonal_pair(self):
        b = mz_basis()
        with pytest.raises(ValueError):
            DichotomicObservable(projector_onto(b.psi1), projector_onto(b.psi3))

    def test_rejects_wrong_spectrum(self):
        with pytest.raises(ValueError, match="M\\^2"):
            dichotomic_from_hermitian(Operator(np.diag([1.0, 0.0]), kind="hermitian"))

    def test_projector_lookup(self, rng):
        obs = random_dichotomic(rng)
        assert obs.projector(+1) is obs.plus_proj
        assert obs.projector(-1) is obs.minus_proj
        with pytest.raises(ValueError):
            obs.projector(0)


def _projector_pair(A):
    obs = dichotomic_from_hermitian(A)
    return obs.plus_proj.entries, obs.minus_proj.entries


_PRE = StateVector([SQ3 / 2, 0.5])

# each function that checks its argument with Operator.is_hermitian, reduced to comparable values
HERMITIAN_ROUTES = {
    "expectation": lambda A: expectation(A, _PRE),
    "weak_value": lambda A: weak_value(A, _PRE, mz_basis().psi3).value,
    "expectation_decomposition": lambda A: expectation_decomposition(A, _PRE, path_observable()),
    "dichotomic_from_hermitian": _projector_pair,
}


class TestHermitianCheck:
    """The ``hermitian`` tag skips the M = M^dagger test only because
    construction already ran it; an untagged operator is still tested."""

    @pytest.mark.parametrize("route", list(HERMITIAN_ROUTES))
    def test_untagged_operator_is_checked(self, rng, route):
        fn = HERMITIAN_ROUTES[route]
        with pytest.raises(ValueError, match="Hermitian"):
            fn(Operator([[1.0, 1.0], [0.0, -1.0]]))  # M^2 = I, M != M^dagger
        m = random_dichotomic(rng).operator().entries
        np.testing.assert_array_equal(fn(Operator(m)), fn(Operator(m, kind="hermitian")))
