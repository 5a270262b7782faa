"""Core qubit layer: construction policies, Born rule, projector algebra.

The Born rule and the projector pair of a Hermitian M with M^2 = I are test
oracles (``tests/oracles.py``); their tests here check the oracles themselves.
"""

import array
import collections
import re
import warnings

import numpy as np
import pytest

from lglab import (
    DichotomicObservable,
    Operator,
    StateVector,
    nsit_check,
    projector_onto,
    quasi,
)
from lglab.interferometer import mz_basis
from lglab.qcore import STRUCT_TOL

from conftest import outcome, random_dichotomic, random_state
from oracles import born_probability, dichotomic_from_hermitian, expectation, normalized_state

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
        # the norm 5 is exact, so each part is one correctly rounded quotient
        assert outcome(lambda: StateVector([3, 4], normalize=True)) == outcome(lambda: (0.6, 0.8))

    @pytest.mark.parametrize("amps", [1.0, np.eye(2) / SQ2, [[1.0], [0.0]]])
    def test_rejects_input_that_is_not_a_vector(self, amps):
        with pytest.raises(ValueError, match="one-dimensional vector, got shape"):
            StateVector(amps)

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
            ([1.7e308 + 1.7e308j, -1e308], [1.7 + 1.7j, -1.0]),  # so does the norm
            ([1e-170, 1e-170], [1.0, 1.0]),  # squared norm underflows to 0
            ([3e-162, 1e-170j], [3e8, 1j]),  # squared norm is subnormal
            ([5e-324, 0.0], [1.0, 0.0]),  # the norm is subnormal, so it is rescaled
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
            # squared norm underflows to 0; the exact norm, 1.4142135623730950252...e-170,
            # rounds to this double
            ([1e-170, 1e-170], "1.414213562373095e-170"),
        ],
    )
    def test_rejection_reports_the_true_norm_of_extreme_magnitudes(self, amps, norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"state norm {norm} deviates")):
                StateVector(amps)

    def test_immutable(self):
        s = StateVector([1.0, 0.0])
        with pytest.raises(AttributeError):
            s.amps = np.array([0.0, 1.0])


class _Float(float):
    """A float subclass: not a plain number, so numpy reads it, as ever."""


class _Array(np.ndarray):
    """An ndarray subclass: not a plain ndarray, so numpy reads it, as ever."""


LONG_THIRD = np.longdouble(1) / 3


def _boxed(obj) -> np.ndarray:
    """A 0-d object array holding ``obj``: its ``tolist()`` is ``obj`` itself."""
    a = np.empty((), dtype=object)
    a[()] = obj
    return a


# inputs that are not a list or tuple of two plain numbers, or that are and
# sit at the edge of what complex() and numpy read alike; each is a factory,
# so an iterator is fresh for every reading
ODD_STATES = {
    "set": lambda: {0.6, 0.8},
    "dict": lambda: {0: 0.6, 1: 0.8},
    "str": lambda: "ab",
    "numeric str": lambda: "0.6",
    "bytes": lambda: b"ab",
    "None": lambda: None,
    "float": lambda: 0.6,
    "numpy scalar": lambda: np.float64(0.6),
    "0-d array": lambda: np.array(0.6),
    "column": lambda: [[0.6], [0.8]],
    "row": lambda: [[0.6, 0.8]],
    "2x2": lambda: [[0.6, 0.8], [0.0, 0.0]],
    "ragged": lambda: [[0.6], 0.8],
    "three": lambda: [0.6, 0.8, 0.0],
    "one": lambda: [1.0],
    "empty": lambda: [],
    "iterator": lambda: iter([0.6, 0.8]),
    "generator": lambda: (x for x in (0.6, 0.8)),
    "range": lambda: range(2),
    "deque": lambda: collections.deque([0.6, 0.8]),
    "array.array": lambda: array.array("d", [0.6, 0.8]),
    "memoryview": lambda: memoryview(array.array("d", [0.6, 0.8])),
    "ndarray subclass": lambda: np.array([0.6, 0.8]).view(_Array),
    "ndarray subclass row": lambda: np.array([[0.6, 0.8]]).view(_Array),
    "long array": lambda: np.arange(6.0),
    "int array": lambda: np.array([3, 4]),
    "uint64 array past 2^63": lambda: np.array([2**63 + 2**11 + 1, 2**63 - 2**10], dtype=np.uint64),
    "bool array": lambda: np.array([True, False]),
    "float32 array": lambda: np.array([0.6, 0.8], dtype=np.float32),
    "complex64 array": lambda: np.array([0.6, 0.8j], dtype=np.complex64),
    "longdouble array": lambda: np.array([LONG_THIRD, 2 * LONG_THIRD]),
    "clongdouble array": lambda: np.array([LONG_THIRD, 1j * LONG_THIRD], dtype=np.clongdouble),
    "object array": lambda: np.array([0.6, 0.8j], dtype=object),
    "object array of big ints": lambda: np.array([2**70 + 1, 2**69], dtype=object),
    "object array past the double range": lambda: np.array([10**400, 1], dtype=object),
    "0-d object array of a pair": lambda: _boxed([0.6, 0.8]),
    "0-d structured array": lambda: np.array((0.6, 0.8), dtype="f8,f8"),
    "structured array": lambda: np.array([(0.6, 0.0), (0.8, 0.0)], dtype="f8,f8"),
    "str array": lambda: np.array(["0.6", "0.8"]),
    "strided view": lambda: np.array([[0.6, 0.0], [0.8, 0.0]])[:, 0],
    "reversed view": lambda: np.array([0.8, 0.6])[::-1],
    "bools": lambda: [True, False],
    "ints": lambda: [3, 4],
    "ints past 2^53": lambda: [2**53 + 1, 2**70 + 2**17 + 1],
    "int past the double range": lambda: [10**400, 1],
    "numpy scalars": lambda: [np.float64(0.6), np.complex128(0.8j)],
    "float subclass": lambda: [_Float(0.6), 0.8],
    "None entry": lambda: [0.6, None],
    "str entries": lambda: ["0.6", "0.8"],
    "nested entry": lambda: [0.6, [0.8]],
    "complex tuple": lambda: (0.6, 0.8j),
    "nan": lambda: [float("nan"), 1.0],
}


class TestParse:
    """Two plain numbers (in a list, a tuple or a numeric ndarray's
    ``tolist()``) are read by ``complex()``, and every other input by numpy,
    as before: each input
    is accepted with the bits, or rejected with the error type and message,
    of the numpy parse (``tests/oracles.py``)."""

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("make", ODD_STATES.values(), ids=ODD_STATES.keys())
    def test_state_input_is_read_as_numpy_read_it(self, make, normalize):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(lambda: StateVector(make(), normalize=normalize))
        assert got == outcome(lambda: normalized_state(make(), normalize))

    def test_the_table_takes_both_routes_and_both_verdicts(self):
        verdicts = {name: outcome(lambda: StateVector(make(), normalize=True))[0]
                    for name, make in ODD_STATES.items()}
        assert {"accepted", "ValueError", "TypeError", "OverflowError"} == set(verdicts.values())
        assert verdicts["clongdouble array"] == verdicts["uint64 array past 2^63"] == "accepted"
        assert verdicts["column"] == verdicts["None"] == "ValueError"
        assert verdicts["iterator"] == verdicts["set"] == "TypeError"


class TestOneStoredForm:
    """Each state and operator stores only its flat entries; ``amps`` and
    ``entries`` are new read-only arrays built from them on every access."""

    def test_single_slot(self):
        assert StateVector.__slots__ == Operator.__slots__ == ("_flat",)

    def test_each_access_is_a_new_read_only_array_of_the_flat_entries(self, rng):
        for _ in range(50):
            s = random_state(rng)
            obs = random_dichotomic(rng)
            views = [(s, "amps", (2,)), (projector_onto(s), "entries", (2, 2)),
                     (obs.operator(), "entries", (2, 2)), (obs.plus_proj, "entries", (2, 2))]
            for obj, name, shape in views:
                first, second = getattr(obj, name), getattr(obj, name)
                assert first is not second
                for a in (first, second):
                    assert not a.flags.writeable
                    assert a.dtype == complex and a.shape == shape
                    assert a.tobytes() == np.array(obj._flat).tobytes()

    def test_caller_array_is_not_kept(self):
        a = np.array([0.6, 0.8j])
        s = StateVector(a)
        a[0] = 5.0
        assert s.amps.tolist() == [0.6, 0.8j]


class TestOperator:
    def test_hermitian_check(self):
        with pytest.raises(ValueError, match="hermitian"):
            Operator([[0.0, 1.0], [0.0, 0.0]])

    def test_square_required(self):
        with pytest.raises(ValueError):
            Operator(np.ones((2, 3)))

    def test_caller_array_stays_writable(self):
        m = np.eye(2, dtype=complex)
        op = Operator(m)
        m[0, 0] = 2.0
        assert np.array_equal(op.entries, np.eye(2))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 2.0


class TestInnerProduct:
    """<a|b> as every runtime route forms it: ``np.vdot`` on the amplitudes."""

    def test_normalization(self):
        psi1 = mz_basis().psi1
        assert np.vdot(psi1.amps, psi1.amps) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_paths(self):
        b = mz_basis()
        assert np.vdot(b.psi1.amps, b.psi2.amps) == pytest.approx(0.0, abs=1e-12)

    def test_input_output_overlap(self):
        # oracle: the explicit sum conj(a_k) b_k
        psi_i = StateVector([SQ3 / 2, 0.5])
        psi3 = mz_basis().psi3
        oracle = sum(np.conj(a) * b for a, b in zip(psi_i.amps, psi3.amps))
        val = np.vdot(psi_i.amps, psi3.amps)
        assert val == pytest.approx(oracle, abs=1e-12)
        assert val.real == pytest.approx((SQ3 + 1) / (2 * SQ2), abs=1e-12)

    def test_conjugate_linear_first_argument(self, rng):
        a, b = random_state(rng).amps, random_state(rng).amps
        assert np.vdot(a, b) == pytest.approx(np.conj(np.vdot(b, a)), abs=1e-12)

    def test_dimension_mismatch(self):
        """States and operators are qubit-only: any other shape is a ValueError
        naming it, at construction and at the density-matrix input of quasi."""
        m2 = DichotomicObservable(projector_onto(StateVector([1.0, 0.0])),
                                  projector_onto(StateVector([0.0, 1.0])))
        for shape in ((1,), (3,), (4,)):
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                StateVector(np.ones(shape) / np.sqrt(shape[0]))
        for shape in ((1, 1), (3, 3), (2, 3), (4,), (2, 2, 2)):
            zero = np.zeros(shape)  # finite, and Hermitian where defined: only the shape is wrong
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                Operator(zero)
            for route in (quasi, nsit_check):
                with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                    route(zero, m2, m2)


class TestExpectation:
    def test_identity(self, rng):
        s = random_state(rng)
        assert expectation(Operator(np.eye(2)), s) == pytest.approx(1.0, abs=1e-12)

    def test_path_observable_value(self):
        # oracle: explicit matrix expectation <s|M|s>
        m = np.diag([1.0, -1.0])
        s = StateVector([SQ3 / 2, 0.5])
        oracle = float((np.conj(s.amps) @ m @ s.amps).real)
        assert expectation(Operator(m), s) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(0.5, abs=1e-12)

    def test_balanced_superposition_is_zero(self):
        m = Operator(np.diag([1.0, -1.0]))
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


    def test_projector_diagonal_is_exactly_real(self, rng):
        # np.outer's fused complex multiply leaves ~1e-17 on the diagonal;
        # each entry stays within half an ulp of 1 of it, in each part
        for _ in range(2000):
            s = random_state(rng)
            p = projector_onto(s).entries
            assert p[0, 0].imag == 0.0 and p[1, 1].imag == 0.0
            outer = np.outer(s.amps, s.amps.conj())
            assert np.abs(p.real - outer.real).max() <= 2.0**-53
            assert np.abs(p.imag - outer.imag).max() <= 2.0**-53


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

    def test_rejects_non_idempotent_projector(self):
        # (I/2, I/2) sums to I, and fails P^2 = P through P_plus P_minus = I/4
        half = Operator(np.eye(2) / 2.0)
        with pytest.raises(ValueError, match="not mutually orthogonal"):
            DichotomicObservable(half, half)

    def test_rejects_wrong_spectrum(self):
        with pytest.raises(ValueError, match="M\\^2"):
            dichotomic_from_hermitian(Operator(np.diag([1.0, 0.0])))

    def test_projector_lookup(self, rng):
        obs = random_dichotomic(rng)
        assert obs.projector(+1) is obs.plus_proj
        assert obs.projector(-1) is obs.minus_proj
        with pytest.raises(ValueError):
            obs.projector(0)
