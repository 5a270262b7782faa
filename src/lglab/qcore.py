"""Exact qubit linear algebra: states, Hermitian operators, projectors.

Every state has two amplitudes and every operator is 2x2 (any other shape is
a ValueError naming it); their checks are plain Python arithmetic on the flat
entries, the one form an object stores (``_flat``, a tuple of Python complex
numbers; ``amps`` and ``entries`` build a read-only ndarray of it on access).
One helper, ``_flat_2x2``, parses the 2x2 input of an operator or a density
matrix. Validation runs once, where an object enters: ``StateVector`` and
``Operator`` check what the caller gives them, and ``DichotomicObservable``
checks its projector pair and M. A projector |s><s| of a validated state is
exactly Hermitian, so ``projector_onto`` builds it from its flat entries with
no second check. Everything is double precision, immutable after construction
and pure, so the whole module is safe for concurrent use without
synchronization.

Three tolerances are used throughout:

* ``STRUCT_TOL`` (1e-12) for structural identities we compute ourselves
  (hermiticity, projector algebra, norms after construction);
* ``INPUT_TOL`` (1e-9) for validating user-supplied data, which may carry
  accumulated rounding from whatever produced it;
* ``VIOLATION_TOL`` (1e-12), read only by ``_violates``, the one violation rule:
  a Leggett-Garg K (as K, 4q or 2 p(f)(1 -+ Re w)) below -VIOLATION_TOL violates.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

STRUCT_TOL = 1e-12
INPUT_TOL = 1e-9
VIOLATION_TOL = 1e-12


def _violates(k: float) -> bool:
    """The one violation rule: the Leggett-Garg K is below -VIOLATION_TOL."""
    return k < -VIOLATION_TOL


def _close(a, b, tol: float = STRUCT_TOL) -> bool:
    """Every a_k - b_k within ``tol`` in modulus, over two flat sequences of
    numbers: ``allclose`` with ``rtol=0``."""
    return all(abs(x - y) <= tol for x, y in zip(a, b))


def _adjoint(m) -> tuple:
    """M^dagger of a 2x2 matrix, both as flat entries (00, 01, 10, 11)."""
    a, b, c, d = m
    return a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate()


def _matmul(a, b) -> tuple:
    """The product of two 2x2 matrices, each as its flat entries (00, 01, 10, 11)."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _ket_bra(s: StateVector) -> tuple:
    """The flat entries (00, 01, 10, 11) of |s><s|, in plain Python.

    Each diagonal entry x * conj(x) has an imaginary part of exactly zero;
    ``np.outer`` fuses its complex multiply and can leave one of 1e-17. The
    entries are finite (the amplitudes have unit norm) and exactly Hermitian:
    y * conj(x) is the exact conjugate of x * conj(y), since each part is the
    same rounded sum of the same products, negated in the imaginary part.
    """
    x, y = s._flat
    xc, yc = x.conjugate(), y.conjugate()
    return x * xc, x * yc, y * xc, y * yc


def _flat_2x2(entries, rule: str) -> tuple:
    """The flat entries (00, 01, 10, 11) of an array-like 2x2 matrix, as Python
    complex numbers; any other shape is a ValueError, ``rule`` and the shape."""
    m = np.asarray(entries, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"{rule}, got shape {m.shape}")
    return tuple(m.ravel().tolist())


def _check_hermitian(flat) -> None:
    """Reject flat entries (00, 01, 10, 11) that are not finite or not
    Hermitian to ``STRUCT_TOL``: the checks of :class:`Operator`."""
    if not all(map(cmath.isfinite, flat)):
        raise ValueError("operator entries must be finite")
    if not _close(flat, _adjoint(flat)):
        raise ValueError("operator is not hermitian: M != M^dagger")


def _sq_norm(a: np.ndarray) -> float:
    """sum |a_i|^2 as ``np.linalg.norm`` forms it for a complex vector, without its wrapper.

    ``np.vdot`` is the BLAS dot that ``ndarray.dot`` calls, with the same bits,
    but it raises no overflow warning: a sum that overflows reads inf.
    """
    return float(np.vdot(a.real, a.real)) + float(np.vdot(a.imag, a.imag))


def _rescaled(a: np.ndarray) -> tuple[np.ndarray, float, float]:
    """``a`` divided by a scale, its squared norm and that scale; non-finite
    amplitudes are rejected.

    The scale is 1 (``a`` itself) unless the squared norm overflows or leaves
    the normal range; then it is max |component|, and a zero vector stays zero.
    """
    sq = _sq_norm(a)
    # below the smallest normal double the squared norm has lost precision;
    # a NaN or inf amplitude lands outside this range too
    if sys.float_info.min <= sq < math.inf:
        return a, sq, 1.0
    if not np.isfinite(a).all():
        raise ValueError("state amplitudes must be finite")
    peak = float(max(np.abs(a.real).max(), np.abs(a.imag).max()))
    if peak == 0.0:
        return a, sq, 1.0
    # real and imaginary parts apart: complex division by a subnormal peak
    # would form 1/peak, which overflows
    a = a.real / peak + 1j * (a.imag / peak)
    return a, _sq_norm(a), peak


class StateVector:
    """Normalized qubit state: a finite, nonzero vector of two amplitudes.

    By default inputs whose norm deviates from 1 by more than ``INPUT_TOL``
    are rejected; pass ``normalize=True`` to renormalize instead. Either way
    the stored amplitudes are divided by their exact norm, so
    ``sum(|amp|^2) == 1`` holds to ``STRUCT_TOL`` after construction.

    The norm is ``sqrt(re.re + im.im)``, the expression ``np.linalg.norm``
    evaluates for a complex vector, so it has the same bits. Finite nonzero
    amplitudes whose squared norm overflows to inf or falls below the smallest
    normal double are first divided by their largest real or imaginary
    component, so that ``normalize=True`` keeps their direction and the
    rejection reports their true norm; every other input keeps this
    arithmetic unchanged. Only the normalized amplitudes are kept, as ``_flat``.
    """

    __slots__ = ("_flat",)

    def __init__(self, amps, normalize: bool = False):
        a = np.asarray(amps, dtype=complex)
        if a.shape != (2,):
            raise ValueError(
                f"state must be a two-amplitude one-dimensional vector, got shape {a.shape}"
            )
        a, sq, scale = _rescaled(a)
        norm = math.sqrt(sq)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        # the norm of the input, inf if it overflows
        if not normalize and abs(scale * norm - 1.0) > INPUT_TOL:
            raise ValueError(
                f"state norm {scale * norm!r} deviates from 1 by more than {INPUT_TOL}"
            )
        object.__setattr__(self, "_flat", tuple((a / norm).tolist()))

    @property
    def amps(self) -> np.ndarray:
        """The two amplitudes, as a new read-only array built from ``_flat``."""
        a = np.array(self._flat, dtype=complex)
        a.setflags(write=False)
        return a

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __repr__(self):
        return f"StateVector({list(self._flat)!r})"


class Operator:
    """Hermitian 2x2 matrix: finite and M = M^dagger to ``STRUCT_TOL``.

    The conditions are checked once, at construction, on the flat entries
    (00, 01, 10, 11) of the input, so no route that receives an Operator tests
    them again. Those entries are all it keeps, as a tuple of Python complex
    numbers, ``_flat``; nothing of the caller's array is kept. Operators that
    this module derives from objects it has already validated are built by
    :meth:`_from_flat`, straight from their flat entries: a projector needs no
    check, and an observable's M is checked by :class:`DichotomicObservable`
    on those entries.
    """

    __slots__ = ("_flat",)

    def __init__(self, entries):
        flat = _flat_2x2(entries, "operator must be a 2x2 matrix")
        _check_hermitian(flat)
        object.__setattr__(self, "_flat", flat)

    @classmethod
    def _from_flat(cls, flat: tuple) -> Operator:
        """The Operator with these flat entries, which the caller guarantees
        finite and Hermitian: no check runs."""
        op = object.__new__(cls)
        object.__setattr__(op, "_flat", flat)
        return op

    @property
    def entries(self) -> np.ndarray:
        """The 2x2 matrix, as a new read-only array built from ``_flat``."""
        m = np.array(self._flat, dtype=complex).reshape(2, 2)
        m.setflags(write=False)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    def __repr__(self):
        a, b, c, d = self._flat
        return f"Operator({[[a, b], [c, d]]!r})"


def projector_onto(s: StateVector) -> Operator:
    """Rank-1 projector |s><s|, from :func:`_ket_bra`: finite and exactly
    Hermitian by construction, so it is not checked again."""
    return Operator._from_flat(_ket_bra(s))


class DichotomicObservable:
    """Hermitian observable with spectrum {+1, -1}, stored as a projector pair.

    Each projector is an :class:`Operator`, so Hermitian by construction; the
    pair must also be mutually orthogonal, P_plus P_minus = 0, and complete,
    P_plus + P_minus = I, both at ``STRUCT_TOL``. For Hermitian P these two
    imply the rest of the algebra: P_plus^2 = P_plus - P_plus P_minus = P_plus,
    likewise P_minus, and M = P_plus - P_minus squares to P_plus + P_minus = I.
    M is formed once, in plain Python on the flat entries, and gets the finite
    and Hermitian checks of :class:`Operator` with the same messages.
    """

    __slots__ = ("plus_proj", "minus_proj", "_operator")

    def __init__(self, plus_proj: Operator, minus_proj: Operator):
        pp, pm = plus_proj._flat, minus_proj._flat
        if not _close(_matmul(pp, pm), (0.0, 0.0, 0.0, 0.0)):
            raise ValueError("projectors are not mutually orthogonal")
        a, b, c, d = pp
        e, f, g, h = pm
        if not _close((a + e, b + f, c + g, d + h), (1.0, 0.0, 0.0, 1.0)):
            raise ValueError("projectors do not sum to the identity")
        m = (a - e, b - f, c - g, d - h)
        _check_hermitian(m)
        object.__setattr__(self, "plus_proj", plus_proj)
        object.__setattr__(self, "minus_proj", minus_proj)
        object.__setattr__(self, "_operator", Operator._from_flat(m))

    def __setattr__(self, name, value):
        raise AttributeError("DichotomicObservable is immutable")

    def projector(self, outcome: int) -> Operator:
        if outcome == +1:
            return self.plus_proj
        if outcome == -1:
            return self.minus_proj
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")

    def operator(self) -> Operator:
        """M = P_plus - P_minus, built once at construction."""
        return self._operator

