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
no second check, and a fixed object whose exact entries are known is built by
``_from_flat`` with none. Everything is double precision, immutable after
construction and pure, so the whole module is safe for concurrent use without
synchronization.

A state is parsed and normalised in plain Python. A list or tuple of two
numbers, or a numeric ndarray of two entries through ``tolist()``, is read by
``complex()``; numpy is imported only to read any other state input, as
``np.asarray(..., dtype=complex)`` always has, and so to name the shape of a
rejected one, to parse the 2x2 input of ``_flat_2x2``, and by ``amps`` and
``entries``, which build an array. A state's norm is the fused two-term dot
that a fusing BLAS ``ddot`` gives, computed exactly in Python
(``_fused_dot``), so it has the bits numpy gives on such a BLAS and the same
bits on any platform. Loading the module loads no numpy.

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

STRUCT_TOL = 1e-12
INPUT_TOL = 1e-9
VIOLATION_TOL = 1e-12


def _violates(k: float) -> bool:
    """The one violation rule: the Leggett-Garg K is below -VIOLATION_TOL."""
    return k < -VIOLATION_TOL


def _close(a, b, tol: float = STRUCT_TOL) -> bool:
    """Every a_k - b_k within ``tol`` in modulus, over two flat 2x2 entry
    sequences (00, 01, 10, 11): ``allclose`` with ``rtol=0``, unrolled."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (abs(a0 - b0) <= tol and abs(a1 - b1) <= tol
            and abs(a2 - b2) <= tol and abs(a3 - b3) <= tol)


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


# the Python types whose complex() is numpy's cast to complex128, as ndarray
# tolist() gives them: every other element takes numpy's own parse
_NUMBER_TYPES = (float, int, complex)
_SEQUENCE_TYPES = (list, tuple)


def _listed(data):
    """A plain numeric ndarray of two entries as its ``tolist()``, anything
    else as it is: a larger array is numpy's to reject, with no list built,
    and any other dtype (structured, object, str) is numpy's to read. An
    ndarray exists only once numpy is loaded, so this loads none."""
    np = sys.modules.get("numpy")
    if (np is not None and type(data) is np.ndarray and data.size == 2
            and data.dtype.kind in "iufc"):
        return data.tolist()
    return data


def _numpy_parse(data, shape: tuple, rule: str) -> tuple:
    """The flat parts of ``data`` as ``np.asarray(data, dtype=complex)`` reads
    them; any other shape is a ValueError, ``rule`` and the shape numpy names."""
    import numpy as np

    a = np.asarray(data, dtype=complex)
    if a.shape != shape:
        raise ValueError(f"{rule}, got shape {a.shape}")
    return tuple(a.ravel().tolist())


def _flat_2x2(entries, rule: str) -> tuple:
    """The flat entries (00, 01, 10, 11) of an array-like 2x2 matrix, as Python
    complex numbers; any other shape is a ValueError, ``rule`` and the shape."""
    return _numpy_parse(entries, (2, 2), rule)


def _check_hermitian(flat) -> None:
    """Reject flat entries (00, 01, 10, 11) that are not finite or not
    Hermitian to ``STRUCT_TOL``: the checks of :class:`Operator`."""
    if not all(map(cmath.isfinite, flat)):
        raise ValueError("operator entries must be finite")
    if not _close(flat, _adjoint(flat)):
        raise ValueError("operator is not hermitian: M != M^dagger")


# the range of a squared norm at full precision: below the smallest normal
# double it has lost bits, and a NaN or inf amplitude lands outside it too
_SQ_MIN, _SQ_MAX = sys.float_info.min, math.inf

# Veltkamp's splitter for doubles, 2**27 + 1: b = hi + lo in two 26-bit halves
_SPLIT = 134217729.0
# Dekker's product b*b = h + l is exact while |b| is within this range
_EXACT_MIN, _EXACT_MAX = 2.0**-450, 2.0**450


def _fused_dot(a: float, b: float) -> float:
    """a*a + b*b as a two-term BLAS ``ddot`` that fuses its second product
    forms it: fma(b, b, fl(a*a)), the exact b*b added to the rounded a*a and
    rounded once.

    Within ``[_EXACT_MIN, _EXACT_MAX]`` Dekker's product splits b*b exactly
    into h + l, and ``math.fsum`` rounds fl(a*a) + h + l once, correctly; for
    any other finite b the same sum is formed exactly as a ``Fraction``. A sum
    past the largest double is inf; a NaN or inf part gives NaN or inf.
    """
    aa = a * a
    if _EXACT_MIN <= abs(b) <= _EXACT_MAX:
        h = b * b
        t = _SPLIT * b
        hi = t - (t - b)
        lo = b - hi
        l = ((hi * hi - h) + 2.0 * hi * lo) + lo * lo
        try:
            return math.fsum((aa, h, l))
        except OverflowError:
            return math.inf
    if b == 0.0:
        return aa
    if not (math.isfinite(aa) and math.isfinite(b)):
        return aa + b * b
    from fractions import Fraction

    try:
        return float(Fraction(aa) + Fraction(b) ** 2)
    except OverflowError:
        return math.inf


def _rescaled(parts: tuple) -> tuple:
    """The real and imaginary parts (xr, xi, yr, yi) of a state whose squared
    norm lies outside [_SQ_MIN, _SQ_MAX), divided by their largest magnitude
    as ``re / peak + 1j * (im / peak)`` forms it in numpy (so a -0.0 real part
    of a nonnegative imaginary one, and a -0.0 imaginary part, turn +0.0),
    then their squared norm and that scale; non-finite amplitudes are
    rejected, and a zero vector stays zero."""
    if not all(map(math.isfinite, parts)):
        raise ValueError("state amplitudes must be finite")
    peak = max(map(abs, parts))
    if peak == 0.0:
        return parts, 0.0, 1.0
    # real and imaginary parts apart: complex division by a subnormal peak
    # would form 1/peak, which overflows
    xr, xi, yr, yi = (p / peak for p in parts)
    xr, xi, yr, yi = xr + 0.0 * xi, xi + 0.0, yr + 0.0 * yi, yi + 0.0
    return (xr, xi, yr, yi), _fused_dot(xr, yr) + _fused_dot(xi, yi), peak


class StateVector:
    """Normalized qubit state: a finite, nonzero vector of two amplitudes.

    By default inputs whose norm deviates from 1 by more than ``INPUT_TOL``
    are rejected; pass ``normalize=True`` to renormalize instead. Either way
    the stored amplitudes are divided by their exact norm, so
    ``sum(|amp|^2) == 1`` holds to ``STRUCT_TOL`` after construction.

    The norm is ``sqrt(re.re + im.im)``, the expression ``np.linalg.norm``
    evaluates for a complex vector, with each two-term dot fused as a fusing
    BLAS forms it (:func:`_fused_dot`, in plain Python), so it has the bits of
    ``v / np.linalg.norm(v)`` on such a BLAS and the same bits anywhere; the
    division is numpy's complex division by the real norm. Finite nonzero
    amplitudes whose squared norm overflows to inf or falls below the smallest
    normal double are first divided by their largest real or imaginary
    component, so that ``normalize=True`` keeps their direction and the
    rejection reports their true norm; every other input keeps this
    arithmetic unchanged. Only the normalized amplitudes are kept, as ``_flat``.
    """

    __slots__ = ("_flat",)

    def __init__(self, amps, normalize: bool = False):
        v = _listed(amps)
        if (type(v) in _SEQUENCE_TYPES and len(v) == 2
                and type(v[0]) in _NUMBER_TYPES and type(v[1]) in _NUMBER_TYPES):
            x, y = complex(v[0]), complex(v[1])
        else:
            x, y = _numpy_parse(amps, (2,), "state must be a two-amplitude one-dimensional vector")
        xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
        sq = _fused_dot(xr, yr) + _fused_dot(xi, yi)
        scale = 1.0
        if not _SQ_MIN <= sq < _SQ_MAX:
            (xr, xi, yr, yi), sq, scale = _rescaled((xr, xi, yr, yi))
        norm = math.sqrt(sq)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        # the norm of the input, inf if it overflows
        if not normalize and abs(scale * norm - 1.0) > INPUT_TOL:
            raise ValueError(
                f"state norm {scale * norm!r} deviates from 1 by more than {INPUT_TOL}"
            )
        # numpy's complex division by (norm + 0j): each part, plus or minus
        # the other times +0.0, times the reciprocal
        r = 1.0 / norm
        object.__setattr__(self, "_flat", (complex((xr + xi * 0.0) * r, (xi - xr * 0.0) * r),
                                           complex((yr + yi * 0.0) * r, (yi - yr * 0.0) * r)))

    @classmethod
    def _from_flat(cls, flat: tuple) -> StateVector:
        """The StateVector with these two amplitudes, Python complex numbers
        that the caller guarantees finite and of unit norm: no check runs."""
        s = object.__new__(cls)
        object.__setattr__(s, "_flat", flat)
        return s

    @property
    def amps(self):
        """The two amplitudes, as a new read-only ndarray built from ``_flat``."""
        import numpy as np

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
    def entries(self):
        """The 2x2 matrix, as a new read-only ndarray built from ``_flat``."""
        import numpy as np

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

