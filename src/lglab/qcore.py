"""Exact qubit linear algebra: states, Hermitian operators, projectors.

Every state has two amplitudes and every operator is 2x2 (any other shape is
a ValueError naming it); their checks are plain Python arithmetic on the flat
entries, the one form an object stores (``_flat``, a tuple of Python complex
numbers; ``amps`` and ``entries`` build a read-only ndarray of it on access).
``_numpy_parse`` reads the 2x2 input of an operator or a density matrix.
Validation runs once, where an object enters: ``StateVector`` and
``Operator`` check what the caller gives them, and ``DichotomicObservable``
checks its projector pair and M. A projector |s><s| of a validated state is
exactly Hermitian, so ``projector_onto`` builds it from its flat entries with
no second check, and a fixed object whose exact entries are known is built by
``_from_flat``, one for both classes, with none. Everything is double
precision, immutable after construction and pure, so the whole module is
safe for concurrent use without synchronization.

The objects here are ``_Frozen``, and every layer's records are ``_Record``s:
``__slots__`` classes with written-out ``__init__``s, so loading the layers
generates no code (``experiment.SampleEstimate`` is the one dataclass left).

A state is parsed and normalised in plain Python. A list or tuple of two
numbers, or a numeric ndarray of two entries through ``tolist()``, is read by
``complex()``; numpy is imported only to read any other state input, as
``np.asarray(..., dtype=complex)`` always has, and so to name the shape of a
rejected one, to parse a 2x2 input, and by ``amps`` and ``entries``, which
build an array. A state's norm is ``math.hypot`` of its four real parts, a
scaled norm within 1 ulp of the exact one that CPython computes itself, with
no BLAS. Loading the module loads no numpy.

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
import operator
import sys

STRUCT_TOL = 1e-12
INPUT_TOL = 1e-9
VIOLATION_TOL = 1e-12


def _violates(k: float) -> bool:
    """The one violation rule: the Leggett-Garg K is below -VIOLATION_TOL."""
    return k < -VIOLATION_TOL


def _rebuilt(cls, values: tuple):
    """The ``cls`` object with these slot values, set one by one: ``__init__``
    does not run again, so a copy or an unpickled object has its original's bits."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


class _Frozen:
    """Immutable after ``__init__``, which sets each slot with ``object.__setattr__``:
    setting or deleting an attribute raises AttributeError. ``copy`` and
    ``pickle`` rebuild an object from its slot values through :func:`_rebuilt`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _rebuilt, (type(self), tuple(getattr(self, name) for name in self.__slots__))


class _Record(_Frozen):
    """An immutable value over its ``__slots__``, in place of a frozen dataclass:
    equality, hash and a repr in the dataclass format all read the fields
    through one per-class ``operator.attrgetter``, at C speed."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"


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


def _from_flat(cls, flat: tuple):
    """The ``cls`` object (a StateVector or an Operator) with these flat entries,
    which the caller guarantees finite and of unit norm or Hermitian: no check runs."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "_flat", flat)
    return obj


def _check_hermitian(flat) -> None:
    """Reject flat entries (00, 01, 10, 11) that are not finite or not
    Hermitian to ``STRUCT_TOL``: the checks of :class:`Operator`."""
    if not all(map(cmath.isfinite, flat)):
        raise ValueError("operator entries must be finite")
    if not _close(flat, _adjoint(flat)):
        raise ValueError("operator is not hermitian: M != M^dagger")


class StateVector(_Frozen):
    """Normalized qubit state: a finite, nonzero vector of two amplitudes.

    By default inputs whose norm deviates from 1 by more than ``INPUT_TOL``
    are rejected; pass ``normalize=True`` to renormalize instead. Either way
    the stored amplitudes are divided by their norm, so ``sum(|amp|^2) == 1``
    holds to ``STRUCT_TOL`` after construction.

    The norm is ``math.hypot`` of the four real parts, within 1 ulp of the
    exact norm (CPython documents its error as under 1 ulp) and free of
    intermediate overflow and underflow; each part is then divided by it.
    Where that norm is subnormal, zero or not finite, the parts are first
    scaled by the power of two that takes their largest magnitude into
    [1, 2), which rounds only parts that fall below the normal range, and
    the norm is taken again, so that ``normalize=True`` keeps the direction
    of a tiny vector and a rejection reports the true norm of a huge one.
    Only the normalized amplitudes are kept, as ``_flat``.
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
        norm, scale = math.hypot(xr, xi, yr, yi), 1.0
        if not sys.float_info.min <= norm < math.inf:
            if not all(map(math.isfinite, (xr, xi, yr, yi))):
                raise ValueError("state amplitudes must be finite")
            # by the power of two that takes the largest part into [1, 2),
            # exact but for parts it takes below the normal range (a zero
            # vector stays zero, and is refused below)
            k = math.frexp(max(abs(xr), abs(xi), abs(yr), abs(yi)))[1] - 1
            xr, xi, yr, yi = (math.ldexp(part, -k) for part in (xr, xi, yr, yi))
            norm, scale = math.hypot(xr, xi, yr, yi), math.ldexp(1.0, k)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        # the norm of the input, inf if it overflows
        if not normalize and abs(scale * norm - 1.0) > INPUT_TOL:
            raise ValueError(
                f"state norm {scale * norm!r} deviates from 1 by more than {INPUT_TOL}"
            )
        object.__setattr__(self, "_flat", (complex(xr / norm, xi / norm), complex(yr / norm, yi / norm)))

    @property
    def amps(self):
        """The two amplitudes, as a new read-only ndarray built from ``_flat``."""
        import numpy as np

        a = np.array(self._flat, dtype=complex)
        a.setflags(write=False)
        return a

    def __repr__(self):
        return f"StateVector({list(self._flat)!r})"


class Operator(_Frozen):
    """Hermitian 2x2 matrix: finite and M = M^dagger to ``STRUCT_TOL``.

    The conditions are checked once, at construction, on the flat entries
    (00, 01, 10, 11) of the input, so no route that receives an Operator tests
    them again. Those entries are all it keeps, as a tuple of Python complex
    numbers, ``_flat``; nothing of the caller's array is kept. Operators that
    this module derives from objects it has already validated are built by
    :func:`_from_flat`, straight from their flat entries: a projector needs no
    check, and an observable's M is checked by :class:`DichotomicObservable`
    on those entries.
    """

    __slots__ = ("_flat",)

    def __init__(self, entries):
        flat = _numpy_parse(entries, (2, 2), "operator must be a 2x2 matrix")
        _check_hermitian(flat)
        object.__setattr__(self, "_flat", flat)

    @property
    def entries(self):
        """The 2x2 matrix, as a new read-only ndarray built from ``_flat``."""
        import numpy as np

        m = np.array(self._flat, dtype=complex).reshape(2, 2)
        m.setflags(write=False)
        return m

    def __repr__(self):
        a, b, c, d = self._flat
        return f"Operator({[[a, b], [c, d]]!r})"


def projector_onto(s: StateVector) -> Operator:
    """Rank-1 projector |s><s|, from :func:`_ket_bra`: finite and exactly
    Hermitian by construction, so it is not checked again."""
    return _from_flat(Operator, _ket_bra(s))


class DichotomicObservable(_Frozen):
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
        object.__setattr__(self, "_operator", _from_flat(Operator, m))

    def projector(self, outcome: int) -> Operator:
        if outcome == +1:
            return self.plus_proj
        if outcome == -1:
            return self.minus_proj
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")

    def operator(self) -> Operator:
        """M = P_plus - P_minus, built once at construction."""
        return self._operator

