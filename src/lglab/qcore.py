"""Exact qubit linear algebra: states, Hermitian operators, projectors.

Every state has two amplitudes and every operator is 2x2 (any other shape is
a ValueError naming it); their checks are plain Python arithmetic on the flat
entries. Everything is double precision, immutable after construction and
pure, so the whole module is safe for concurrent use without synchronization.

Three tolerances are used throughout:

* ``STRUCT_TOL`` (1e-12) for structural identities we compute ourselves
  (hermiticity, projector algebra, norms after construction);
* ``INPUT_TOL`` (1e-9) for validating user-supplied data, which may carry
  accumulated rounding from whatever produced it;
* ``VIOLATION_TOL`` (1e-12), the one violation rule: a Leggett-Garg K (read
  as K, as 4q or as 2 p(f)(1 -+ Re w)) below -VIOLATION_TOL is a violation.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

STRUCT_TOL = 1e-12
INPUT_TOL = 1e-9
VIOLATION_TOL = 1e-12


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
    arithmetic unchanged.
    """

    __slots__ = ("amps",)

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
        a = a / norm
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def density(self) -> np.ndarray:
        """Pure-state density matrix |s><s| as a plain ndarray."""
        return np.outer(self.amps, self.amps.conj())

    def __repr__(self):
        return f"StateVector({self.amps.tolist()!r})"


class Operator:
    """Hermitian 2x2 matrix: finite and M = M^dagger to ``STRUCT_TOL``.

    The conditions are checked once, at construction, on a read-only copy of
    the input (the caller's array stays writable), so no route that receives
    an Operator tests them again.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        m = np.array(entries, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"operator must be a 2x2 matrix, got shape {m.shape}")
        flat = m.ravel().tolist()
        if not all(map(cmath.isfinite, flat)):
            raise ValueError("operator entries must be finite")
        if not _close(flat, _adjoint(flat)):
            raise ValueError("operator is not hermitian: M != M^dagger")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    def __repr__(self):
        return f"Operator({self.entries.tolist()!r})"


def projector_onto(s: StateVector) -> Operator:
    """Rank-1 projector |s><s|."""
    return Operator(s.density())


class DichotomicObservable:
    """Hermitian observable with spectrum {+1, -1}, stored as a projector pair.

    Each projector is an :class:`Operator`, so Hermitian by construction; the
    pair must also be mutually orthogonal, P_plus P_minus = 0, and complete,
    P_plus + P_minus = I, both at ``STRUCT_TOL``. For Hermitian P these two
    imply the rest of the algebra: P_plus^2 = P_plus - P_plus P_minus = P_plus,
    likewise P_minus, and M = P_plus - P_minus squares to P_plus + P_minus = I.
    """

    __slots__ = ("plus_proj", "minus_proj", "_operator")

    def __init__(self, plus_proj: Operator, minus_proj: Operator):
        pp, pm = plus_proj.entries.ravel().tolist(), minus_proj.entries.ravel().tolist()
        if not _close(_matmul(pp, pm), (0.0, 0.0, 0.0, 0.0)):
            raise ValueError("projectors are not mutually orthogonal")
        if not _close([x + y for x, y in zip(pp, pm)], (1.0, 0.0, 0.0, 1.0)):
            raise ValueError("projectors do not sum to the identity")
        object.__setattr__(self, "plus_proj", plus_proj)
        object.__setattr__(self, "minus_proj", minus_proj)
        object.__setattr__(self, "_operator", Operator(plus_proj.entries - minus_proj.entries))

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

