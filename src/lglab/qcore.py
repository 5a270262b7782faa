"""Exact small-dimension complex linear algebra: states, Hermitian operators, projectors.

Everything here is double precision and pure. States and operators are
immutable after construction and every operation returns a new value, so the
whole module is safe for concurrent use without synchronization.

Three tolerances are used throughout:

* ``STRUCT_TOL`` (1e-12) for structural identities we compute ourselves
  (hermiticity, projector algebra, norms after construction);
* ``INPUT_TOL`` (1e-9) for validating user-supplied data, which may carry
  accumulated rounding from whatever produced it;
* ``VIOLATION_TOL`` (1e-12), the one violation rule: a Leggett-Garg K (read
  as K, as 4q or as 2 p(f)(1 -+ Re w)) below -VIOLATION_TOL is a violation.
"""

from __future__ import annotations

import math
import sys

import numpy as np

STRUCT_TOL = 1e-12
INPUT_TOL = 1e-9
VIOLATION_TOL = 1e-12


def _close(a, b, tol: float = STRUCT_TOL) -> bool:
    """Every entry of a - b within ``tol`` in modulus: ``allclose`` with ``rtol=0``."""
    return bool(np.all(np.abs(a - b) <= tol))


class DimensionMismatch(ValueError):
    """Raised when two objects live on Hilbert spaces of different dimension."""


def _check_dims(*dims: int) -> None:
    """The one dimension check: DimensionMismatch unless all ``dims`` are equal."""
    if len(set(dims)) > 1:
        raise DimensionMismatch(f"dimension mismatch: {' vs '.join(map(str, dims))}")


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
    """Normalized pure state over a small Hilbert space: a finite, nonzero 1-D vector.

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
        if a.ndim != 1:
            raise ValueError(f"state must be a one-dimensional vector, got shape {a.shape}")
        if a.size == 0:
            raise ValueError("state must have at least one amplitude")
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

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def density(self) -> np.ndarray:
        """Pure-state density matrix |s><s| as a plain ndarray."""
        return np.outer(self.amps, self.amps.conj())

    def __repr__(self):
        return f"StateVector({self.amps.tolist()!r})"


class Operator:
    """Hermitian matrix: square, finite and M = M^dagger to ``STRUCT_TOL``.

    The conditions are checked once, at construction, and the entries are
    read-only, so no route that receives an Operator tests them again.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        if not _close(m, m.conj().T):
            raise ValueError("operator is not hermitian: M != M^dagger")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):
        return f"Operator({self.entries.tolist()!r})"


def projector_onto(s: StateVector) -> Operator:
    """Rank-1 projector |s><s|."""
    return Operator(s.density())


class DichotomicObservable:
    """Hermitian observable with spectrum {+1, -1}, stored as a projector pair.

    Each projector is an :class:`Operator`, so Hermitian by construction; the
    pair must also satisfy the rest of the projector algebra (idempotent,
    mutually orthogonal, complete) and the reconstructed M = P_plus - P_minus
    squares to the identity; all checks at ``STRUCT_TOL``.
    """

    __slots__ = ("plus_proj", "minus_proj", "_operator")

    def __init__(self, plus_proj: Operator, minus_proj: Operator):
        _check_dims(plus_proj.dim, minus_proj.dim)
        pp, pm = plus_proj.entries, minus_proj.entries
        for name, p in (("plus", pp), ("minus", pm)):
            if not _close(p @ p, p):
                raise ValueError(f"{name} projector fails P^2 = P")
        if not _close(pp @ pm, 0.0):
            raise ValueError("projectors are not mutually orthogonal")
        eye = np.eye(plus_proj.dim)
        if not _close(pp + pm, eye):
            raise ValueError("projectors do not sum to the identity")
        m = pp - pm
        if not _close(m @ m, eye):
            raise ValueError("reconstructed observable does not satisfy M^2 = I")
        object.__setattr__(self, "plus_proj", plus_proj)
        object.__setattr__(self, "minus_proj", minus_proj)
        object.__setattr__(self, "_operator", Operator(m))

    def __setattr__(self, name, value):
        raise AttributeError("DichotomicObservable is immutable")

    @property
    def dim(self) -> int:
        return self.plus_proj.dim

    def projector(self, outcome: int) -> Operator:
        if outcome == +1:
            return self.plus_proj
        if outcome == -1:
            return self.minus_proj
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")

    def operator(self) -> Operator:
        """M = P_plus - P_minus, built once at construction."""
        return self._operator

