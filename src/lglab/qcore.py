"""Exact small-dimension complex linear algebra: states, operators, projectors.

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


def _check_dims(a, b):
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


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
    """Normalized pure state over a small Hilbert space.

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
        a = np.asarray(amps, dtype=complex).reshape(-1)
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
    """Square complex matrix with a structural kind tag.

    ``kind`` is ``"hermitian"`` or ``"general"``; a hermitian tag is verified
    at construction to ``STRUCT_TOL``.
    """

    __slots__ = ("entries", "kind")

    KINDS = ("hermitian", "general")

    def __init__(self, entries, kind: str = "general"):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        if kind not in self.KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
        if kind == "hermitian" and not Operator._self_adjoint(m):
            raise ValueError("operator declared hermitian but M != M^dagger")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def _self_adjoint(m: np.ndarray) -> bool:
        return _close(m, m.conj().T)

    def is_hermitian(self) -> bool:
        """M = M^dagger to STRUCT_TOL; a ``hermitian`` tag was verified at
        construction and the entries are read-only, so it is not re-tested.
        """
        return self.kind == "hermitian" or Operator._self_adjoint(self.entries)

    def is_projector(self) -> bool:
        m = self.entries
        return self.is_hermitian() and _close(m @ m, m)

    def __repr__(self):
        return f"Operator({self.entries.tolist()!r}, kind={self.kind!r})"


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    _check_dims(a, b)
    return complex(np.vdot(a.amps, b.amps))


def expectation(M: Operator, s: StateVector) -> float:
    """<s|M|s> for Hermitian M; the (vanishing) imaginary part is asserted away."""
    if not M.is_hermitian():
        raise ValueError("expectation requires a Hermitian operator")
    _check_dims(M, s)
    val = complex(np.vdot(s.amps, M.entries @ s.amps))
    if abs(val.imag) >= STRUCT_TOL:
        raise AssertionError(f"Hermitian expectation has imaginary part {val.imag}")
    return val.real


def born_probability(P: Operator, s: StateVector) -> float:
    """<s|P|s> for a projector P, clipped to [0, 1] within STRUCT_TOL."""
    p = expectation(P, s)  # tests M = M^dagger, so only P^2 = P is left
    if not _close(P.entries @ P.entries, P.entries):
        raise ValueError("born_probability requires a projector")
    if p < -STRUCT_TOL or p > 1.0 + STRUCT_TOL:
        raise AssertionError(f"Born probability {p} outside [0, 1]")
    return float(min(max(p, 0.0), 1.0))


def projector_onto(s: StateVector) -> Operator:
    """Rank-1 projector |s><s|."""
    return Operator(s.density(), kind="hermitian")


class DichotomicObservable:
    """Hermitian observable with spectrum {+1, -1}, stored as a projector pair.

    The pair must satisfy the full projector algebra (idempotent, mutually
    orthogonal, complete) and the reconstructed M = P_plus - P_minus squares
    to the identity; all checks at ``STRUCT_TOL``.
    """

    __slots__ = ("plus_proj", "minus_proj", "_operator")

    def __init__(self, plus_proj: Operator, minus_proj: Operator):
        if plus_proj.dim != minus_proj.dim:
            raise DimensionMismatch("projector dimensions differ")
        for name, p in (("plus", plus_proj), ("minus", minus_proj)):
            if not p.is_projector():
                raise ValueError(f"{name} projector fails P^2 = P = P^dagger")
        pp, pm = plus_proj.entries, minus_proj.entries
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
        object.__setattr__(self, "_operator", Operator(m, kind="hermitian"))

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


def dichotomic_from_hermitian(M: Operator) -> DichotomicObservable:
    """Build a DichotomicObservable from Hermitian M with M^2 = I via P_pm = (I pm M)/2."""
    if not M.is_hermitian():
        raise ValueError("observable must be Hermitian")
    m = M.entries
    eye = np.eye(M.dim)
    if not _close(m @ m, eye):
        raise ValueError("observable must satisfy M^2 = I (eigenvalues +-1)")
    plus = Operator((eye + m) / 2.0, kind="hermitian")
    minus = Operator((eye - m) / 2.0, kind="hermitian")
    return DichotomicObservable(plus, minus)
