"""Macrorealist feasibility of two-time dichotomic statistics.

Given first moments <M2>, <M3> and the correlator <M2 M3>, a macrorealist
(classical joint) model exists iff some nonnegative distribution over the
four deterministic outcome assignments reproduces them. In the two-time
scenario the moment-matching joint is unique, so feasibility reduces to
sign-checking it; an independent linear-solve route over the deterministic
vertices is kept as a cross-validation oracle. Feasibility is equivalent to
all four two-time LG quantities being nonnegative, under the one violation
rule on K = 4q. Every route returns that joint, a
:class:`~lglab.quasiprob.QuasiprobTable` whose ``feasible`` and ``margin`` are the verdict.

The vertex system is fixed: it is built once, at import, and inverted once,
on the oracle's first call; the inverse is read-only, and equals the
transposed system over 4 exactly. A triple is validated once, by
:class:`CorrelationTriple`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quasiprob import OUTCOMES, QuasiprobTable, mr_reading

# the fixed vertices (m2, m3) and the columns of the system over them
_VERTICES = [(m2, m3) for m2 in OUTCOMES for m3 in OUTCOMES]
_VERTEX_SYSTEM = np.array([[1.0, m2, m3, m2 * m3] for m2, m3 in _VERTICES]).T
_VERTEX_SYSTEM.setflags(write=False)


@functools.cache
def _vertex_inverse() -> np.ndarray:
    """The read-only inverse of the vertex system, built on the oracle's first
    call, not at import: numpy's first LAPACK call adds about half a megabyte
    of resident memory, which a process that never runs the oracle need not pay."""
    inverse = np.linalg.inv(_VERTEX_SYSTEM)
    inverse.setflags(write=False)
    return inverse


@dataclass(frozen=True)
class CorrelationTriple:
    """(<M2>, <M3>, <M2 M3>), each constrained to [-1, 1]."""

    e2: float
    e3: float
    e23: float

    def __post_init__(self):
        e2, e3, e23 = self.e2, self.e3, self.e23
        if not math.isfinite(e2) or abs(e2) > 1.0:
            raise ValueError(f"e2 must lie in [-1, 1], got {e2}")
        if not math.isfinite(e3) or abs(e3) > 1.0:
            raise ValueError(f"e3 must lie in [-1, 1], got {e3}")
        if not math.isfinite(e23) or abs(e23) > 1.0:
            raise ValueError(f"e23 must lie in [-1, 1], got {e23}")


def macrorealist_feasible(t: CorrelationTriple) -> QuasiprobTable:
    """The unique moment-matching joint (moment expansion), as the verdict's witness."""
    return mr_reading(t.e2, t.e3, t.e23)


def feasibility_oracle(t: CorrelationTriple) -> QuasiprobTable:
    """Independent route: solve the vertex system for the candidate joint.

    Solves the square linear system (normalization plus three moment
    constraints) over the four deterministic assignments (m2, m3) in {+-1}^2
    by applying its inverse, built once, and sign-checks the unique
    solution. Kept separate from :func:`macrorealist_feasible` as a
    cross-validation path; the vertex construction generalizes to larger
    outcome sets.
    """
    x = _vertex_inverse().dot([1.0, t.e2, t.e3, t.e23])
    return QuasiprobTable(dict(zip(_VERTICES, x.tolist())))

