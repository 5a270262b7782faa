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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quasiprob import OUTCOMES, QuasiprobTable, mr_reading

# the fixed vertices (m2, m3) and the columns of the system over them
_VERTICES = [(m2, m3) for m2 in OUTCOMES for m3 in OUTCOMES]
_VERTEX_SYSTEM = np.array([[1.0, m2, m3, m2 * m3] for m2, m3 in _VERTICES]).T
_VERTEX_SYSTEM.setflags(write=False)


@dataclass(frozen=True)
class CorrelationTriple:
    """(<M2>, <M3>, <M2 M3>), each constrained to [-1, 1]."""

    e2: float
    e3: float
    e23: float

    def __post_init__(self):
        for name in ("e2", "e3", "e23"):
            v = getattr(self, name)
            if not math.isfinite(v) or abs(v) > 1.0:
                raise ValueError(f"{name} must lie in [-1, 1], got {v}")


def macrorealist_feasible(t: CorrelationTriple) -> QuasiprobTable:
    """The unique moment-matching joint (moment expansion), as the verdict's witness."""
    return mr_reading(t.e2, t.e3, t.e23)


def feasibility_oracle(t: CorrelationTriple) -> QuasiprobTable:
    """Independent route: solve the vertex system for the candidate joint.

    Solves the square linear system (normalization plus three moment
    constraints) over the four deterministic assignments (m2, m3) in {+-1}^2,
    built once at import, and sign-checks the unique solution. Kept separate
    from :func:`macrorealist_feasible` as a cross-validation path; the vertex
    construction generalizes to larger outcome sets.
    """
    x = np.linalg.solve(_VERTEX_SYSTEM, np.array([1.0, t.e2, t.e3, t.e23]))
    return QuasiprobTable({v: float(x[k]) for k, v in enumerate(_VERTICES)})

