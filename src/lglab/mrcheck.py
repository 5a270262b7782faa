"""Macrorealist feasibility of two-time dichotomic statistics.

Given first moments <M2>, <M3> and the correlator <M2 M3>, a macrorealist
(classical joint) model exists iff some nonnegative distribution over the
four deterministic outcome assignments reproduces them. In the two-time
scenario the moment-matching joint is unique, so feasibility reduces to
sign-checking it. :func:`macrorealist_feasible` is the one runtime route to
that joint, the macrorealist reading of the triple; an independent
linear-solve route over the deterministic vertices is kept as a
cross-validation oracle. Feasibility is equivalent to
all four two-time LG quantities being nonnegative, under the one violation
rule on K = 4q. Every route returns that joint, a
:class:`~lglab.quasiprob.QuasiprobTable` whose ``feasible`` and ``margin`` are the verdict.

The vertex system is fixed, and so is its inverse: its rows are orthogonal
with squared norm 4, so the inverse is exactly the transposed system over 4.
Both are read-only constants, built once, at import. A triple is validated
once, by :class:`CorrelationTriple`, against the one range rule (finite, and
within [-1, 1] with no tolerance or clip), and no route checks it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quasiprob import OUTCOMES, QuasiprobTable, _q_from_moments

# the fixed vertices (m2, m3) and the columns of the system over them
_VERTICES = [(m2, m3) for m2 in OUTCOMES for m3 in OUTCOMES]
_VERTEX_SYSTEM = np.array([[1.0, m2, m3, m2 * m3] for m2, m3 in _VERTICES]).T
_VERTEX_SYSTEM.setflags(write=False)
_VERTEX_INVERSE = _VERTEX_SYSTEM.T / 4
_VERTEX_INVERSE.setflags(write=False)


@dataclass(frozen=True)
class CorrelationTriple:
    """(<M2>, <M3>, <M2 M3>), each constrained to [-1, 1]."""

    e2: float
    e3: float
    e23: float

    def __post_init__(self):
        for name in ("e2", "e3", "e23"):
            value = getattr(self, name)
            if not math.isfinite(value) or abs(value) > 1.0:
                raise ValueError(f"{name} must lie in [-1, 1], got {value}")


def macrorealist_feasible(t: CorrelationTriple) -> QuasiprobTable:
    """The unique moment-matching joint (moment expansion), as the verdict's
    witness, of the triple as :class:`CorrelationTriple` checked it."""
    return QuasiprobTable(_q_from_moments(t.e2, t.e3, t.e23))


def feasibility_oracle(t: CorrelationTriple) -> QuasiprobTable:
    """Independent route: solve the vertex system for the candidate joint.

    Solves the square linear system (normalization plus three moment
    constraints) over the four deterministic assignments (m2, m3) in {+-1}^2
    by applying its exact, constant inverse, and sign-checks the unique
    solution. Kept separate from :func:`macrorealist_feasible` as a
    cross-validation path; the vertex construction generalizes to larger
    outcome sets.
    """
    x = _VERTEX_INVERSE.dot([1.0, t.e2, t.e3, t.e23])
    return QuasiprobTable(dict(zip(_VERTICES, x.tolist())))

