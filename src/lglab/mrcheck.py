"""Macrorealist feasibility of two-time dichotomic statistics.

Given first moments <M2>, <M3> and the correlator <M2 M3>, a macrorealist
(classical joint) model exists iff some nonnegative distribution over the
four deterministic outcome assignments reproduces them. In the two-time
scenario the moment-matching joint is unique, so feasibility reduces to
sign-checking it. :func:`macrorealist_feasible` is the one runtime route to
that joint, the macrorealist reading of the triple; an independent
linear-solve route over the deterministic vertices is kept as a
cross-validation oracle. Feasible means that no two-time LG quantity K = 4q
violates ``qcore._violates``. Every route returns that joint, a
:class:`~lglab.quasiprob.QuasiprobTable` whose ``feasible`` and ``margin`` are the verdict.

The vertex system is fixed: its rows are orthogonal with squared norm 4, so
its inverse is exactly the transposed system over 4, which the oracle applies
in plain Python from one map of vertex to row built at import. A triple is validated
once, by :class:`CorrelationTriple` (each moment read by ``qcore._real``, the one
real-number rule, and within [-1, 1] with no tolerance or clip); no route checks it again.
"""

from __future__ import annotations

from .qcore import _Record, _real
from .lgi import k_from_moments
from .quasiprob import QuasiprobTable, _q_table

# each fixed vertex (m2, m3) to its row (1, m2, m3, m2*m3), a column of the vertex system V
_VERTEX_ROWS = {(m2, m3): (1.0, float(m2), float(m3), float(m2 * m3)) for m2 in (+1, -1) for m3 in (+1, -1)}


class CorrelationTriple(_Record):
    """(<M2>, <M3>, <M2 M3>), each stored as a float in [-1, 1]."""

    __slots__ = ("e2", "e3", "e23")

    def __init__(self, e2: float, e3: float, e23: float):
        for name, value in (("e2", e2), ("e3", e3), ("e23", e23)):
            value = value if type(value) is float else _real(name, value)
            if not abs(value) <= 1.0:
                raise ValueError(f"{name} must lie in [-1, 1], got {value}")
            object.__setattr__(self, name, value)


def macrorealist_feasible(t: CorrelationTriple) -> QuasiprobTable:
    """The unique moment-matching joint (moment expansion), as the verdict's
    witness, of the triple as :class:`CorrelationTriple` checked it."""
    return QuasiprobTable(_q_table(k_from_moments(t.e2, t.e3, t.e23)))


def feasibility_oracle(t: CorrelationTriple) -> QuasiprobTable:
    """Independent route: solve the vertex system for the candidate joint.

    Solves the square linear system (normalization plus three moment
    constraints) over the four deterministic assignments (m2, m3) in {+-1}^2
    by applying its exact, constant inverse, and sign-checks the unique
    solution. Kept separate from :func:`macrorealist_feasible` as a
    cross-validation path; the vertex construction generalizes to larger
    outcome sets.
    """
    e2, e3, e23 = t.e2, t.e3, t.e23
    # each row written out: a sum() over a generator is slower than numpy's dot
    return QuasiprobTable({v: (a + b * e2 + c * e3 + d * e23) / 4
                           for v, (a, b, c, d) in _VERTEX_ROWS.items()})

