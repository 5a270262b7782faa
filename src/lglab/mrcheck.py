"""Macrorealist feasibility of two-time dichotomic statistics.

Given first moments <M2>, <M3> and the correlator <M2 M3>, a macrorealist
(classical joint) model exists iff some nonnegative distribution over the
four deterministic outcome assignments reproduces them. In the two-time
scenario the moment-matching joint is unique, so feasibility reduces to
sign-checking it; an independent linear-solve route over the deterministic
vertices is kept as a cross-validation oracle. Feasibility is equivalent to
all four two-time LG quantities being nonnegative, under the one violation
rule on K = 4q (:meth:`~lglab.quasiprob.QuasiprobTable.feasible`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interferometer import MZConfig
from .lgi import mz_lg_closed_form
from .quasiprob import OUTCOMES, QuasiprobTable, _negativity, _table_from_k, mr_reading

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
            if not np.isfinite(v) or abs(v) > 1.0:
                raise ValueError(f"{name} must lie in [-1, 1], got {v}")


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    witness: QuasiprobTable
    margin: float


def _verdict(table: QuasiprobTable) -> FeasibilityVerdict:
    return FeasibilityVerdict(feasible=table.feasible(), witness=table, margin=table.min_entry())


def macrorealist_feasible(t: CorrelationTriple) -> FeasibilityVerdict:
    """Feasibility via the unique moment-matching joint (moment expansion)."""
    return _verdict(mr_reading(t.e2, t.e3, t.e23))


def feasibility_oracle(t: CorrelationTriple) -> FeasibilityVerdict:
    """Independent route: solve the vertex system for the candidate joint.

    Solves the square linear system (normalization plus three moment
    constraints) over the four deterministic assignments (m2, m3) in {+-1}^2,
    built once at import, and sign-checks the unique solution. Kept separate
    from :func:`macrorealist_feasible` as a cross-validation path; the vertex
    construction generalizes to larger outcome sets.
    """
    x = np.linalg.solve(_VERTEX_SYSTEM, np.array([1.0, t.e2, t.e3, t.e23]))
    q = {v: float(x[k]) for k, v in enumerate(_VERTICES)}
    return _verdict(QuasiprobTable(q=q, negativity=_negativity(q), nsit_residual=0.0))


def mz_verdict(cfg: MZConfig) -> FeasibilityVerdict:
    """Macrorealist verdict on the interferometer's quantum statistics.

    The joint is q = K/4 of :func:`~lglab.lgi.mz_lg_closed_form`: infeasible
    exactly when |alpha beta cos phi| > min(alpha^2, beta^2), at phi = 0 for
    every beta away from {0, +-1/sqrt(2), +-1}, at pi/2 never.
    """
    return _verdict(_table_from_k(mz_lg_closed_form(cfg).values()))
