"""Macrorealist feasibility of two-time dichotomic statistics.

Given first moments <M2>, <M3> and the correlator <M2 M3>, a macrorealist
(classical joint) model exists iff some nonnegative distribution over the
four deterministic outcome assignments reproduces them. In the two-time
scenario the moment-matching joint is unique, so feasibility reduces to
sign-checking it; an independent linear-solve route over the deterministic
vertices is kept as a cross-validation oracle. Feasibility is equivalent to
all four two-time LG quantities being nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interferometer import MZConfig, detection_probabilities
from .quasiprob import OUTCOMES, QuasiprobTable, _negativity, mr_reading

# boundary tolerance: saturated (measure-zero) cases count as feasible
FEAS_TOL = 1e-12


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
    witness: QuasiprobTable | None
    margin: float


def macrorealist_feasible(t: CorrelationTriple) -> FeasibilityVerdict:
    """Feasibility via the unique moment-matching joint (moment expansion)."""
    table = mr_reading(t.e2, t.e3, t.e23)
    margin = table.min_entry()
    return FeasibilityVerdict(feasible=margin >= -FEAS_TOL, witness=table, margin=margin)


def feasibility_oracle(t: CorrelationTriple) -> FeasibilityVerdict:
    """Independent route: solve the vertex system for the candidate joint.

    Builds the square linear system (normalization plus three moment
    constraints) over the four deterministic assignments (m2, m3) in {+-1}^2
    and sign-checks the unique solution. Kept separate from
    :func:`macrorealist_feasible` as a cross-validation path; the vertex
    construction generalizes to larger outcome sets.
    """
    vertices = [(m2, m3) for m2 in OUTCOMES for m3 in OUTCOMES]
    a = np.array(
        [
            [1.0] * len(vertices),
            [v[0] for v in vertices],
            [v[1] for v in vertices],
            [v[0] * v[1] for v in vertices],
        ]
    )
    b = np.array([1.0, t.e2, t.e3, t.e23])
    x = np.linalg.solve(a, b)
    q = {v: float(x[k]) for k, v in enumerate(vertices)}
    table = QuasiprobTable(q=q, negativity=_negativity(q), nsit_residual=0.0)
    margin = table.min_entry()
    return FeasibilityVerdict(feasible=margin >= -FEAS_TOL, witness=table, margin=margin)


def mz_verdict(cfg: MZConfig) -> FeasibilityVerdict:
    """Macrorealist verdict on the interferometer's quantum statistics.

    The triple is (<M2>, <M3>, <M2 M3>) = (alpha^2 - beta^2, p4 - p3, 0);
    it is infeasible exactly when |alpha beta cos phi| > min(alpha^2, beta^2):
    at phi = 0 for every beta away from {0, +-1/sqrt(2), +-1}, at pi/2 never.
    """
    p3, p4 = detection_probabilities(cfg)
    triple = CorrelationTriple(
        e2=cfg.alpha**2 - cfg.beta**2, e3=p4 - p3, e23=0.0
    )
    return macrorealist_feasible(triple)
