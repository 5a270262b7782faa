"""Leggett-Garg expressions: the three-time K3 and the four two-time forms.

Two-time quantities for a system prepared in the +1 eigenstate of the first
observable, one for each sign pair (s2, s3):

    K(s2, s3) = 1 + s2 <M2> + s2 s3 <M2 M3> + s3 <M3> = 4 q(s2, s3) >= 0

where <M2 M3> is the sequential (two-step projective) correlator and q the
two-time quasiprobability. :func:`k_from_moments` is the single home of this
K/q formula; every K or q table is read through it.
A macrorealist model keeps all four nonnegative; quantum mechanically at most
one can go negative, and each K also equals 2 p(f) [1 -+ (M2)_w^f] for
post-selection f on the corresponding M3 eigenstate, tying violations to
anomalous weak values. The matrix route, which evaluates both forms and
asserts they agree, is the test oracle ``two_time_lg`` in ``tests/oracles.py``.
For the Mach-Zehnder configuration at phase phi,
<M2> = alpha^2 - beta^2, <M3> = -2 alpha beta cos(phi) and <M2 M3> = 0:

    K31 = 2 beta (beta - alpha cos phi)    K32 = 2 alpha (alpha - beta cos phi)
    K33 = 2 beta (beta + alpha cos phi)    K34 = 2 alpha (alpha + beta cos phi)

One rule decides every verdict: a K below -``VIOLATION_TOL`` (``qcore``) is a
violation, whether it is read as K, as 4q or from a weak value. A
:class:`TwoTimeLGReport` stores only K31..K34 and reads its verdict off them.

Naming note: the four sign patterns (m2, m3) = (-,+), (+,+), (-,-), (+,-) are
canonically labeled K31..K34 in listing order.

The MZ forms above are computed once, by ``interferometer._mz_k``, for
:func:`mz_lg_closed_form` and for every row of :func:`sweep_beta` (Fig. 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interferometer import MZConfig, _default_alpha, _mz_k, _mz_probabilities
from .qcore import VIOLATION_TOL, DichotomicObservable, StateVector
from .weakval import _mz_weak_value_columns

# sign patterns (s2, s3) multiplying <M2> and <M3>; <M2 M3> carries s2*s3.
# Listed in K31..K34 order, which callers rely on when unpacking values.
_K_SIGNS = {31: (-1, +1), 32: (+1, +1), 33: (-1, -1), 34: (+1, -1)}
_K_INDICES = tuple(_K_SIGNS)


def k_from_moments(e2: float, e3: float, e23: float) -> dict[int, float]:
    """K31..K34 from <M2>, <M3> and <M2 M3>: K(s2, s3) = 4 q(s2, s3).

    The single home of the K/q formula, written out for the four sign pairs of
    ``_K_SIGNS`` as 1 + s2 <M2> + s2 s3 <M2 M3> + s3 <M3>, summed left to
    right, so that every caller gets bit-identical values.
    """
    return {
        31: 1.0 - e2 - e23 + e3,
        32: 1.0 + e2 + e23 + e3,
        33: 1.0 - e2 + e23 - e3,
        34: 1.0 + e2 - e23 - e3,
    }


def _exact_violation(ks) -> int | None:
    """The index of the one K31..K34 below -VIOLATION_TOL, else None; two are an AssertionError."""
    low = sorted(ks)
    if low[1] < -VIOLATION_TOL:
        raise AssertionError(f"more than one negative LG value: {dict(zip(_K_SIGNS, ks))}")
    return _K_INDICES[ks.index(low[0])] if low[0] < -VIOLATION_TOL else None


@dataclass(frozen=True)
class TwoTimeLGReport:
    """K31..K34; the violation verdict is read off them."""

    k31: float
    k32: float
    k33: float
    k34: float

    def values(self) -> dict[int, float]:
        return {31: self.k31, 32: self.k32, 33: self.k33, 34: self.k34}

    @property
    def violated_index(self) -> int | None:
        """The most negative K if below -VIOLATION_TOL (only estimates can have two), else None."""
        ks = self.values()
        idx = min(ks, key=ks.__getitem__)
        return idx if ks[idx] < -VIOLATION_TOL else None

    @classmethod
    def from_values(cls, k31, k32, k33, k34) -> "TwoTimeLGReport":
        """The report of an exact route, asserting that at most one K is a violation."""
        _exact_violation((k31, k32, k33, k34))
        return cls(k31, k32, k33, k34)


def sequential_joint(
    state: StateVector, Mi: DichotomicObservable, Mj: DichotomicObservable
) -> dict[tuple[int, int], float]:
    """Joint outcome distribution of Mi then Mj under the two-step projective rule.

    p(mi, mj) = || P_{mj} P_{mi} |state> ||^2, in plain 2x2 arithmetic.
    """
    x, y = state._flat
    joint = {}
    for mi in (+1, -1):
        a, b, c, d = Mi.projector(mi)._flat
        u, v = a * x + b * y, c * x + d * y
        for mj in (+1, -1):
            a, b, c, d = Mj.projector(mj)._flat
            s, t = a * u + b * v, c * u + d * v
            joint[(mi, mj)] = (s * s.conjugate()).real + (t * t.conjugate()).real
    return joint


def sequential_correlation(
    state: StateVector, Mi: DichotomicObservable, Mj: DichotomicObservable
) -> float:
    """<Mi Mj> = sum over mi, mj of mi*mj*p(mi, mj) with the Lueders update."""
    joint = sequential_joint(state, Mi, Mj)
    return float(sum(mi * mj * p for (mi, mj), p in joint.items()))


def mz_lg_closed_form(cfg: MZConfig) -> TwoTimeLGReport:
    """Closed-form K values, cross term times cos(phi) (psi4 as the +1 outcome of M3).

    This is also the macrorealist verdict on the interferometer's statistics:
    the joint q = K/4 is infeasible, and some K violated, exactly when
    |alpha beta cos phi| > min(alpha^2, beta^2). At phi = 0 every beta away
    from {0, +-1/sqrt(2), +-1} violates; at phi = pi/2 none does.
    """
    return TwoTimeLGReport.from_values(*_mz_k(cfg.alpha, cfg.beta, math.cos(cfg.phi)))


# not frozen: the sweep builds a row per point, and a frozen __init__ costs ten times as much
@dataclass(slots=True)
class SweepRow:
    beta: float
    alpha: float
    k31: float
    k32: float
    k33: float
    k34: float
    w3: float | None
    w4: float | None
    p3: float
    p4: float
    violated_index: int | None


def sweep_beta(grid) -> list[SweepRow]:
    """Closed-form LG/weak-value/probability dataset over a grid of beta values.

    Each row is what :class:`MZConfig`, :func:`mz_lg_closed_form`,
    ``detection_probabilities`` and ``mz_weak_values`` give at that beta and
    phi = 0: the default alpha, ``_mz_k`` and ``_mz_probabilities`` for alpha,
    K and p, and ``weakval._mz_weak_value_columns`` for the weak values, bit
    for bit. Undefined weak values (vanishing port overlap) are reported as
    None. Rows are emitted in grid order.
    """
    b = np.asarray(grid, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"beta grid must be one-dimensional, got shape {b.shape}")
    bad = np.flatnonzero(~(np.abs(b) <= 1.0))
    if bad.size:
        raise ValueError(f"beta must lie in [-1, 1], got {b[bad[0]].item()}")
    betas = b.tolist()
    alphas = [_default_alpha(beta) for beta in betas]
    rows = []
    for beta, alpha, w3, w4 in zip(betas, alphas, *_mz_weak_value_columns(np.array(alphas), b)):
        ks = _mz_k(alpha, beta, 1.0)
        p3, p4 = _mz_probabilities(alpha, beta, 1.0, 0.0)
        rows.append(SweepRow(beta, alpha, *ks, w3, w4, p3, p4, _exact_violation(ks)))
    return rows


def precession_k3(theta: float) -> float:
    """K3 for the precession demo, prepared in the +1 eigenstate of M1.

    Closed form 2 cos(theta) - cos(2 theta) - 1, maximal (1/2) at theta = pi/3;
    ``k3`` on ``precession_observables`` in ``tests/oracles.py`` is its
    matrix-route oracle.
    """
    return 2.0 * math.cos(theta) - math.cos(2.0 * theta) - 1.0

