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
anomalous weak values. For the Mach-Zehnder configuration at phase phi,
<M2> = alpha^2 - beta^2, <M3> = -2 alpha beta cos(phi) and <M2 M3> = 0:

    K31 = 2 beta (beta - alpha cos phi)    K32 = 2 alpha (alpha - beta cos phi)
    K33 = 2 beta (beta + alpha cos phi)    K34 = 2 alpha (alpha + beta cos phi)

One rule decides every verdict: a K below -``VIOLATION_TOL`` (``qcore``) is a
violation, whether it is read as K, as 4q or from a weak value.

Naming note: the four sign patterns (m2, m3) = (-,+), (+,+), (-,-), (+,-) are
canonically labeled K31..K34 in listing order.

:func:`sweep_beta` (Fig. 2) computes its grid as whole columns: the closed
forms above at phi = 0 and, through ``weakval._mz_weak_value_columns``, the
port weak values. Every row matches the per-point routes (:class:`MZConfig`,
:func:`mz_lg_closed_form`, ``detection_probabilities`` and ``mz_weak_values``)
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interferometer import (
    MZConfig,
    input_state,
    output_observable,
    path_observable,
)
from .qcore import (
    STRUCT_TOL,
    VIOLATION_TOL,
    DichotomicObservable,
    StateVector,
    expectation,
)
from .weakval import _mz_weak_value_columns, _squares

# sign patterns (s2, s3) multiplying <M2> and <M3>; <M2 M3> carries s2*s3.
# Listed in K31..K34 order, which callers rely on when unpacking values.
_K_SIGNS = {31: (-1, +1), 32: (+1, +1), 33: (-1, -1), 34: (+1, -1)}


def k_from_moments(e2: float, e3: float, e23: float) -> dict[int, float]:
    """K31..K34 from <M2>, <M3> and <M2 M3>: K(s2, s3) = 4 q(s2, s3).

    The single home of the K/q formula; the summation order is fixed so that
    every caller gets bit-identical values.
    """
    return {
        idx: 1.0 + s2 * e2 + s2 * s3 * e23 + s3 * e3 for idx, (s2, s3) in _K_SIGNS.items()
    }


@dataclass(frozen=True)
class TwoTimeLGReport:
    k31: float
    k32: float
    k33: float
    k34: float
    violated_index: int | None
    margin: float

    def values(self) -> dict[int, float]:
        return {31: self.k31, 32: self.k32, 33: self.k33, 34: self.k34}

    @classmethod
    def from_values(cls, k31, k32, k33, k34) -> "TwoTimeLGReport":
        ks = {31: k31, 32: k32, 33: k33, 34: k34}
        negative = [i for i, v in ks.items() if v < -VIOLATION_TOL]
        if len(negative) > 1:
            raise AssertionError(f"more than one negative LG value: {ks}")
        idx = negative[0] if negative else None
        return cls(k31, k32, k33, k34, violated_index=idx, margin=abs(ks[idx]) if negative else 0.0)


def sequential_joint(
    state: StateVector, Mi: DichotomicObservable, Mj: DichotomicObservable
) -> dict[tuple[int, int], float]:
    """Joint outcome distribution of Mi then Mj under the two-step projective rule.

    p(mi, mj) = || P_{mj} P_{mi} |state> ||^2.
    """
    if state.dim != Mi.dim or Mi.dim != Mj.dim:
        raise ValueError("state and observables must share a dimension")
    joint = {}
    for mi in (+1, -1):
        first = Mi.projector(mi).entries @ state.amps
        for mj in (+1, -1):
            second = Mj.projector(mj).entries @ first
            joint[(mi, mj)] = float(np.vdot(second, second).real)
    return joint


def sequential_correlation(
    state: StateVector, Mi: DichotomicObservable, Mj: DichotomicObservable
) -> float:
    """<Mi Mj> = sum over mi, mj of mi*mj*p(mi, mj) with the Lueders update."""
    joint = sequential_joint(state, Mi, Mj)
    return float(sum(mi * mj * p for (mi, mj), p in joint.items()))


def two_time_lg(
    pre_state: StateVector, M2: DichotomicObservable, M3: DichotomicObservable
) -> TwoTimeLGReport:
    """Evaluate K31..K34 for a system prepared in ``pre_state``.

    Each K is computed along two routes and cross-asserted to 1e-12: the
    direct expectation/correlator form, and the weak-value form
    2 p(f) [1 -+ Re (M2)_w^f] evaluated through the always-finite products
    p(f) = <i|P_f|i> and <i|M2 P_f|i> so that zero-probability branches work.
    """
    m2op = M2.operator()
    ks = k_from_moments(
        expectation(m2op, pre_state),
        expectation(M3.operator(), pre_state),
        sequential_correlation(pre_state, M2, M3),
    )
    amps = pre_state.amps
    for idx, (s2, s3) in _K_SIGNS.items():
        # weak-value route: post-select on the M3 outcome carrying sign s3
        proj = M3.projector(+1 if s3 > 0 else -1).entries
        p_f = float(np.vdot(amps, proj @ amps).real)
        t_f = complex(np.vdot(amps, m2op.entries @ proj @ amps))
        weak_form = 2.0 * (p_f + s2 * t_f.real)
        if abs(ks[idx] - weak_form) >= STRUCT_TOL:
            raise AssertionError(
                f"K{idx} routes disagree: direct {ks[idx]} vs weak-value {weak_form}"
            )
    return TwoTimeLGReport.from_values(*ks.values())


def mz_lg_closed_form(cfg: MZConfig) -> TwoTimeLGReport:
    """Closed-form K values, cross term times cos(phi) (psi4 as the +1 outcome of M3)."""
    a, b, c = cfg.alpha, cfg.beta, math.cos(cfg.phi)
    return TwoTimeLGReport.from_values(
        2.0 * b * (b - a * c),
        2.0 * a * (a - b * c),
        2.0 * b * (b + a * c),
        2.0 * a * (a + b * c),
    )


@dataclass(frozen=True)
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

    Each field is computed for the whole grid at once, with the operations
    that :class:`MZConfig`, :func:`mz_lg_closed_form`,
    :func:`detection_probabilities` and ``mz_weak_values`` perform on one
    point at phi = 0, so every row is bit for bit what those routes give.
    Undefined weak values (vanishing port overlap) are reported as None. Rows
    are emitted in grid order.
    """
    b = np.asarray(grid, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"beta grid must be one-dimensional, got shape {b.shape}")
    bad = np.flatnonzero(~(np.abs(b) <= 1.0))
    if bad.size:
        raise ValueError(f"beta must lie in [-1, 1], got {b[bad[0]].item()}")
    betas = b.tolist()
    a = np.sqrt(1.0 - _squares(betas))
    # cos(0) = 1 and a * 1.0 == a
    ks = np.stack([2.0 * b * (b - a), 2.0 * a * (a - b), 2.0 * b * (b + a), 2.0 * a * (a + b)])
    p3 = np.minimum(_squares(np.abs(a + b).tolist()) / 2.0, 1.0)
    p4 = np.minimum(_squares(np.abs(a - b).tolist()) / 2.0, 1.0)
    w3, w4 = _mz_weak_value_columns(a, b)
    # TwoTimeLGReport.from_values's rule on every column: the first K below
    # -VIOLATION_TOL, and never two
    negative = ks < -VIOLATION_TOL
    many = np.flatnonzero(negative.sum(axis=0) > 1)
    if many.size:
        values = dict(zip(_K_SIGNS, ks[:, many[0]].tolist()))
        raise AssertionError(f"more than one negative LG value: {values}")
    first = np.array(list(_K_SIGNS))[negative.argmax(axis=0)]
    violated = np.where(negative.any(axis=0), first, None).tolist()
    return [
        SweepRow(*row)
        for row in zip(betas, a.tolist(), *ks.tolist(), w3, w4, p3.tolist(), p4.tolist(), violated)
    ]


def precession_k3(theta: float) -> float:
    """K3 for the precession demo, prepared in the +1 eigenstate of M1.

    Closed form 2 cos(theta) - cos(2 theta) - 1, maximal (1/2) at theta = pi/3;
    ``k3`` on ``precession_observables`` in ``tests/oracles.py`` is its
    matrix-route oracle.
    """
    return float(2.0 * np.cos(theta) - np.cos(2.0 * theta) - 1.0)


def mz_two_time_lg(cfg: MZConfig) -> TwoTimeLGReport:
    """Full (non-closed-form) two-time evaluation for the interferometer."""
    return two_time_lg(input_state(cfg), path_observable(), output_observable())
