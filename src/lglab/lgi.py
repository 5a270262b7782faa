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

With <M3> = p4 - p3 and p3 + p4 = 1 these are K31 = 2 p4 - <M2>, K32 = 2 p4 +
<M2>, K33 = 2 p3 - <M2> and K34 = 2 p3 + <M2>: the lowest K is 2 min(p3, p4) -
|<M2>|, so at every phase a violation is a port darker than half the path
imbalance, read off the two single-time runs alone.

One predicate, ``qcore._violates``, decides every verdict on a K, read as K, as
4q or from a weak value; reports and sweep rows read theirs with ``_lowest_violation``.
A report names a NaN K (``_named_nan``) before reading its verdict; a sweep row's
K come from a checked beta and are read unchecked.

:func:`sequential_correlation` adds its four terms as a left fold, in
``sequential_joint``'s order: builtin ``sum`` has compensated float sums since
Python 3.12, so it would give other bits on other interpreters.

Naming note: the four sign patterns (m2, m3) = (-,+), (+,+), (-,-), (+,-) are
canonically labeled K31..K34 in listing order.

The MZ forms above are computed once, by ``interferometer._mz_k``, for
:func:`mz_lg_closed_form` and for every row of :func:`sweep_beta` (Fig. 2).
"""

from __future__ import annotations

import math
import operator

from .interferometer import MZConfig, _default_alpha, _mz_k, _mz_probabilities
from .qcore import DichotomicObservable, StateVector, _Record, _real, _violates
from .weakval import _mz_weak_value_columns

# sign patterns (s2, s3) multiplying <M2> and <M3>; <M2 M3> carries s2*s3.
# Listed in K31..K34 order, which callers rely on when unpacking values.
_K_SIGNS = {31: (-1, +1), 32: (+1, +1), 33: (-1, -1), 34: (+1, -1)}


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


def _lowest_violation(ks, exact: bool = False) -> int | None:
    """The index of the lowest K31..K34 (the first of a tie) if it violates, else None;
    ``exact`` (by position: the sweep calls this per row) asserts that no second one does."""
    low = sorted(ks)
    if exact and _violates(low[1]):
        raise AssertionError(f"more than one negative LG value: {dict(zip(_K_SIGNS, ks))}")
    return 31 + ks.index(low[0]) if _violates(low[0]) else None


def _named_nan(ks) -> tuple:
    """K31..K34 unchanged, or a ValueError naming the first NaN: ``sorted`` does not
    order NaN, so a verdict read past one would depend on where it sits."""
    k31, k32, k33, k34 = ks
    if k31 != k31 or k32 != k32 or k33 != k33 or k34 != k34:
        for i, k in zip(_K_SIGNS, ks):
            if k != k:
                raise ValueError(f"K{i} is nan")
    return ks


class TwoTimeLGReport(_Record):
    """K31..K34; the violation verdict is read off them."""

    __slots__ = ("k31", "k32", "k33", "k34")

    def __init__(self, k31: float, k32: float, k33: float, k34: float):
        object.__setattr__(self, "k31", k31)
        object.__setattr__(self, "k32", k32)
        object.__setattr__(self, "k33", k33)
        object.__setattr__(self, "k34", k34)

    def values(self) -> dict[int, float]:
        return {31: self.k31, 32: self.k32, 33: self.k33, 34: self.k34}

    @property
    def violated_index(self) -> int | None:
        """The most negative K if it violates (only estimates can have two), else None."""
        return _lowest_violation(_named_nan((self.k31, self.k32, self.k33, self.k34)))

    @classmethod
    def from_values(cls, k31, k32, k33, k34) -> "TwoTimeLGReport":
        """The report of an exact route, asserting that at most one K is a violation."""
        _lowest_violation(_named_nan((k31, k32, k33, k34)), True)
        return cls(k31, k32, k33, k34)


def sequential_joint(
    state: StateVector, Mi: DichotomicObservable, Mj: DichotomicObservable
) -> dict[tuple[int, int], float]:
    """Joint outcome distribution of Mi then Mj under the two-step projective rule.

    p(mi, mj) = || P_{mj} P_{mi} |state> ||^2, in plain 2x2 arithmetic. This
    is the generic route, for any state and observables; the interferometer's
    sequential run reads ``interferometer._mz_sequential``, which this route
    on ``input_state`` checks bit for bit in the tests.
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
    # a left fold, as builtin sum was until Python 3.12 began to compensate:
    # the same bits on every supported version. The terms come in the joint's
    # order, (+1, +1), (+1, -1), (-1, +1), (-1, -1), and x - p is x + (-1 * p)
    pp, pm, mp, mm = sequential_joint(state, Mi, Mj).values()
    return 0.0 + pp - pm - mp + mm


def mz_lg_closed_form(cfg: MZConfig) -> TwoTimeLGReport:
    """Closed-form K values, cross term times cos(phi) (psi4 as the +1 outcome of M3).

    This is also the macrorealist verdict on the interferometer's statistics:
    the joint q = K/4 is infeasible, and some K violated, exactly when
    |alpha beta cos phi| > min(alpha^2, beta^2). At phi = 0 every beta away
    from {0, +-1/sqrt(2), +-1} violates; at phi = pi/2 none does.
    """
    return TwoTimeLGReport.from_values(*_mz_k(cfg.alpha, cfg.beta, math.cos(cfg.phi)))


class SweepRow:
    """One row of :func:`sweep_beta`. Mutable, as plain slot stores are the
    cheapest ``__init__`` for a row per point: it borrows ``_Record``'s
    equality, repr and pickling, not its ``__setattr__``, which would slow
    every store."""

    __slots__ = ("beta", "alpha", "k31", "k32", "k33", "k34", "w3", "w4", "p3", "p4", "violated_index")
    _fields = operator.attrgetter(*__slots__)
    __eq__, __repr__, __reduce__, __hash__ = _Record.__eq__, _Record.__repr__, _Record.__reduce__, None

    def __init__(self, beta: float, alpha: float, k31: float, k32: float, k33: float, k34: float,
                 w3: float | None, w4: float | None, p3: float, p4: float, violated_index: int | None):
        self.beta = beta
        self.alpha = alpha
        self.k31 = k31
        self.k32 = k32
        self.k33 = k33
        self.k34 = k34
        self.w3 = w3
        self.w4 = w4
        self.p3 = p3
        self.p4 = p4
        self.violated_index = violated_index


def sweep_beta(grid) -> list[SweepRow]:
    """Closed-form LG/weak-value/probability dataset over a grid of beta values.

    Each row is what :class:`MZConfig`, :func:`mz_lg_closed_form`,
    ``detection_probabilities`` and ``mz_weak_values`` give at that beta and
    phi = 0: the default alpha, ``_mz_k`` and ``_mz_probabilities`` for alpha,
    K and p, and ``weakval._mz_weak_value_columns`` for the weak values, bit
    for bit. Undefined weak values (vanishing port overlap) are reported as
    None. Rows are emitted in grid order.

    ``grid`` is a one-dimensional sequence of reals, each read by the one
    real-number rule, ``qcore._real``; any other grid (strings and bytes among
    them), or a beta that rule refuses, outside [-1, 1] or NaN, is a ValueError.
    """
    try:
        # refused whole: bytes iterate as ints, a str as strs, a 2-D array as rows
        if (isinstance(grid, (str, bytes, bytearray)) or getattr(grid, "ndim", 1) != 1
                or isinstance(grid, memoryview) and grid.itemsize == 1):
            raise TypeError
        items = iter(grid)
    except (TypeError, NotImplementedError):  # also not iterable, or a memoryview format Python cannot read
        raise ValueError("beta grid must be a one-dimensional sequence of numbers") from None
    betas = [b if type(b) is float else _real("beta grid element", b) for b in items]
    bad = next((beta for beta in betas if not abs(beta) <= 1.0), None)
    if bad is not None:
        raise ValueError(f"beta must lie in [-1, 1], got {bad}")
    alphas = [_default_alpha(beta) for beta in betas]
    rows = []
    for beta, alpha, w3, w4 in zip(betas, alphas, *_mz_weak_value_columns(alphas, betas)):
        ks = _mz_k(alpha, beta, 1.0)
        p3, p4 = _mz_probabilities(alpha, beta, 1.0, 0.0)
        rows.append(SweepRow(beta, alpha, *ks, w3, w4, p3, p4, _lowest_violation(ks, True)))
    return rows


def precession_k3(theta: float) -> float:
    """K3 for the precession demo, prepared in the +1 eigenstate of M1.

    Closed form 2 cos(theta) - cos(2 theta) - 1, maximal (1/2) at theta = pi/3;
    ``k3`` on ``precession_observables`` in ``tests/oracles.py`` is its
    matrix-route oracle.
    """
    return 2.0 * math.cos(theta) - math.cos(2.0 * theta) - 1.0

