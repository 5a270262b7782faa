"""Symmetrized two-time quasiprobabilities and no-signaling-in-time checks.

For dichotomic observables Mi, Mj measured in that order, with P(m) = (I + m M)/2
and M^2 = I, the symmetrized quasiprobability is a moment expansion:

    q(mi, mj) = 1/2 Tr[(P_mj P_mi + P_mi P_mj) rho] = (1 + mi <Mi> + mj <Mj> + mi mj Re <Mi Mj>)/4

:func:`quasi` reads the three moments in plain 2x2 arithmetic and takes K/4 of
``lgi.k_from_moments``, so K = 4q holds by construction; ``tests/oracles.py``
keeps the projector-product trace as its oracle. The entries sum to one, may
be negative, and their marginals equal the Born probabilities Re Tr(P rho), so
no-signaling in time holds structurally; the residuals say how far each lands.
The correlator sum(mi*mj*q) is the sequential (Lueders) one, and a negative
4q(m2, m3) is exactly an LG violation. An intervening projective measurement
does shift the later statistics; :func:`signaling_gap_projective` is that
shift's closed form |alpha*beta*cos(phi)|, the magnitude of
:func:`signed_signaling_gap`, and builds no state. A
:class:`QuasiprobTable` stores the entries and NSIT residuals; its negativity,
margin and feasibility are read off them.
``_q_table`` is the one K/4 table display: ``quasi`` reads it on the
``k_from_moments`` of a state, ``mrcheck.macrorealist_feasible`` on those of a
checked triple, and :func:`mz_quasi`, with no state built, on the closed form
``interferometer._mz_k``. ``_with_residuals`` is the one NSIT pass: ``quasi``
gives it the Born traces, ``mz_quasi`` the closed-form path and port
probabilities.
"""

from __future__ import annotations

import cmath
import math

from .interferometer import MZConfig, _mz_k, _mz_probabilities
from .lgi import _K_SIGNS, TwoTimeLGReport, k_from_moments
from .qcore import (
    INPUT_TOL,
    DichotomicObservable,
    StateVector,
    _Record,
    _adjoint,
    _close,
    _ket_bra,
    _matmul,
    _numpy_parse,
    _violates,
)

# the sign pairs of K31..K34, read off lgi's one map; named once, at import,
# because a comprehension over _K_SIGNS doubles the cost of a table
_S31, _S32, _S33, _S34 = (_K_SIGNS[i] for i in (31, 32, 33, 34))


class QuasiprobTable(_Record):
    """Four q(mi, mj) values and the worst marginal-vs-Born discrepancies of Mi
    and of Mj (zero for moment-built tables); every diagnostic is read off them.
    Unhashable, as its entries are a dict."""

    __slots__ = ("q", "nsit_residuals")

    def __init__(self, q: dict[tuple[int, int], float], nsit_residuals: tuple[float, float] = (0.0, 0.0)):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "nsit_residuals", nsit_residuals)

    def entry(self, mi: int, mj: int) -> float:
        return self.q[(mi, mj)]

    # total, moments and negativity are left folds over the entries, as builtin
    # sum was until Python 3.12 began to compensate: the same bits on every
    # supported version
    def total(self) -> float:
        t = 0.0
        for p in self.q.values():
            t += p
        return float(t)

    def moments(self) -> tuple[float, float, float]:
        """(<Mi>, <Mj>, <Mi Mj>) read off the table."""
        ei = ej = eij = 0.0
        for (mi, mj), p in self.q.items():
            ei += mi * p
            ej += mj * p
            eij += mi * mj * p
        return float(ei), float(ej), float(eij)

    def _checked(self):
        """The entries; a NaN among them, which ``min`` does not order and
        ``< 0`` skips, raises a ValueError naming it."""
        for (mi, mj), v in self.q.items():
            if v != v:
                raise ValueError(f"q({mi:+d},{mj:+d}) is nan")
        return self.q.values()

    @property
    def negativity(self) -> float:
        """Total negative mass: the sum of |negative entries|."""
        neg = 0.0
        for v in self._checked():
            if v < 0.0:
                neg -= v
        return float(neg)

    @property
    def margin(self) -> float:
        """The signed smallest q: the margin ``mr-check`` prints and :attr:`feasible` reads."""
        return float(min(self._checked()))

    @property
    def feasible(self) -> bool:
        """No K = 4q violates (``qcore._violates``), read at the lowest q."""
        return not _violates(4.0 * self.margin)


def _as_density(state) -> tuple:
    """The flat entries (00, 01, 10, 11) of rho, from a StateVector (pure-state
    adapter) or a 2x2 density matrix.

    A density matrix must be finite, Hermitian, of unit trace and positive
    semidefinite, each to ``INPUT_TOL``. With the trace at 1, a 2x2 Hermitian
    matrix is positive semidefinite exactly when its determinant is >= 0.
    """
    if isinstance(state, StateVector):
        return _ket_bra(state)
    flat = _numpy_parse(state, (2, 2), "density matrix must be 2x2")
    if not all(map(cmath.isfinite, flat)):
        raise ValueError("density matrix entries must be finite")
    if not _close(flat, _adjoint(flat), INPUT_TOL):
        raise ValueError("density matrix must be Hermitian")
    a, _, c, d = flat
    if abs(a.real + d.real - 1.0) > INPUT_TOL:
        raise ValueError("density matrix must have unit trace")
    if a.real * d.real - (c.real * c.real + c.imag * c.imag) < -INPUT_TOL:
        raise ValueError("density matrix must be positive semidefinite")
    return flat


def _trace(m, rho) -> float:
    """Re Tr(M rho), both as flat entries (00, 01, 10, 11)."""
    return (m[0] * rho[0] + m[1] * rho[2] + m[2] * rho[1] + m[3] * rho[3]).real


def _q_table(ks: dict[int, float]) -> dict[tuple[int, int], float]:
    """q = K/4 of a K31..K34 dict as :func:`k_from_moments` returns it, keyed by ``_K_SIGNS``."""
    return {_S31: ks[31] / 4.0, _S32: ks[32] / 4.0, _S33: ks[33] / 4.0, _S34: ks[34] / 4.0}


def _with_residuals(q, i_plus: float, i_minus: float, j_plus: float, j_minus: float) -> QuasiprobTable:
    """The table of ``q`` with its NSIT residuals: the larger |marginal - p| over
    the outcomes of Mi, of probabilities ``i_plus`` and ``i_minus``, then of Mj."""
    pp, pm, mp, mm = q[(+1, +1)], q[(+1, -1)], q[(-1, +1)], q[(-1, -1)]
    return QuasiprobTable(q, (max(abs(pp + pm - i_plus), abs(mp + mm - i_minus)),
                              max(abs(pp + mp - j_plus), abs(pm + mm - j_minus))))


def quasi(
    rho_state, Mi: DichotomicObservable, Mj: DichotomicObservable
) -> QuasiprobTable:
    """Symmetrized quasiprobability table for Mi followed by Mj, with the
    marginal-vs-Born residuals (residual_i, residual_j) of the same pass: each
    is the larger |marginal - Re Tr(P rho)| over the projectors P of the two
    outcomes."""
    rho = _as_density(rho_state)
    mi, mj = Mi.operator()._flat, Mj.operator()._flat
    q = _q_table(k_from_moments(_trace(mi, rho), _trace(mj, rho), _trace(_matmul(mi, mj), rho)))
    return _with_residuals(q, _trace(Mi.plus_proj._flat, rho), _trace(Mi.minus_proj._flat, rho),
                           _trace(Mj.plus_proj._flat, rho), _trace(Mj.minus_proj._flat, rho))


def nsit_check(
    rho_state, Mi: DichotomicObservable, Mj: DichotomicObservable
) -> tuple[float, float]:
    """Marginal-vs-Born residuals (residual_i, residual_j); both vanish structurally."""
    return quasi(rho_state, Mi, Mj).nsit_residuals


def lg_from_quasi(table: QuasiprobTable) -> TwoTimeLGReport:
    """Read the four two-time LG quantities off a (m2, m3) table as K = 4q.

    Outcome identification follows the interferometer convention where the
    psi4 port is the +1 outcome: K31 = 4q(-1,+1), K32 = 4q(+1,+1),
    K33 = 4q(-1,-1), K34 = 4q(+1,-1).
    """
    q = table.q
    return TwoTimeLGReport.from_values(4.0 * q[_S31], 4.0 * q[_S32], 4.0 * q[_S33], 4.0 * q[_S34])


def mz_quasi(cfg: MZConfig) -> QuasiprobTable:
    """The interferometer's (M2, M3) table as K/4 of the closed form
    ``interferometer._mz_k``, keyed by ``_K_SIGNS`` as :func:`lg_from_quasi`
    reads it back; no state is built.

    The NSIT residuals stay a cross-route disagreement: the M2 marginals
    against alpha^2 and beta^2, as ``outcome_probabilities(cfg, "path")``
    gives them, and the M3 marginals against the p kernel, q(., +1) against
    p4 (psi4 is the +1 outcome) and q(., -1) against p3.
    """
    alpha, beta, c = cfg.alpha, cfg.beta, math.cos(cfg.phi)
    q = _q_table(dict(zip(_K_SIGNS, _mz_k(alpha, beta, c))))
    p3, p4 = _mz_probabilities(alpha, beta, c, math.sin(cfg.phi))
    return _with_residuals(q, alpha**2, beta**2, p4, p3)


def signed_signaling_gap(cfg: MZConfig) -> float:
    """p(psi3) - p_seq(psi3) = alpha*beta*cos(phi), which ``empirical_nsit``
    estimates; not exported, the package's API is its magnitude (below)."""
    return cfg.alpha * cfg.beta * math.cos(cfg.phi)


def signaling_gap_projective(cfg: MZConfig) -> float:
    """|p_seq(psi3) - p(psi3)| = |alpha*beta*cos(phi)|: the shift in the psi3
    port statistics that an actual intervening projective path measurement
    causes, a violation of no-signaling in time.

    The collapsed path state hits either port with probability 1/2, and
    p(psi3) = 1/2 + alpha*beta*cos(phi) for a normalised input. The two-step
    Lueders route is a test oracle, ``projective_gap`` in ``tests/oracles.py``.
    """
    return abs(signed_signaling_gap(cfg))
