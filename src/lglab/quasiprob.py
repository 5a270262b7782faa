"""Symmetrized two-time quasiprobabilities and no-signaling-in-time checks.

For dichotomic observables Mi, Mj measured in that order,

    q(mi, mj) = 1/2 Tr[ (P_{mj} P_{mi} + P_{mi} P_{mj}) rho ]

with P(m) = (I + m M)/2. The four entries sum to one, may be negative, and by
the symmetry of the definition their marginals equal the undisturbed Born
probabilities, so operational non-invasiveness (no-signaling in time) holds
structurally. The correlator sum(mi*mj*q) equals the sequential (Lueders)
correlator, and 4*q(m2, m3) reproduces the four two-time LG quantities, so a
negative entry is exactly an LG violation. An ordinary intervening projective
measurement, by contrast, does shift the later statistics; that gap is
exposed by :func:`signaling_gap_projective`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interferometer import (
    MZConfig,
    detection_probabilities,
    input_state,
    output_observable,
    path_observable,
)
from .lgi import (
    _K_SIGNS,
    TwoTimeLGReport,
    k_from_moments,
    sequential_joint,
)
from .qcore import (
    INPUT_TOL,
    STRUCT_TOL,
    VIOLATION_TOL,
    DichotomicObservable,
    StateVector,
    _close,
)

OUTCOMES = (+1, -1)


@dataclass(frozen=True)
class QuasiprobTable:
    """Four q(mi, mj) values with negativity and NSIT residual diagnostics.

    ``negativity`` is the total negative mass, sum of |negative entries|;
    ``nsit_residual`` is the worst marginal-vs-Born discrepancy (zero by
    construction for moment-built tables).
    """

    q: dict[tuple[int, int], float]
    negativity: float
    nsit_residual: float

    def entry(self, mi: int, mj: int) -> float:
        return self.q[(mi, mj)]

    def total(self) -> float:
        return float(sum(self.q.values()))

    def moments(self) -> tuple[float, float, float]:
        """(<Mi>, <Mj>, <Mi Mj>) read off the table."""
        ei = sum(mi * p for (mi, _), p in self.q.items())
        ej = sum(mj * p for (_, mj), p in self.q.items())
        eij = sum(mi * mj * p for (mi, mj), p in self.q.items())
        return float(ei), float(ej), float(eij)

    def min_entry(self) -> float:
        return float(min(self.q.values()))

    def feasible(self) -> bool:
        """No K = 4q is a violation: 4 min q >= -VIOLATION_TOL."""
        return 4.0 * self.min_entry() >= -VIOLATION_TOL


def _negativity(q: dict) -> float:
    return float(sum(-v for v in q.values() if v < 0.0))


def _as_density(state) -> np.ndarray:
    """Accept a StateVector (pure-state adapter) or a density matrix ndarray.

    A density matrix must be finite, Hermitian, of unit trace and positive
    semidefinite, each to ``INPUT_TOL``.
    """
    if isinstance(state, StateVector):
        return state.density()
    rho = np.asarray(state, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix entries must be finite")
    if not _close(rho, rho.conj().T, INPUT_TOL):
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > INPUT_TOL:
        raise ValueError("density matrix must have unit trace")
    if np.linalg.eigvalsh(rho)[0] < -INPUT_TOL:
        raise ValueError("density matrix must be positive semidefinite")
    return rho


def _quasi_pass(rho_state, Mi, Mj) -> tuple[dict, tuple[float, float]]:
    """The q table and its marginal-vs-Born residuals (residual_i, residual_j)."""
    rho = _as_density(rho_state)
    if rho.shape[0] != Mi.dim or Mi.dim != Mj.dim:
        raise ValueError("state and observables must share a dimension")
    q = {}
    for mi in OUTCOMES:
        pi = Mi.projector(mi).entries
        for mj in OUTCOMES:
            pj = Mj.projector(mj).entries
            val = 0.5 * np.trace((pj @ pi + pi @ pj) @ rho)
            q[(mi, mj)] = float(val.real)
    total = sum(q.values())
    if abs(total - 1.0) >= STRUCT_TOL:
        raise AssertionError(f"quasiprobabilities sum to {total}, not 1")
    res_i = max(
        abs(sum(q[(mi, mj)] for mj in OUTCOMES) - np.trace(Mi.projector(mi).entries @ rho).real)
        for mi in OUTCOMES
    )
    res_j = max(
        abs(sum(q[(mi, mj)] for mi in OUTCOMES) - np.trace(Mj.projector(mj).entries @ rho).real)
        for mj in OUTCOMES
    )
    return q, (float(res_i), float(res_j))


def quasi(
    rho_state, Mi: DichotomicObservable, Mj: DichotomicObservable
) -> QuasiprobTable:
    """Symmetrized quasiprobability table for Mi followed by Mj."""
    q, residuals = _quasi_pass(rho_state, Mi, Mj)
    return QuasiprobTable(q=q, negativity=_negativity(q), nsit_residual=max(residuals))


def nsit_check(
    rho_state, Mi: DichotomicObservable, Mj: DichotomicObservable
) -> tuple[float, float]:
    """Marginal-vs-Born residuals (residual_i, residual_j); both vanish structurally."""
    return _quasi_pass(rho_state, Mi, Mj)[1]


def mr_reading(e_i: float, e_j: float, e_ij: float) -> QuasiprobTable:
    """Moment-expansion table q(mi, mj) = K/4, with K from :func:`k_from_moments`.

    This is the macrorealist reading of the quasiprobabilities; it is exact
    for dichotomic pairs and reproduces the inputs as its moments.
    """
    for name, v in (("e_i", e_i), ("e_j", e_j), ("e_ij", e_ij)):
        if not np.isfinite(v) or abs(v) > 1.0 + INPUT_TOL:
            raise ValueError(f"{name} must lie in [-1, 1], got {v}")
    return _table_from_k(k_from_moments(e_i, e_j, e_ij))


def _table_from_k(ks: dict[int, float]) -> QuasiprobTable:
    """The (m2, m3) table q = K/4 of K31..K34, keyed through ``_K_SIGNS``."""
    q = {signs: ks[idx] / 4.0 for idx, signs in _K_SIGNS.items()}
    return QuasiprobTable(q=q, negativity=_negativity(q), nsit_residual=0.0)


def lg_from_quasi(table: QuasiprobTable) -> TwoTimeLGReport:
    """Read the four two-time LG quantities off a (m2, m3) table as K = 4q.

    Outcome identification follows the interferometer convention where the
    psi4 port is the +1 outcome: K31 = 4q(-1,+1), K32 = 4q(+1,+1),
    K33 = 4q(-1,-1), K34 = 4q(+1,-1).
    """
    return TwoTimeLGReport.from_values(
        *(4.0 * table.entry(s2, s3) for s2, s3 in _K_SIGNS.values())
    )


def signaling_gap_projective(cfg: MZConfig) -> float:
    """|p_seq(psi3) - p(psi3)|: the statistics shift caused by an actual
    intervening projective path measurement. Closed form
    |alpha*beta*cos(phi)|; always 1/2 on the sequential side since a collapsed
    path state hits either port with equal probability.
    """
    joint = sequential_joint(input_state(cfg), path_observable(), output_observable())
    # psi3 is the m3 = -1 outcome
    p_seq = sum(joint[(m, -1)] for m in OUTCOMES)
    p3, _ = detection_probabilities(cfg)
    return abs(p_seq - p3)


@dataclass(frozen=True)
class ThreeTimeQuasiReport:
    """Twelve quasiprobabilities over the pairs (1,2), (1,3), (2,3)."""

    tables: dict[tuple[int, int], QuasiprobTable]
    weak_macrorealism: bool

    def entries(self) -> dict[tuple[int, int, int, int], float]:
        """Flat map (i, j, mi, mj) -> q for all twelve entries."""
        return {
            (i, j, mi, mj): t.entry(mi, mj)
            for (i, j), t in self.tables.items()
            for mi in OUTCOMES
            for mj in OUTCOMES
        }


def three_time_suite(
    state,
    M1: DichotomicObservable,
    M2: DichotomicObservable,
    M3: DichotomicObservable,
) -> ThreeTimeQuasiReport:
    """Quasiprobability tables for all ordered pairs of three observables.

    The verdict is that every table is :meth:`QuasiprobTable.feasible`; no
    finer macrorealism taxonomy is attempted.
    """
    obs = {1: M1, 2: M2, 3: M3}
    tables = {(i, j): quasi(state, obs[i], obs[j]) for (i, j) in ((1, 2), (1, 3), (2, 3))}
    verdict = all(t.feasible() for t in tables.values())
    return ThreeTimeQuasiReport(tables=tables, weak_macrorealism=verdict)
