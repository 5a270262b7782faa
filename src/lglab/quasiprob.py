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
exposed by :func:`signaling_gap_projective`. A :class:`QuasiprobTable` stores the
entries and NSIT residuals; its negativity, margin and feasibility are read off them.
"""

from __future__ import annotations

import math
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
    _check_dims,
    _close,
)

OUTCOMES = (+1, -1)


@dataclass(frozen=True)
class QuasiprobTable:
    """Four q(mi, mj) values and the worst marginal-vs-Born discrepancies of Mi
    and of Mj (zero for moment-built tables); every diagnostic is read off them."""

    q: dict[tuple[int, int], float]
    nsit_residuals: tuple[float, float] = (0.0, 0.0)

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

    @property
    def negativity(self) -> float:
        """Total negative mass: the sum of |negative entries|."""
        return float(sum(-v for v in self.q.values() if v < 0.0))

    @property
    def margin(self) -> float:
        """The signed smallest q: the margin ``mr-check`` prints and :attr:`feasible` reads."""
        return float(min(self.q.values()))

    @property
    def feasible(self) -> bool:
        """No K = 4q is a violation: 4 min q >= -VIOLATION_TOL."""
        return 4.0 * self.margin >= -VIOLATION_TOL


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


def quasi(
    rho_state, Mi: DichotomicObservable, Mj: DichotomicObservable
) -> QuasiprobTable:
    """Symmetrized quasiprobability table for Mi followed by Mj, with the
    marginal-vs-Born residuals (residual_i, residual_j) of the same pass."""
    rho = _as_density(rho_state)
    _check_dims(rho.shape[0], Mi.dim, Mj.dim)
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
    return QuasiprobTable(q, (float(res_i), float(res_j)))


def nsit_check(
    rho_state, Mi: DichotomicObservable, Mj: DichotomicObservable
) -> tuple[float, float]:
    """Marginal-vs-Born residuals (residual_i, residual_j); both vanish structurally."""
    return quasi(rho_state, Mi, Mj).nsit_residuals


def mr_reading(e_i: float, e_j: float, e_ij: float) -> QuasiprobTable:
    """Moment-expansion table q(mi, mj) = K/4, with K from :func:`k_from_moments`.

    This is the macrorealist reading of the quasiprobabilities; it is exact
    for dichotomic pairs and reproduces the inputs as its moments. Moments are
    clipped into [-1, 1], the range of a +-1 moment, so at most one K is negative.
    """
    for name, v in (("e_i", e_i), ("e_j", e_j), ("e_ij", e_ij)):
        if not math.isfinite(v) or abs(v) > 1.0 + INPUT_TOL:
            raise ValueError(f"{name} must lie in [-1, 1], got {v}")
    ks = k_from_moments(*(min(max(v, -1.0), 1.0) for v in (e_i, e_j, e_ij)))
    return QuasiprobTable({signs: ks[idx] / 4.0 for idx, signs in _K_SIGNS.items()})


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

