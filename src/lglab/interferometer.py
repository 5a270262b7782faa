"""Two-path Mach-Zehnder model: propagation, detection, path/output observables.

The setup is a balanced interferometer with input-path basis {psi1, psi2} and
output-port basis psi3 = (psi1 + psi2)/sqrt(2), psi4 = (psi1 - psi2)/sqrt(2).
An input alpha*psi1 + beta*psi2 (alpha, beta real, alpha^2 + beta^2 = 1)
emerges, for phase phi = 0, as [(alpha+beta) psi3 + i (alpha-beta) psi4] / sqrt(2),
so the port probabilities are (alpha+beta)^2/2 and (alpha-beta)^2/2 and the
psi4 port goes dark at alpha = beta.

Convention (fixed once, verified in tests): the physical elements are modeled
as an effective preparation phase ``diag(1, i)`` on path psi2, an optional
phase shifter ``diag(1, e^{i phi})`` on path psi2, the symmetric 50:50
splitter ``U_BS = [[1, i], [i, 1]]/sqrt(2)``, and a fixed output relabeling
sending the psi1 axis to port psi4 and the psi2 axis to port psi3. Only port
probabilities are observable; the closed form :func:`propagate` and its oracle
:func:`propagate_unitary` agree on them to 1e-12; their output phases differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (
    INPUT_TOL,
    DichotomicObservable,
    Operator,
    StateVector,
    projector_onto,
)

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class MZConfig:
    """Interferometer configuration.

    ``alpha`` may be omitted, in which case it is fixed to +sqrt(1 - beta^2).
    """

    beta: float
    alpha: float | None = None
    phi: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.beta) or abs(self.beta) > 1.0:
            raise ValueError(f"beta must lie in [-1, 1], got {self.beta}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", float(np.sqrt(1.0 - self.beta**2)))
        if not np.isfinite(self.alpha) or not np.isfinite(self.phi):
            raise ValueError("alpha and phi must be finite")
        if abs(self.alpha**2 + self.beta**2 - 1.0) > INPUT_TOL:
            raise ValueError(
                f"alpha^2 + beta^2 = {self.alpha**2 + self.beta**2!r} must equal 1"
            )


@dataclass(frozen=True, slots=True)
class MZBasis:
    """Input-path basis (psi1, psi2) and output-port basis (psi3, psi4)."""

    psi1: StateVector
    psi2: StateVector
    psi3: StateVector
    psi4: StateVector


# the basis and the two measured observables are fixed; they are built and
# validated once, at import, and shared (every type involved is immutable)
_BASIS = MZBasis(
    StateVector([1.0, 0.0]),
    StateVector([0.0, 1.0]),
    StateVector(np.array([1.0, 1.0]) / _SQRT2),
    StateVector(np.array([1.0, -1.0]) / _SQRT2),
)
_PATH = DichotomicObservable(projector_onto(_BASIS.psi1), projector_onto(_BASIS.psi2))
_OUTPUT = DichotomicObservable(projector_onto(_BASIS.psi4), projector_onto(_BASIS.psi3))


def mz_basis() -> MZBasis:
    return _BASIS


def input_state(cfg: MZConfig) -> StateVector:
    """Pre-selected state alpha*psi1 + beta*psi2 (no internal phases applied)."""
    return StateVector([cfg.alpha, cfg.beta])


def bs_unitary() -> Operator:
    """Symmetric 50:50 beam splitter [[1, i], [i, 1]]/sqrt(2) in the path basis."""
    return Operator(np.array([[1.0, 1.0j], [1.0j, 1.0]]) / _SQRT2, kind="unitary")


def phase_unitary(phi: float) -> Operator:
    """Phase e^{i phi} on path psi2 only."""
    return Operator(np.diag([1.0, np.exp(1.0j * phi)]), kind="unitary")


def _bs1_effective() -> Operator:
    # preparation phase i on path psi2: turns the pre-selected state into the
    # post-first-splitter amplitudes (alpha, i beta)
    return Operator(np.diag([1.0, 1.0j]), kind="unitary")


def _output_relabel() -> Operator:
    # psi1 axis -> port psi4, psi2 axis -> port psi3
    cols = np.column_stack([_BASIS.psi4.amps, _BASIS.psi3.amps])
    return Operator(cols, kind="unitary")


def propagate(cfg: MZConfig) -> StateVector:
    """State emerging from the second splitter, expressed in the path basis."""
    eb = np.exp(1.0j * cfg.phi) * cfg.beta
    c3 = (cfg.alpha + eb) / _SQRT2
    c4 = 1.0j * (cfg.alpha - eb) / _SQRT2
    return StateVector(c3 * _BASIS.psi3.amps + c4 * _BASIS.psi4.amps)


def propagate_unitary(cfg: MZConfig) -> StateVector:
    """Oracle for :func:`propagate`: the product of the four element unitaries."""
    u = (
        _output_relabel().entries
        @ bs_unitary().entries
        @ phase_unitary(cfg.phi).entries
        @ _bs1_effective().entries
    )
    return StateVector(u @ input_state(cfg).amps)


def detection_probabilities(cfg: MZConfig) -> tuple[float, float]:
    """(p3, p4): detection probabilities at the psi3 and psi4 ports.

    For phi = 0 these are exactly (alpha+beta)^2/2 and (alpha-beta)^2/2.
    """
    eb = np.exp(1.0j * cfg.phi) * cfg.beta
    p3 = float(abs(cfg.alpha + eb) ** 2 / 2.0)
    p4 = float(abs(cfg.alpha - eb) ** 2 / 2.0)
    return p3, p4


def path_observable() -> DichotomicObservable:
    """M2 = |psi1><psi1| - |psi2><psi2| (which-path observable)."""
    return _PATH


def output_observable() -> DichotomicObservable:
    """M3 = |psi4><psi4| - |psi3><psi3| (+1 outcome is the psi4 port)."""
    return _OUTPUT
