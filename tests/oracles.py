"""Independent reference routes that the tests compare the runtime closed forms against.

None of these is called by ``lglab`` itself; each is a slower, element-by-element
computation of a quantity the package gets from a closed form.

Interferometer convention (fixed once, verified in tests): the physical
elements are modeled as an effective preparation phase ``diag(1, i)`` on path
psi2, an optional phase shifter ``diag(1, e^{i phi})`` on path psi2, the
symmetric 50:50 splitter ``U_BS = [[1, i], [i, 1]]/sqrt(2)``, and a fixed output
relabeling sending the psi1 axis to port psi4 and the psi2 axis to port psi3.
Only port probabilities are observable: :func:`propagate_unitary` agrees with
``detection_probabilities`` and with the folded ``input_state`` on them to 1e-12.
"""

import numpy as np

from lglab import (
    DichotomicObservable,
    MZConfig,
    Operator,
    StateVector,
    dichotomic_from_hermitian,
    mz_basis,
    sequential_correlation,
)
from lglab.qcore import _close

_SQRT2 = np.sqrt(2.0)


def unitary(entries) -> Operator:
    """A plain operator from ``entries``, checked to satisfy U^dagger U = I to STRUCT_TOL."""
    u = Operator(entries)
    if not _close(u.entries.conj().T @ u.entries, np.eye(u.dim)):
        raise ValueError("matrix is not unitary: U^dagger U != I")
    return u


def bs_unitary() -> Operator:
    """Symmetric 50:50 beam splitter [[1, i], [i, 1]]/sqrt(2) in the path basis."""
    return unitary(np.array([[1.0, 1.0j], [1.0j, 1.0]]) / _SQRT2)


def phase_unitary(phi: float) -> Operator:
    """Phase e^{i phi} on path psi2 only."""
    return unitary(np.diag([1.0, np.exp(1.0j * phi)]))


def _bs1_effective() -> Operator:
    # preparation phase i on path psi2: turns the pre-selected state into the
    # post-first-splitter amplitudes (alpha, i beta)
    return unitary(np.diag([1.0, 1.0j]))


def _output_relabel() -> Operator:
    # psi1 axis -> port psi4, psi2 axis -> port psi3
    b = mz_basis()
    return unitary(np.column_stack([b.psi4.amps, b.psi3.amps]))


def propagate_unitary(cfg: MZConfig) -> StateVector:
    """Oracle of ``detection_probabilities`` and the phase fold: the element unitaries on raw (alpha, beta)."""
    u = (
        _output_relabel().entries
        @ bs_unitary().entries
        @ phase_unitary(cfg.phi).entries
        @ _bs1_effective().entries
    )
    return StateVector(u @ np.array([cfg.alpha, cfg.beta]))


def precession_observables(theta: float) -> tuple[DichotomicObservable, ...]:
    """Equal-angle qubit precession observables M_k at angles 0, theta, 2*theta.

    M_k = cos(k*theta) sigma_z + sin(k*theta) sigma_x: rotation about an axis
    orthogonal to the measured observable with equal angles between the three
    measurement times.
    """
    obs = []
    for k in range(3):
        ang = k * theta
        m = np.array(
            [[np.cos(ang), np.sin(ang)], [np.sin(ang), -np.cos(ang)]], dtype=complex
        )
        obs.append(dichotomic_from_hermitian(Operator(m, kind="hermitian")))
    return tuple(obs)


def k3(
    state: StateVector,
    m1: DichotomicObservable,
    m2: DichotomicObservable,
    m3: DichotomicObservable,
) -> float:
    """Three-time LG expression from sequential correlators; macrorealist bound K3 <= 0.

    Oracle of ``precession_k3`` on :func:`precession_observables`.
    """
    c12 = sequential_correlation(state, m1, m2)
    c23 = sequential_correlation(state, m2, m3)
    c13 = sequential_correlation(state, m1, m3)
    return c12 + c23 - c13 - 1.0
