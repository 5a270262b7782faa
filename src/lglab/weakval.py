"""Weak values with post-selection.

The weak value of A for pre-selected |i> and post-selected |f> is
(A)_w = <i|A|f> / <i|f>. For a dichotomic (+-1) observable it is *anomalous*
when the K = 2 p(f) (1 -+ Re w) it implies is a violation, K < -VIOLATION_TOL,
so a real part just past +-1 on a nearly dark port is not; a nonzero imaginary
part is flagged separately and does not count. When the post-selection overlap
vanishes the weak value is undefined and OrthogonalPostSelection is raised;
near-zero overlaps deliberately produce huge finite values (no clamping), as
the divergence at destructive interference is exactly the effect of interest.

:func:`weak_value` is the generic route for any Hermitian observable and pair
of states. :func:`mz_weak_values` post-selects on the two fixed output ports,
so the port vectors psi3, psi4 and M2 psi3, M2 psi4 are built once, at import,
and each call only forms the pre-selected state and four inner products. Both
routes share one core, which holds the overlap threshold and the
OrthogonalPostSelection error, and they agree bit for bit.

:func:`_mz_weak_value_columns` is the one column route left in the package:
the column form of :func:`mz_weak_values` at phi = 0, for a whole beta sweep
at once (``lgi.sweep_beta``, whose alpha, K and p come from the scalar
``interferometer`` kernels). It matches the per-point route bit for bit
because it repeats that route's roundings: the squared norm as a per-row BLAS
dot, the normalisation as numpy's complex division by the norm, and every
inner product as a stacked ``np.matmul``, which rounds like ``np.vdot``
(``gemv`` and ``einsum`` do not). A row's weak value is defined by the
per-point rule itself, ``abs(overlap) ** 2 > OVERLAP_TOL`` on a Python complex:
``** 2`` is libm pow, which numpy's array square differs from in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interferometer import MZConfig, input_state, mz_basis, path_observable
from .qcore import STRUCT_TOL, VIOLATION_TOL, Operator, StateVector

# threshold on |<pre|post>|^2 below which the weak value is undefined
OVERLAP_TOL = 1e-15


def _port(post: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """(psi, M2 psi) for one output port, both read-only."""
    m2_post = path_observable().operator().entries @ post.amps
    m2_post.setflags(write=False)
    return post.amps, m2_post


# the psi3 and psi4 ports are fixed, so their vectors are built once
_PORTS = (_port(mz_basis().psi3), _port(mz_basis().psi4))


def _mz_weak_value_columns(alpha: np.ndarray, beta: np.ndarray) -> list[list[float | None]]:
    """Re (M2)_w at the psi3 and psi4 ports for each phi = 0 row (alpha, beta).

    Returns one list per port, None where the weak value is undefined. Bit
    for bit what :func:`mz_weak_values` gives row by row, for rows whose norm
    is 1 within ``INPUT_TOL``.
    """
    amps = np.empty((alpha.size, 2), dtype=complex)
    amps[:, 0], amps[:, 1] = alpha, beta
    # StateVector: the squared norm is a BLAS dot (the imaginary parts are 0),
    # then a division by the complex norm, which numpy does as a reciprocal
    # multiply
    sq = np.matmul(amps.real[:, None, :], amps.real[:, :, None])[:, 0, 0]
    pre = (amps / np.sqrt(sq)[:, None]).conj()[:, None, :]
    columns = []
    for post, m2_post in _PORTS:
        overlap = np.matmul(pre, post[:, None])[:, 0, 0]
        numer = np.matmul(pre, m2_post[:, None])[:, 0, 0]
        # every amplitude is real, so the complex quotient's real part is
        # this one division
        columns.append([
            n.real / o.real if abs(o) ** 2 > OVERLAP_TOL else None
            for n, o in zip(numer.tolist(), overlap.tolist())
        ])
    return columns


class OrthogonalPostSelection(ValueError):
    """Post-selection probability is zero: the weak value is undefined."""


@dataclass(frozen=True)
class WeakValueResult:
    """A weak value and its post-selection probability; the flags are read off them."""

    value: complex
    postselect_prob: float

    @property
    def anomalous_real(self) -> bool:
        """K = 2 p(f) (1 -+ Re w) is below -VIOLATION_TOL."""
        return bool(2.0 * self.postselect_prob * (abs(self.value.real) - 1.0) > VIOLATION_TOL)

    @property
    def nonzero_imag(self) -> bool:
        return bool(abs(self.value.imag) > STRUCT_TOL)


def _weak_value(pre: np.ndarray, post: np.ndarray, a_post: np.ndarray) -> WeakValueResult:
    """<pre|A|post> / <pre|post> from the amplitudes of |pre>, |post> and A|post>."""
    overlap = complex(np.vdot(pre, post))
    prob = abs(overlap) ** 2
    if prob <= OVERLAP_TOL:
        raise OrthogonalPostSelection(
            f"post-selection probability {prob} <= {OVERLAP_TOL}: weak value undefined"
        )
    numer = complex(np.vdot(pre, a_post))
    return WeakValueResult(numer / overlap, float(prob))


def weak_value(A: Operator, pre: StateVector, post: StateVector) -> WeakValueResult:
    """(A)_w = <pre|A|post> / <pre|post>, with its post-selection probability."""
    return _weak_value(pre.amps, post.amps, A.entries @ post.amps)


def mz_weak_values(
    cfg: MZConfig, allow_undefined: bool = False
) -> tuple[WeakValueResult | None, WeakValueResult | None]:
    """Path-observable weak values for post-selection on the two output ports.

    Returns (w3, w4) for post-selected states psi3 and psi4 and pre-selected
    :func:`input_state`; with b = beta e^{-i phi} they are (alpha-b)/(alpha+b)
    and (alpha+b)/(alpha-b), complex unless phi is a multiple of pi.
    With ``allow_undefined`` a vanishing port yields None instead of raising.
    """
    pre = input_state(cfg).amps
    results = []
    for post, m2_post in _PORTS:
        try:
            results.append(_weak_value(pre, post, m2_post))
        except OrthogonalPostSelection:
            if not allow_undefined:
                raise
            results.append(None)
    return results[0], results[1]
