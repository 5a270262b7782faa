"""Weak values with post-selection.

The weak value of A for pre-selected |i> and post-selected |f> is
(A)_w = <i|A|f> / <i|f>. For a dichotomic (+-1) observable it is *anomalous*
when the K = 2 p(f) (1 -+ Re w) it implies violates (``qcore._violates``), so
a real part just past +-1 on a nearly dark port is not; the imaginary part
does not count. When the post-selection overlap vanishes the weak value is
undefined and OrthogonalPostSelection is raised; near-zero overlaps
deliberately produce huge finite values (no clamping), as the divergence at
destructive interference is exactly the effect of interest.

:func:`weak_value` is the generic route for any Hermitian observable and pair
of states. At the Mach-Zehnder output ports, which M2 = diag(1, -1) swaps bit
for bit, the path weak values are w3 = d4 / d3 and w4 = d3 / d4 on the
overlaps d3 = <pre|psi3> and d4 = <pre|psi4>. One kernel, :func:`_mz_overlaps`,
normalises rows alpha*psi1 + b*psi2 and forms both overlaps of each, with no
``StateVector``. Two readers call it: :func:`mz_weak_values` on one row, each
port read through :func:`_ratio`, and :func:`_mz_weak_value_columns` on a
phi = 0 beta sweep (``lgi.sweep_beta``), so the two agree bit for bit.

The kernel's norm and overlaps are per-row ``np.matmul`` dots, which round
like ``np.vdot`` (``gemv``, ``einsum`` and one product with both ports as a
2x2 matrix do not). That row norm is the package's only BLAS norm
(``StateVector`` takes ``math.hypot``): ``fig2.csv``'s bytes hold it, so it
stays until they are re-recorded from an exact closed form. The sweep
reader applies the per-point rule, ``abs(overlap) ** 2 > OVERLAP_TOL`` on a
Python complex: ``** 2`` is libm pow, which numpy's array square differs
from in the last bit. numpy is imported on the first weak value, not at
load.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .interferometer import MZConfig, _pre_amps, mz_basis
from .qcore import Operator, StateVector, _violates

# threshold on |<pre|post>|^2 below which the weak value is undefined
OVERLAP_TOL = 1e-15


@functools.cache
def _port_columns():
    """The psi3 and psi4 columns as a read-only stack of two (2, 1) matrices,
    built on the first weak value, not at import."""
    import numpy as np

    cols = np.stack([mz_basis().psi3.amps, mz_basis().psi4.amps])[:, :, None]
    cols.setflags(write=False)
    return cols


def _mz_overlaps(alpha, b) -> list[list[complex]]:
    """[d3s, d4s]: <pre|psi3> and <pre|psi4> for each pre-selected row
    alpha*psi1 + b*psi2 divided by its norm, as lists of Python complex numbers."""
    import numpy as np

    amps = np.empty((len(alpha), 2), dtype=complex)
    amps[:, 0], amps[:, 1] = alpha, b
    re, im = amps.real, amps.imag
    sq = np.matmul(re[:, None, :], re[:, :, None]) + np.matmul(im[:, None, :], im[:, :, None])
    pre = amps / np.sqrt(sq[:, 0])
    # one matmul broadcast over rows and ports: each product stays a
    # (1, 2) @ (2, 1) one, which rounds like np.vdot
    return np.matmul(pre.conj()[:, None, None, :], _port_columns())[:, :, 0, 0].T.tolist()


def _mz_weak_value_columns(alpha, beta) -> list[list[float | None]]:
    """Re (M2)_w at the psi3 and psi4 ports for each phi = 0 row (alpha, beta),
    one list per port, None where the weak value is undefined: the bits that
    :func:`mz_weak_values` gives row by row."""
    d3, d4 = _mz_overlaps(alpha, beta)
    # every amplitude is real, so the complex quotient's real part is this
    # one division
    return [
        [n.real / o.real if abs(o) ** 2 > OVERLAP_TOL else None for n, o in zip(numer, overlap)]
        for numer, overlap in ((d4, d3), (d3, d4))
    ]


class OrthogonalPostSelection(ValueError):
    """Post-selection probability is zero: the weak value is undefined."""


@dataclass(frozen=True)
class WeakValueResult:
    """A weak value and its post-selection probability; the anomaly flag is read off them."""

    value: complex
    postselect_prob: float

    @property
    def anomalous_real(self) -> bool:
        """K = 2 p(f) (1 -+ Re w) violates, at the sign of Re w that gives the lower K."""
        return bool(_violates(2.0 * self.postselect_prob * (1.0 - abs(self.value.real))))


def _ratio(numer: complex, overlap: complex) -> WeakValueResult:
    """numer / overlap, with p(f) = |overlap|^2 clipped at 1, as ``_mz_probabilities`` clips p."""
    prob = min(abs(overlap) ** 2, 1.0)
    if prob <= OVERLAP_TOL:
        raise OrthogonalPostSelection(
            f"post-selection probability {prob} <= {OVERLAP_TOL}: weak value undefined"
        )
    return WeakValueResult(numer / overlap, prob)


def weak_value(A: Operator, pre: StateVector, post: StateVector) -> WeakValueResult:
    """(A)_w = <pre|A|post> / <pre|post>, with its post-selection probability."""
    import numpy as np

    bra, ket = pre.amps, post.amps
    return _ratio(complex(np.vdot(bra, A.entries @ ket)), complex(np.vdot(bra, ket)))


def mz_weak_values(
    cfg: MZConfig, allow_undefined: bool = False
) -> tuple[WeakValueResult | None, WeakValueResult | None]:
    """Path-observable weak values for post-selection on the two output ports.

    Returns (w3, w4) at psi3 and psi4 for the amplitudes of :func:`input_state`,
    with no state built; with b = beta e^{-i phi} they are (alpha-b)/(alpha+b)
    and (alpha+b)/(alpha-b), complex unless phi is a multiple of pi.
    With ``allow_undefined`` a vanishing port yields None instead of raising.
    """
    alpha, b = _pre_amps(cfg)
    (d3,), (d4,) = _mz_overlaps([alpha], [b])
    results = []
    for numer, overlap in ((d4, d3), (d3, d4)):
        try:
            results.append(_ratio(numer, overlap))
        except OrthogonalPostSelection:
            if not allow_undefined:
                raise
            results.append(None)
    return results[0], results[1]
