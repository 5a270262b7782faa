"""Weak values with post-selection.

The weak value of A for pre-selected |i> and post-selected |f> is
(A)_w = <i|A|f> / <i|f>. For a dichotomic (+-1) observable it is *anomalous*
when the K = 2 p(f) (1 -+ Re w) it implies violates (``qcore._violates``), so
a real part just past +-1 on a nearly dark port is not; a nonzero imaginary
part is flagged separately and does not count. When the post-selection overlap
vanishes the weak value is undefined and OrthogonalPostSelection is raised;
near-zero overlaps deliberately produce huge finite values (no clamping), as
the divergence at destructive interference is exactly the effect of interest.

:func:`weak_value` is the generic route for any Hermitian observable and pair
of states. The Mach-Zehnder routes post-select on the two output ports, which
M2 = diag(1, -1) swaps bit for bit (M2 psi3 = psi4, M2 psi4 = psi3), so with
d3 = <pre|psi3> and d4 = <pre|psi4> the path weak values are w3 = d4 / d3 and
w4 = d3 / d4: two inner products per configuration. One kernel,
:func:`_port_overlaps`, forms them for a stack of pre-selected states.
:func:`mz_weak_values` calls it on one state and reads each port through
:func:`_ratio`, which holds the overlap threshold and the
OrthogonalPostSelection error for :func:`weak_value` too;
:func:`_mz_weak_value_columns` calls it on a whole phi = 0 beta sweep
(``lgi.sweep_beta``). All three agree bit for bit.

The kernel forms each inner product as a stacked ``np.matmul``, which rounds
like ``np.vdot`` (``gemv``, ``einsum`` and one product with both ports as a
2x2 matrix do not). The column route repeats ``StateVector``'s roundings (the
squared norm as a per-row BLAS dot, then numpy's complex division by the
norm) and applies the per-point rule to each row, ``abs(overlap) ** 2 >
OVERLAP_TOL`` on a Python complex: ``** 2`` is libm pow, which numpy's array
square differs from in the last bit. numpy is imported by the routes that
call it and the port columns are built on first use, so loading the module
loads no numpy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .interferometer import MZConfig, input_state, mz_basis
from .qcore import STRUCT_TOL, Operator, StateVector, _violates

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


def _port_overlaps(pre) -> list[list[complex]]:
    """[d3, d4] = [<pre|psi3>, <pre|psi4>] for each row of normalised
    pre-selected amplitudes, as lists of Python complex numbers."""
    import numpy as np

    # one matmul broadcast over rows and ports: each product stays a
    # (1, 2) @ (2, 1) one, which rounds like np.vdot
    return np.matmul(pre.conj()[:, None, None, :], _port_columns())[:, :, 0, 0].T.tolist()


def _mz_weak_value_columns(alpha, beta) -> list[list[float | None]]:
    """Re (M2)_w at the psi3 and psi4 ports for each phi = 0 row (alpha, beta).

    Returns one list per port, None where the weak value is undefined. Bit
    for bit what :func:`mz_weak_values` gives row by row, for rows whose norm
    is 1 within ``INPUT_TOL``.
    """
    import numpy as np

    amps = np.empty((len(alpha), 2), dtype=complex)
    amps[:, 0], amps[:, 1] = alpha, beta
    # StateVector: the squared norm is a BLAS dot (the imaginary parts are 0),
    # then a division by the complex norm, which numpy does as a reciprocal
    # multiply
    sq = np.matmul(amps.real[:, None, :], amps.real[:, :, None])[:, 0, 0]
    d3, d4 = _port_overlaps(amps / np.sqrt(sq)[:, None])
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
    """A weak value and its post-selection probability; the flags are read off them."""

    value: complex
    postselect_prob: float

    @property
    def anomalous_real(self) -> bool:
        """K = 2 p(f) (1 -+ Re w) violates, at the sign of Re w that gives the lower K."""
        return bool(_violates(2.0 * self.postselect_prob * (1.0 - abs(self.value.real))))

    @property
    def nonzero_imag(self) -> bool:
        return bool(abs(self.value.imag) > STRUCT_TOL)


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

    Returns (w3, w4) for post-selected states psi3 and psi4 and pre-selected
    :func:`input_state`; with b = beta e^{-i phi} they are (alpha-b)/(alpha+b)
    and (alpha+b)/(alpha-b), complex unless phi is a multiple of pi.
    With ``allow_undefined`` a vanishing port yields None instead of raising.
    """
    (d3,), (d4,) = _port_overlaps(input_state(cfg).amps[None])
    results = []
    for numer, overlap in ((d4, d3), (d3, d4)):
        try:
            results.append(_ratio(numer, overlap))
        except OrthogonalPostSelection:
            if not allow_undefined:
                raise
            results.append(None)
    return results[0], results[1]
