"""Weak values with post-selection and the expectation-value decomposition.

The weak value of A for pre-selected |i> and post-selected |f> is
(A)_w = <i|A|f> / <i|f>. For a dichotomic (+-1) observable it is *anomalous*
when its real part falls outside [-1, +1]; a nonzero imaginary part is flagged
separately and does not count as anomalous. When the post-selection overlap
vanishes the weak value is undefined and OrthogonalPostSelection is raised;
near-zero overlaps deliberately produce huge finite values (no clamping), as
the divergence at destructive interference is exactly the effect of interest.

The expectation value decomposes over any rank-1 post-selection basis {f, f'}:
<A> = p(f) (A)_w^f + p(f') (A)_w^{f'}. Each term equals the always-finite
product form <i|A P_f|i>, which is what we compute, so zero-probability
branches need no special casing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interferometer import MZConfig, input_state, mz_basis, path_observable
from .qcore import (
    STRUCT_TOL,
    DichotomicObservable,
    Operator,
    StateVector,
    expectation,
    inner_product,
)

# threshold on |<pre|post>|^2 below which the weak value is undefined
OVERLAP_TOL = 1e-15

# anomaly thresholds for +-1-valued observables
_ANOMALY_TOL = 1e-12


class OrthogonalPostSelection(ValueError):
    """Post-selection probability is zero: the weak value is undefined."""


@dataclass(frozen=True)
class WeakValueResult:
    value: complex
    postselect_prob: float
    anomalous_real: bool
    nonzero_imag: bool


def _classify(value: complex, postselect_prob: float) -> WeakValueResult:
    re = value.real
    return WeakValueResult(
        value=value,
        postselect_prob=postselect_prob,
        anomalous_real=bool(re > 1.0 + _ANOMALY_TOL or re < -1.0 - _ANOMALY_TOL),
        nonzero_imag=bool(abs(value.imag) > STRUCT_TOL),
    )


def weak_value(A: Operator, pre: StateVector, post: StateVector) -> WeakValueResult:
    """(A)_w = <pre|A|post> / <pre|post> with anomaly classification."""
    if not A.is_hermitian():
        raise ValueError("weak value requires a Hermitian observable")
    overlap = inner_product(pre, post)
    prob = abs(overlap) ** 2
    if prob <= OVERLAP_TOL:
        raise OrthogonalPostSelection(
            f"post-selection probability {prob} <= {OVERLAP_TOL}: weak value undefined"
        )
    numer = complex(np.vdot(pre.amps, A.entries @ post.amps))
    return _classify(numer / overlap, float(prob))


def expectation_decomposition(
    A: Operator, pre: StateVector, basis: DichotomicObservable
) -> tuple[complex, complex, float]:
    """Split <A> into post-selected terms p(f)(A)_w^f + p(f')(A)_w^{f'}.

    Returns (term_f, term_fperp, total) where f is the +1 outcome of
    ``basis``. Terms are computed in the product form <pre|A P|pre>, which
    stays finite even when a post-selection probability vanishes. The total
    is asserted real and equal to expectation(A, pre) to 1e-12.
    """
    direct = expectation(A, pre)  # also the M = M^dagger test
    for outcome in (+1, -1):
        p = basis.projector(outcome).entries
        if abs(np.trace(p).real - 1.0) > STRUCT_TOL:
            raise ValueError("decomposition basis projectors must be rank 1")
    term_f = complex(np.vdot(pre.amps, A.entries @ basis.plus_proj.entries @ pre.amps))
    term_fperp = complex(np.vdot(pre.amps, A.entries @ basis.minus_proj.entries @ pre.amps))
    total = term_f + term_fperp
    if abs(total.imag) >= STRUCT_TOL:
        raise AssertionError(f"decomposition total has imaginary part {total.imag}")
    if abs(total.real - direct) >= STRUCT_TOL:
        raise AssertionError(
            f"decomposition total {total.real} != expectation {direct}"
        )
    return term_f, term_fperp, total.real


def mz_weak_values(
    cfg: MZConfig, allow_undefined: bool = False
) -> tuple[WeakValueResult | None, WeakValueResult | None]:
    """Path-observable weak values for post-selection on the two output ports.

    Returns (w3, w4) for post-selected states psi3 and psi4; the closed forms
    are (alpha-beta)/(alpha+beta) and (alpha+beta)/(alpha-beta). The pre-
    selected state is alpha*psi1 + beta*psi2, with the phase shifter at zero.
    With ``allow_undefined`` a vanishing port yields None instead of raising.
    """
    basis = mz_basis()
    pre = input_state(cfg)
    m2 = path_observable().operator()
    results = []
    for post in (basis.psi3, basis.psi4):
        try:
            results.append(weak_value(m2, pre, post))
        except OrthogonalPostSelection:
            if not allow_undefined:
                raise
            results.append(None)
    return results[0], results[1]
