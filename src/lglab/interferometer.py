"""Two-path Mach-Zehnder model: input state, detection, path/output observables.

The setup is a balanced interferometer with input-path basis {psi1, psi2} and
output-port basis psi3 = (psi1 + psi2)/sqrt(2), psi4 = (psi1 - psi2)/sqrt(2).
An input alpha*psi1 + beta*psi2 (alpha, beta real, alpha^2 + beta^2 = 1)
reaches the psi3 port with amplitude (alpha + e^{i phi} beta)/sqrt(2) and the
psi4 port with amplitude (alpha - e^{i phi} beta)/sqrt(2) up to a phase, so for
phi = 0 the port probabilities are (alpha+beta)^2/2 and (alpha-beta)^2/2 and
the psi4 port goes dark at alpha = beta. :func:`_mz_probabilities` holds this
closed form and :func:`_mz_k` the two-time K31..K34 of ``lgi``, both in plain
``math`` arithmetic on a shared c = cos(phi); every per-point route and the
beta sweep read them, and a caller of one pays nothing for the other. At
beta*sin(phi) = 0 the p kernel squares the real amplitude without the complex
modulus, with the same bits: hypot(x, +-0) = |x| (C99 Annex F), and the
square is libm ``pow`` on both paths. The third closed form,
:func:`_mz_sequential`, is the joint p(m2, m3) of a path measurement then port
detection, which the Monte Carlo ``sequential`` run draws from: the
operations of ``lgi.sequential_joint`` on :func:`input_state`, with its bits,
and no state built. Both read :func:`_unit_parts`, the one home of the division by
the norm that ``StateVector`` takes: :func:`input_state` builds its state from
those parts with no second check, since a config that ``MZConfig`` accepted always
passes ``StateVector``'s; ``MZConfig`` reads each field by ``qcore._real``, the
one real-number rule. ``tests/oracles.py`` keeps the element-by-element unitary
product as its oracle. The module loads no numpy: the fixed basis is built from
its exact flat entries and the two observables from that basis in plain Python, so
a command that needs only the closed forms (``probabilities``) never imports it.
"""

from __future__ import annotations

import cmath
import math

from .qcore import (
    INPUT_TOL,
    DichotomicObservable,
    StateVector,
    _Record,
    _from_flat,
    _real,
    projector_onto,
)


def _default_alpha(beta: float) -> float:
    """+sqrt(1 - beta^2), the alpha of a config that gives only beta."""
    return math.sqrt(1.0 - beta**2)


def _mz_probabilities(alpha: float, beta: float, c: float, s: float) -> tuple[float, float]:
    """(p3, p4) of the input (alpha, beta) at the phase with cos c and sin s.

    p = |alpha +- e^{i phi} beta|^2 / 2 is clipped at 1: alpha^2 + beta^2 may
    exceed 1 by rounding, and a dark port's partner would read 1.0000000000000002.
    Complex ``abs`` and ``** 2`` are libm ``hypot`` and ``pow``, the operations
    (and bits) of the numpy reference in ``tests/oracles.py``. When beta*s is
    zero (every phi = 0 call, so every sweep row, and beta = 0) the modulus is
    skipped: C99 Annex F makes hypot(x, +-0) = |x| exactly, and glibc's ``pow``
    squares -x and x alike, so ``x ** 2`` has the bits of ``abs(complex(x, 0)) ** 2``.
    ``** 2`` stays: ``x * x`` is not libm ``pow`` and differs from it in the
    last bit on some inputs. A NaN beta*s is truthy and takes the complex path.
    """
    bc, bs = beta * c, beta * s
    q3, q4 = (
        (abs(complex(alpha + bc, bs)) ** 2, abs(complex(alpha - bc, bs)) ** 2)
        if bs
        else ((alpha + bc) ** 2, (alpha - bc) ** 2)
    )
    return min(q3 / 2.0, 1.0), min(q4 / 2.0, 1.0)


def _mz_k(alpha: float, beta: float, c: float) -> tuple[float, float, float, float]:
    """(K31, K32, K33, K34) of the input (alpha, beta) at the phase with cos c."""
    return (
        2.0 * beta * (beta - alpha * c),
        2.0 * alpha * (alpha - beta * c),
        2.0 * beta * (beta + alpha * c),
        2.0 * alpha * (alpha + beta * c),
    )


def _mz_sequential(cfg: MZConfig) -> tuple[float, float, float, float]:
    """p(m2, m3) of a path measurement then port detection, in the order
    (+1, +1), (+1, -1), (-1, +1), (-1, -1), with the bits of
    ``lgi.sequential_joint(input_state(cfg), path_observable(), output_observable())``.

    These are that route's operations in real arithmetic on the parts of
    :func:`_unit_parts`: each kept amplitude is multiplied by h, the 00
    entry of both output projectors, and each port's squared modulus of the
    collapsed state is the same, so p is twice it. The terms that route adds
    are zeros, and no ``x + 0`` moves a bit of a nonzero x.
    """
    xr, yr, yi = _unit_parts(cfg)
    s = _HH * xr
    yr, yi = _HH * yr, _HH * yi
    plus, minus = 2.0 * (s * s), 2.0 * (yr * yr + yi * yi)
    return plus, plus, minus, minus


class MZConfig(_Record):
    """Interferometer configuration.

    ``alpha`` may be omitted, in which case it is fixed to +sqrt(1 - beta^2).
    An explicit pair within ``INPUT_TOL`` of alpha^2 + beta^2 = 1 is divided
    by sqrt(alpha^2 + beta^2), so every route sees one unit-norm state. Each
    field is read by the one real-number rule, ``qcore._real``, and stored as a float.
    """

    __slots__ = ("beta", "alpha", "phi")

    def __init__(self, beta: float, alpha: float | None = None, phi: float = 0.0):
        # math, not numpy: both square roots are correctly rounded, so alpha has numpy's bits
        beta = beta if type(beta) is float else _real("beta", beta)
        if not abs(beta) <= 1.0:
            raise ValueError(f"beta must lie in [-1, 1], got {beta}")
        explicit = alpha is not None
        alpha = _default_alpha(beta) if not explicit else alpha if type(alpha) is float else _real("alpha", alpha)
        phi = phi if type(phi) is float else _real("phi", phi)
        for name, v in (("alpha", alpha), ("phi", phi)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        try:
            sq = alpha**2 + beta**2
        except OverflowError:  # |alpha| past about 1.34e154
            raise ValueError(f"alpha^2 + beta^2 must equal 1, got alpha = {alpha!r}") from None
        if abs(sq - 1.0) > INPUT_TOL:
            raise ValueError(f"alpha^2 + beta^2 = {sq!r} must equal 1")
        if explicit:
            norm = math.sqrt(sq)
            alpha, beta = alpha / norm, beta / norm
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "phi", phi)


class MZBasis(_Record):
    """Input-path basis (psi1, psi2) and output-port basis (psi3, psi4)."""

    __slots__ = ("psi1", "psi2", "psi3", "psi4")

    def __init__(self, psi1: StateVector, psi2: StateVector, psi3: StateVector, psi4: StateVector):
        object.__setattr__(self, "psi1", psi1)
        object.__setattr__(self, "psi2", psi2)
        object.__setattr__(self, "psi3", psi3)
        object.__setattr__(self, "psi4", psi4)


# the basis and the two measured observables are fixed; they are built once,
# at import, and shared (every type involved is immutable). Each basis vector
# holds the exact entries that StateVector gives its input: 1/sqrt(2) divided
# by that input's norm is sqrt(0.5), one ulp above 1/sqrt(2), and every
# imaginary part is +0.0 (tests/test_interferometer.py checks the bits)
_H = math.sqrt(0.5)
_BASIS = MZBasis(
    _from_flat(StateVector, (1 + 0j, 0j)),
    _from_flat(StateVector, (0j, 1 + 0j)),
    _from_flat(StateVector, (complex(_H, 0.0), complex(_H, 0.0))),
    _from_flat(StateVector, (complex(_H, 0.0), complex(-_H, 0.0))),
)
_PATH = DichotomicObservable(projector_onto(_BASIS.psi1), projector_onto(_BASIS.psi2))
_OUTPUT = DichotomicObservable(projector_onto(_BASIS.psi4), projector_onto(_BASIS.psi3))
# the 00 entry of both output projectors, 0.5000000000000001, that
# _mz_sequential multiplies by
_HH = _H * _H


def mz_basis() -> MZBasis:
    return _BASIS


def _pre_amps(cfg: MZConfig) -> tuple[float, complex]:
    """(alpha, e^{i phi} beta): the amplitudes of :func:`input_state`."""
    return cfg.alpha, cmath.exp(1.0j * cfg.phi) * cfg.beta


def _unit_parts(cfg: MZConfig) -> tuple[float, float, float]:
    """(Re x, Re y, Im y) of the amplitudes x, y of :func:`_pre_amps` as
    ``StateVector`` stores them: each part divided by n, ``math.hypot`` of the
    four (Im x is +0.0, and stays so). A config's n is within rounding of 1,
    so ``StateVector`` would neither rescale the parts nor refuse the norm."""
    a, b = _pre_amps(cfg)
    n = math.hypot(a, 0.0, b.real, b.imag)
    return a / n, b.real / n, b.imag / n


def input_state(cfg: MZConfig) -> StateVector:
    """Pre-selected state alpha*psi1 + e^{i phi} beta*psi2: the phase shifter folded in.

    U = diag(1, e^{i phi}) acts between M2 and M3 and commutes with M2, so every
    two-time quantity of (M2, U^dagger M3 U) on (alpha, beta) equals that of
    (M2, M3) on this state, exactly; at phi = 0 it is (alpha, beta) bit for bit.
    The state has the bits of ``StateVector(_pre_amps(cfg))``, built from the
    config ``MZConfig`` checked (:func:`_unit_parts`), with no input parsed again.
    """
    xr, yr, yi = _unit_parts(cfg)
    return _from_flat(StateVector, (complex(xr, 0.0), complex(yr, yi)))


def detection_probabilities(cfg: MZConfig) -> tuple[float, float]:
    """(p3, p4): detection probabilities at the psi3 and psi4 ports.

    For phi = 0 these are (alpha+beta)^2/2 and (alpha-beta)^2/2, clipped at 1.
    """
    return _mz_probabilities(cfg.alpha, cfg.beta, math.cos(cfg.phi), math.sin(cfg.phi))


def path_observable() -> DichotomicObservable:
    """M2 = |psi1><psi1| - |psi2><psi2| (which-path observable)."""
    return _PATH


def output_observable() -> DichotomicObservable:
    """M3 = |psi4><psi4| - |psi3><psi3| (+1 outcome is the psi4 port)."""
    return _OUTPUT
