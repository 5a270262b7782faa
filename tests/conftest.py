"""Shared helpers: seeded random states, unitaries and dichotomic observables,
and the outcome of a construction as bits or an error message."""

import numpy as np
import pytest

from lglab import DichotomicObservable, Operator, StateVector, projector_onto

from oracles import unitary


def random_state(rng) -> StateVector:
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return StateVector(amps, normalize=True)


def random_unitary(rng) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return unitary(q * (np.diag(r) / np.abs(np.diag(r))))


def random_hermitian(rng) -> Operator:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return Operator((z + z.conj().T) / 2.0)


def random_dichotomic(rng) -> DichotomicObservable:
    """Random rank-1 projector pair from the columns of a Haar-ish unitary."""
    u = random_unitary(rng)
    plus = projector_onto(StateVector(u[:, 0]))
    minus = projector_onto(StateVector(u[:, 1]))
    return DichotomicObservable(plus, minus)


def outcome(make) -> tuple:
    """The bits of each number ``make()`` returns (a StateVector's ``_flat``,
    or flat parts), or the type and message of the error it raises."""
    try:
        got = make()
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return "accepted", [(z.real.hex(), z.imag.hex()) for z in map(complex, getattr(got, "_flat", got))]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
