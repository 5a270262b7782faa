"""Shared helpers: seeded random states, unitaries and dichotomic observables."""

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
