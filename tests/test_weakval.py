"""Weak values, the expectation decomposition and the interferometer closed forms."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lglab import (
    MZConfig,
    Operator,
    OrthogonalPostSelection,
    StateVector,
    detection_probabilities,
    input_state,
    mz_basis,
    mz_weak_values,
    path_observable,
    projector_onto,
    weak_value,
)

from conftest import random_hermitian, random_state, random_unitary
from oracles import born_probability, expectation

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


class TestWeakValue:
    def test_identity_observable(self, rng):
        pre, post = random_state(rng), random_state(rng)
        if abs(np.vdot(pre.amps, post.amps)) ** 2 > 1e-6:
            w = weak_value(Operator(np.eye(2)), pre, post)
            assert w.value == pytest.approx(1.0, abs=1e-12)
            assert not w.anomalous_real

    def test_dark_port_closed_form(self):
        # oracle: closed form (alpha+beta)/(alpha-beta), cross-checked by the
        # direct matrix evaluation performed inside weak_value
        pre = StateVector([SQ3 / 2, 0.5])
        w = weak_value(path_observable().operator(), pre, mz_basis().psi4)
        assert w.value.real == pytest.approx(2 + SQ3, abs=1e-12)
        assert w.anomalous_real and w.value.imag == 0.0
        assert w.postselect_prob == pytest.approx((2 - SQ3) / 4, abs=1e-12)

    def test_orthogonal_postselection_raises(self):
        pre = StateVector([1 / SQ2, 1 / SQ2])
        with pytest.raises(OrthogonalPostSelection):
            weak_value(path_observable().operator(), pre, mz_basis().psi4)

    def test_postselect_prob_is_born_probability(self, rng):
        for _ in range(100):
            pre, post = random_state(rng), random_state(rng)
            if abs(np.vdot(pre.amps, post.amps)) ** 2 <= 1e-6:
                continue
            w = weak_value(random_hermitian(rng), pre, post)
            assert w.postselect_prob == pytest.approx(
                born_probability(projector_onto(post), pre), abs=1e-12
            )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            weak_value(Operator([[0, 1], [0, 0]]), StateVector([1, 0]), StateVector([1, 0]))


# within 1e-2 of a dark port: beta near +-1/sqrt(2), phi near 0 or pi
NEAR_DARK_BETA = st.builds(lambda x, d: x + d, st.sampled_from((-1 / SQ2, 1 / SQ2)), st.floats(-1e-2, 1e-2))
NEAR_DARK_PHI = st.builds(lambda x, d: x + d, st.sampled_from((0.0, np.pi)), st.floats(-1e-2, 1e-2))


def decomposed(A, pre, rng):
    """p(f) (A)_w^f + p(f') (A)_w^{f'} over a random orthonormal basis {f, f'},
    through :func:`weak_value`."""
    u = random_unitary(rng)
    return sum(w.postselect_prob * w.value for w in (weak_value(A, pre, StateVector(f)) for f in u.T))


def mz_decomposed(cfg):
    """p3 w3 + p4 w4 from the runtime port routes; an unlit port adds nothing."""
    p3, p4 = detection_probabilities(cfg)
    w3, w4 = mz_weak_values(cfg, allow_undefined=True)
    return sum(p * w.value for p, w in ((p3, w3), (p4, w4)) if w is not None)


class TestExpectationDecomposition:
    """<A> = p(f) (A)_w^f + p(f') (A)_w^{f'}, the paper's <M2> = p3 w3 + p4 w4."""

    def test_mz_example(self):
        total = mz_decomposed(MZConfig(beta=0.5))
        assert total == pytest.approx(0.5, abs=1e-12)

    def test_identity_terms_are_probabilities(self, rng):
        eye = Operator(np.eye(2))
        for _ in range(100):
            assert decomposed(eye, random_state(rng), rng) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_state_vanishes(self):
        # equal arms: psi4 is dark, and the lit port alone carries <M2> = 0
        cfg = MZConfig(beta=1 / SQ2, alpha=1 / SQ2)
        assert mz_weak_values(cfg, allow_undefined=True)[1] is None
        assert mz_decomposed(cfg) == pytest.approx(0.0, abs=1e-12)

    def test_zero_probability_branch_is_finite(self):
        # next to the dark port w4 diverges, but p4 w4 stays finite
        cfg = MZConfig(beta=1 / SQ2 - 1e-7)
        _, w4 = mz_weak_values(cfg)
        assert abs(w4.value) > 1e6
        assert mz_decomposed(cfg) == pytest.approx(cfg.alpha**2 - cfg.beta**2, abs=1e-12)

    def test_decomposition_identity_random(self, rng):
        for _ in range(1000):
            a = random_hermitian(rng)
            pre = random_state(rng)
            assert decomposed(a, pre, rng) == pytest.approx(expectation(a, pre), abs=1e-12)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.one_of(st.floats(-1.0, 1.0), NEAR_DARK_BETA), st.one_of(st.floats(0.0, 2 * np.pi), NEAR_DARK_PHI),
           st.booleans())
    def test_mz_decomposition_over_the_domain(self, beta, phi, negative_alpha):
        # wherever both ports are lit, down to 1e-6 next to a dark port
        alpha = math.sqrt(1.0 - beta * beta) * (-1.0 if negative_alpha else 1.0)
        cfg = MZConfig(beta=beta, alpha=alpha, phi=phi)
        assume(min(detection_probabilities(cfg)) >= 1e-6)
        total = mz_decomposed(cfg)
        assert abs(total - (cfg.alpha**2 - cfg.beta**2)) <= 1e-12


class TestMZWeakValues:
    def test_no_interference_case(self):
        w3, w4 = mz_weak_values(MZConfig(beta=0.0))
        assert w3.value.real == pytest.approx(1.0, abs=1e-12)
        assert w4.value.real == pytest.approx(1.0, abs=1e-12)
        assert w3.postselect_prob == pytest.approx(0.5, abs=1e-12)
        assert w4.postselect_prob == pytest.approx(0.5, abs=1e-12)

    def test_balanced_raises_on_dark_port(self):
        with pytest.raises(OrthogonalPostSelection):
            mz_weak_values(MZConfig(beta=1 / SQ2))

    def test_balanced_allow_undefined(self):
        w3, w4 = mz_weak_values(MZConfig(beta=1 / SQ2), allow_undefined=True)
        assert w3.value.real == pytest.approx(0.0, abs=1e-12)
        assert w4 is None

    def test_generic_closed_forms(self):
        w3, w4 = mz_weak_values(MZConfig(beta=0.5))
        assert w3.value.real == pytest.approx(2 - SQ3, abs=1e-12)
        assert w4.value.real == pytest.approx(2 + SQ3, abs=1e-12)

    def test_m2_swaps_the_ports_bit_for_bit(self):
        """M2 psi3 = psi4 and M2 psi4 = psi3 byte for byte, so <pre|M2 psi3> is
        the overlap d4 and w3 = d4/d3, w4 = d3/d4 from the two port overlaps."""
        m2, basis = path_observable().operator().entries, mz_basis()
        assert (m2 @ basis.psi3.amps).tobytes() == basis.psi4.amps.tobytes()
        assert (m2 @ basis.psi4.amps).tobytes() == basis.psi3.amps.tobytes()

    def test_postselect_probs_match_detection(self):
        for beta in np.linspace(-0.95, 0.95, 21):
            cfg = MZConfig(beta=float(beta))
            p3, p4 = detection_probabilities(cfg)
            w3, w4 = mz_weak_values(cfg, allow_undefined=True)
            if w3 is not None:
                assert w3.postselect_prob == pytest.approx(p3, abs=1e-12)
            if w4 is not None:
                assert w4.postselect_prob == pytest.approx(p4, abs=1e-12)

    @pytest.mark.parametrize("alpha, lit", [(2**-0.5, 0), (-(2**-0.5), 1)], ids=["psi4-dark", "psi3-dark"])
    def test_postselect_prob_is_at_most_one_at_an_exact_dark_port(self, alpha, lit):
        """The lit port's |overlap|^2 rounds to 1.0000000000000004 at beta =
        |alpha| = 2**-0.5; p(f) is clipped at 1 there, as the detection p is."""
        cfg = MZConfig(beta=2**-0.5, alpha=alpha)
        results = mz_weak_values(cfg, allow_undefined=True)
        assert results[1 - lit] is None
        assert results[lit].postselect_prob == 1.0
        assert detection_probabilities(cfg)[lit] == 1.0
        post = (mz_basis().psi3, mz_basis().psi4)[lit]
        assert weak_value(path_observable().operator(), input_state(cfg), post).postselect_prob == 1.0


class TestMZProperties:
    BETAS = np.linspace(-1.0, 1.0, 10001)

    def test_reciprocal_identity(self):
        for beta in self.BETAS:
            cfg = MZConfig(beta=float(beta))
            a, b = cfg.alpha, cfg.beta
            if abs(a - b) < 1e-6 or abs(a + b) < 1e-6:
                continue
            w3 = (a - b) / (a + b)
            w4 = (a + b) / (a - b)
            assert abs(w3 * w4 - 1.0) < 1e-12

    def test_never_both_anomalous(self):
        for beta in self.BETAS:
            alpha = float(np.sqrt(max(0.0, 1.0 - beta**2)))
            both = abs(alpha - beta) > 1e-9 and abs(alpha + beta) > 1e-9
            if not both:
                continue
            w3 = (alpha - beta) / (alpha + beta)
            w4 = (alpha + beta) / (alpha - beta)
            assert not (abs(w3) > 1.0 and abs(w4) > 1.0)

    def test_exactly_one_anomalous_when_asymmetric(self):
        # positive alpha, beta with alpha != beta: exactly one weak value anomalous
        for beta in np.linspace(0.01, 0.99, 99):
            cfg = MZConfig(beta=float(beta))
            if abs(cfg.alpha - cfg.beta) < 1e-9:
                continue
            w3, w4 = mz_weak_values(cfg)
            assert w3.anomalous_real != w4.anomalous_real
