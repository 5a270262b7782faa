"""Mach-Zehnder input state, detection probabilities, measurement observables and the unitary oracle."""

import warnings
from decimal import Decimal

import numpy as np
import pytest

from lglab import (
    MZConfig,
    StateVector,
    detection_probabilities,
    input_state,
    mz_basis,
    output_observable,
    path_observable,
    projector_onto,
)
from lglab.interferometer import _HH

from oracles import born_probability, bs_unitary, phase_unitary, propagate_unitary, unitary

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


class TestConfig:
    def test_alpha_derived_from_beta(self):
        cfg = MZConfig(beta=0.5)
        assert cfg.alpha == pytest.approx(SQ3 / 2, abs=1e-15)

    def test_rejects_off_circle(self):
        with pytest.raises(ValueError, match="alpha\\^2"):
            MZConfig(beta=0.5, alpha=0.5)

    def test_rejects_beta_out_of_range(self):
        with pytest.raises(ValueError):
            MZConfig(beta=1.5)

    def test_rejects_beta_past_one_with_alpha(self):
        # within the alpha^2 + beta^2 tolerance, but beta itself is out of range
        with pytest.raises(ValueError, match="beta must lie in"):
            MZConfig(beta=1 + 1e-10, alpha=0.0)

    @pytest.mark.parametrize("field", ["beta", "alpha", "phi"])
    def test_an_int_past_the_double_range_is_named(self, field):
        # float() cannot convert it to a double; qcore._real names the field, as for every field
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got a number past the double range$"):
            MZConfig(**{"beta": 0.6, field: 10**400})

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"beta": "0.5"}, "beta"),
            ({"beta": 0.5j}, "beta"),
            ({"beta": None}, "beta"),
            ({"beta": 0.6, "alpha": "0.8"}, "alpha"),
            ({"beta": 0.6, "phi": "1"}, "phi"),
        ],
    )
    def test_a_value_that_is_not_a_real_number_is_named(self, kwargs, field):
        # qcore._real refuses it
        with pytest.raises(ValueError, match=rf"^{field} must be a real number, got {kwargs[field]!r}$"):
            MZConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"beta": 0.6, "alpha": Decimal("0.8")}, "alpha"),
            ({"beta": np.complex128(0.5j)}, "beta"),
            ({"beta": 0.6, "phi": np.complex128(1j)}, "phi"),
            ({"beta": True}, "beta"),
        ],
        ids=["decimal-alpha", "numpy-complex-beta", "numpy-complex-phi", "bool-beta"],
    )
    def test_a_value_outside_the_real_number_rule_is_named(self, kwargs, field):
        # a Decimal alpha used to escape as a TypeError from alpha**2 + beta**2, a numpy
        # complex to be read as its real part, and True to be read as beta = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{field} must be a real number, got "):
                MZConfig(**kwargs)

    def test_a_numpy_scalar_beta_gives_the_config_of_its_float(self):
        # the default alpha is computed in double precision, not in the scalar's own
        assert MZConfig(beta=np.float32(0.1)) == MZConfig(beta=float(np.float32(0.1)))

    def test_explicit_pair_is_put_on_the_unit_circle(self):
        # accepted within INPUT_TOL, then divided by sqrt(alpha^2 + beta^2)
        cfg = MZConfig(beta=0.0, alpha=1 + 4e-10)
        assert cfg.alpha == 1.0
        assert sum(detection_probabilities(cfg)) == 1.0
        cfg = MZConfig(beta=0.6 * (1 - 4e-10), alpha=-0.8 * (1 - 4e-10))
        assert cfg.alpha**2 + cfg.beta**2 == pytest.approx(1.0, abs=1e-15)
        assert cfg.beta / cfg.alpha == pytest.approx(-0.75, abs=1e-15)


class TestBasis:
    def test_output_basis_construction(self):
        b = mz_basis()
        np.testing.assert_allclose(b.psi3.amps, (b.psi1.amps + b.psi2.amps) / SQ2, atol=0)
        np.testing.assert_allclose(b.psi4.amps, (b.psi1.amps - b.psi2.amps) / SQ2, atol=0)

    def test_orthonormal_pairs(self):
        b = mz_basis()
        for x, y in ((b.psi1, b.psi2), (b.psi3, b.psi4)):
            assert abs(np.vdot(x.amps, y.amps)) < 1e-15
            assert abs(np.vdot(x.amps, x.amps) - 1) < 1e-15


class TestFixedObjects:
    """The basis and the two observables are built once, at import, from exact
    flat entries: the same objects on every call, with the bits that
    ``StateVector`` gives the inputs they stand for."""

    @pytest.mark.parametrize("factory", [mz_basis, path_observable, output_observable])
    def test_every_call_returns_the_same_object(self, factory):
        assert factory() is factory()

    @pytest.mark.parametrize(
        "name, amps",
        [
            ("psi1", [1.0, 0.0]),
            ("psi2", [0.0, 1.0]),
            ("psi3", [1.0 / SQ2, 1.0 / SQ2]),
            ("psi4", [1.0 / SQ2, -1.0 / SQ2]),
        ],
    )
    def test_basis_vectors_are_the_validated_bits(self, name, amps):
        def bits(flat):
            return [(z.real.hex(), z.imag.hex()) for z in flat]

        got = getattr(mz_basis(), name)._flat
        assert all(type(z) is complex for z in got)
        assert bits(got) == bits(StateVector(amps)._flat)

    def test_sequential_factor_is_the_output_projectors_00_entry(self):
        obs = output_observable()
        for proj in (obs.plus_proj, obs.minus_proj):
            assert proj._flat[0] == complex(_HH, 0.0)
        assert _HH.hex() == (0.5000000000000001).hex()


class TestInputState:
    def test_pure_path(self):
        np.testing.assert_allclose(input_state(MZConfig(beta=0.0)).amps, [1.0, 0.0], atol=0)

    def test_balanced_gives_psi3(self):
        s = input_state(MZConfig(beta=1 / SQ2))
        np.testing.assert_allclose(s.amps, mz_basis().psi3.amps, atol=1e-15)

    def test_generic_amplitudes(self):
        s = input_state(MZConfig(beta=0.5))
        np.testing.assert_allclose(s.amps, [SQ3 / 2, 0.5], atol=1e-15)


class TestElementConventions:
    def test_unitary_check(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary([[1.0, 0.0], [0.0, 2.0]])

    def test_bs_on_psi1(self):
        out = bs_unitary() @ mz_basis().psi1.amps
        np.testing.assert_allclose(out, [1 / SQ2, 1j / SQ2], atol=1e-15)

    def test_phase_zero_is_identity(self):
        np.testing.assert_allclose(phase_unitary(0.0), np.eye(2), atol=0)

    def test_phase_pi_flips_psi2(self):
        out = phase_unitary(np.pi) @ mz_basis().psi2.amps
        np.testing.assert_allclose(out, [0.0, -1.0], atol=1e-15)


class TestPropagate:
    """The unitary oracle: element product on the raw (alpha, beta)."""

    def test_destructive_arm(self):
        out = propagate_unitary(MZConfig(beta=1 / SQ2))
        b = mz_basis()
        assert abs(np.vdot(b.psi4.amps, out.amps)) < 1e-12
        assert abs(np.vdot(b.psi3.amps, out.amps)) == pytest.approx(1.0, abs=1e-12)

    def test_single_path_splits_evenly(self):
        out = propagate_unitary(MZConfig(beta=0.0))
        b = mz_basis()
        assert abs(np.vdot(b.psi3.amps, out.amps)) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(np.vdot(b.psi4.amps, out.amps)) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_generic_dark_port_probability(self):
        out = propagate_unitary(MZConfig(beta=0.5))
        p4 = abs(np.vdot(mz_basis().psi4.amps, out.amps)) ** 2
        assert p4 == pytest.approx((2 - SQ3) / 4, abs=1e-12)

    @pytest.mark.parametrize("beta", np.linspace(-1.0, 1.0, 41))
    def test_modes_agree_on_port_probabilities(self, beta):
        # the port projectors on the pre-selected state, as every runtime
        # route measures M3, against the same projectors after the oracle
        b = mz_basis()
        p3_proj, p4_proj = projector_onto(b.psi3), projector_onto(b.psi4)
        probs = {}
        cfg = MZConfig(beta=float(beta))
        for mode, out in (("input_state", input_state(cfg)), ("unitary", propagate_unitary(cfg))):
            probs[mode] = (born_probability(p3_proj, out), born_probability(p4_proj, out))
        assert probs["input_state"][0] == pytest.approx(probs["unitary"][0], abs=1e-12)
        assert probs["input_state"][1] == pytest.approx(probs["unitary"][1], abs=1e-12)


class TestDetectionProbabilities:
    def test_balanced(self):
        assert detection_probabilities(MZConfig(beta=1 / SQ2)) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_single_path(self):
        assert detection_probabilities(MZConfig(beta=0.0)) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_generic(self):
        p3, p4 = detection_probabilities(MZConfig(beta=0.5))
        assert p3 == pytest.approx((2 + SQ3) / 4, abs=1e-12)
        assert p4 == pytest.approx((2 - SQ3) / 4, abs=1e-12)

    @pytest.mark.parametrize("beta", np.linspace(-1.0, 1.0, 41))
    def test_agrees_with_born_rule_both_modes(self, beta):
        b = mz_basis()
        cfg = MZConfig(beta=float(beta))
        p3, p4 = detection_probabilities(cfg)
        out = propagate_unitary(cfg)
        assert p3 == pytest.approx(born_probability(projector_onto(b.psi3), out), abs=1e-12)
        assert p4 == pytest.approx(born_probability(projector_onto(b.psi4), out), abs=1e-12)
        assert p3 + p4 == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip_symmetry(self):
        for beta in np.linspace(-0.99, 0.99, 23):
            alpha = float(np.sqrt(1 - beta**2))
            p3, _ = detection_probabilities(MZConfig(beta=float(beta), alpha=alpha))
            _, p4 = detection_probabilities(MZConfig(beta=float(-beta), alpha=alpha))
            assert p3 == pytest.approx(p4, abs=1e-12)

    def test_full_visibility_fringe(self):
        # oracle: unitary propagation over a 100-point phase grid
        b = mz_basis()
        p4_proj = projector_onto(b.psi4)
        for phi in np.linspace(0.0, 2 * np.pi, 100):
            cfg = MZConfig(beta=1 / SQ2, phi=float(phi))
            _, p4 = detection_probabilities(cfg)
            assert p4 == pytest.approx((1 - np.cos(phi)) / 2, abs=1e-12)
            assert p4 == pytest.approx(born_probability(p4_proj, propagate_unitary(cfg)), abs=1e-12)


class TestObservables:
    def test_path_eigenstates(self):
        b = mz_basis()
        m2 = path_observable().operator().entries
        np.testing.assert_allclose(m2 @ b.psi1.amps, b.psi1.amps, atol=1e-15)
        np.testing.assert_allclose(m2 @ b.psi2.amps, -b.psi2.amps, atol=1e-15)

    def test_output_eigenstates(self):
        b = mz_basis()
        m3 = output_observable().operator().entries
        np.testing.assert_allclose(m3 @ b.psi3.amps, -b.psi3.amps, atol=1e-15)
        np.testing.assert_allclose(m3 @ b.psi4.amps, b.psi4.amps, atol=1e-15)

    def test_squares_to_identity(self):
        for obs in (path_observable(), output_observable()):
            m = obs.operator().entries
            np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-15)
