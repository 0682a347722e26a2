import math

import numpy as np
import pytest
from scipy.linalg import expm

from nhbloch.analytic import coherent_bloch
from nhbloch.core import I0, IY, IZ, bloch_to_density, density_to_bloch
from nhbloch.nmr import (
    HBAR,
    KB,
    ROOM_TEMPERATURE_K,
    NmrContext,
    deviation_matrix,
    partition_function,
    polarization_factor,
    pseudo_pure_decompose,
    rotating_frame_field,
    rotation_pulse,
    thermal_state,
)


@pytest.fixture(scope="module")
def p31_context() -> NmrContext:
    omega_larmor = 2.0 * math.pi * 161.973e6
    return NmrContext(
        omega_larmor=omega_larmor,
        omega_rf=omega_larmor,
        omega1=2.0 * math.pi * 21186.0,
        phi=1.5 * math.pi,
        temperature=ROOM_TEMPERATURE_K,
    )


class TestPolarizationFactor:
    def test_reference_value(self, p31_context):
        got = polarization_factor(p31_context, "high_t")
        assert got == pytest.approx(1.304e-5, rel=5e-3)

    def test_vanishes_at_infinite_temperature(self, p31_context):
        hot = NmrContext(
            p31_context.omega_larmor,
            p31_context.omega_rf,
            p31_context.omega1,
            p31_context.phi,
            1e15,
        )
        assert polarization_factor(hot, "exact") < 1e-17

    def test_high_t_dominates_with_bounded_gap(self, p31_context):
        exact = polarization_factor(p31_context, "exact")
        high = polarization_factor(p31_context, "high_t")
        assert high >= exact
        x = HBAR * p31_context.omega_larmor / (2.0 * KB * p31_context.temperature)
        assert (high - exact) / exact <= x * x / 3.0
        assert (high - exact) / exact <= 1e-10

    def test_monotone_decreasing_in_temperature(self, p31_context):
        values = [
            polarization_factor(
                NmrContext(
                    p31_context.omega_larmor,
                    p31_context.omega_rf,
                    p31_context.omega1,
                    p31_context.phi,
                    temp,
                ),
                "exact",
            )
            for temp in np.linspace(1.0, 600.0, 40)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_unknown_mode_rejected(self, p31_context):
        with pytest.raises(ValueError, match="mode"):
            polarization_factor(p31_context, "bogus")


class TestThermalState:
    def test_matches_polarization_diagonal(self, p31_context):
        eps = polarization_factor(p31_context, "exact")
        rho = thermal_state(p31_context)
        np.testing.assert_allclose(rho, np.diag([(1 + eps) / 2, (1 - eps) / 2]), atol=1e-18)

    def test_bloch_view(self, p31_context):
        eps = polarization_factor(p31_context, "exact")
        r = density_to_bloch(thermal_state(p31_context))
        assert (r.x, r.y) == (0.0, 0.0)
        assert r.z == pytest.approx(eps, rel=1e-12)

    def test_infinite_temperature_limit(self, p31_context):
        hot = NmrContext(
            p31_context.omega_larmor,
            p31_context.omega_rf,
            p31_context.omega1,
            p31_context.phi,
            1e15,
        )
        np.testing.assert_allclose(thermal_state(hot), np.eye(2) / 2.0, atol=1e-15)

    def test_partition_function_near_two(self, p31_context):
        z = partition_function(p31_context)
        x = HBAR * p31_context.omega_larmor / (2.0 * KB * p31_context.temperature)
        assert z == pytest.approx(2.0 * math.cosh(x), rel=1e-15)
        assert z == pytest.approx(2.0, abs=1e-9)


class TestPseudoPure:
    def test_degenerate_split(self):
        weight, rho0 = pseudo_pure_decompose(I0.copy(), 0.0)
        assert weight == 1.0
        np.testing.assert_allclose(rho0, np.diag([1.0, 0.0]), atol=0)

    def test_fully_polarized(self):
        weight, rho0 = pseudo_pure_decompose(I0 + IZ, 1.0)
        assert weight == 0.0
        np.testing.assert_allclose(rho0, np.diag([1.0, 0.0]), atol=0)

    def test_reference_identity_weight(self, p31_context):
        eps = polarization_factor(p31_context, "exact")
        weight, _ = pseudo_pure_decompose(thermal_state(p31_context), eps)
        assert weight == pytest.approx(0.99998696, abs=1e-7)

    def test_recomposition_exact(self, p31_context):
        eps = polarization_factor(p31_context, "exact")
        rho = thermal_state(p31_context)
        weight, rho0 = pseudo_pure_decompose(rho, eps)
        np.testing.assert_allclose(weight * I0 + eps * rho0, rho, atol=1e-12)

    def test_rejects_non_thermal_input(self):
        with pytest.raises(ValueError, match="thermal"):
            pseudo_pure_decompose(bloch_to_density((0.5, 0.0, 0.0)), 0.5)


class TestDeviationMatrix:
    def test_thermal_input_gives_iz(self, p31_context):
        eps = polarization_factor(p31_context, "exact")
        np.testing.assert_allclose(deviation_matrix(thermal_state(p31_context), eps), IZ, atol=1e-12)

    def test_traceless(self, p31_context):
        eps = polarization_factor(p31_context, "exact")
        dev = deviation_matrix(thermal_state(p31_context), eps)
        assert abs(np.trace(dev)) <= 1e-12

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError, match="positive"):
            deviation_matrix(I0.copy(), 0.0)

    def test_quarter_pulse_rotates_iz_to_ix(self, p31_context):
        # Heisenberg sandwich with the pulse unitary, checked against expm.
        omega1 = p31_context.omega1
        t_r = (math.pi / 2.0) / omega1
        u = rotation_pulse(omega1, t_r)
        u_oracle = expm(1j * omega1 * t_r * IY)
        np.testing.assert_allclose(u, u_oracle, atol=1e-12)
        eps = polarization_factor(p31_context, "exact")
        dev = deviation_matrix(thermal_state(p31_context), eps)
        rotated = u.conj().T @ dev @ u
        np.testing.assert_allclose(rotated, np.array([[0.0, 0.5], [0.5, 0.0]]), atol=1e-12)


class TestRotationPulse:
    def test_zero_duration_is_identity(self):
        np.testing.assert_allclose(rotation_pulse(1e5, 0.0), np.eye(2), atol=0)

    def test_full_turn_gives_spinor_sign(self):
        omega1 = 2.0 * math.pi * 21186.0
        t_r = 2.0 * math.pi / omega1
        u = rotation_pulse(omega1, t_r)
        np.testing.assert_allclose(u, -np.eye(2), atol=1e-12)
        # Diagonalization oracle: eigenvalues of the generator give exp(+/- i angle / 2).
        np.testing.assert_allclose(expm(1j * omega1 * t_r * IY), -np.eye(2), atol=1e-12)

    def test_matrix_period_is_two_turns(self):
        omega1 = 1.7e5
        for t_r in (1e-6, 3.3e-5):
            a = rotation_pulse(omega1, t_r)
            b = rotation_pulse(omega1, t_r + 4.0 * math.pi / omega1)
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_unitarity_random_durations(self):
        rng = np.random.default_rng(5)
        omega1 = 2.0 * math.pi * 21186.0
        for t_r in rng.uniform(0.0, 1e-3, size=25):
            u = rotation_pulse(omega1, t_r)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_quarter_turn_sends_north_to_plus_x(self):
        omega1 = 2.0 * math.pi * 21186.0
        u = rotation_pulse(omega1, (math.pi / 2.0) / omega1)
        rho = u.conj().T @ np.diag([1.0, 0.0]).astype(complex) @ u
        np.testing.assert_allclose(density_to_bloch(rho).as_array(), [1.0, 0.0, 0.0], atol=1e-12)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="non-negative"):
            rotation_pulse(1.0, -1.0)

    def test_sandwich_matches_drive_field_evolution(self):
        # 100 random durations: pulse conjugation vs precession under (0, w1, 0).
        rng = np.random.default_rng(17)
        omega1 = 2.0 * math.pi * 21186.0
        from nhbloch.analytic import CoherentField

        field = CoherentField(0.0, omega1, 0.0)
        north = np.diag([1.0, 0.0]).astype(complex)
        for t_r in rng.uniform(0.0, 5e-4, size=100):
            u = rotation_pulse(omega1, t_r)
            got = density_to_bloch(u.conj().T @ north @ u).as_array()
            want = coherent_bloch(field, t_r).as_array()
            assert np.max(np.abs(got - want)) <= 1e-10


class TestRotatingFrameField:
    def test_on_resonance_reference_phase(self, p31_context):
        field = rotating_frame_field(p31_context)
        assert abs(field.wx) <= 1e-9 * p31_context.omega1
        assert field.wy == pytest.approx(p31_context.omega1, rel=1e-12)
        assert field.wz == 0.0

    def test_opposite_phase_flips_sign(self, p31_context):
        ctx = NmrContext(
            p31_context.omega_larmor,
            p31_context.omega_rf,
            p31_context.omega1,
            0.5 * math.pi,
            p31_context.temperature,
        )
        field = rotating_frame_field(ctx)
        assert field.wy == pytest.approx(-p31_context.omega1, rel=1e-12)

    def test_detuning_enters_z_with_minus_sign(self, p31_context):
        detuning = 2.0 * math.pi * 150.0
        ctx = NmrContext(
            p31_context.omega_larmor,
            p31_context.omega_larmor - detuning,
            p31_context.omega1,
            p31_context.phi,
            p31_context.temperature,
        )
        assert rotating_frame_field(ctx).wz == pytest.approx(-detuning, rel=1e-12)


def test_context_validation():
    with pytest.raises(ValueError):
        NmrContext(-1.0, 1.0, 1.0, 0.0, 300.0)
    with pytest.raises(ValueError):
        NmrContext(1.0, 1.0, 0.0, 0.0, 300.0)
    with pytest.raises(ValueError):
        NmrContext(1.0, 1.0, 1.0, 0.0, 0.0)
