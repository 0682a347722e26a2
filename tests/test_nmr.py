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
    deviation_matrix,
    drive_field,
    partition_function,
    polarization_factor,
    pseudo_pure_decompose,
    rotation_pulse,
    thermal_argument,
    thermal_state,
)

# The phosphorus-31 Larmor frequency in rad/s and the lab temperature.
P31 = (2.0 * math.pi * 161.973e6, ROOM_TEMPERATURE_K)
OMEGA1 = 2.0 * math.pi * 21186.0


class TestPolarizationFactor:
    def test_reference_value(self):
        assert thermal_argument(*P31) == pytest.approx(1.304e-5, rel=5e-3)

    def test_vanishes_at_infinite_temperature(self):
        assert polarization_factor(P31[0], 1e15) < 1e-17

    def test_high_t_dominates_with_bounded_gap(self):
        exact = polarization_factor(*P31)
        high = thermal_argument(*P31)
        assert high >= exact
        x = HBAR * P31[0] / (2.0 * KB * P31[1])
        assert (high - exact) / exact <= x * x / 3.0
        assert (high - exact) / exact <= 1e-10

    def test_monotone_decreasing_in_temperature(self):
        values = [polarization_factor(P31[0], temp) for temp in np.linspace(1.0, 600.0, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestThermalState:
    def test_matches_polarization_diagonal(self):
        eps = polarization_factor(*P31)
        rho = thermal_state(*P31)
        np.testing.assert_allclose(rho, np.diag([(1 + eps) / 2, (1 - eps) / 2]), atol=1e-18)

    @pytest.mark.parametrize("temperature", [ROOM_TEMPERATURE_K, 4.2, 1e-3])
    def test_is_the_normalized_boltzmann_factor(self, temperature):
        # exp(-H / kB T) / Z for H = -hbar w_L IZ, by the matrix exponential.
        boltzmann = expm(HBAR * P31[0] / (KB * temperature) * IZ)
        want = boltzmann / np.trace(boltzmann)
        np.testing.assert_allclose(thermal_state(P31[0], temperature), want, rtol=0.0, atol=1e-15)

    def test_bloch_view(self):
        eps = polarization_factor(*P31)
        x, y, z = density_to_bloch(thermal_state(*P31))
        assert (x, y) == (0.0, 0.0)
        assert z == pytest.approx(eps, rel=1e-12)

    def test_infinite_temperature_limit(self):
        np.testing.assert_allclose(thermal_state(P31[0], 1e15), np.eye(2) / 2.0, atol=1e-15)

    def test_partition_function_near_two(self):
        z = partition_function(*P31)
        x = HBAR * P31[0] / (2.0 * KB * P31[1])
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

    def test_reference_identity_weight(self):
        eps = polarization_factor(*P31)
        weight, _ = pseudo_pure_decompose(thermal_state(*P31), eps)
        assert weight == pytest.approx(0.99998696, abs=1e-7)

    def test_recomposition_exact(self):
        eps = polarization_factor(*P31)
        rho = thermal_state(*P31)
        weight, rho0 = pseudo_pure_decompose(rho, eps)
        np.testing.assert_allclose(weight * I0 + eps * rho0, rho, atol=1e-12)

    def test_rejects_non_thermal_input(self):
        with pytest.raises(ValueError, match="thermal"):
            pseudo_pure_decompose(bloch_to_density((0.5, 0.0, 0.0)), 0.5)


class TestDeviationMatrix:
    def test_thermal_input_gives_iz(self):
        eps = polarization_factor(*P31)
        np.testing.assert_allclose(deviation_matrix(thermal_state(*P31), eps), IZ, atol=1e-12)

    def test_traceless(self):
        eps = polarization_factor(*P31)
        dev = deviation_matrix(thermal_state(*P31), eps)
        assert abs(np.trace(dev)) <= 1e-12

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError, match="positive"):
            deviation_matrix(I0.copy(), 0.0)

    def test_quarter_pulse_rotates_iz_to_ix(self):
        # Heisenberg sandwich with the pulse unitary, checked against expm.
        omega1 = OMEGA1
        t_r = (math.pi / 2.0) / omega1
        u = rotation_pulse(omega1, t_r)
        u_oracle = expm(1j * omega1 * t_r * IY)
        np.testing.assert_allclose(u, u_oracle, atol=1e-12)
        eps = polarization_factor(*P31)
        dev = deviation_matrix(thermal_state(*P31), eps)
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
        np.testing.assert_allclose(density_to_bloch(rho), [1.0, 0.0, 0.0], atol=1e-12)

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
            got = np.array(density_to_bloch(u.conj().T @ north @ u))
            want = np.array(coherent_bloch(field, t_r))
            assert np.max(np.abs(got - want)) <= 1e-10


class TestRotatingFrameField:
    """drive_field(omega1, phi, w_L - w_rf) is the field of the Bloch dynamics."""

    def test_on_resonance_reference_phase(self):
        field = drive_field(OMEGA1, 1.5 * math.pi, 0.0)
        assert abs(field.wx) <= 1e-9 * OMEGA1
        assert field.wy == pytest.approx(OMEGA1, rel=1e-12)
        assert field.wz == 0.0

    def test_opposite_phase_flips_sign(self):
        field = drive_field(OMEGA1, 0.5 * math.pi, 0.0)
        assert field.wy == pytest.approx(-OMEGA1, rel=1e-12)

    def test_detuning_enters_z_with_minus_sign(self):
        omega_larmor = P31[0]
        detuning = 2.0 * math.pi * 150.0
        omega_rf = omega_larmor - detuning
        field = drive_field(OMEGA1, 1.5 * math.pi, omega_larmor - omega_rf)
        assert field.wz == pytest.approx(-detuning, rel=1e-12)


def test_context_validation():
    bad = [(-1.0, 300.0), (0.0, 300.0), (1.0, 0.0), (1.0, -300.0), (math.nan, 300.0), (1.0, math.nan)]
    for omega_larmor, temperature in bad:
        for quantity in (thermal_argument, polarization_factor, partition_function, thermal_state):
            with pytest.raises(ValueError, match="must be positive"):
                quantity(omega_larmor, temperature)


def test_thermal_argument_is_inf_where_two_kt_underflows():
    assert thermal_argument(2.0 * math.pi * 1e6, 1e-320) == math.inf
    assert polarization_factor(2.0 * math.pi * 1e6, 1e-320) == 1.0
