import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nhbloch.analytic import (
    CoherentField,
    DecayModel,
    coherent_bloch,
    damped_bloch,
    g_root,
    gamma_coefficients,
)
from nhbloch.core import IX, IY, IZ, bloch_to_density, purity
from nhbloch.dynamics import (
    GammaOperator,
    Trajectory,
    effective_hamiltonian,
    field_matrix,
    integrate_bloch,
    integrate_density,
    max_deviation,
)

ZERO_LAMBDA = lambda t: (0.0, 0.0, 0.0)


def _numpy_rk4(rhs, step_at, y, times):
    """RK4 on numpy arrays, one provider call per use: the reference for _rk4."""
    out = [y]
    for t0, t1 in zip(times[:-1], times[1:]):
        t = t0
        while t < t1:
            h = min(step_at(t), t1 - t)
            half = 0.5 * h
            k1 = rhs(t, y)
            k2 = rhs(t + half, y + half * k1)
            k3 = rhs(t + half, y + half * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            t = t1 if h >= t1 - t else t + h
        out.append(y)
    return np.array(out)


def _numpy_step_at(field, rates):
    # The integrators' rule: 200 steps per field period, h * max|lambda_k| <= 0.01.
    base = (2.0 * math.pi / field.omega) / 200

    def step_at(t):
        rate = max(abs(v) for v in rates(t))
        return min(base, 0.01 / rate) if rate > 0.0 else base

    return step_at


def numpy_bloch(field, lam, r0, times):
    """Bloch form on numpy length-3 arrays; a provider call per use."""
    wx, wy, wz = field.wx, field.wy, field.wz

    def rhs(t, r):
        lx, ly, lz = lam(t)
        dot = lx * r[0] + ly * r[1] + lz * r[2]
        return np.array(
            [
                r[0] * dot + wy * r[2] - wz * r[1] - lx,
                r[1] * dot + wz * r[0] - wx * r[2] - ly,
                r[2] * dot + wx * r[1] - wy * r[0] - lz,
            ]
        )

    return _numpy_rk4(rhs, _numpy_step_at(field, lam), np.array(r0, dtype=float), times)


def numpy_density(field, gam, rho0, times):
    """Matrix form on numpy 2x2 arrays; returns the rho samples."""
    h_mat = field_matrix(field)

    def rhs(t, rho):
        g = gam(t).matrix
        shift = (
            g[0, 0] * rho[0, 0] + g[0, 1] * rho[1, 0] + g[1, 0] * rho[0, 1] + g[1, 1] * rho[1, 1]
        ).real
        g_shifted = g - shift * np.eye(2, dtype=complex)
        return -1j * (h_mat @ rho - rho @ h_mat) - (g_shifted @ rho + rho @ g_shifted)

    def rates(t):
        g = gam(t)
        return g.lx, g.ly, g.lz

    return _numpy_rk4(rhs, _numpy_step_at(field, rates), np.array(rho0, dtype=complex), times)


def _tuple_rk4(rhs, coefficients, y, times, base):
    """The generic tuple RK4 that once stepped both forms: the reference for the
    written-out steps. Same step control and provider reuse as the driver."""
    grid = times.tolist()
    states = [y]
    t = grid[0]
    c_time = c = None
    for t1 in grid[1:]:
        while t < t1:
            if c_time != t:
                c = coefficients(t)
            rate = max(abs(c[0]), abs(c[1]), abs(c[2]))
            h = min(base, 0.01 / rate) if rate > 0.0 else base
            h = min(h, t1 - t)
            half = 0.5 * h
            c_half = coefficients(t + half)
            c_time = t + h
            c_end = coefficients(c_time)
            k1 = rhs(c, y)
            k2 = rhs(c_half, tuple([a + half * b for a, b in zip(y, k1)]))
            k3 = rhs(c_half, tuple([a + half * b for a, b in zip(y, k2)]))
            k4 = rhs(c_end, tuple([a + h * b for a, b in zip(y, k3)]))
            w = h / 6.0
            y = tuple(
                [a + w * (b1 + 2.0 * (b2 + b3) + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            )
            c = c_end
            t = t1 if h >= t1 - t else c_time
        states.append(y)
    return np.array(states)


def tuple_bloch(field, lam, r0, times):
    """Bloch form on the tuple reference; returns the Bloch rows."""
    wx, wy, wz = field.wx, field.wy, field.wz

    def rhs(c, r):
        lx, ly, lz = c
        x, y, z = r
        dot = lx * x + ly * y + lz * z
        return (
            x * dot + wy * z - wz * y - lx,
            y * dot + wz * x - wx * z - ly,
            z * dot + wx * y - wy * x - lz,
        )

    base = (2.0 * math.pi / field.omega) / 200
    return _tuple_rk4(rhs, lam, tuple(r0), times, base)


def tuple_density(field, gam, rho0, times):
    """Matrix form on the tuple reference; returns the rho samples."""
    (h00, h01), (h10, h11) = field_matrix(field).tolist()

    def entries(t):
        g = gam(t)
        return (
            g.lx,
            g.ly,
            g.lz,
            complex(0.5 * g.lambda0 + 0.5 * g.lz),
            complex(0.5 * g.lx, -0.5 * g.ly),
            complex(0.5 * g.lx, 0.5 * g.ly),
            complex(0.5 * g.lambda0 - 0.5 * g.lz),
        )

    def rhs(c, rho):
        g00, g01, g10, g11 = c[3], c[4], c[5], c[6]
        r00, r01, r10, r11 = rho
        shift = (g00 * r00 + g01 * r10 + g10 * r01 + g11 * r11).real
        s00 = g00 - shift
        s11 = g11 - shift
        return (
            -1j * ((h00 * r00 + h01 * r10) - (r00 * h00 + r01 * h10))
            - ((s00 * r00 + g01 * r10) + (r00 * s00 + r01 * g10)),
            -1j * ((h00 * r01 + h01 * r11) - (r00 * h01 + r01 * h11))
            - ((s00 * r01 + g01 * r11) + (r00 * g01 + r01 * s11)),
            -1j * ((h10 * r00 + h11 * r10) - (r10 * h00 + r11 * h10))
            - ((g10 * r00 + s11 * r10) + (r10 * s00 + r11 * g10)),
            -1j * ((h10 * r01 + h11 * r11) - (r10 * h01 + r11 * h11))
            - ((g10 * r01 + s11 * r11) + (r10 * g01 + r11 * s11)),
        )

    base = (2.0 * math.pi / field.omega) / 200
    y = tuple(np.asarray(rho0, dtype=complex).ravel().tolist())
    return _tuple_rk4(rhs, entries, y, times, base).reshape(len(times), 2, 2)


class CountingProvider:
    """Damping provider that records every time it is asked for."""

    def __init__(self, field, decay):
        self.field, self.decay, self.times = field, decay, []

    def __call__(self, t):
        self.times.append(t)
        return gamma_coefficients(self.field, self.decay, t)


def _detuned_model():
    w1 = 2.0 * math.pi * 22245.3
    field = CoherentField(w1 * math.cos(2.0), w1 * math.sin(2.0), -2.0 * math.pi * 5000.0)
    return field, DecayModel(11.5 * 525.8, 525.8, 0.0653)


@pytest.fixture(scope="module")
def tpp_runs(tpp, grid_251):
    """One Bloch-form and one matrix-form integration of the benchmark."""
    lam = lambda t: gamma_coefficients(tpp.field, tpp.decay, t)
    gam = lambda t: GammaOperator(0.0, *lam(t))
    r0 = damped_bloch(tpp.field, tpp.decay, grid_251[0])
    traj_b = integrate_bloch(tpp.field, lam, r0, grid_251)
    traj_d = integrate_density(tpp.field, gam, bloch_to_density(r0), grid_251)
    exact = Trajectory(
        grid_251,
        np.array([list(damped_bloch(tpp.field, tpp.decay, t)) for t in grid_251]),
    )
    return traj_b, traj_d, exact


class TestGammaOperator:
    def test_zero_coefficients_give_zero_matrix(self):
        assert np.all(GammaOperator(0.0, 0.0, 0.0, 0.0).matrix == 0.0)

    def test_z_only(self):
        np.testing.assert_allclose(
            GammaOperator(0.0, 0.0, 0.0, 3.0).matrix, np.diag([1.5, -1.5]), atol=0
        )

    def test_matrix_is_hermitian(self):
        m = GammaOperator(0.1, 0.2, 0.3, 0.4).matrix
        assert np.max(np.abs(m - m.conj().T)) <= 1e-15

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coefficient(self, index, bad):
        values = [0.0, 1.0, -2.0, 0.5]
        values[index] = bad
        with pytest.raises(ValueError, match="damping coefficients must be finite"):
            GammaOperator(*values)

    def test_vanishes_at_damping_sign_change(self, tpp):
        t_star = g_root(tpp.decay)
        g = GammaOperator(0.0, *gamma_coefficients(tpp.field, tpp.decay, t_star))
        assert np.max(np.abs(g.matrix)) <= 1e-9 * tpp.decay.delta


class TestEffectiveHamiltonian:
    def test_zero_damping_reduces_to_field(self, tpp):
        rho = bloch_to_density((0.2, 0.1, 0.5))
        h_eff = effective_hamiltonian(tpp.field, GammaOperator(0.0, 0.0, 0.0, 0.0), rho)
        np.testing.assert_allclose(h_eff, field_matrix(tpp.field), atol=0)
        assert np.max(np.abs(h_eff - h_eff.conj().T)) <= 1e-12

    def test_maximally_mixed_state_kills_shift_for_traceless_damping(self, tpp):
        gamma = GammaOperator(0.0, 1.0, -2.0, 0.5)
        h_eff = effective_hamiltonian(tpp.field, gamma, np.eye(2) / 2.0)
        np.testing.assert_allclose(h_eff, field_matrix(tpp.field) - 1j * gamma.matrix, atol=1e-15)

    def test_matrix_and_bloch_drifts_agree(self, tpp):
        # d rho/dt from the non-Hermitian generator versus the component form.
        t = 100e-6
        r = damped_bloch(tpp.field, tpp.decay, t)
        rho = bloch_to_density(r)
        lam = gamma_coefficients(tpp.field, tpp.decay, t)
        gamma = GammaOperator(0.0, *lam)
        h_eff = effective_hamiltonian(tpp.field, gamma, rho)
        drho = -1j * (h_eff @ rho - rho @ h_eff.conj().T)

        x, y, z = r
        dot = lam[0] * x + lam[1] * y + lam[2] * z
        rhs = np.array(
            [
                x * dot + tpp.field.wy * z - tpp.field.wz * y - lam[0],
                y * dot + tpp.field.wz * x - tpp.field.wx * z - lam[1],
                z * dot + tpp.field.wx * y - tpp.field.wy * x - lam[2],
            ]
        )
        expected = rhs[0] * IX + rhs[1] * IY + rhs[2] * IZ
        scale = np.max(np.abs(drho))
        assert np.max(np.abs(drho - expected)) <= 1e-12 * scale

    def test_anti_hermitian_part_is_shifted_damping(self, tpp):
        t = 100e-6
        rho = bloch_to_density(damped_bloch(tpp.field, tpp.decay, t))
        gamma = GammaOperator(0.0, *gamma_coefficients(tpp.field, tpp.decay, t))
        h_eff = effective_hamiltonian(tpp.field, gamma, rho)
        anti = 0.5 * (h_eff - h_eff.conj().T)
        shift = np.trace(gamma.matrix @ rho).real
        np.testing.assert_allclose(anti, -1j * (gamma.matrix - shift * np.eye(2)), atol=1e-12)
        # The shifted operator has zero trace contribution in the drift.
        assert abs(np.trace(anti @ rho).real) <= 1e-12 * np.max(np.abs(anti))


class TestScalarRK4:
    @pytest.mark.parametrize(
        "t_max, samples, calls", [(500e-6, 251, 5323), (2e-3, 1001, 18823)]
    )
    @pytest.mark.parametrize("form", ["bloch", "density"])
    def test_one_provider_call_per_distinct_time(self, tpp, form, t_max, samples, calls):
        # Five calls per RK4 step would make 13,305 and 47,055 on these grids.
        times = np.linspace(1e-9, t_max, samples)
        lam = CountingProvider(tpp.field, tpp.decay)
        r0 = damped_bloch(tpp.field, tpp.decay, times[0])
        if form == "bloch":
            integrate_bloch(tpp.field, lam, r0, times)
        else:
            gam = lambda t: GammaOperator(0.0, *lam(t))
            integrate_density(tpp.field, gam, bloch_to_density(r0), times)
        assert len(lam.times) == len(set(lam.times)) == calls

    @pytest.mark.parametrize("model", ["tpp", "detuned"])
    def test_bloch_is_bit_identical_to_numpy_reference(self, tpp, grid_251, model):
        field, decay = (tpp.field, tpp.decay) if model == "tpp" else _detuned_model()
        lam = lambda t: gamma_coefficients(field, decay, t)
        r0 = damped_bloch(field, decay, grid_251[0])
        traj = integrate_bloch(field, lam, r0, grid_251)
        assert np.array_equal(traj.bloch, numpy_bloch(field, lam, np.array(r0), grid_251))

    @pytest.mark.parametrize("model", ["tpp", "detuned"])
    def test_density_matches_numpy_reference(self, tpp, grid_251, model):
        # numpy's 2x2 complex products go through BLAS, which may fuse
        # multiply-adds; the written-out scalar products round differently.
        # Over ~2,700 steps a random walk of ulp-level differences stays
        # below sqrt(2700) * eps ~ 1e-14.
        field, decay = (tpp.field, tpp.decay) if model == "tpp" else _detuned_model()
        gam = lambda t: GammaOperator(0.0, *gamma_coefficients(field, decay, t))
        rho0 = bloch_to_density(damped_bloch(field, decay, grid_251[0]))
        traj = integrate_density(field, gam, rho0, grid_251)
        assert np.max(np.abs(traj.rho - numpy_density(field, gam, rho0, grid_251))) <= 1e-14

    @pytest.mark.parametrize(
        "t_max, samples", [(500e-6, 251), (2e-3, 1001)], ids=["251", "2ms"]
    )
    @pytest.mark.parametrize("model", ["tpp", "detuned"])
    def test_bloch_is_bit_identical_to_tuple_reference(self, tpp, model, t_max, samples):
        field, decay = (tpp.field, tpp.decay) if model == "tpp" else _detuned_model()
        times = np.linspace(1e-9, t_max, samples)
        lam = lambda t: gamma_coefficients(field, decay, t)
        r0 = damped_bloch(field, decay, times[0])
        traj = integrate_bloch(field, lam, r0, times)
        assert np.array_equal(traj.bloch, tuple_bloch(field, lam, r0, times))

    @pytest.mark.parametrize(
        "t_max, samples", [(500e-6, 251), (2e-3, 1001)], ids=["251", "2ms"]
    )
    @pytest.mark.parametrize("model", ["tpp", "detuned"])
    def test_density_is_bit_identical_to_tuple_reference(self, tpp, model, t_max, samples):
        field, decay = (tpp.field, tpp.decay) if model == "tpp" else _detuned_model()
        times = np.linspace(1e-9, t_max, samples)
        gam = lambda t: GammaOperator(0.0, *gamma_coefficients(field, decay, t))
        rho0 = bloch_to_density(damped_bloch(field, decay, times[0]))
        traj = integrate_density(field, gam, rho0, times)
        assert np.array_equal(traj.rho, tuple_density(field, gam, rho0, times))

    def test_underflow_message(self):
        with pytest.raises(RuntimeError) as info:
            integrate_density(
                CoherentField(0.0, 1.0, 0.0),
                lambda t: GammaOperator(0.0, 0.0, 0.0, 1e300),
                bloch_to_density((0.0, 0.0, 1.0)),
                [1.0, 2.0],
            )
        assert str(info.value) == "integration step underflow at t = 1.0"


class TestIntegrateBloch:
    def test_zero_damping_matches_closed_form(self):
        # Step chosen so the h^4 phase error sits well below the 1e-8 bound.
        field = CoherentField(0.0, 2.0 * math.pi * 5000.0, 0.0)
        times = np.linspace(0.0, 1e-3, 41)
        traj = integrate_bloch(field, ZERO_LAMBDA, (0.0, 0.0, 1.0), times, step=2.5e-7)
        exact = np.array([list(coherent_bloch(field, t)) for t in times])
        assert np.max(np.abs(traj.bloch - exact)) <= 1e-8

    def test_benchmark_oracle_equivalence(self, tpp_runs):
        traj_b, _, exact = tpp_runs
        assert max_deviation(traj_b, exact).overall <= 1e-6

    def test_free_and_undriven_state_is_constant(self):
        field = CoherentField(0.0, 0.0, 0.0)
        times = np.linspace(0.0, 1.0, 11)
        traj = integrate_bloch(field, ZERO_LAMBDA, (0.1, 0.2, 0.3), times)
        assert np.max(np.abs(traj.bloch - traj.bloch[0])) == 0.0

    def test_against_independent_adaptive_oracle(self):
        field = CoherentField(0.0, 2.0 * math.pi * 5000.0, 0.0)
        decay = DecayModel(11.5 * 300.0, 300.0, 0.1)
        times = np.linspace(1e-6, 1e-3, 21)
        r0 = damped_bloch(field, decay, times[0])
        traj = integrate_bloch(field, lambda t: gamma_coefficients(field, decay, t), r0, times)

        def rhs(t, r):
            lx, ly, lz = gamma_coefficients(field, decay, t)
            dot = lx * r[0] + ly * r[1] + lz * r[2]
            return [
                r[0] * dot + field.wy * r[2] - lx,
                r[1] * dot - ly,
                r[2] * dot - field.wy * r[0] - lz,
            ]

        sol = solve_ivp(
            rhs, (times[0], times[-1]), np.array(r0), t_eval=times, rtol=1e-10, atol=1e-12
        )
        assert np.max(np.abs(traj.bloch - sol.y.T)) <= 1e-7

    def test_step_underflow_guard(self):
        field = CoherentField(0.0, 1.0, 0.0)
        with pytest.raises(RuntimeError, match="underflow at t"):
            integrate_bloch(
                field, lambda t: (1e300, 0.0, 0.0), (0.0, 0.0, 1.0), [1.0, 2.0]
            )

    def test_step_budget_refuses_long_horizon(self, tpp):
        # One second at the benchmark drive is ~4.4M base steps; refused before stepping.
        lam = CountingProvider(tpp.field, tpp.decay)
        with pytest.raises(RuntimeError) as info:
            integrate_bloch(tpp.field, lam, (0.0, 0.0, 1.0), [1e-9, 1.0])
        message = str(info.value)
        assert message.startswith("integrating to t = 1.0 s would take about 4.45e+06 RK4 steps")
        assert "budget of 1000000" in message and "--model analytic" in message
        assert lam.times == []

    def test_unphysical_start_is_reported(self):
        field = CoherentField(0.0, 1.0, 0.0)
        with pytest.raises(RuntimeError, match="Bloch ball"):
            integrate_bloch(field, ZERO_LAMBDA, (1.5, 0.0, 0.0), [0.0, 1.0])

    def test_convergence_is_fourth_order(self):
        # Frozen configuration; measured halving factors are ~16.9 and ~16.8.
        field = CoherentField(0.0, 1.0, 0.0)
        grid = np.linspace(0.0, 32.0, 9)
        exact = Trajectory(grid, np.array([list(coherent_bloch(field, t)) for t in grid]))
        errors = []
        for step in (0.5, 0.25, 0.125):
            traj = integrate_bloch(field, ZERO_LAMBDA, (0.0, 0.0, 1.0), grid, step=step)
            errors.append(max_deviation(traj, exact).overall)
        assert errors[0] / errors[1] >= 16.0
        assert errors[1] / errors[2] >= 16.0


class TestIntegrateDensity:
    def test_unitary_evolution_keeps_purity(self, tpp):
        # Step chosen so the h^5 scheme dissipation sits below the 1e-10 bound.
        times = np.linspace(0.0, 2e-4, 21)
        rho0 = bloch_to_density((0.3, 0.0, 0.4))
        gam = lambda t: GammaOperator(0.0, 0.0, 0.0, 0.0)
        traj = integrate_density(tpp.field, gam, rho0, times, step=8e-8)
        purities = np.array([purity(r) for r in traj.bloch])
        assert np.max(np.abs(purities - purities[0])) <= 1e-10

    def test_benchmark_matches_bloch_form(self, tpp_runs):
        traj_b, traj_d, _ = tpp_runs
        assert max_deviation(traj_b, traj_d).overall <= 1e-8

    def test_trace_and_hermiticity_preserved(self, tpp_runs):
        _, traj_d, _ = tpp_runs
        traces = np.einsum("nii->n", traj_d.rho).real
        assert np.max(np.abs(traces - 1.0)) <= 1e-10
        herm = np.max(np.abs(traj_d.rho - np.conj(np.swapaxes(traj_d.rho, 1, 2))))
        assert herm <= 1e-10

    def test_trace_and_hermiticity_on_random_models(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            field = CoherentField(*rng.uniform(-3e4, 3e4, size=3))
            mu = rng.uniform(100.0, 800.0)
            decay = DecayModel(rng.uniform(1.0, 15.0) * mu, mu, rng.uniform(0.0, 0.2))
            times = np.linspace(1e-9, 2e-4, 21)
            gam = lambda t: GammaOperator(0.0, *gamma_coefficients(field, decay, t))
            rho0 = bloch_to_density(damped_bloch(field, decay, times[0]))
            traj = integrate_density(field, gam, rho0, times)
            traces = np.einsum("nii->n", traj.rho).real
            assert np.max(np.abs(traces - 1.0)) <= 1e-10
            herm = np.max(np.abs(traj.rho - np.conj(np.swapaxes(traj.rho, 1, 2))))
            assert herm <= 1e-10

    def test_identity_only_damping_does_nothing(self, tpp):
        # The shift cancels the lambda0 part exactly, for any state.
        times = np.linspace(0.0, 1e-4, 11)
        gam = lambda t: GammaOperator(4.0e3, 0.0, 0.0, 0.0)
        for r0 in ((0.0, 0.0, 0.0), (0.2, -0.1, 0.4)):
            traj = integrate_density(CoherentField(0.0, 0.0, 0.0), gam, bloch_to_density(r0), times)
            assert np.max(np.abs(traj.bloch - traj.bloch[0])) <= 1e-9

    def test_purity_decreases_from_one_and_stays_mixed_side(self, tpp_runs):
        _, traj_d, _ = tpp_runs
        purities = 0.5 * (1.0 + np.sum(traj_d.bloch**2, axis=1))
        assert purities[0] > 0.999
        assert np.all(np.diff(purities) <= 1e-9)
        assert np.all(purities >= 0.5 - 1e-9)


class TestTrajectoryAndDeviation:
    def test_self_deviation_is_zero(self, tpp_runs):
        traj_b, _, _ = tpp_runs
        report = max_deviation(traj_b, traj_b)
        assert report.overall == 0.0
        assert report.max_abs == (0.0, 0.0, 0.0)

    def test_grid_mismatch_rejected(self):
        a = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 3)))
        b = Trajectory(np.array([0.0, 2.0]), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="grid"):
            max_deviation(a, b)

    def test_reports_location_of_worst_error(self):
        times = np.array([0.0, 1.0, 2.0])
        a = Trajectory(times, np.zeros((3, 3)))
        bad = np.zeros((3, 3))
        bad[1, 2] = 0.5
        b = Trajectory(times, bad)
        report = max_deviation(a, b)
        assert report.overall == 0.5
        assert report.overall_time == 1.0
        assert report.max_abs[2] == 0.5 and report.time_of_max[2] == 1.0

    def test_trajectory_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="shape"):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            Trajectory(np.array([0.0, 1.0]), np.full((2, 3), np.nan))
        with pytest.raises(ValueError, match="unit trace"):
            Trajectory(
                np.array([0.0, 1.0]),
                np.zeros((2, 3)),
                np.stack([np.eye(2), np.eye(2)]),
            )

    def test_trajectory_accessors(self):
        times = np.array([0.0, 1.0])
        traj = Trajectory(times, np.array([[0.0, 0.0, 1.0], [1.1, 0.0, 0.0]]))
        assert len(traj) == 2
