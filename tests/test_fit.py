import math

import numpy as np
import pytest

from nhbloch.analytic import CoherentField, DecayModel, damped_bloch, damping_provider, decay_f, trajectory
from nhbloch.core import Trajectory, bloch_to_density
from nhbloch.dynamics import fidelity_trace, integrate_bloch, integrate_density
from nhbloch.fit import (
    DegenerateJacobianError,
    _check_rank,
    _demodulate,
    _solve_damped,
    check_guess,
    check_record,
    check_resonance,
    default_initial_guess,
    fit_decay_model,
    residual_magnetization_stats,
    residuals,
)


def _series_from_model(field, decay, times, noise=None, seed=None):
    states = np.array([list(damped_bloch(field, decay, t)) for t in times])
    if noise is not None:
        rng = np.random.default_rng(seed)
        states = states + rng.normal(0.0, noise, states.shape)
    return Trajectory(times, states)


@pytest.fixture(scope="module")
def tpp_truth(tpp):
    return (tpp.decay.delta, tpp.decay.mu, tpp.decay.nu, tpp.omega1)


@pytest.fixture(scope="module")
def tpp_series(tpp):
    return _series_from_model(tpp.field, tpp.decay, np.linspace(0.0, 500e-6, 251))


class TestResiduals:
    def test_zero_on_generating_parameters(self, tpp_truth, tpp_series):
        assert np.max(np.abs(residuals(tpp_truth, tpp_series))) <= 1e-12

    def test_nu_perturbation_shifts_tail(self, tpp_truth, tpp_series):
        delta_nu = 0.01
        base = residuals(tpp_truth, tpp_series)
        moved = residuals(
            (tpp_truth[0], tpp_truth[1], tpp_truth[2] + delta_nu, tpp_truth[3]), tpp_series
        )
        n = len(tpp_series)
        change = np.hypot((moved - base)[:n], (moved - base)[n:])
        predicted = delta_nu * (-np.expm1(-tpp_truth[1] * tpp_series.times))
        np.testing.assert_allclose(change, predicted, atol=1e-14)

    def test_wrong_drive_frequency_accumulates_phase_error(self, tpp_truth, tpp_series, tpp):
        wrong = (tpp_truth[0], tpp_truth[1], tpp_truth[2], tpp_truth[3] * 1.01)
        r = residuals(wrong, tpp_series)
        n = len(tpp_series)
        # Normalize by the decay envelope: the phase drift grows with t.
        drift = np.hypot(r[:n], r[n:]) / decay_f(tpp.decay, tpp_series.times)
        third = n // 3
        rms = [float(np.sqrt(np.mean(drift[i * third : (i + 1) * third] ** 2))) for i in range(3)]
        assert rms[0] < rms[1] < rms[2]
        assert float(np.sqrt(np.mean(r**2))) > 1e-2

    def test_rejects_infeasible_parameters(self, tpp_series):
        with pytest.raises(ValueError):
            residuals((1.0, 2.0, 0.1, 1e5), tpp_series)  # delta below mu
        with pytest.raises(ValueError):
            residuals((2.0, 1.0, 1.2, 1e5), tpp_series)
        with pytest.raises(ValueError):
            residuals((2.0, 1.0, 0.1, -1e5), tpp_series)


class TestFit:
    def test_noiseless_round_trip(self, tpp_truth, tpp_series):
        res = fit_decay_model(tpp_series)
        assert res.converged
        for got, want in zip((res.delta, res.mu, res.nu, res.omega1), tpp_truth):
            assert got == pytest.approx(want, rel=1e-6)
        assert res.rms <= 1e-10
        assert res.my_rms <= 1e-12

    def test_round_trip_on_random_feasible_models(self):
        rng = np.random.default_rng(13)
        times = np.linspace(0.0, 500e-6, 251)
        for _ in range(5):
            omega1 = rng.uniform(0.5, 2.0) * 1.3e5
            mu = rng.uniform(200.0, 900.0)
            decay = DecayModel(rng.uniform(2.0, 20.0) * mu, mu, rng.uniform(0.01, 0.2))
            field = CoherentField(0.0, omega1, 0.0)
            series = _series_from_model(field, decay, times)
            res = fit_decay_model(series)
            assert res.converged
            assert res.delta == pytest.approx(decay.delta, rel=1e-6)
            assert res.mu == pytest.approx(decay.mu, rel=1e-6)
            assert res.nu == pytest.approx(decay.nu, rel=1e-6)
            assert res.omega1 == pytest.approx(omega1, rel=1e-6)

    def test_fixed_ratio_mode(self, tpp, tpp_truth, tpp_series):
        res = fit_decay_model(tpp_series, delta_mu_ratio=11.5)
        assert res.converged
        assert res.delta == pytest.approx(11.5 * res.mu, rel=1e-12)
        assert res.mu == pytest.approx(tpp_truth[1], rel=1e-8)
        assert res.nu == pytest.approx(tpp_truth[2], rel=1e-8)

    def test_noisy_medians_within_calibrated_tolerances(self, tpp, tpp_truth):
        times = np.linspace(0.0, 500e-6, 251)
        rels = []
        for seed in range(20):
            series = _series_from_model(tpp.field, tpp.decay, times, noise=0.01, seed=seed)
            res = fit_decay_model(series, delta_mu_ratio=11.5)
            assert res.converged
            est = (res.delta, res.mu, res.nu, res.omega1)
            rels.append([abs(e - t) / t for e, t in zip(est, tpp_truth)])
        med = np.median(np.array(rels), axis=0)
        assert med[0] <= 0.10  # delta
        assert med[1] <= 0.25  # mu
        assert med[2] <= 0.15  # nu
        assert med[3] <= 0.005  # omega1

    def test_objective_not_worse_than_guess(self, tpp, tpp_series):
        guess = default_initial_guess(tpp_series)
        guess_rms = math.sqrt(float(np.mean(residuals(guess, tpp_series) ** 2)))
        res = fit_decay_model(tpp_series, guess)
        assert res.rms <= guess_rms

    def test_scale_covariance(self, tpp, tpp_series):
        scale = 1000.0
        scaled = Trajectory(tpp_series.times * scale, tpp_series.bloch)
        a = fit_decay_model(tpp_series)
        b = fit_decay_model(scaled)
        assert a.delta / b.delta == pytest.approx(scale, rel=1e-6)
        assert a.mu / b.mu == pytest.approx(scale, rel=1e-6)
        assert a.omega1 / b.omega1 == pytest.approx(scale, rel=1e-6)
        assert a.nu == pytest.approx(b.nu, abs=1e-9)

    def test_standard_errors_positive_under_noise(self, tpp):
        times = np.linspace(0.0, 500e-6, 251)
        series = _series_from_model(tpp.field, tpp.decay, times, noise=0.01, seed=42)
        res = fit_decay_model(series, delta_mu_ratio=11.5)
        assert res.mu_err > 0.0 and res.nu_err > 0.0 and res.omega1_err > 0.0
        assert res.delta_err == pytest.approx(11.5 * res.mu_err, rel=1e-12)
        # Noise floor recovered by the residual rms.
        assert res.rms == pytest.approx(0.01, rel=0.15)

    def test_zero_record_raises_degenerate(self, tpp_series):
        series = Trajectory(tpp_series.times, np.zeros((len(tpp_series), 3)))
        with pytest.raises(DegenerateJacobianError):
            fit_decay_model(series)

    def test_my_rms_reports_structure_outside_model(self, tpp):
        times = np.linspace(0.0, 500e-6, 251)
        states = np.array([list(damped_bloch(tpp.field, tpp.decay, t)) for t in times])
        states[:, 1] = 0.05
        series = Trajectory(times, states)
        res = fit_decay_model(series)
        assert res.my_rms == pytest.approx(0.05, rel=1e-12)


def _envelope_series(times, delta, mu, nu, omega1):
    """Resonant record of the fit model itself; nu may lie outside [0, 1)."""
    f = np.exp(-delta * times) - nu * np.expm1(-mu * times)
    phase = omega1 * times
    bloch = np.column_stack([f * np.sin(phase), np.zeros_like(times), f * np.cos(phase)])
    return Trajectory(times, bloch)


class TestRotatingFrame:
    def test_cost_equals_lab_frame_cost(self, tpp, tpp_series):
        rng = np.random.default_rng(2024)
        times = tpp_series.times
        noisy = _series_from_model(tpp.field, tpp.decay, times, noise=0.05, seed=3)
        for series in (tpp_series, noisy):
            record = series.bloch[:, 2] + 1j * series.bloch[:, 0]
            for _ in range(50):
                mu = rng.uniform(50.0, 5000.0)
                delta, nu = mu * rng.uniform(1.0, 30.0), rng.uniform(0.0, 1.0)
                params = (delta, mu, nu, rng.uniform(0.5, 2.0) * tpp.omega1)
                _, p, q, a, b = _demodulate(record, times, delta, mu, params[3])
                r = p - a - nu * b
                lab = residuals(params, series)
                assert float(r @ r + q @ q) == pytest.approx(float(lab @ lab), rel=1e-13)

    def test_projected_nu_below_zero_returns_zero(self, tpp):
        times = np.linspace(0.0, 500e-6, 251)
        series = _envelope_series(times, tpp.decay.delta, tpp.decay.mu, -0.05, tpp.omega1)
        for ratio in (11.5, None):
            res = fit_decay_model(series, delta_mu_ratio=ratio)
            assert res.nu == 0.0

    @pytest.mark.parametrize("nu", [1.0, 1.2])
    def test_projected_nu_of_one_or_more_stays_below_one(self, tpp, nu):
        times = np.linspace(0.0, 500e-6, 251)
        series = _envelope_series(times, tpp.decay.delta, tpp.decay.mu, nu, tpp.omega1)
        for ratio in (11.5, None):
            res = fit_decay_model(series, delta_mu_ratio=ratio)
            assert 0.0 < res.nu < 1.0

    def test_noise_benchmark_free_fit_that_hit_nu_one(self, tpp):
        # fit_noise_benchmark.py's record at sigma 0.05, noise seed 13: the old
        # logistic nu rounded to 1.0 here and the free fit raised ValueError.
        times = np.linspace(0.0, 500e-6, 251)
        clean = trajectory(tpp.field, tpp.decay, times)
        noisy = clean + np.random.default_rng(13).normal(0.0, 0.05, clean.shape)
        res = fit_decay_model(Trajectory(times, noisy))
        assert 0.0 <= res.nu < 1.0


class TestInitialGuess:
    def test_within_twenty_percent_on_clean_benchmark(self, tpp_truth, tpp_series):
        guess = default_initial_guess(tpp_series)
        for got, want in zip(guess, tpp_truth):
            assert abs(got - want) / want <= 0.20

    def test_undamped_sinusoid(self, tpp):
        times = np.linspace(0.0, 500e-6, 251)
        series = Trajectory(
            times,
            np.column_stack([np.sin(tpp.omega1 * times), np.zeros(251), np.cos(tpp.omega1 * times)]),
        )
        delta, mu, nu, omega1 = default_initial_guess(series)
        assert delta <= 1e-4 * omega1  # essentially no decay detected
        assert nu >= 0.99
        assert omega1 == pytest.approx(tpp.omega1, rel=0.02)

    def test_a_record_silent_through_its_head_takes_the_delta_floor(self):
        # No envelope above 1e-12 in the first quarter leaves no slope to fit:
        # delta is the floor 1e-3 / span.
        times = np.linspace(0.0, 1e-3, 64)
        phase = 2.0 * math.pi * 5000.0 * times
        rows = np.column_stack([np.sin(phase), np.zeros(64), np.cos(phase)])
        rows[:20] = 0.0
        delta, mu, nu, omega1 = default_initial_guess(Trajectory(times, rows))
        assert delta == 1e-3 / (times[-1] - times[0]) == 1.0
        assert mu == delta / 11.5

    def test_flat_record_raises(self):
        times = np.linspace(0.0, 1.0, 32)
        with pytest.raises(DegenerateJacobianError, match="flat"):
            default_initial_guess(Trajectory(times, np.zeros((32, 3))))

    def test_ratio_must_be_at_least_one(self, tpp_series):
        with pytest.raises(ValueError, match="ratio"):
            default_initial_guess(tpp_series, delta_mu_ratio=0.5)


class TestFidelityTrace:
    def test_identical_trajectories_give_unity(self, tpp):
        times = np.linspace(0.0, 500e-6, 51)
        bloch = np.array([list(damped_bloch(tpp.field, tpp.decay, t)) for t in times])
        traj = Trajectory(times, bloch)
        np.testing.assert_allclose(fidelity_trace(traj, traj), 1.0, atol=1e-12)

    def test_against_maximally_mixed_closed_form(self, tpp):
        # Overlap with 1/2 identity is 1 / sqrt(1 + f(t)^2), by trace algebra.
        times = np.linspace(0.0, 500e-6, 51)
        bloch = np.array([list(damped_bloch(tpp.field, tpp.decay, t)) for t in times])
        theory = Trajectory(times, bloch)
        mixed = Trajectory(times, np.zeros((51, 3)))
        f = decay_f(tpp.decay, times)
        np.testing.assert_allclose(
            fidelity_trace(theory, mixed), 1.0 / np.sqrt(1.0 + f * f), atol=1e-12
        )

    def test_noisy_trajectory_dips_but_stays_high(self, tpp):
        times = np.linspace(0.0, 500e-6, 251)
        bloch = np.array([list(damped_bloch(tpp.field, tpp.decay, t)) for t in times])
        rng = np.random.default_rng(99)
        noisy = Trajectory(times, bloch + rng.normal(0.0, 0.01, bloch.shape))
        fid = fidelity_trace(Trajectory(times, bloch), noisy)
        assert np.min(fid) < 1.0 - 1e-9  # a finite dip exists
        assert np.min(fid) >= 0.98
        assert np.max(fid) <= 1.0 + 1e-12

    def test_grid_mismatch_rejected(self):
        a = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 3)))
        b = Trajectory(np.array([0.0, 2.0]), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="grid"):
            fidelity_trace(a, b)

    def test_uses_stored_density_matrices_when_present(self, tpp):
        times = np.linspace(0.0, 1e-4, 9)
        bloch = np.array([list(damped_bloch(tpp.field, tpp.decay, t)) for t in times])
        rho = np.stack([bloch_to_density(b) for b in bloch])
        with_rho = Trajectory(times, bloch, rho)
        np.testing.assert_allclose(
            fidelity_trace(with_rho, Trajectory(times, bloch)), 1.0, atol=1e-12
        )

    def test_matches_density_matrix_path(self, tpp, matrix_fidelity_trace):
        # Tr[rho_a rho_b] = (1 + ra.rb) / 2 in this basis; the row-wise form
        # may differ from the matrix products in the last bits only.
        times = np.linspace(0.0, 500e-6, 251)
        bloch = np.array([list(damped_bloch(tpp.field, tpp.decay, t)) for t in times])
        rng = np.random.default_rng(7)
        theory = Trajectory(times, bloch)
        pairs = [
            (theory, Trajectory(times, bloch + rng.normal(0.0, 0.05, bloch.shape))),
            (theory, Trajectory(times, np.zeros_like(bloch))),
            (Trajectory(times, rng.uniform(-0.5, 0.5, bloch.shape)), theory),
            (Trajectory(times, bloch, np.stack([bloch_to_density(b) for b in bloch])), theory),
        ]
        for a, b in pairs:
            assert np.max(np.abs(fidelity_trace(a, b) - matrix_fidelity_trace(a, b))) <= 1e-15

    @staticmethod
    def ode_runs(tpp, t_max, samples):
        """The closed form and both ODE forms on one grid, as compare builds them."""
        times = np.linspace(1e-9, t_max, samples)
        provider, r0 = damping_provider(tpp.field, tpp.decay), damped_bloch(tpp.field, tpp.decay, times[0])
        exact = Trajectory(times, trajectory(tpp.field, tpp.decay, times))
        bloch = integrate_bloch(tpp.field, provider, r0, times)
        density = integrate_density(tpp.field, provider, bloch_to_density(r0), times)
        return exact, Trajectory(times, bloch.bloch), Trajectory(times, density.bloch)

    def test_infidelity_against_a_50_digit_reference(self, tpp):
        # An ODE cross-check's 1 - F runs from 0 to about 2e-14, where N / D
        # has a relative error of up to 3e4; the cancellation-free form stays
        # within 5e-16 on these rows. The rows also hold a noisy record (1 - F
        # up to 1e-3), random states inside and outside the ball, and
        # antiparallel ones with N <= 0.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        exact, bloch, density = self.ode_runs(tpp, 500e-6, 251)
        rng = np.random.default_rng(15)
        u, v = rng.normal(size=(2, 200, 3)) * rng.uniform(0.0, 1.5, (2, 200, 1))
        far = np.array([[1e8, 0.0, 0.0], [3.0, 4.0, 0.0], [0.5, 0.2, 0.1]])
        near = np.array([[-1e8, 1.0, 0.0], [-3.0, -4.0, 1e-3], [-0.5, -0.2, -0.1]])
        noisy = exact.bloch + rng.normal(0.0, 0.01, exact.bloch.shape)
        rows_a = np.concatenate((exact.bloch, exact.bloch, exact.bloch, u, far))
        rows_b = np.concatenate((bloch.bloch, density.bloch, noisy, v, near))
        times = np.arange(float(len(rows_a)))
        loss = fidelity_trace(Trajectory(times, rows_a), Trajectory(times, rows_b), complement=True)
        for got, ra, rb in zip(loss.tolist(), rows_a.tolist(), rows_b.tolist()):
            ra, rb = [mpmath.mpf(x) for x in ra], [mpmath.mpf(x) for x in rb]
            overlap = 1 + sum(x * y for x, y in zip(ra, rb))
            norm = mpmath.sqrt((1 + sum(x * x for x in ra)) * (1 + sum(y * y for y in rb)))
            want = 1 - overlap / norm
            assert abs(got - want) <= 2e-15 * abs(want)

    @pytest.mark.parametrize("t_max, samples", [(500e-6, 251), (2e-3, 1001)], ids=["251", "2ms"])
    def test_least_fidelity_time_is_stable_under_rounding(self, tpp, t_max, samples):
        # Where compare reports the least fidelity of an ODE cross-check must
        # not hinge on the last bits of the states: a 1e-15 relative
        # perturbation of either trajectory keeps its sample.
        runs = self.ode_runs(tpp, t_max, samples)
        rng = np.random.default_rng(1)
        for ode in runs[1:]:
            at = np.argmax(fidelity_trace(runs[0], ode, complement=True))
            for _ in range(5):
                for a, b in ((runs[0], ode), (ode, runs[0])):
                    moved = Trajectory(a.times, a.bloch * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, a.bloch.shape)))
                    assert np.argmax(fidelity_trace(moved, b, complement=True)) == at


class TestResidualMagnetizationStats:
    def test_reference_pair(self):
        from decimal import ROUND_HALF_UP, Decimal

        mean, half = residual_magnetization_stats([6.53e-2, 5.82e-2])
        assert mean == pytest.approx(6.175, abs=1e-12)
        assert half == pytest.approx(0.355, abs=1e-12)
        # Quantize at the input precision, then report at two decimals.
        round2 = lambda x: Decimal(f"{x:.6f}").quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
        assert round2(mean) == Decimal("6.18")
        assert round2(half) == Decimal("0.36")

    def test_identical_fits_have_zero_spread(self):
        mean, half = residual_magnetization_stats([0.05, 0.05, 0.05])
        assert mean == pytest.approx(5.0)
        assert half == 0.0

    def test_half_range_definition(self):
        _, half = residual_magnetization_stats([0.04, 0.04 + 2 * 0.007])
        assert half == pytest.approx(0.7)

    def test_needs_two_fits(self):
        with pytest.raises(ValueError, match="two"):
            residual_magnetization_stats([0.05])


class TestSeriesValidation:
    """A record is a Trajectory; check_record adds the fit's own demands."""

    def test_minimum_length(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="8 samples"):
            check_record(Trajectory(t, np.zeros((5, 3))))

    def test_monotone_times(self):
        t = np.zeros(10)
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(t, np.zeros((10, 3)))

    def test_component_sanity_bound(self):
        t = np.linspace(0.0, 1.0, 10)
        bloch = np.zeros((10, 3))
        bloch[:, 0] = 2.0
        with pytest.raises(ValueError, match=r"\|mx\| = 2\.000 exceeds the sanity bound 1\.5"):
            check_record(Trajectory(t, bloch))

    def test_rejects_non_finite(self):
        t = np.linspace(0.0, 1.0, 10)
        bad = np.zeros((10, 3))
        bad[3, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Trajectory(t, bad)

    @pytest.mark.parametrize("entry", [fit_decay_model, default_initial_guess])
    def test_fit_entry_points_check_the_record(self, entry):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="8 samples"):
            entry(Trajectory(t, np.zeros((5, 3))))

    @pytest.mark.parametrize("with_guess", [False, True])
    def test_fit_checks_the_record_once(self, tpp_truth, tpp_series, monkeypatch, with_guess):
        from nhbloch import fit

        calls = []
        check = fit.check_record
        monkeypatch.setattr(fit, "check_record", lambda series: calls.append(series) or check(series))
        fit_decay_model(tpp_series, tpp_truth if with_guess else None, delta_mu_ratio=11.5)
        assert calls == [tpp_series]

    @pytest.mark.parametrize(
        "times",
        [np.linspace(0.0, 1e-320, 10), np.linspace(0.0, 1e151, 10), np.linspace(-1e151, 0.0, 10)],
        ids=["subnormal-span", "late", "early"],
    )
    def test_time_scale(self, times):
        bloch = np.tile([0.0, 0.0, 1.0], (10, 1))
        with pytest.raises(ValueError) as info:
            check_record(Trajectory(times, bloch))
        first, last = float(times[0]), float(times[-1])
        assert str(info.value) == (
            f"the times run from {first!r} to {last!r} s;"
            " the fit needs |t| <= 1e+150 s and a span of at least 1e-150 s"
        )

    def test_times_before_zero(self):
        # After the time-scale rule, so that an early record out of scale keeps its message.
        times = np.linspace(-1e-3, 1e-3, 10)
        with pytest.raises(ValueError) as info:
            check_record(Trajectory(times, np.tile([0.0, 0.0, 1.0], (10, 1))))
        assert str(info.value) == (
            "the times start at t = -0.001 s; the decay f(t) holds for t >= 0 only (|r| > 1 before t = 0)"
        )


class TestRefusalsByMessage:
    """The fit's internal refusals, each by its own message."""

    # DecayModel states the rules on (delta, mu, nu), in its own messages. Each
    # id names the rule the case breaks, so it stays when a message is reworded.
    @pytest.mark.parametrize(
        "params, message",
        [
            ((math.nan, 1.0, 0.1, 1.0), "decay parameters must be finite, got delta = nan, mu = 1.0, nu = 0.1"),
            ((2.0, 1.0, math.inf, 1.0), "decay parameters must be finite, got delta = 2.0, mu = 1.0, nu = inf"),
            ((2.0, 1.0, 1.5, 1.0), "residual radius nu = 1.5 must lie in [0, 1)"),
            ((2.0, 1.0, -0.1, 1.0), "residual radius nu = -0.1 must lie in [0, 1)"),
        ],
        ids=[
            "params0-parameters must be finite",
            "params1-parameters must be finite",
            "params2-nu=1.5 outside [0, 1)",
            "params3-nu=-0.1 outside [0, 1)",
        ],
    )
    def test_infeasible_parameters(self, tpp_series, params, message):
        with pytest.raises(ValueError) as info:
            residuals(params, tpp_series)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "params, ratio, message",
        [
            ((math.nan, 1.0, 0.1, 1e5), None, "non-finite Jacobian"),
            ((1e3, 1e3, 0.1, 1e5), None, "design matrix is numerically rank deficient"),
        ],
    )
    def test_rank_check_at_the_start(self, tpp_series, params, ratio, message):
        times, record = tpp_series.times, tpp_series.bloch[:, 2] + 1j * tpp_series.bloch[:, 0]
        frame = _demodulate(record, times, params[0], params[1], params[3])
        with pytest.raises(DegenerateJacobianError) as info:
            _check_rank(params, times, ratio, frame)
        assert str(info.value) == message

    def test_free_guess_whose_ratio_overflows(self, tpp_series):
        with pytest.raises(ValueError) as info:
            fit_decay_model(tpp_series, (1e308, 1e-300, 0.1, 1e5))
        assert str(info.value) == "delta / mu overflows, got delta=1e+308, mu=1e-300"

    def test_ratio_below_one_with_a_guess(self, tpp_truth, tpp_series):
        with pytest.raises(ValueError) as info:
            fit_decay_model(tpp_series, tpp_truth, delta_mu_ratio=0.5)
        assert str(info.value) == "delta_mu_ratio must be at least 1"

    def test_ratio_below_one_in_the_guess(self, tpp_series):
        with pytest.raises(ValueError) as info:
            default_initial_guess(tpp_series, delta_mu_ratio=0.5)
        assert str(info.value) == "delta_mu_ratio must be at least 1"

    def test_ratio_below_one_is_refused_before_the_record_is_read(self):
        # A flat record would fail on its missing oscillation peak.
        flat = Trajectory(np.linspace(0.0, 1.0, 10), np.zeros((10, 3)))
        with pytest.raises(ValueError) as info:
            default_initial_guess(flat, delta_mu_ratio=0.5)
        assert str(info.value) == "delta_mu_ratio must be at least 1"

    def test_ratio_zero_without_a_guess(self, tpp_series):
        # The initial guess is made at the default ratio 11.5; check_guess then refuses the pin.
        with pytest.raises(ValueError) as info:
            fit_decay_model(tpp_series, delta_mu_ratio=0.0)
        assert str(info.value) == "delta_mu_ratio must be at least 1"

    def test_non_finite_normal_equations_mid_fit(self, tpp_truth, tpp_series, monkeypatch):
        # A start that passes the rank check keeps the Gram matrix finite on
        # records like this one, so a non-finite one is stood in for.
        from nhbloch import fit

        monkeypatch.setattr(fit, "_normal_equations", lambda *args: ([[math.inf, 0.0], [0.0, 1.0]], [0.0, 0.0]))
        with pytest.raises(DegenerateJacobianError) as info:
            fit_decay_model(tpp_series, tpp_truth, delta_mu_ratio=11.5)
        assert str(info.value) == "non-finite Jacobian"


class TestGuessRule:
    """check_guess at the edges a user can type with --guess."""

    # Each id names the rule the case breaks, so it stays when a message is reworded.
    @pytest.mark.parametrize(
        "guess, ratio, message",
        [
            ((2.0, 1.0, 0.1, 0.0), None, "omega1=0.0 must be positive and finite"),
            ((2.0, 1.0, 1.0, 1e5), None, "residual radius nu = 1.0 must lie in [0, 1)"),
            ((1.0, 2.0, 0.1, 1e5), 0.5, "delta = 1.0 must not be below mu = 2.0"),  # feasibility first
            ((2.0, 1.0, 0.1, 1e5), 1.0 - 2.0**-53, "delta_mu_ratio must be at least 1"),
        ],
        ids=[
            "guess0-None-omega1=0.0 must be positive",
            "guess1-None-nu=1.0 outside [0, 1)",
            "guess2-0.5-need delta >= mu > 0, got delta=1.0, mu=2.0",
            "guess3-0.9999999999999999-delta_mu_ratio must be at least 1",
        ],
    )
    def test_refused(self, guess, ratio, message):
        with pytest.raises(ValueError) as info:
            check_guess(guess, ratio)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "guess, ratio",
        [((2.0, 1.0, 0.0, 1e5), None), ((1.0, 1.0, 0.1, 1e5), None), ((1.0, 1.0, 0.1, 1e5), 1.0)],
        ids=["nu-zero", "delta-equals-mu", "ratio-one"],
    )
    def test_accepted(self, guess, ratio):
        assert check_guess(guess, ratio) is None


class TestResonanceRule:
    @pytest.mark.parametrize("samples", [251, 3 * 8192 + 5])
    def test_signal_in_my_is_refused(self, tpp, samples):
        # The longer record's power is summed over blocks of 8192 samples.
        times = np.linspace(0.0, 500e-6, samples)
        bloch = trajectory(tpp.field, tpp.decay, times)
        bloch[:, 1] = 0.3 * np.sin(tpp.omega1 * times)
        with pytest.raises(ValueError) as info:
            check_resonance(Trajectory(times, bloch))
        rms = math.sqrt(float(np.mean(bloch[:, 1] ** 2)))
        assert str(info.value).startswith(f"m_y carries signal (rms {rms:.3g}, von Neumann z = ")


class TestDampedSolve:
    """_solve_damped's pivot checks, reached directly."""

    @staticmethod
    def system(n, position, pivot):
        """A system whose pivot at ``position`` is ``pivot`` and whose earlier pivots are 1.

        Half of each diagonal entry is in the shift, so that leaving out a shift changes a pivot.
        """
        normal = [[0.5 if i == j else 0.0 for j in range(n)] for i in range(n)]
        normal[position][position] = pivot - 0.5
        if position:
            normal[position][position] += 1.0  # the coupling to the row above takes 1 back off
            normal[position - 1][position] = normal[position][position - 1] = 1.0
        return tuple(map(tuple, normal)), (0.5,) * n, (1.0,) * n

    @pytest.mark.parametrize("pivot", [0.0, -1.0])
    @pytest.mark.parametrize("n, position", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_non_positive_pivot_gives_none(self, n, position, pivot):
        assert _solve_damped(*self.system(n, position, pivot)) is None

    @pytest.mark.parametrize("n, position", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_positive_pivot_solves(self, n, position):
        normal, shift, rhs = self.system(n, position, 2.0**-20)
        expected = np.linalg.solve(np.array(normal) + np.diag(shift), rhs)
        np.testing.assert_allclose(_solve_damped(normal, shift, rhs), expected, rtol=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_positive_definite_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        factor = rng.normal(size=(n + 2, n))
        normal, shift, rhs = factor.T @ factor, rng.uniform(0.1, 1.0, n), rng.normal(size=n)
        step = _solve_damped(tuple(map(tuple, normal.tolist())), tuple(shift), tuple(rhs))
        np.testing.assert_allclose(step, np.linalg.solve(normal + np.diag(shift), rhs), rtol=1e-12)


class TestRejectedTrialSteps:
    """The LM loop's two trial-step rejections, each stood in for on a clean record.

    A rejected step raises the damping tenfold and the loop tries again, so
    the fit still converges and the next damped solve gets ten times the shift.
    """

    @staticmethod
    def solve_shifts(monkeypatch, *, first_pivot_fails):
        """The first diagonal shift of each damped solve, in call order."""
        from nhbloch import fit

        shifts, solve = [], fit._solve_damped

        def stand_in(normal, shift, rhs):
            shifts.append(shift[0])
            return None if first_pivot_fails and len(shifts) == 1 else solve(normal, shift, rhs)

        monkeypatch.setattr(fit, "_solve_damped", stand_in)
        return shifts

    def test_non_positive_pivot(self, tpp_truth, tpp_series, monkeypatch):
        shifts = self.solve_shifts(monkeypatch, first_pivot_fails=True)
        assert fit_decay_model(tpp_series, tpp_truth, delta_mu_ratio=11.5).converged
        assert shifts[1] / shifts[0] == pytest.approx(10.0, rel=1e-15)

    def test_overflowing_trial_step(self, tpp_truth, tpp_series, monkeypatch):
        from nhbloch import fit

        shifts = self.solve_shifts(monkeypatch, first_pivot_fails=False)
        calls, project = [], fit._project

        def stand_in(record, times, theta, ratio):
            calls.append(theta)
            if len(calls) == 2:  # the first trial step; the first call evaluates the start
                raise OverflowError("math range error")
            return project(record, times, theta, ratio)

        monkeypatch.setattr(fit, "_project", stand_in)
        assert fit_decay_model(tpp_series, tpp_truth, delta_mu_ratio=11.5).converged
        assert shifts[1] / shifts[0] == pytest.approx(10.0, rel=1e-15)

    @pytest.mark.parametrize("ratio", [11.5, None])
    def test_no_step_accepted_at_any_damping(self, tpp_truth, tpp_series, monkeypatch, ratio):
        # Every trial step goes uphill: the damping climbs tenfold from 1e-3
        # past 1e15 without an accepted step, and the fit stops at its start,
        # labelled converged on the first iteration.
        from nhbloch import fit

        starts, costs, project = [], [], fit._project

        def stand_in(record, times, theta, ratio):
            params, cost, frame = project(record, times, theta, ratio)
            starts.append(params)
            costs.append(cost if len(starts) == 1 else 2.0 * cost + 1.0)
            return params, costs[-1], frame

        monkeypatch.setattr(fit, "_project", stand_in)
        res = fit_decay_model(tpp_series, tpp_truth, delta_mu_ratio=ratio)
        assert (res.iterations, res.converged) == (1, True)
        assert len(starts) == 1 + 18  # the start, then one trial per damping 1e-3 ... 1e14
        assert (res.delta, res.mu, res.nu, res.omega1) == starts[0]
        assert res.rms == math.sqrt(costs[0] / (2 * len(tpp_series)))
