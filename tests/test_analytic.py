import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhbloch.analytic import (
    CoherentField,
    DecayModel,
    coherent_bloch,
    damped_bloch,
    damping_provider,
    decay_f,
    g_root,
    gamma_coefficients,
    purity_closed_form,
    trajectory,
)

fields = st.builds(
    CoherentField,
    st.floats(-1e5, 1e5),
    st.floats(-1e5, 1e5),
    st.floats(-1e5, 1e5),
)

decay_models = st.builds(
    lambda mu, ratio, nu: DecayModel(ratio * mu, mu, nu),
    st.floats(1.0, 1e4),
    st.floats(1.0, 50.0),
    st.floats(0.0, 0.3),
)


def _g(model, t):
    """The provider's g(t): its lambda_z on the zero field, whose r0 is the north pole."""
    return damping_provider(CoherentField(0.0, 0.0, 0.0), model)(t)[2]


def _bloch_rhs(field, lam, r):
    lx, ly, lz = lam
    dot = lx * r[0] + ly * r[1] + lz * r[2]
    return np.array(
        [
            r[0] * dot + field.wy * r[2] - field.wz * r[1] - lx,
            r[1] * dot + field.wz * r[0] - field.wx * r[2] - ly,
            r[2] * dot + field.wx * r[1] - field.wy * r[0] - lz,
        ]
    )


class TestCoherentBloch:
    def test_pure_y_drive_is_planar_rotation(self):
        w1 = 2.0 * math.pi * 1000.0
        field = CoherentField(0.0, w1, 0.0)
        for t in (0.0, 1e-4, 3.7e-4, 1e-3):
            x, y, z = coherent_bloch(field, t)
            assert x == pytest.approx(math.sin(w1 * t), abs=1e-14)
            assert y == 0.0
            assert z == pytest.approx(math.cos(w1 * t), abs=1e-14)

    def test_initial_state_is_north_pole(self):
        assert tuple(coherent_bloch(CoherentField(12.0, -5.0, 3.0), 0.0)) == (0.0, 0.0, 1.0)

    def test_pythagorean_effective_frequency(self):
        assert CoherentField(3.0, 4.0, 0.0).omega == 5.0

    def test_zero_field_stays_put(self):
        assert tuple(coherent_bloch(CoherentField(0.0, 0.0, 0.0), 123.0)) == (0.0, 0.0, 1.0)

    @settings(max_examples=100)
    @given(fields, st.floats(0.0, 0.1))
    def test_norm_conserved(self, field, t):
        assert math.hypot(*coherent_bloch(field, t)) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=50)
    @given(fields, st.floats(0.0, 0.1))
    def test_period(self, field, t):
        if field.omega < 1e-2:
            return
        period = 2.0 * math.pi / field.omega
        a = np.array(coherent_bloch(field, t))
        b = np.array(coherent_bloch(field, t + period))
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_satisfies_coherent_ode(self):
        field = CoherentField(2.0e4, -1.3e5, 7.0e3)
        h = 1e-9 * 2.0 * math.pi / field.omega
        for t in (1e-5, 7.3e-5, 4.1e-4):
            fd = (
                np.array(coherent_bloch(field, t + h)) - np.array(coherent_bloch(field, t - h))
            ) / (2.0 * h)
            rhs = _bloch_rhs(field, (0.0, 0.0, 0.0), np.array(coherent_bloch(field, t)))
            assert np.linalg.norm(fd - rhs) <= 1e-5 * np.linalg.norm(rhs)


class TestDecayFunctions:
    def test_f_starts_at_one(self, tpp):
        assert decay_f(tpp.decay, 0.0) == 1.0

    def test_f_long_time_limit(self, tpp):
        t = 20.0 / tpp.decay.mu
        assert decay_f(tpp.decay, t) == pytest.approx(tpp.decay.nu, abs=1e-8)

    def test_f_at_window_end(self, tpp):
        # Direct evaluation with the benchmark rates at t = 500 us.
        f = decay_f(tpp.decay, 500e-6)
        assert f == pytest.approx(0.0637324928652201, abs=1e-13)
        assert f == pytest.approx(0.0638, abs=1e-4)

    @pytest.mark.filterwarnings("error")
    def test_f_when_delta_t_overflows(self):
        # delta * t = 1e453 overflows to inf, and exp(-inf) = 0 is the value.
        model = DecayModel(1e303, 1e3, 0.25)
        np.testing.assert_array_equal(decay_f(model, np.array([0.0, 1e150])), [1.0, 0.25])

    @settings(max_examples=100)
    @given(decay_models, st.floats(0.0, 10.0))
    def test_f_bounded(self, model, t_scaled):
        t = t_scaled / model.mu
        f = decay_f(model, t)
        assert 0.0 < f <= 1.0

    def test_g_rejects_nonpositive_time(self, tpp):
        with pytest.raises(ValueError, match="t > 0"):
            _g(tpp.decay, 0.0)
        with pytest.raises(ValueError, match="t > 0"):
            _g(tpp.decay, -1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "decay, t",
        [
            (DecayModel(5e-324, 5e-324, 0.999), 1e-9),
            (DecayModel(5e-324, 5e-324, 0.999), 1.5),
            (DecayModel(1.5e-323, 1e-323, 0.9), 0.75),
        ],
    )
    def test_g_where_one_minus_f_underflows_is_the_small_time_limit(self, decay, t):
        # 1 - f rounds to 0, and g takes its limit 1/(2t).
        assert _g(decay, t) == 0.5 / t

    def test_g_small_time_divergence(self, tpp):
        # g ~ 1/(2t) toward the origin.
        for t in (1e-9 / tpp.decay.delta, 1e-8 / tpp.decay.delta, 1e-6 / tpp.decay.delta):
            assert 2.0 * t * _g(tpp.decay, t) == pytest.approx(1.0, abs=1e-6)

    def test_g_satisfies_defining_constraint(self, tpp):
        # g * (f^2 - 1) = f' at randomized times.
        rng = np.random.default_rng(3)
        d = tpp.decay
        t = 10.0 ** rng.uniform(-8, math.log10(20.0 / d.mu), size=1000)
        f = decay_f(d, t)
        fprime = -d.delta * np.exp(-d.delta * t) + d.nu * d.mu * np.exp(-d.mu * t)
        lhs = np.array([_g(d, v) for v in t]) * (f * f - 1.0)
        assert np.max(np.abs(lhs - fprime) / np.maximum(np.abs(fprime), 1e-300)) <= 1e-10

    def test_g_root_needs_a_residual_radius(self):
        with pytest.raises(ValueError) as info:
            g_root(DecayModel(2.0, 1.0, 0.0))
        assert str(info.value) == "g never vanishes for nu = 0"

    def test_g_sign_change_matches_bisection(self, tpp):
        d = tpp.decay
        t_star = g_root(d)
        lo, hi = 1e-6, 5e-3
        assert _g(d, lo) > 0.0 > _g(d, hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _g(d, mid) > 0.0:
                lo = mid
            else:
                hi = mid
        assert t_star == pytest.approx(0.5 * (lo + hi), rel=1e-10)
        assert abs(_g(d, t_star)) <= 1e-9 * d.delta


class TestDampedBloch:
    def test_initial_state(self, tpp):
        assert tuple(damped_bloch(tpp.field, tpp.decay, 0.0)) == (0.0, 0.0, 1.0)

    def test_components_are_enveloped_rotation(self, tpp):
        for t in (2e-6, 5e-5, 2.1e-4, 5e-4):
            x, y, z = damped_bloch(tpp.field, tpp.decay, t)
            f = decay_f(tpp.decay, t)
            assert x == pytest.approx(f * math.sin(tpp.omega1 * t), abs=1e-13)
            assert abs(y) <= 1e-12
            assert z == pytest.approx(f * math.cos(tpp.omega1 * t), abs=1e-13)

    def test_norm_equals_envelope(self, tpp):
        for t in (1e-6, 1e-4, 1e-3):
            r = damped_bloch(tpp.field, tpp.decay, t)
            assert math.hypot(*r) == pytest.approx(decay_f(tpp.decay, t), abs=1e-12)

    def test_long_time_residual_oscillation(self, tpp):
        t = 20.0 / tpp.decay.mu
        r = np.array(damped_bloch(tpp.field, tpp.decay, t))
        ref = tpp.decay.nu * np.array(coherent_bloch(tpp.field, t))
        assert np.max(np.abs(r - ref)) <= 1e-8

    def test_satisfies_nonlinear_ode(self, tpp):
        field, d = tpp.field, tpp.decay
        h = 1e-9 * 2.0 * math.pi / field.omega
        for t in (1e-3 / d.delta, 5e-5, 3.3e-4):
            fd = (
                np.array(damped_bloch(field, d, t + h)) - np.array(damped_bloch(field, d, t - h))
            ) / (2.0 * h)
            rhs = _bloch_rhs(field, gamma_coefficients(field, d, t), np.array(damped_bloch(field, d, t)))
            assert np.linalg.norm(fd - rhs) <= 1e-5 * np.linalg.norm(rhs)


def _drive(omega1, phi=1.5, detuning_hz=0.0):
    """Rotating-frame field of a pulse of phase phi (units of pi), as the CLI builds it."""
    phase = math.pi * phi + math.pi
    return CoherentField(
        omega1 * math.cos(phase), omega1 * math.sin(phase), -2.0 * math.pi * detuning_hz
    )


KERNEL_FIELDS = {
    "resonant": lambda w1: _drive(w1),
    "phi-1.0": lambda w1: _drive(w1, phi=1.0),
    "detuned-5khz": lambda w1: _drive(w1, detuning_hz=5000.0),
    "odd": lambda w1: CoherentField(12.0, -5.0, 3.0),
    "zero": lambda w1: CoherentField(0.0, 0.0, 0.0),
}


class TestTrajectoryKernel:
    """The array kernel against a loop over the scalar reference functions.

    The kernel keeps the scalar operation order, but numpy's vectorized sin
    and exp may round differently from the scalar calls in the last bit, so
    the tolerance is fixed at 1e-15 absolute (a few ulp of a unit vector).
    """

    @pytest.mark.parametrize("name", list(KERNEL_FIELDS))
    @pytest.mark.parametrize("with_decay", [True, False])
    @pytest.mark.parametrize(
        "times",
        [np.linspace(0.0, 500e-6, 251), np.linspace(0.0, 2e-3, 1001), np.linspace(0.0, 2.0, 2001)],
        ids=["251", "2ms", "2s"],
    )
    def test_matches_scalar_loop(self, tpp, name, with_decay, times):
        field = KERNEL_FIELDS[name](tpp.omega1)
        if with_decay:
            ref = np.array([list(damped_bloch(field, tpp.decay, t)) for t in times])
            rows = trajectory(field, tpp.decay, times)
        else:
            ref = np.array([list(coherent_bloch(field, t)) for t in times])
            rows = trajectory(field, None, times)
        assert rows.shape == (len(times), 3)
        np.testing.assert_allclose(rows, ref, rtol=0.0, atol=1e-15)


class TestGammaCoefficients:
    def test_y_drive_has_no_y_damping(self, tpp):
        for t in (1e-6, 1e-4, 9e-4):
            _, ly, _ = gamma_coefficients(tpp.field, tpp.decay, t)
            assert abs(ly) <= 1e-12 * tpp.decay.delta

    def test_norm_equals_g(self, tpp):
        for t in (1e-6, 1e-4, 9e-4):
            lam = np.array(gamma_coefficients(tpp.field, tpp.decay, t))
            assert np.linalg.norm(lam) == pytest.approx(abs(_g(tpp.decay, t)), rel=1e-12)

    def test_vanishes_at_sign_change(self, tpp):
        t_star = g_root(tpp.decay)
        lam = np.array(gamma_coefficients(tpp.field, tpp.decay, t_star))
        assert np.max(np.abs(lam)) <= 1e-9 * tpp.decay.delta

    @pytest.mark.parametrize("t", [0.0, -1e-9])
    def test_rejects_non_positive_time(self, tpp, t):
        with pytest.raises(ValueError) as info:
            gamma_coefficients(tpp.field, tpp.decay, t)
        assert str(info.value) == "g(t) is defined for t > 0 only (1/(2t) divergence at 0)"


def _gamma_reference(field, model, t):
    """g(t) * coherent_bloch(field, t) as gamma_coefficients computed it per call."""
    delta, mu, nu = model.delta, model.mu, model.nu
    e_delta = math.exp(-delta * t)
    e_mu = math.exp(-mu * t)
    em1_mu = math.expm1(-mu * t)
    one_minus_f = -math.expm1(-delta * t) + nu * em1_mu
    f = e_delta - nu * em1_mu
    g = (delta * e_delta - nu * mu * e_mu) / (one_minus_f * (1.0 + f))
    om = math.sqrt(field.wx**2 + field.wy**2 + field.wz**2)
    if om <= 1e-12 * max(1.0, abs(field.wx), abs(field.wy), abs(field.wz)):
        x, y, z = 0.0, 0.0, 1.0
    else:
        nx, ny, nz = field.wx / om, field.wy / om, field.wz / om
        angle = om * t
        s = math.sin(angle)
        vers = 2.0 * math.sin(0.5 * angle) ** 2
        x, y, z = nx * nz * vers + ny * s, ny * nz * vers - nx * s, nz * nz * vers + 1.0 - vers
    return (g * x, g * y, g * z)


PROVIDER_FIELDS = dict(KERNEL_FIELDS, degenerate=lambda w1: CoherentField(0.0, 5e-13, 0.0))


class TestDampingProvider:
    """The factory's provider against the per-call formulas, bit for bit.

    Hoisting the rates, the field norm and the unit axis out of the call
    keeps each operation and its order, so every triple (signed zeros of
    the degenerate field included) must match exactly.
    """

    @pytest.mark.parametrize("name", list(PROVIDER_FIELDS))
    def test_bit_identical_to_per_call_formulas(self, tpp, name):
        field, d = PROVIDER_FIELDS[name](tpp.omega1), tpp.decay
        provider = damping_provider(field, d)
        for t in (1e-9, g_root(d), 2e-3, 1.0, 30.0):
            ref = [float.hex(v) for v in _gamma_reference(field, d, t)]
            assert [float.hex(v) for v in provider(t)] == ref, t
            assert [float.hex(v) for v in gamma_coefficients(field, d, t)] == ref, t

    @pytest.mark.parametrize("t", [0.0, -1e-9])
    def test_rejects_non_positive_time(self, tpp, t):
        provider = damping_provider(tpp.field, tpp.decay)
        with pytest.raises(ValueError) as info:
            provider(t)
        assert str(info.value) == "g(t) is defined for t > 0 only (1/(2t) divergence at 0)"

    @pytest.mark.parametrize(
        "decay, t",
        [
            (DecayModel(5e-324, 5e-324, 0.999), 1e-9),
            (DecayModel(5e-324, 5e-324, 0.999), 1.5),
            # Subnormal delta t and mu t round to equal multiples of 5e-324.
            (DecayModel(1.5e-323, 1e-323, 0.9), 0.75),
        ],
    )
    def test_underflowed_one_minus_f_takes_the_small_time_limit(self, decay, t):
        # 1 - f rounds to 0, and g(t) = 1/(2t) (1 + O(delta t)).
        field = CoherentField(0.0, 1e4, 0.0)
        assert damping_provider(field, decay)(t) == tuple(
            (0.5 / t) * r for r in coherent_bloch(field, t)
        )


class TestPurityClosedForm:
    def test_starts_pure(self, tpp):
        assert purity_closed_form(tpp.decay, 0.0) == 1.0

    def test_residual_purity(self, tpp):
        got = purity_closed_form(tpp.decay, 20.0 / tpp.decay.mu)
        assert got == pytest.approx(0.502132045, abs=1e-6)

    def test_matches_state_purity_for_any_field(self, tpp):
        from nhbloch.core import purity

        odd_field = CoherentField(1.0e4, 3.0e4, -2.0e4)
        for t in (0.0, 1e-5, 2e-4, 1e-3):
            r = damped_bloch(odd_field, tpp.decay, t)
            assert purity_closed_form(tpp.decay, t) == pytest.approx(purity(r), abs=1e-12)

    @settings(max_examples=100)
    @given(decay_models, st.floats(0.0, 30.0))
    def test_always_in_half_open_interval(self, model, t_scaled):
        t = t_scaled / model.mu
        p = purity_closed_form(model, t)
        assert 0.5 <= p <= 1.0
        # Strictly above 1/2 whenever f^2 is representable next to 1/2.
        if decay_f(model, t) > 1e-7:
            assert p > 0.5


class TestValidation:
    def test_decay_model_invariants(self):
        with pytest.raises(ValueError):
            DecayModel(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            DecayModel(1.0, 2.0, 0.1)  # delta below mu
        with pytest.raises(ValueError):
            DecayModel(2.0, 1.0, 1.0)  # nu not below 1
        with pytest.raises(ValueError):
            DecayModel(2.0, 1.0, -0.1)

    @pytest.mark.parametrize(
        "params", [(math.inf, 1.0, 0.1), (math.inf, math.inf, 0.1), (2.0, 1.0, math.nan)]
    )
    def test_decay_model_must_be_finite(self, params):
        # inf passes delta > 0 and delta >= mu, so finiteness is checked first.
        with pytest.raises(ValueError, match="must be finite"):
            DecayModel(*params)

    def test_field_must_be_finite(self):
        with pytest.raises(ValueError):
            CoherentField(math.inf, 0.0, 0.0)
