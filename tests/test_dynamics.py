import bisect
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nhbloch.analytic import (
    CoherentField,
    DecayModel,
    coherent_bloch,
    damped_bloch,
    damping_provider,
    g_root,
    gamma_coefficients,
    trajectory,
)
from nhbloch import dynamics
from nhbloch.core import IX, IY, IZ, bloch_to_density, purity
from nhbloch.dynamics import (
    Trajectory,
    effective_hamiltonian,
    field_matrix,
    integrate_bloch,
    integrate_density,
    max_deviation,
)

ZERO_LAMBDA = lambda t: (0.0, 0.0, 0.0)


def g_matrix(rates):
    """The damping operator G = lx IX + ly IY + lz IZ of a rate triple, in numpy."""
    lx, ly, lz = rates
    return lx * IX + ly * IY + lz * IZ


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


def numpy_density(field, lam, rho0, times):
    """Matrix form on numpy 2x2 arrays; returns the rho samples."""
    h_mat = field_matrix(field)

    def rhs(t, rho):
        g = g_matrix(lam(t))
        shift = (
            g[0, 0] * rho[0, 0] + g[0, 1] * rho[1, 0] + g[1, 0] * rho[0, 1] + g[1, 1] * rho[1, 1]
        ).real
        g_shifted = g - shift * np.eye(2, dtype=complex)
        return -1j * (h_mat @ rho - rho @ h_mat) - (g_shifted @ rho + rho @ g_shifted)

    return _numpy_rk4(rhs, _numpy_step_at(field, lam), np.array(rho0, dtype=complex), times)


def _tuple_rk4(rhs, coefficients, y, times, base, lift=None):
    """The generic tuple RK4 that once stepped both forms: the reference for the
    written-out steps. Same step control and provider reuse as the driver.

    ``lift`` = (lifted, generator, start, normalize, scalar) steps each grid
    interval (t0, t1] with lifted(t0, t1) true on the linear lift v' = M v
    instead, as the driver's planned intervals do: v = start(y), then one
    :func:`_lift_step` per step on generator(c), and y = normalize(v) at the
    sample.
    """
    grid = times.tolist()
    states = [y]
    t = grid[0]
    c_time = c = None
    for t1 in grid[1:]:
        lifted = lift is not None and lift[0](t, t1)
        if lifted:
            _, generator, start, normalize, scalar = lift
            v = start(y)
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
            if lifted:
                step = _lift_step(generator(c), generator(c_half), generator(c_end), h, scalar)
                v = [r[0] * v[0] + r[1] * v[1] + r[2] * v[2] + r[3] * v[3] for r in step]
            else:
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
        if lifted:
            y = normalize(*v)
        states.append(y)
    return np.array(states)


def _lift_step(m0, m_half, m_end, h, scalar):
    """One RK4 step of v' = M v as a 4x4 matrix, on nested lists in the driver's operation order.

    R = I + h/6 (K1 + 2 (K2 + K3) + K4), K1 = M0, K2 = Mh (I + h/2 K1),
    K3 = Mh (I + h/2 K2), K4 = Me (I + h K3); each product entry is summed
    over k from left to right. ``scalar`` is float for real generators and
    complex for complex ones, where numpy casts the real factors and the
    identity to complex before each operation.
    """
    eye = [[scalar(float(i == j)) for j in range(4)] for i in range(4)]

    def product(a, b):
        return [
            [a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] + a[i][3] * b[3][j] for j in range(4)]
            for i in range(4)
        ]

    def shifted(s, k):  # I + s K
        return [[e + scalar(s) * x for e, x in zip(er, kr)] for er, kr in zip(eye, k)]

    half = 0.5 * h
    k2 = product(m_half, shifted(half, m0))
    k3 = product(m_half, shifted(half, k2))
    k4 = product(m_end, shifted(h, k3))
    w, two = scalar(h / 6.0), scalar(2.0)
    return [
        [e + w * ((a + two * (b + c)) + d) for e, a, b, c, d in zip(*rows)]
        for rows in zip(eye, m0, k2, k3, k4)
    ]


def bloch_generator(field):
    """The Bloch form's lift (u0, u): M = [[0, -lambda^T], [-lambda, W]] with W u = w x u."""
    wx, wy, wz = field.wx, field.wy, field.wz

    def generator(c):
        lx, ly, lz = c
        return [[0.0, -lx, -ly, -lz], [-lx, 0.0, -wz, wy], [-ly, wz, 0.0, -wx], [-lz, -wy, wx, 0.0]]

    return generator


def density_generator(field):
    """The matrix form's lift vec(rho~), row-major: A (x) I + I (x) conj(A) for A = -iH - G."""
    (h00, h01), (h10, h11) = field_matrix(field).tolist()

    def generator(c):
        hx, hy, hz = 0.5 * c[0], 0.5 * c[1], 0.5 * c[2]
        a00 = complex(h00.imag - hz, -h00.real - 0.0)
        a01 = complex(h01.imag - hx, -h01.real - -hy)
        a10 = complex(h10.imag - hx, -h10.real - hy)
        a11 = complex(h11.imag - -hz, -h11.real - 0.0)
        c00, c01, c10, c11 = (a.conjugate() for a in (a00, a01, a10, a11))
        zero = 0j
        return [
            [a00 + c00, c01, a01, zero],
            [c10, a00 + c11, zero, a01],
            [a10, zero, a11 + c00, c01],
            [zero, a10, c10, a11 + c11],
        ]

    return generator


def tuple_bloch(field, lam, r0, times, base=None, lifted=None):
    """Bloch form on the tuple reference; returns the Bloch rows.

    ``lifted(t0, t1)`` picks the intervals that step the lift (u0, u) from
    (1, r), normalized as r = u / u0.
    """
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

    base = (2.0 * math.pi / field.omega) / 200 if base is None else base
    lift = None
    if lifted is not None:
        normalize = lambda u0, x, y, z: (x / u0, y / u0, z / u0)
        lift = (lifted, bloch_generator(field), lambda r: (1.0, *r), normalize, float)
    return _tuple_rk4(rhs, lam, tuple(r0), times, base, lift)


def tuple_density(field, lam, rho0, times, base=None, lifted=None):
    """Matrix form on the tuple reference; returns the rho samples.

    ``lifted(t0, t1)`` picks the intervals that step vec(rho~) from rho,
    normalized as rho = rho~ / Tr rho~.
    """
    (h00, h01), (h10, h11) = field_matrix(field).tolist()

    def entries(t):
        # G = lambda0 I0 + lx IX + ly IY + lz IZ at lambda0 = 0.0: its diagonal is 0.5 * 0.0 +/- 0.5 * lz.
        lx, ly, lz = lam(t)
        return (
            lx,
            ly,
            lz,
            complex(0.5 * 0.0 + 0.5 * lz),
            complex(0.5 * lx, -0.5 * ly),
            complex(0.5 * lx, 0.5 * ly),
            complex(0.5 * 0.0 - 0.5 * lz),
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

    base = (2.0 * math.pi / field.omega) / 200 if base is None else base
    lift = None
    if lifted is not None:

        def normalize(v00, v01, v10, v11):
            trace = v00 + v11
            return (v00 / trace, v01 / trace, v10 / trace, v11 / trace)

        generator = density_generator(field)
        lift = (lifted, lambda c: generator(c[:3]), tuple, normalize, complex)
    y = tuple(np.asarray(rho0, dtype=complex).ravel().tolist())
    return _tuple_rk4(rhs, entries, y, times, base, lift).reshape(len(times), 2, 2)


class CountingProvider:
    """Damping provider that records every time it is asked for."""

    def __init__(self, field, decay):
        self.field, self.decay, self.times = field, decay, []

    def __call__(self, t):
        self.times.append(t)
        return gamma_coefficients(self.field, self.decay, t)


class ScalarRecorder:
    """A damping provider without an array form; records the times it is asked for.

    ``used`` maps each time to the last rates handed out for it.
    """

    def __init__(self, scalar):
        self.scalar, self.scalar_times, self.used = scalar, [], {}

    def __call__(self, t):
        self.scalar_times.append(t)
        self.used[t] = rates = tuple(self.scalar(t))
        return rates


class RecordingProvider(ScalarRecorder):
    """A damping provider with an array form ``bulk``; records what each form is asked.

    The array form defaults to the scalar function mapped over the times,
    which gives the scalar path's rates bit for bit.
    """

    def __init__(self, scalar, bulk=None):
        super().__init__(scalar)
        self.array, self.bulk_times, self.bulk_sizes = bulk, [], []

    def bulk(self, times):
        grid = times.tolist()
        if self.array is None:
            rates = np.array([self.scalar(t) for t in grid], dtype=float).reshape(-1, 3)
        else:
            rates = self.array(times)
        self.bulk_times += grid
        self.bulk_sizes.append(len(grid))
        self.used.update(zip(grid, map(tuple, rates.tolist())))
        return rates

    def asked(self):
        return sorted(set(self.scalar_times) | set(self.bulk_times))

    def lifted(self, t0, t1):
        """Whether the integrator stepped the grid interval (t0, t1] on the linear lift.

        A planned interval asks the scalar form for no time strictly inside
        it; the scalar loop asks for every step's midpoint.
        """
        asked = sorted(self.scalar_times)
        i = bisect.bisect_right(asked, t0)
        return i == len(asked) or asked[i] >= t1


def _detuned_model():
    w1 = 2.0 * math.pi * 22245.3
    field = CoherentField(w1 * math.cos(2.0), w1 * math.sin(2.0), -2.0 * math.pi * 5000.0)
    return field, DecayModel(11.5 * 525.8, 525.8, 0.0653)


@pytest.fixture(scope="module")
def tpp_runs(tpp, grid_251):
    """One Bloch-form and one matrix-form integration of the benchmark."""
    lam = lambda t: gamma_coefficients(tpp.field, tpp.decay, t)
    r0 = damped_bloch(tpp.field, tpp.decay, grid_251[0])
    traj_b = integrate_bloch(tpp.field, lam, r0, grid_251)
    traj_d = integrate_density(tpp.field, lam, bloch_to_density(r0), grid_251)
    exact = Trajectory(
        grid_251,
        np.array([list(damped_bloch(tpp.field, tpp.decay, t)) for t in grid_251]),
    )
    return traj_b, traj_d, exact


class TestGammaOperator:
    """The damping operator G = lx IX + ly IY + lz IZ that the matrix form builds
    from a provider's rates, and the one rule on those rates."""

    @staticmethod
    def entries(rates):
        """G's entries g00, g01, g10, g11 as the matrix form's steps use them."""
        return dynamics._density_form(CoherentField(0.0, 1.0, 0.0)).entries(rates)[3:]

    def test_zero_coefficients_give_zero_matrix(self):
        g00, g01, g10, g11 = self.entries((0.0, 0.0, 0.0))
        assert g00 == g01 == g10 == g11 == 0.0
        # No -0.0 on the diagonal.
        assert np.array([g00, g11]).tobytes() == np.zeros(2, dtype=complex).tobytes()

    def test_z_only(self):
        assert self.entries((0.0, 0.0, 3.0)) == (1.5, 0.0, 0.0, -1.5)

    def test_matrix_is_hermitian(self):
        rates = (0.2, 0.3, 0.4)
        g = np.array(self.entries(rates)).reshape(2, 2)
        assert np.array_equal(g, g.conj().T)
        np.testing.assert_allclose(g, g_matrix(rates), rtol=0.0, atol=1e-16)

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coefficient(self, index, bad):
        # Index 3 makes all three rates non-finite. effective_hamiltonian and
        # both integrators refuse the triple with one message; the integrators
        # name the time.
        rates = tuple(bad if index in (k, 3) else v for k, v in enumerate((1.0, -2.0, 0.5)))
        message = f"the damping rates {rates!r}{{}} are not finite"
        with pytest.raises(ValueError) as info:
            effective_hamiltonian(CoherentField(0.0, 1.0, 0.0), rates, np.eye(2) / 2.0)
        assert str(info.value) == message.format("")
        for form in ("bloch", "density"):
            with pytest.raises(ValueError) as info:
                _integrate(form, CoherentField(0.0, 1.0, 0.0), lambda t: rates, (0.0, 0.0, 1.0), [1.0, 2.0])
            assert str(info.value) == message.format(" at t = 1.0 s")

    def test_vanishes_at_damping_sign_change(self, tpp):
        t_star = g_root(tpp.decay)
        g = self.entries(gamma_coefficients(tpp.field, tpp.decay, t_star))
        assert max(map(abs, g)) <= 1e-9 * tpp.decay.delta


class TestEffectiveHamiltonian:
    def test_zero_damping_reduces_to_field(self, tpp):
        rho = bloch_to_density((0.2, 0.1, 0.5))
        h_eff = effective_hamiltonian(tpp.field, (0.0, 0.0, 0.0), rho)
        np.testing.assert_allclose(h_eff, field_matrix(tpp.field), atol=0)
        assert np.max(np.abs(h_eff - h_eff.conj().T)) <= 1e-12

    def test_identity_only_damping_does_nothing(self, tpp):
        # The shift would cancel an identity part lambda0 I0 of G exactly, for
        # any state, which is why the rates are the triple (lx, ly, lz): H -
        # i (G' - Tr[G' rho] 1) for G' = lambda0 I0 + G, evaluated here, is
        # the generator of the triple.
        rates = (1.0e3, -2.0e3, 0.5e3)
        g = 4.0e3 * np.eye(2) / 2.0 + g_matrix(rates)
        for r0 in ((0.0, 0.0, 0.0), (0.2, -0.1, 0.4)):
            rho = bloch_to_density(r0)
            want = field_matrix(tpp.field) - 1j * (g - np.trace(g @ rho).real * np.eye(2))
            h_eff = effective_hamiltonian(tpp.field, rates, rho)
            assert np.max(np.abs(h_eff - want)) <= 1e-12 * 4.0e3

    def test_maximally_mixed_state_kills_shift_for_traceless_damping(self, tpp):
        rates = (1.0, -2.0, 0.5)
        h_eff = effective_hamiltonian(tpp.field, rates, np.eye(2) / 2.0)
        np.testing.assert_allclose(h_eff, field_matrix(tpp.field) - 1j * g_matrix(rates), atol=1e-15)

    def test_matrix_and_bloch_drifts_agree(self, tpp):
        # d rho/dt from the non-Hermitian generator versus the component form.
        t = 100e-6
        r = damped_bloch(tpp.field, tpp.decay, t)
        rho = bloch_to_density(r)
        lam = gamma_coefficients(tpp.field, tpp.decay, t)
        h_eff = effective_hamiltonian(tpp.field, lam, rho)
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
        rates = gamma_coefficients(tpp.field, tpp.decay, t)
        h_eff = effective_hamiltonian(tpp.field, rates, rho)
        anti = 0.5 * (h_eff - h_eff.conj().T)
        g = g_matrix(rates)
        shift = np.trace(g @ rho).real
        np.testing.assert_allclose(anti, -1j * (g - shift * np.eye(2)), atol=1e-12)
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
            integrate_density(tpp.field, lam, bloch_to_density(r0), times)
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
        lam = lambda t: gamma_coefficients(field, decay, t)
        rho0 = bloch_to_density(damped_bloch(field, decay, grid_251[0]))
        traj = integrate_density(field, lam, rho0, grid_251)
        assert np.max(np.abs(traj.rho - numpy_density(field, lam, rho0, grid_251))) <= 1e-14

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
        lam = lambda t: gamma_coefficients(field, decay, t)
        rho0 = bloch_to_density(damped_bloch(field, decay, times[0]))
        traj = integrate_density(field, lam, rho0, times)
        assert np.array_equal(traj.rho, tuple_density(field, lam, rho0, times))

    @pytest.mark.parametrize("damping", ["decay", "zero"])
    @pytest.mark.parametrize("field_name", ["degenerate", "tpp"])
    def test_density_keeps_signed_zeros_of_the_tuple_reference(self, tpp, field_name, damping):
        # A slow z field, which turns the pole about itself, and zero damping
        # leave exact (signed) zeros in G and rho, which array_equal would
        # not tell apart.
        field = CoherentField(0.0, 0.0, 1e-13) if field_name == "degenerate" else tpp.field
        # damping_provider's array form serves the intervals past the ramp,
        # which step the linear lift; the reference is fed the rates the
        # integrator used at each time and lifts the same intervals.
        if damping == "decay":
            provider = damping_provider(field, tpp.decay)
            lam = RecordingProvider(provider, provider.bulk)
            r0 = damped_bloch(field, tpp.decay, 1e-9)
        else:
            lam = ZERO_LAMBDA
            r0 = (0.0, 0.0, 1.0)
        times = np.linspace(1e-9, 2e-3, 41)
        rho0 = bloch_to_density(r0)
        traj = integrate_density(field, lam, rho0, times)
        used = lam.used.__getitem__ if damping == "decay" else lam
        lifted = lam.lifted if damping == "decay" else None
        assert traj.rho.tobytes() == tuple_density(field, used, rho0, times, lifted=lifted).tobytes()
        if damping == "decay":
            assert bool(lam.bulk_times) == (field_name == "tpp")

    @pytest.mark.parametrize(
        "rates",
        [
            (math.nan, 1e6, 0.0),
            (1e6, math.nan, 0.0),
            (0.0, 1e6, math.nan),
            (math.nan, math.nan, math.nan),
            (math.inf, 0.0, 0.0),
            (0.0, 1e6, -math.inf),
        ],
    )
    @pytest.mark.parametrize("bulk", [False, True], ids=["scalar", "bulk"])
    def test_both_forms_refuse_the_first_non_finite_rate(self, tpp, rates, bulk):
        # Finite rates before 2 us, then ``rates``: both forms ask for the
        # same times and refuse the first non-finite triple they read, by one
        # message that names its time.
        times = np.linspace(1e-9, 5e-6, 3)
        scalar = lambda t: (1e4, 0.0, -1e4) if t < 2e-6 else rates
        asked = []
        for form in ("bloch", "density"):
            lam = RecordingProvider(scalar) if bulk else ScalarRecorder(scalar)
            with pytest.raises(ValueError) as info:
                _integrate(form, tpp.field, lam, (0.0, 0.0, 1.0), times)
            *before, first = lam.scalar_times
            assert max(before) < 2e-6 <= first
            assert str(info.value) == f"the damping rates {rates!r} at t = {first!r} s are not finite"
            asked.append(lam.scalar_times)
        assert asked[0] == asked[1]

    @pytest.mark.parametrize(
        "rates", [(math.inf, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, -math.inf)]
    )
    def test_density_refuses_non_finite_rates(self, rates):
        with pytest.raises(ValueError) as info:
            integrate_density(
                CoherentField(0.0, 1.0, 0.0),
                lambda t: rates,
                bloch_to_density((0.0, 0.0, 1.0)),
                [1.0, 2.0],
            )
        assert str(info.value) == f"the damping rates {rates!r} at t = 1.0 s are not finite"

    def test_underflow_message(self):
        with pytest.raises(RuntimeError) as info:
            integrate_density(
                CoherentField(0.0, 1.0, 0.0),
                lambda t: (0.0, 0.0, 1e300),
                bloch_to_density((0.0, 0.0, 1.0)),
                [1.0, 2.0],
            )
        assert str(info.value) == "integration step underflow at t = 1.0"


def _integrate(form, field, lam, r0, times, **kwargs):
    """The Bloch rows or the rho samples of one integration."""
    if form == "bloch":
        return integrate_bloch(field, lam, r0, times, **kwargs).bloch
    return integrate_density(field, lam, bloch_to_density(r0), times, **kwargs).rho


def _base(field):
    return (2.0 * math.pi / field.omega) / 200


def _lift_reference(form, field, lam, r0, times, step=None):
    """The tuple reference for an integration on ``lam``, a RecordingProvider.

    It is fed the rates ``lam`` handed out at each time, and steps the linear
    lift on each interval whose times the integrator took from the array form.
    """
    if form == "bloch":
        return tuple_bloch(field, lam.used.__getitem__, r0, times, step, lam.lifted)
    return tuple_density(field, lam.used.__getitem__, bloch_to_density(r0), times, step, lam.lifted)


class TestBulkRates:
    """Providers with an array form: planned intervals step on rates evaluated at once."""

    @pytest.mark.parametrize("t_max, samples", [(500e-6, 251), (2e-3, 1001)], ids=["251", "2ms"])
    @pytest.mark.parametrize("form", ["bloch", "density"])
    @pytest.mark.parametrize("model", ["tpp", "detuned"])
    def test_matches_the_scalar_path(self, tpp, model, form, t_max, samples):
        # The scalar path's step and provider times. Past the ramp the state
        # steps the linear lift on rates from the array form, whose numpy
        # exp/expm1/sin may differ from math's in the last bit: the lift
        # reference, fed the same rates, gives the same bytes.
        field, decay = (tpp.field, tpp.decay) if model == "tpp" else _detuned_model()
        times = np.linspace(1e-9, t_max, samples)
        provider = damping_provider(field, decay)
        lam = RecordingProvider(provider, provider.bulk)
        ref = CountingProvider(field, decay)
        r0 = damped_bloch(field, decay, times[0])
        got = _integrate(form, field, lam, r0, times)
        _integrate(form, field, ref, r0, times)
        assert got.tobytes() == _lift_reference(form, field, lam, r0, times).tobytes()
        assert lam.asked() == sorted(ref.times)
        assert len(lam.bulk_times) > len(lam.scalar_times)

    @pytest.mark.parametrize("t_max, samples", [(500e-6, 251), (2e-3, 1001)], ids=["251", "2ms"])
    def test_scalar_calls_serve_only_the_ramp(self, tpp, t_max, samples):
        # 461 rate-capped steps in the first 6 intervals; 5,323 and 18,823
        # calls without the array form.
        times = np.linspace(1e-9, t_max, samples)
        provider = damping_provider(tpp.field, tpp.decay)
        lam = RecordingProvider(provider, provider.bulk)
        integrate_bloch(tpp.field, lam, damped_bloch(tpp.field, tpp.decay, times[0]), times)
        assert len(lam.scalar_times) == len(set(lam.scalar_times)) == 931
        assert max(lam.scalar_times) <= times[6]

    def test_chunks_stay_bounded(self, tpp):
        times = np.linspace(1e-9, 2e-3, 1001)
        provider = damping_provider(tpp.field, tpp.decay)
        lam = RecordingProvider(provider, provider.bulk)
        integrate_bloch(tpp.field, lam, damped_bloch(tpp.field, tpp.decay, times[0]), times)
        # Each call: a midpoint and an end per planned step.
        assert len(lam.bulk_sizes) > 10
        assert max(lam.bulk_sizes) <= 2 * dynamics._CHUNK_STEPS

    @pytest.mark.parametrize("form", ["bloch", "density"])
    def test_an_interval_longer_than_a_chunk_runs_the_scalar_loop(self, tpp, form):
        times = np.array([5e-5, 2e-3])  # about 8,700 base steps
        provider = damping_provider(tpp.field, tpp.decay)
        lam, ref = RecordingProvider(provider, provider.bulk), ScalarRecorder(provider)
        r0 = damped_bloch(tpp.field, tpp.decay, times[0])
        got = _integrate(form, tpp.field, lam, r0, times)
        assert got.tobytes() == _integrate(form, tpp.field, ref, r0, times).tobytes()
        assert lam.scalar_times == ref.scalar_times
        assert not lam.bulk_times

    @pytest.mark.parametrize("form", ["bloch", "density"])
    def test_a_capped_start_in_mid_grid_falls_back(self, tpp, grid_251, form):
        # The second step of interval 100 starts at a rate spike above the
        # cap: that interval runs the scalar loop, and planning resumes after it.
        provider = damping_provider(tpp.field, tpp.decay)
        spike = grid_251[99] + _base(tpp.field)

        def rates(t):
            lx, ly, lz = provider(t)
            return (lx, ly, 1e7) if t == spike else (lx, ly, lz)

        lam, ref = RecordingProvider(rates), ScalarRecorder(rates)
        r0 = damped_bloch(tpp.field, tpp.decay, grid_251[0])
        got = _integrate(form, tpp.field, lam, r0, grid_251)
        _integrate(form, tpp.field, ref, r0, grid_251)
        assert got.tobytes() == _lift_reference(form, tpp.field, lam, r0, grid_251).tobytes()
        in_spike = lambda asked: [t for t in asked if grid_251[99] < t <= grid_251[100]]
        assert spike in ref.scalar_times
        assert in_spike(lam.scalar_times) == in_spike(ref.scalar_times)
        assert max(lam.scalar_times) <= grid_251[100] < max(lam.bulk_times)
        assert set(ref.scalar_times) <= set(lam.asked())

    @pytest.mark.parametrize(
        "rates",
        [
            (math.nan, 1e6, 0.0),
            (1e6, math.nan, 0.0),
            (0.0, 1e6, math.nan),
            (math.nan, math.nan, math.nan),
            (math.nan, 0.0, 0.0),
        ],
    )
    def test_nan_rates_take_the_scalar_steps(self, tpp, rates):
        # An array form that gives NaN rates (as damping_provider's does where
        # omega t overflows) sends its intervals to the scalar loop, whose
        # provider is finite there: each form's run is its scalar path's.
        provider = damping_provider(tpp.field, tpp.decay)
        times = np.linspace(1e-9, 5e-5, 11)
        r0 = damped_bloch(tpp.field, tpp.decay, times[0])
        for form in ("bloch", "density"):
            lam = RecordingProvider(provider, lambda times: np.tile(rates, (len(times), 1)))
            ref = ScalarRecorder(provider)
            got = _integrate(form, tpp.field, lam, r0, times)
            assert got.tobytes() == _integrate(form, tpp.field, ref, r0, times).tobytes()
            assert lam.scalar_times == ref.scalar_times
            assert lam.bulk_times

    def test_density_raises_at_a_visited_non_finite_rate(self, tpp, grid_251):
        # The first midpoint of interval 100 is a time both paths ask for.
        provider = damping_provider(tpp.field, tpp.decay)
        bad = grid_251[99] + 0.5 * _base(tpp.field)
        rates = lambda t: (math.inf, 0.0, 0.0) if t == bad else provider(t)
        lam, ref = RecordingProvider(rates), ScalarRecorder(rates)
        r0 = damped_bloch(tpp.field, tpp.decay, grid_251[0])
        for integrand in (lam, ref):
            with pytest.raises(ValueError) as info:
                _integrate("density", tpp.field, integrand, r0, grid_251)
            assert str(info.value) == f"the damping rates (inf, 0.0, 0.0) at t = {float(bad)!r} s are not finite"
        assert lam.scalar_times[-1] == ref.scalar_times[-1] == bad
        assert bad in lam.bulk_times

    def test_density_ignores_a_non_finite_rate_the_loop_never_visits(self, tpp, grid_251):
        # The planned midpoint after a capped start is evaluated in bulk, but
        # the scalar loop steps from that start by a shorter step.
        provider = damping_provider(tpp.field, tpp.decay)
        spike = grid_251[99] + _base(tpp.field)
        bad = spike + 0.5 * _base(tpp.field)

        def rates(t):
            if t == bad:
                return (math.nan, 0.0, 0.0)
            lx, ly, lz = provider(t)
            return (lx, ly, 1e7) if t == spike else (lx, ly, lz)

        lam, ref = RecordingProvider(rates), ScalarRecorder(rates)
        r0 = damped_bloch(tpp.field, tpp.decay, grid_251[0])
        got = _integrate("density", tpp.field, lam, r0, grid_251)
        _integrate("density", tpp.field, ref, r0, grid_251)
        assert got.tobytes() == _lift_reference("density", tpp.field, lam, r0, grid_251).tobytes()
        assert bad in lam.bulk_times
        assert bad not in ref.scalar_times

    @pytest.mark.parametrize("form", ["bloch", "density"])
    def test_an_interval_whose_steps_land_on_its_sample_time_runs_the_scalar_loop(self, form):
        # 1.0 + 0.1 + 0.1 + 0.1 rounds to t1 although t1 - 1.2000000000000002
        # exceeds 0.1: the loop stops there, where the plan would take a zero step.
        field, t1 = CoherentField(0.0, 1.0, 0.0), 1.0 + 0.1 + 0.1 + 0.1
        times = np.array([1.0, t1, 1.6])
        rates = lambda t: (1e-3 * t, 0.0, 2e-3)
        lam, ref = RecordingProvider(rates), ScalarRecorder(rates)
        got = _integrate(form, field, lam, (0.0, 0.0, 1.0), times, step=0.1)
        _integrate(form, field, ref, (0.0, 0.0, 1.0), times, step=0.1)
        assert got.tobytes() == _lift_reference(form, field, lam, (0.0, 0.0, 1.0), times, 0.1).tobytes()
        in_first = lambda asked: [t for t in asked if t <= t1]
        assert in_first(lam.scalar_times) == in_first(ref.scalar_times)
        assert lam.asked() == sorted(set(ref.scalar_times))

    @pytest.mark.parametrize("form", ["bloch", "density"])
    def test_a_row_after_a_step_ending_off_its_sample_time_runs_the_scalar_loop(self, form):
        # One step of 2.9 - 0.7 from 0.7 ends just off 2.9; the scalar loop
        # then asks for the rates at 2.9, which the plan has no value for.
        field = CoherentField(0.0, 1.0, 0.0)
        times = np.array([0.7, 2.9, 3.1, 3.4])
        assert 0.7 + (2.9 - 0.7) != 2.9
        rates = lambda t: (1e-4 * t, 0.0, 2e-4)
        lam, ref = RecordingProvider(rates), ScalarRecorder(rates)
        got = _integrate(form, field, lam, (0.0, 0.0, 1.0), times, step=5.0)
        _integrate(form, field, ref, (0.0, 0.0, 1.0), times, step=5.0)
        assert got.tobytes() == _lift_reference(form, field, lam, (0.0, 0.0, 1.0), times, 5.0).tobytes()
        assert 2.9 in lam.scalar_times
        assert lam.asked() == sorted(set(ref.scalar_times))

    @pytest.mark.parametrize("form", ["bloch", "density"])
    def test_underflow_message_at_a_large_start(self, tpp, form):
        # At t = 1e10 a base step of 2.2e-7 s does not move t.
        provider = damping_provider(tpp.field, tpp.decay)
        lam = RecordingProvider(provider, provider.bulk)
        times = np.array([1e10, 1e10 + 1e-5])
        r0 = damped_bloch(tpp.field, tpp.decay, times[0])
        for integrand in (lam, ScalarRecorder(provider)):
            with pytest.raises(RuntimeError) as info:
                _integrate(form, tpp.field, integrand, r0, times)
            assert str(info.value) == "integration step underflow at t = 10000000000.0"
        assert lam.bulk_times

    @pytest.mark.parametrize("form", ["bloch", "density"])
    def test_degenerate_field(self, tpp, form):
        # A slow z field turns r0 about the north pole, so it stays there;
        # the step override keeps the rates past the ramp below the cap.
        field = CoherentField(0.0, 0.0, 1e-13)
        provider = damping_provider(field, tpp.decay)
        lam = RecordingProvider(provider, provider.bulk)
        ref = CountingProvider(field, tpp.decay)
        times = np.linspace(1e-9, 5e-4, 51)
        r0 = damped_bloch(field, tpp.decay, times[0])
        got = _integrate(form, field, lam, r0, times, step=1e-7)
        _integrate(form, field, ref, r0, times, step=1e-7)
        assert got.tobytes() == _lift_reference(form, field, lam, r0, times, 1e-7).tobytes()
        assert lam.asked() == sorted(ref.times)
        assert np.all(np.abs(lam.bulk(np.array(lam.bulk_times))[:, :2]) == 0.0)

    @pytest.mark.parametrize(
        "rates", [None, (-0.0, 0.0, -0.0), (0.0, -0.0, 0.0)], ids=["decay", "-+-", "+-+"]
    )
    def test_signed_zeros_of_the_scalar_path(self, tpp, rates):
        # The same rates in both forms must give the scalar path's rho byte
        # for byte, signed zeros included (g changes sign at g_root, so
        # g * 0.0 takes both signs).
        field = CoherentField(0.0, 0.0, 1e-13)
        scalar = damping_provider(field, tpp.decay) if rates is None else (lambda t: rates)
        lam, ref = RecordingProvider(scalar), ScalarRecorder(scalar)
        times = np.linspace(1e-9, 5e-4, 51)
        r0 = damped_bloch(field, tpp.decay, times[0])
        got = _integrate("density", field, lam, r0, times, step=1e-7)
        want = _integrate("density", field, ref, r0, times, step=1e-7)
        if rates is None:
            # g's own zeros: the planned intervals step the linear lift.
            want = _lift_reference("density", field, lam, r0, times, 1e-7)
        assert got.tobytes() == want.tobytes()
        assert lam.bulk_times

    @pytest.mark.parametrize("form", ["bloch", "density"])
    def test_a_row_that_outgrows_its_plan_runs_the_scalar_loop(self, form):
        # Steps of 2.5 ulp(1) round to 2 ulp each, so 50 base steps of span
        # take 63 steps, more than the 52 columns planned.
        ulp = 2.0**-52
        field, times = CoherentField(0.0, 1.0, 0.0), np.array([1.0, 1.0 + 125 * ulp, 1.0 + 250 * ulp])
        rates = lambda t: (1e-3, 0.0, 2e-3)
        lam, ref = RecordingProvider(rates), ScalarRecorder(rates)
        got = _integrate(form, field, lam, (0.0, 0.0, 1.0), times, step=2.5 * ulp)
        want = _integrate(form, field, ref, (0.0, 0.0, 1.0), times, step=2.5 * ulp)
        assert got.tobytes() == want.tobytes()
        assert lam.scalar_times == ref.scalar_times
        assert lam.bulk_times


class TestLinearLift:
    """The linear lift that planned intervals step: v' = M(t) v, normalized at each sample."""

    @pytest.mark.parametrize("form", ["bloch", "density"])
    def test_generator_projects_to_the_nonlinear_rhs(self, form):
        # r = u / u0 and rho = rho~ / Tr rho~ at u0 = 1 and Tr rho~ = 1: the
        # lift's derivative, projected back, is the nonlinear right-hand side.
        rng = np.random.default_rng(26)
        for _ in range(40):
            field = CoherentField(*rng.normal(0.0, 1e5, 3))
            rates = rng.normal(0.0, 1e5, (8, 3))
            m = (dynamics._bloch_form if form == "bloch" else dynamics._density_form)(field).generator(rates)
            assert m.shape == (4, 4, len(rates))
            scale = 1e-12 * max(field.omega, np.max(np.abs(rates)))
            for n, lam in enumerate(rates):
                r = rng.normal(size=3)
                r *= rng.uniform() / np.linalg.norm(r)
                if form == "bloch":
                    du = m[:, :, n] @ np.concatenate(([1.0], r))
                    w = np.array([field.wx, field.wy, field.wz])
                    want = r * (lam @ r) + np.cross(w, r) - lam
                    np.testing.assert_allclose(du[1:] - r * du[0], want, rtol=0.0, atol=scale)
                else:
                    rho = bloch_to_density(r)
                    drho = (m[:, :, n] @ rho.ravel()).reshape(2, 2)
                    h_eff = effective_hamiltonian(field, lam, rho)
                    want = -1j * (h_eff @ rho - rho @ h_eff.conj().T)
                    np.testing.assert_allclose(drho - rho * np.trace(drho), want, rtol=0.0, atol=scale)

    @pytest.mark.parametrize("form", ["bloch", "density"])
    @pytest.mark.parametrize(
        "case, t_max, samples",
        [
            ("tpp", 500e-6, 251),
            ("tpp", 2e-3, 1001),
            ("detuned", 500e-6, 251),
            ("detuned", 2e-3, 1001),
            ("slow", 1.0, 251),
        ],
    )
    def test_accuracy_matches_the_scalar_path(self, tpp, form, case, t_max, samples):
        # Against the closed form the lifted steps stay within 1 % of the
        # nonlinear steps' worst deviation (measured: -25 % to +0.16 %).
        if case == "slow":
            field, decay = CoherentField(0.0, 2.0 * math.pi, 0.0), DecayModel(2.0, 1.0, 0.1)
        else:
            field, decay = (tpp.field, tpp.decay) if case == "tpp" else _detuned_model()
        times = np.linspace(1e-9, t_max, samples)
        exact = trajectory(field, decay, times)
        r0 = damped_bloch(field, decay, times[0])
        provider = damping_provider(field, decay)
        integrate = integrate_bloch if form == "bloch" else integrate_density
        y0 = r0 if form == "bloch" else bloch_to_density(r0)
        lifted = np.max(np.abs(integrate(field, provider, y0, times).bloch - exact))
        scalar = np.max(np.abs(integrate(field, lambda t: provider(t), y0, times).bloch - exact))
        assert lifted <= 1.01 * scalar

    @pytest.mark.parametrize("form", ["bloch", "density"])
    def test_an_overflowing_rotation_angle_is_the_providers_refusal(self, form):
        # The array form's NaN rates at omega t = inf send the interval to the
        # scalar loop, where the provider refuses the first such time.
        field = CoherentField(0.0, 1e10, 0.0)
        provider = damping_provider(field, DecayModel(6046.0, 525.8, 0.0653))
        times = [1e290, 1e299]
        mid = 1e290 + 0.5 * (1e299 - 1e290)
        with pytest.raises(ValueError) as info:
            _integrate(form, field, provider, (0.0, 0.0, 0.0653), times, step=1e300)
        assert str(info.value) == (
            f"the rotation angle omega * t = inf rad overflows at t = {mid!r} s (omega = 10000000000.0 rad/s)"
        )


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
        traj = integrate_density(tpp.field, ZERO_LAMBDA, rho0, times, step=8e-8)
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
            lam = lambda t: gamma_coefficients(field, decay, t)
            rho0 = bloch_to_density(damped_bloch(field, decay, times[0]))
            traj = integrate_density(field, lam, rho0, times)
            traces = np.einsum("nii->n", traj.rho).real
            assert np.max(np.abs(traces - 1.0)) <= 1e-10
            herm = np.max(np.abs(traj.rho - np.conj(np.swapaxes(traj.rho, 1, 2))))
            assert herm <= 1e-10

    @pytest.mark.parametrize("excess, refused", [(0.9e-9, False), (1.1e-9, True)])
    def test_refuses_a_state_outside_the_ball_as_the_bloch_form_does(self, excess, refused):
        # Both forms refuse an output row with |r| > 1 + core.BALL_TOL, in
        # one message. A state at rest under no field and no damping keeps
        # its |r| exactly.
        r = (1.0 + excess, 0.0, 0.0)
        field = CoherentField(0.0, 0.0, 0.0)
        for integrate, state in ((integrate_bloch, r), (integrate_density, bloch_to_density(r))):
            if refused:
                with pytest.raises(RuntimeError) as info:
                    integrate(field, ZERO_LAMBDA, state, [0.0, 1.0])
                assert str(info.value) == f"integration left the Bloch ball (|r| = {r[0]!r})"
            else:
                assert integrate(field, ZERO_LAMBDA, state, [0.0, 1.0]).bloch[-1, 0] == r[0]

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


class TestInputChecks:
    """Each refusal of the integrators' inputs, by its own message."""

    FIELD = CoherentField(0.0, 1e3, 0.0)

    @pytest.mark.parametrize("integrate", [integrate_bloch, integrate_density])
    @pytest.mark.parametrize(
        "times, message",
        [
            ([1e-3], "need a 1-d time grid with at least two samples"),
            ([[0.0, 1e-3]], "need a 1-d time grid with at least two samples"),
            ([0.0, math.nan, 1e-3], "time grid contains non-finite entries"),
            ([-1e-6, 1e-3], "time grid must start at t >= 0"),
            ([0.0, 1e-3, 1e-3], "time grid must be strictly increasing"),
        ],
        ids=["one-sample", "two-d", "nan", "negative-start", "repeated"],
    )
    def test_grid(self, integrate, times, message):
        state = (0.0, 0.0, 1.0) if integrate is integrate_bloch else bloch_to_density((0.0, 0.0, 1.0))
        with pytest.raises(ValueError) as info:
            integrate(self.FIELD, ZERO_LAMBDA, state, np.array(times))
        assert str(info.value) == message

    @pytest.mark.parametrize("integrate", [integrate_bloch, integrate_density])
    def test_grid_going_back_is_refused_before_stepping(self, tpp, integrate):
        # The end points span 1e-3 s, within the step budget, but the first
        # interval alone would take about 4e6 RK4 steps at the benchmark drive.
        times = np.array([1e-9, 1.0, 1e-3])
        state = (0.0, 0.0, 1.0) if integrate is integrate_bloch else bloch_to_density((0.0, 0.0, 1.0))
        with pytest.raises(ValueError) as info:
            integrate(tpp.field, ZERO_LAMBDA, state, times)
        assert str(info.value) == "time grid must be strictly increasing"

    @pytest.mark.parametrize("integrate", [integrate_bloch, integrate_density])
    @pytest.mark.parametrize("step", [0.0, -1e-6])
    def test_step_must_be_positive(self, integrate, step):
        state = (0.0, 0.0, 1.0) if integrate is integrate_bloch else bloch_to_density((0.0, 0.0, 1.0))
        with pytest.raises(ValueError) as info:
            integrate(self.FIELD, ZERO_LAMBDA, state, np.array([0.0, 1e-3]), step=step)
        assert str(info.value) == "step must be positive"

    @pytest.mark.parametrize("r0", [(0.0, 1.0), (0.0, 0.0, math.inf)])
    def test_bloch_initial_state(self, r0):
        with pytest.raises(ValueError) as info:
            integrate_bloch(self.FIELD, ZERO_LAMBDA, r0, np.array([0.0, 1e-3]))
        assert str(info.value) == "initial state must be a finite length-3 vector"

    @pytest.mark.parametrize("rho0", [np.eye(3) / 3.0, np.array([[1.0, 0.0], [0.0, math.nan]])])
    def test_density_initial_state(self, rho0):
        with pytest.raises(ValueError) as info:
            integrate_density(self.FIELD, ZERO_LAMBDA, rho0, np.array([0.0, 1e-3]))
        assert str(info.value) == "initial state must be a finite 2x2 matrix"
