"""The closed forms against an independent 40-digit oracle.

The oracle evaluates the decay envelope f, the damping modulation g and the
lossless rotation r0 with the standard library's :mod:`decimal` at 40
significant digits. It uses neither :mod:`math` nor numpy: pi comes from
Machin's formula, sin and cos from their Taylor series, exp and sqrt from
:mod:`decimal`, and 1 - e^{-x} from its series where the subtraction would
cancel. Each float input converts to its exact decimal value.

The float results are bounded against it relative to each value's
magnitude (Goldberg 1991; Higham 2002, ch. 1): with eps the unit roundoff
and eta the spacing of subnormals,

- f within K eps (f + X e^{-X} + nu Y e^{-Y}) + K eta, where X = delta t and
  Y = mu t, whose float products round;
- r0 within K eps (1 + |omega t|), a unit vector whose angle is rounded;
- a row f r0 within the f bound plus f times the r0 bound;
- g within K eps (|g| + |t dg/dt|), the error that rounding t by eps would
  make, plus K eta (1 + |g|) / (1 - f) for subnormal products; the slope
  term covers the sign change of g, where its value cancels;
- each lambda_k = g r0_k within the g bound plus |g| times the r0 bound,
  plus K eta for the product's own subnormal rounding.

The value set is the contract test's: rates, residual radii, times and
field components in Hz drawn from its magnitudes. Where eps |omega t| > 1
the float angle carries no digit of the rotation and r0 is not checked.
"""

from decimal import Context, Decimal, localcontext
from functools import cache

import numpy as np
import pytest

from nhbloch.analytic import CoherentField, DecayModel, coherent_bloch, damping_provider, decay_f, trajectory
from test_analytic import KERNEL_FIELDS
from test_cli_contract import MAGNITUDES

DIGITS = 40
EPS = 2.0**-53
ETA = 2.0**-1074
INF = float("inf")
K = 8.0  # a handful of roundings per value
TWO_PI = 6.283185307179586  # the CLI's 2 * math.pi, to turn Hz into rad/s

POSITIVE = [m for m in MAGNITUDES if m > 0.0]
NUS = [m for m in MAGNITUDES if m < 1.0]
DECAYS = [DecayModel(delta, mu, nu) for mu in POSITIVE for delta in POSITIVE if delta >= mu for nu in NUS]
TIMES = POSITIVE
FIELDS = [
    CoherentField(*(TWO_PI * hz for hz in triple))
    for m in MAGNITUDES
    for triple in ((0.0, -m, 0.0), (m, m, -m), (1e3, -m, m))
    if all(abs(TWO_PI * hz) < 1e154 for hz in triple)  # CoherentField.omega squares them
]


def _context(extra=0):
    return localcontext(Context(prec=DIGITS + extra, Emax=10**7, Emin=-(10**7)))


@cache
def _pi(digits):
    """pi = 16 arctan(1/5) - 4 arctan(1/239) (Machin), to ``digits`` digits."""

    def arctan_inverse(n):
        total, k, power = Decimal(0), 0, Decimal(1) / n
        while power > Decimal(10) ** -(digits + 5):
            total += power / (2 * k + 1) * (-1) ** k
            power /= n * n
            k += 1
        return total

    with localcontext(Context(prec=digits + 10)):
        return +(16 * arctan_inverse(5) - 4 * arctan_inverse(239))


def _sin_cos(angle):
    """(sin, cos) of a Decimal angle, reduced into [-pi, pi] at 80 digits."""
    with _context(40):
        two_pi = 2 * _pi(DIGITS + 40)
        x = angle.remainder_near(two_pi)
        s, c, sin_term, cos_term, k = Decimal(0), Decimal(0), x, Decimal(1), 1
        while abs(sin_term) + abs(cos_term) > Decimal(10) ** -(DIGITS + 20):
            s += sin_term
            c += cos_term
            cos_term = -cos_term * x * x / ((k + 1) * k)
            sin_term = -sin_term * x * x / ((k + 1) * (k + 2))
            k += 2
        return +s, +c


def _one_minus_exp(x):
    """1 - e^{-x} for x >= 0, by its series where 1 - exp(-x) would cancel."""
    if x < Decimal("1e-4"):
        total, term, k = Decimal(0), x, 1
        while term and abs(term) > abs(total) * Decimal(10) ** -(DIGITS + 5):
            total += term
            k += 1
            term = -term * x / k
        return total
    return 1 - (-x).exp()


@cache
def oracle_f(delta, mu, nu, t):
    """f(t) = e^{-delta t} + nu (1 - e^{-mu t})."""
    with _context():
        d, m, n, t = map(Decimal, (delta, mu, nu, t))
        return (-d * t).exp() + n * _one_minus_exp(m * t)


@cache
def oracle_g(delta, mu, nu, t):
    """(g, t dg/dt, 1 - f) at t, with g = (delta e^{-delta t} - nu mu e^{-mu t}) / ((1 - f)(1 + f))."""
    with _context():
        d, m, n, t = map(Decimal, (delta, mu, nu, t))
        x, y = d * t, m * t
        e_x, e_y = (-x).exp(), (-y).exp()
        numerator = d * e_x - n * m * e_y
        one_minus_f = _one_minus_exp(x) - n * _one_minus_exp(y)
        f = 1 - one_minus_f
        denominator = one_minus_f * (1 + f)
        # t d/dt of the numerator and of the denominator 1 - f^2.
        t_numerator = -x * d * e_x + y * n * m * e_y
        t_denominator = -2 * f * (-x * e_x + n * y * e_y)
        g = numerator / denominator
        return g, (t_numerator - g * t_denominator) / denominator, one_minus_f


@cache
def oracle_r0(wx, wy, wz, t):
    """(0, 0, 1) turned about the field axis by omega t; None where the float angle carries no digit."""
    with _context():
        w = tuple(map(Decimal, (wx, wy, wz)))
        omega = (w[0] * w[0] + w[1] * w[1] + w[2] * w[2]).sqrt()
        # The library's convention: a field of norm <= 1e-12 max(1, |w_k|) rad/s does not turn the state.
        if omega <= Decimal("1e-12") * max(Decimal(1), *map(abs, w)):
            return (Decimal(0), Decimal(0), Decimal(1)), Decimal(0)
        angle = omega * Decimal(t)
        if angle * Decimal(EPS) > 1:
            return None
        nx, ny, nz = (c / omega for c in w)
        s, c = _sin_cos(angle)
        vers = 1 - c
        return (nx * nz * vers + ny * s, ny * nz * vers - nx * s, nz * nz * vers + c), angle


@cache
def _f_bound(decay, t):
    f = oracle_f(decay.delta, decay.mu, decay.nu, t)
    with _context():
        x, y = Decimal(decay.delta) * Decimal(t), Decimal(decay.mu) * Decimal(t)
        rounded = f + x * (-x).exp() + Decimal(decay.nu) * y * (-y).exp()
    return float(f), K * EPS * float(rounded) + K * ETA


@cache
def _g_bound(decay, t):
    g, t_slope, one_minus_f = oracle_g(decay.delta, decay.mu, decay.nu, t)
    with _context():
        underflow = Decimal(ETA) * (1 + abs(g)) / one_minus_f
        bound = Decimal(K) * (Decimal(EPS) * (abs(g) + abs(t_slope)) + underflow)
    return float(g), float(bound)


def _worst(cases):
    """The largest error / bound ratio over (label, got, want, bound) cases, and its label."""
    ratio, label = 0.0, None
    for case, got, want, bound in cases:
        r = 0.0 if got == want else abs(got - want) / bound
        if not r <= ratio:
            ratio, label = (r if r == r else INF), (case, got, want, bound)  # nan is the worst
    return ratio, label


def test_decay_f():
    cases = []
    for decay in DECAYS:
        for t in (0.0, *TIMES):
            f, bound = _f_bound(decay, t)
            cases.append(((decay, t), decay_f(decay, t), f, bound))
    ratio, worst = _worst(cases)
    assert ratio <= 1.0, worst


def test_coherent_bloch():
    cases = []
    for field in FIELDS:
        for t in (0.0, *TIMES):
            exact = oracle_r0(field.wx, field.wy, field.wz, t)
            if exact is None:
                continue
            r0, angle = exact
            bound = K * EPS * (1.0 + float(angle))
            for k, got in enumerate(coherent_bloch(field, t)):
                cases.append(((field, t, k), got, float(r0[k]), bound))
    ratio, worst = _worst(cases)
    assert ratio <= 1.0, worst


@pytest.mark.parametrize("decayed", [True, False])
def test_trajectory(decayed):
    cases = []
    for field in FIELDS:
        # The CLI refuses a grid over which omega t overflows.
        times = np.array([t for t in (0.0, *TIMES) if field.omega * t < INF])
        for decay in DECAYS[:: 49 if decayed else len(DECAYS)]:
            rows = trajectory(field, decay if decayed else None, times)
            for t, row in zip(times.tolist(), rows.tolist()):
                exact = oracle_r0(field.wx, field.wy, field.wz, t)
                if exact is None:
                    continue
                r0, angle = exact
                f, f_bound = _f_bound(decay, t) if decayed else (1.0, 0.0)
                bound = f_bound + f * K * EPS * (1.0 + float(angle))
                cases += [((field, decay, t, k), row[k], f * float(r0[k]), bound) for k in range(3)]
    ratio, worst = _worst(cases)
    assert ratio <= 1.0, worst


def _provider_cases(field, decays, times):
    cases = []
    for decay in decays:
        provider = damping_provider(field, decay)
        for t in times:
            exact = oracle_r0(field.wx, field.wy, field.wz, t)
            if exact is None:
                continue
            r0, angle = exact
            g, g_bound = _g_bound(decay, t)
            if abs(g) == INF:
                continue  # g = 1/(2t) beyond the float range, at subnormal t
            bound = g_bound + abs(g) * K * EPS * (1.0 + float(angle)) + K * ETA
            cases += [((decay, t, k), got, g * float(r0[k]), bound) for k, got in enumerate(provider(t))]
    return cases


@pytest.mark.parametrize("name", list(KERNEL_FIELDS))
def test_damping_provider(tpp, name):
    """The provider's g r0 on each benchmark field, at the benchmark rates and over the value set.

    The benchmark times include the sign change of g, where the numerator
    cancels, and the 1/(2t) ramp near the seed time.
    """
    field = KERNEL_FIELDS[name](tpp.omega1)
    d = tpp.decay
    t_star = np.log(d.delta / (d.nu * d.mu)) / (d.delta - d.mu)
    cases = _provider_cases(field, [d], (1e-9, 1e-6, 0.5 * t_star, t_star, 2e-3, 1.0, 30.0, *TIMES))
    cases += _provider_cases(field, DECAYS[:: 3], TIMES)
    ratio, worst = _worst(cases)
    assert ratio <= 1.0, worst


@pytest.mark.xfail(
    strict=True,
    reason="FOUND line of CHANGES.md: analytic.damping_provider loses g to cancellation"
    " when nu is within an ulp or so of 1 and delta = mu",
)
@pytest.mark.parametrize("one_minus_nu", [2.0**-20, 2.0**-40])
def test_damping_provider_where_nu_nears_one_at_delta_equal_to_mu(one_minus_nu):
    # 1 - f = (1 - e^{-mu t}) - nu (1 - e^{-mu t}) cancels to (1 - nu)(1 - e^{-mu t}).
    decay = DecayModel(1e3, 1e3, 1.0 - one_minus_nu)
    cases = _provider_cases(CoherentField(0.0, 1e4, 0.0), [decay], (1e-6, 1e-4, 1e-3, 1e-2))
    ratio, worst = _worst(cases)
    assert ratio <= 1.0, worst


def test_oracle_pi_and_sin():
    # Its own digits, checked against themselves: sin(pi/6) = 1/2 and sin^2 + cos^2 = 1.
    with _context():
        s, c = _sin_cos(_pi(DIGITS) / 6)
        assert abs(s - Decimal("0.5")) < Decimal(10) ** -(DIGITS - 2)
        s, c = _sin_cos(Decimal("1e6") + Decimal("0.3"))
        assert abs(s * s + c * c - 1) < Decimal(10) ** -(DIGITS - 2)
    assert str(_pi(DIGITS))[:22] == "3.14159265358979323846"
