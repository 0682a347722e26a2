"""Closed-form trajectories of the damped two-level model.

The undamped Bloch vector precesses about the field axis,

    dr0/dt = w x r0,        |r0| conserved,

and the damped solution is r(t) = f(t) r0(t) with the decay envelope

    f(t) = exp(-delta t) + nu (1 - exp(-mu t)),   f(0) = 1,  f -> nu.

The damping coefficients entering the nonlinear Bloch equations are
lambda_k(t) = g(t) r0_k(t) with

    g(t) = f'(t) / (f(t)^2 - 1)
         = (delta e^{-delta t} - nu mu e^{-mu t}) / (1 - f(t)^2),  t > 0,

which diverges as 1/(2t) at the origin; g is therefore only defined for
strictly positive times and callers needing t -> 0 use the (regular)
trajectory itself. Purity follows as P(t) = 1/2 + f(t)^2 / 2.

:class:`CoherentField` and :class:`DecayModel` each own their input rules.
Every field but the exact zero turns the state: the model has no time scale
of its own, so no drive is too slow to count. ``_rotation`` fixes the axis
(+z for the zero field) once and returns the float t -> r0(t), which is
:func:`coherent_bloch`; :func:`trajectory` evaluates f(t) r0(t) on a time
grid as array expressions, on the same axis. :func:`damping_provider` scales
that rotation by g(t) with :mod:`math` on plain floats, once per distinct
ODE time in the 1/(2t) ramp; its array form serves the steps past the ramp.
``tests/test_oracle.py`` checks f, g, r0 and both provider forms to 40
digits. The single-time functions are the reference the kernel is tested against.
:mod:`nhbloch.cli` seeds the ODE state with :func:`coherent_bloch` or
:func:`damped_bloch`; :func:`gamma_coefficients` has no caller in the
package: the tests take it as their reference and ``perfbench/tracing.py``
wraps it by name. A single state is a float triple (r_x, r_y, r_z) and a
trajectory is (N, 3) rows, as in :mod:`nhbloch.core`; this module imports
nothing from the package.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

__all__ = [
    "CoherentField", "DecayModel", "coherent_bloch", "damped_bloch", "damping_provider", "decay_f",
    "g_root", "gamma_coefficients", "purity_closed_form", "trajectory",
]

# Why a decaying model has no time before 0: f(t) > 1 there.
DECAY_DOMAIN = "the decay f(t) holds for t >= 0 only (|r| > 1 before t = 0)"


@dataclasses.dataclass(frozen=True)
class CoherentField:
    """Angular-frequency components (rad/s) of the driving field, and their norm ``omega``.

    omega = sqrt(wx^2 + wy^2 + wz^2), math.hypot's where that sum is subnormal or 0, is set at
    construction. A component that is not finite, or a square or sum that overflows, raises ValueError.
    """

    wx: float
    wy: float
    wz: float
    omega: float = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = (self.wx, self.wy, self.wz)
        try:
            squares = self.wx**2 + self.wy**2 + self.wz**2
        except OverflowError:  # ** raises where a finite square overflows
            squares = math.inf
        if not squares < math.inf:
            raise ValueError(f"the norm of the field {w!r} rad/s is not finite")
        object.__setattr__(self, "omega", math.hypot(*w) if squares < sys.float_info.min else math.sqrt(squares))


@dataclasses.dataclass(frozen=True)
class DecayModel:
    """Decay rates delta >= mu > 0 (1/s) and residual Bloch radius nu < 1."""

    delta: float
    mu: float
    nu: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.delta, self.mu, self.nu)):
            raise ValueError(
                f"decay parameters must be finite, got delta = {self.delta},"
                f" mu = {self.mu}, nu = {self.nu}"
            )
        if not (self.delta > 0.0 and self.mu > 0.0):
            raise ValueError("decay rates must be positive")
        if self.delta < self.mu:
            raise ValueError(f"delta = {self.delta} must not be below mu = {self.mu}")
        if not 0.0 <= self.nu < 1.0:
            raise ValueError(f"residual radius nu = {self.nu} must lie in [0, 1)")


def _axis(field: CoherentField) -> tuple[float, float, float, float]:
    """The norm and unit axis (omega, nx, ny, nz) of the field; the axis of the zero field is +z."""
    om = field.omega
    if om > 0.0:
        return om, field.wx / om, field.wy / om, field.wz / om
    return om, 0.0, 0.0, 1.0


def _rotation(field: CoherentField):
    """t -> r0(t), the north pole turned about the field axis by omega * t, on plain floats.

    1 - cos is evaluated as 2 sin^2(x/2) to keep small angles accurate. Where
    omega * t overflows to inf it raises ValueError, naming t and the angle.
    """
    om, nx, ny, nz = _axis(field)
    nxz, nyz, nzz = nx * nz, ny * nz, nz * nz
    sin = math.sin

    def r0(t: float) -> tuple[float, float, float]:
        angle = om * t
        try:
            s = sin(angle)
        except ValueError:  # math.sin's "math domain error" at an infinite angle
            raise ValueError(
                f"the rotation angle omega * t = {angle!r} rad overflows at t = {t!r} s"
                f" (omega = {om!r} rad/s)"
            ) from None
        vers = 2.0 * sin(0.5 * angle) ** 2
        return (nxz * vers + ny * s, nyz * vers - nx * s, nzz * vers + 1.0 - vers)

    return r0


def coherent_bloch(field: CoherentField, t: float) -> tuple[float, float, float]:
    """Lossless Bloch vector at time t, starting from the north pole: ``_rotation(field)(t)``."""
    return _rotation(field)(t)


def decay_f(model: DecayModel, t):
    """Decay envelope exp(-delta t) + nu (1 - exp(-mu t)); scalar or array."""
    t = np.asarray(t, dtype=float)
    # delta * t may overflow to inf, where exp(-inf) = 0 is the right value.
    with np.errstate(over="ignore"):
        value = np.exp(-model.delta * t) - model.nu * np.expm1(-model.mu * t)
    return value if value.ndim else float(value)


def g_root(model: DecayModel) -> float:
    """Time at which g changes sign: delta e^{-delta t} = nu mu e^{-mu t}."""
    if model.nu <= 0.0:
        raise ValueError("g never vanishes for nu = 0")
    return math.log(model.delta / (model.nu * model.mu)) / (model.delta - model.mu)


def damped_bloch(field: CoherentField, model: DecayModel, t: float) -> tuple[float, float, float]:
    """Damped Bloch vector f(t) * r0(t); its norm equals f(t)."""
    f = float(decay_f(model, t))
    x, y, z = coherent_bloch(field, t)
    return (f * x, f * y, f * z)


def trajectory(field: CoherentField, decay: DecayModel | None, times) -> np.ndarray:
    """Bloch rows f(t) * r0(t) on a 1-d time grid, shape (N, 3).

    The array form of :func:`damped_bloch` (or of :func:`coherent_bloch` for
    ``decay=None``): same axis, same formulas and the same operation order,
    evaluated once per grid instead of once per sample.
    """
    times = np.asarray(times, dtype=float)
    om, nx, ny, nz = _axis(field)
    angle = om * times
    s = np.sin(angle)
    vers = 2.0 * np.sin(0.5 * angle) ** 2
    rows = np.empty((len(times), 3))
    rows[:, 0] = nx * nz * vers + ny * s
    rows[:, 1] = ny * nz * vers - nx * s
    rows[:, 2] = nz * nz * vers + 1.0 - vers
    if decay is not None:
        rows *= decay_f(decay, times)[:, None]
    return rows


def damping_provider(field: CoherentField, model: DecayModel):
    """The damping coefficients as a function of time: t -> (lambda_x, lambda_y, lambda_z).

    lambda_k(t) = g(t) r0_k(t) in rad/s, for t > 0. The rotation r0 and the
    rates are fixed here, once; each call evaluates g(t) with :mod:`math` on
    plain floats and multiplies ``_rotation(field)(t)`` by it, about 0.7
    microseconds. 1 - f is formed as -expm1(-delta t) + nu expm1(-mu t),
    which does not cancel for small arguments, where g ~ 1/(2t); where it
    still rounds to 0 (delta t and mu t subnormal or 0), g takes that limit
    1/(2t). Where g itself overflows (t subnormal), each rate is formed as
    (numerator r0_k) / denominator instead, so only the rates that overflow
    are not finite. Where omega t overflows to inf, the rotation raises
    ValueError, naming t and the angle.

    ``provider.bulk(times)`` is its array form, the (N, 3) rates at a 1-d
    array of times: the same g in numpy, 1/(2t) branch and overflow
    included, times ``trajectory(field, None, times)``, about 0.15 us per
    time. numpy's exp, expm1 and sin may round the last bit differently from
    :mod:`math`'s. Its rates are NaN where omega t overflows; the ODE loop
    steps such times on the scalar form, so the refusal comes from one place.
    """
    exp, expm1, inf = math.exp, math.expm1, math.inf
    delta, mu, nu = model.delta, model.mu, model.nu
    neg_delta, neg_mu, nu_mu = -delta, -mu, nu * mu
    r0 = _rotation(field)

    def provider(t: float) -> tuple[float, float, float]:
        if t <= 0.0:
            raise ValueError("g(t) is defined for t > 0 only (1/(2t) divergence at 0)")
        e_delta = exp(neg_delta * t)
        em1_mu = expm1(neg_mu * t)
        one_minus_f = -expm1(neg_delta * t) + nu * em1_mu
        numerator = delta * e_delta - nu_mu * exp(neg_mu * t)
        denominator = one_minus_f * (1.0 + (e_delta - nu * em1_mu))
        if not denominator:
            # 1 - f rounds to 0 only when delta t and mu t are subnormal or 0,
            # where g = 1/(2t) (1 + O(delta t)) holds to rounding.
            numerator, denominator = 0.5, t
        g = numerator / denominator
        x, y, z = r0(t)
        if -inf < g < inf:
            return (g * x, g * y, g * z)
        return (numerator * x / denominator, numerator * y / denominator, numerator * z / denominator)

    def bulk(times: np.ndarray) -> np.ndarray:
        # provider's g(t) on arrays, times trajectory's r0: (N, 3) rates.
        if np.any(times <= 0.0):
            raise ValueError("g(t) is defined for t > 0 only (1/(2t) divergence at 0)")
        with np.errstate(all="ignore"):
            e_delta, em1_mu = np.exp(neg_delta * times), np.expm1(neg_mu * times)
            one_minus_f = -np.expm1(neg_delta * times) + nu * em1_mu
            denominator = one_minus_f * (1.0 + (e_delta - nu * em1_mu))
            limit = denominator == 0.0
            numerator = np.where(limit, 0.5, delta * e_delta - nu_mu * np.exp(neg_mu * times))
            denominator = np.where(limit, times, denominator)
            g, rows = numerator / denominator, trajectory(field, None, times)
            rates, wide = rows * g[:, None], ~np.isfinite(g)
            rates[wide] = numerator[wide, None] * rows[wide] / denominator[wide, None]
            return rates

    provider.bulk = bulk
    return provider


def gamma_coefficients(
    field: CoherentField, model: DecayModel, t: float
) -> tuple[float, float, float]:
    """Damping coefficients lambda_k(t) = g(t) r0_k(t), rad/s; needs t > 0.

    A single-time view of :func:`damping_provider`; callers that need many
    times build the provider once.
    """
    return damping_provider(field, model)(t)


def purity_closed_form(model: DecayModel, t):
    """Purity 1/2 + f(t)^2 / 2 along the damped trajectory; scalar or array."""
    f = decay_f(model, t)
    return 0.5 + 0.5 * f * f
