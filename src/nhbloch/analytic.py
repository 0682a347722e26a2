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

:func:`trajectory` is the bulk API: it evaluates f(t) r0(t) on a whole time
grid as array expressions. :func:`damping_provider` is the per-step API: it
fixes the field axis and the rates once and returns the ODE damping provider,
which the integrators call once per distinct time, so it is written with
:mod:`math` on plain floats, with :func:`coherent_bloch`'s operation order
for r0; ``tests/test_oracle.py`` checks f, g and r0 to 40 digits. The others
(:func:`coherent_bloch`, :func:`damped_bloch`, :func:`gamma_coefficients`)
serve single-time callers and are the reference the kernel is tested
against. A single state is a float triple (r_x, r_y, r_z) and a trajectory
is (N, 3) rows, as in :mod:`nhbloch.core`; this module imports nothing from
the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative scale below which the field is treated as exactly zero: the
# rotation axis is then undefined and the state simply stays put.
_DEGENERATE_FIELD = 1e-12


@dataclass(frozen=True)
class CoherentField:
    """Angular-frequency components (rad/s) of the driving field."""

    wx: float
    wy: float
    wz: float

    def __post_init__(self):
        if not all(math.isfinite(w) for w in (self.wx, self.wy, self.wz)):
            raise ValueError("field components must be finite")

    @property
    def omega(self) -> float:
        """Effective angular frequency sqrt(wx^2 + wy^2 + wz^2)."""
        return math.sqrt(self.wx**2 + self.wy**2 + self.wz**2)


@dataclass(frozen=True)
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


def _axis(field: CoherentField) -> tuple[float, float, float, float] | None:
    """The norm and unit axis (omega, nx, ny, nz) of the field, or None where it is degenerate."""
    om = field.omega
    if om <= _DEGENERATE_FIELD * max(1.0, abs(field.wx), abs(field.wy), abs(field.wz)):
        return None
    return om, field.wx / om, field.wy / om, field.wz / om


def coherent_bloch(field: CoherentField, t: float) -> tuple[float, float, float]:
    """Lossless Bloch vector at time t, starting from the north pole.

    Rotation of (0, 0, 1) about the field axis by angle omega*t; 1 - cos is
    evaluated as 2 sin^2(x/2) to keep small angles accurate.
    """
    axis = _axis(field)
    if axis is None:
        return (0.0, 0.0, 1.0)
    om, nx, ny, nz = axis
    angle = om * t
    s = math.sin(angle)
    vers = 2.0 * math.sin(0.5 * angle) ** 2
    return (
        nx * nz * vers + ny * s,
        ny * nz * vers - nx * s,
        nz * nz * vers + 1.0 - vers,
    )


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
    ``decay=None``): same formulas, same operation order and the same
    degenerate-field rule, evaluated once per grid instead of once per
    sample.
    """
    times = np.asarray(times, dtype=float)
    rows = np.empty((len(times), 3))
    axis = _axis(field)
    if axis is None:
        rows[:] = (0.0, 0.0, 1.0)
    else:
        om, nx, ny, nz = axis
        angle = om * times
        s = np.sin(angle)
        vers = 2.0 * np.sin(0.5 * angle) ** 2
        rows[:, 0] = nx * nz * vers + ny * s
        rows[:, 1] = ny * nz * vers - nx * s
        rows[:, 2] = nz * nz * vers + 1.0 - vers
    if decay is not None:
        rows *= decay_f(decay, times)[:, None]
    return rows


def damping_provider(field: CoherentField, model: DecayModel):
    """The damping coefficients as a function of time: t -> (lambda_x, lambda_y, lambda_z).

    lambda_k(t) = g(t) r0_k(t) in rad/s, for t > 0. The field norm, the unit
    axis, the degenerate-field decision and the rates are fixed here, once;
    each call evaluates g(t) times ``coherent_bloch(field, t)`` with
    :mod:`math` on plain floats, a couple of microseconds. 1 - f is formed as
    -expm1(-delta t) + nu expm1(-mu t), which does not cancel for small
    arguments, where g ~ 1/(2t); where it still rounds to 0 (delta t and mu t
    subnormal or 0), g takes that limit 1/(2t).
    """
    exp, expm1, sin = math.exp, math.expm1, math.sin
    delta, mu, nu = model.delta, model.mu, model.nu
    neg_delta, neg_mu, nu_mu = -delta, -mu, nu * mu
    axis = _axis(field)
    degenerate = axis is None
    if not degenerate:
        om, nx, ny, nz = axis
        nxz, nyz, nzz = nx * nz, ny * nz, nz * nz

    def provider(t: float) -> tuple[float, float, float]:
        if t <= 0.0:
            raise ValueError("g(t) is defined for t > 0 only (1/(2t) divergence at 0)")
        e_delta = exp(neg_delta * t)
        em1_mu = expm1(neg_mu * t)
        one_minus_f = -expm1(neg_delta * t) + nu * em1_mu
        f = e_delta - nu * em1_mu
        try:
            g = (delta * e_delta - nu_mu * exp(neg_mu * t)) / (one_minus_f * (1.0 + f))
        except ZeroDivisionError:
            # 1 - f rounds to 0 only when delta t and mu t are subnormal or 0,
            # where g = 1/(2t) (1 + O(delta t)) holds to rounding.
            g = 0.5 / t
        if degenerate:
            # coherent_bloch's north pole (0, 0, 1), signed zeros included.
            return (g * 0.0, g * 0.0, g)
        angle = om * t
        s = sin(angle)
        vers = 2.0 * sin(0.5 * angle) ** 2
        return (
            g * (nxz * vers + ny * s),
            g * (nyz * vers - nx * s),
            g * (nzz * vers + 1.0 - vers),
        )

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
