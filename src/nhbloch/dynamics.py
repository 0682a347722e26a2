"""Numerical integration of the nonlinear depolarization dynamics.

This module is the numerical cross-check for the closed forms in
:mod:`nhbloch.analytic`. It integrates either

* the Bloch system
    dr_k/dt = r_k (lambda . r) + (w x r)_k - lambda_k,
  or
* the matrix form
    drho/dt = -i [H, rho] - {G - Tr[G rho] 1, rho},

with a classical fixed-step Runge-Kutta 4 scheme. The two forms are affinely
equivalent, so integrating both and comparing is a representation-level
consistency check rather than an independent method.

Both forms take the damping as one provider contract: a callable
``t -> (lambda_x, lambda_y, lambda_z)`` of finite rates in rad/s, such as
:func:`~nhbloch.analytic.damping_provider`. The matrix form builds
G = lambda_x IX + lambda_y IY + lambda_z IZ from the triple; an identity part
lambda0 I0 would be cancelled exactly by the Tr[G rho] shift, so the
contract has no place for it. When the coefficients follow the analytic
g-form they blow up like 1/(2t) toward t = 0, so integrations must start at
a strictly positive seed time and the substep size is capped at
``_RATE_CAP / max_k |lambda_k(t)|`` (``_RATE_CAP`` = 0.01) to resolve the
ramp. Away from the ramp the base step 2*pi / (200 * omega) applies.

The provider must be a pure function of t: the integrators use one value
per distinct time, keyed on the exact float. Within an RK4 step the step limiter
and k1 share the value at t, and k2 and k3 share the value at t + h/2; k4's
value at t + h is reused by the next step only if that step starts exactly
there (the last step of a grid interval ends at the sample time instead).
A provider may also carry an array form ``provider.bulk(times)``, its (N, 3)
rates up to rounding, as :func:`~nhbloch.analytic.damping_provider`'s does.

Both forms run on one RK4 loop, ``_rk4``, which owns the step control, the
provider reuse, the underflow check and the sampling. It runs the scalar
loop, one provider call per new time, on each grid interval that has no
array form to use or whose first step is rate-capped (the 1/(2t) ramp),
and on one longer than a chunk. Other intervals it
plans from the grid alone, ``_CHUNK_STEPS`` cells at a time, evaluates the
rates at all planned midpoints and ends in one array call, and steps them;
an interval that breaks the plan (a capped start, an underflow, a rate that
is not finite) runs the scalar loop after all, so the matrix form refuses a
non-finite rate only where that loop would. Each form hands ``_rk4`` an
``advance(c, c_half, c_end, y, h)`` that takes one RK4 step of a tuple of
Python numbers: the Bloch form writes its four stages out on 3 local floats,
the matrix form calls its 2x2 right-hand side on the 4 complex entries of
rho, in row-major order, and computes each product the right-hand side
needs once. Before stepping, the driver estimates the step count
as the horizon over the base step and refuses more than ``_MAX_STEPS``.
Both integrators return a :class:`~nhbloch.core.Trajectory` (also importable
from here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable

import numpy as np

from .analytic import CoherentField
from .core import I0, IX, IY, IZ, Trajectory, density_to_bloch

__all__ = [
    "DeviationReport", "GammaOperator", "effective_hamiltonian", "fidelity_trace", "field_matrix",
    "integrate_bloch", "integrate_density", "max_deviation",
]

_ID2 = np.eye(2, dtype=complex)

# Steps per field period for the base fixed step.
_STEPS_PER_PERIOD = 200

# Largest h * max_k |lambda_k| of a step: resolves the 1/(2t) damping ramp.
_RATE_CAP = 0.01

# Most base steps an integration may take. A million is about 6 s of
# Bloch-form or 30 s of matrix-form stepping on a 2-vCPU Xeon; the 500 us
# benchmark grid takes ~2.2k, a 2 ms grid ~9k.
_MAX_STEPS = 1_000_000

# Most steps (cells) that ``_rk4`` plans and holds rates for at once.
_CHUNK_STEPS = 512


@dataclass(frozen=True)
class GammaOperator:
    """Damping operator lambda0*I0 + lx*IX + ly*IY + lz*IZ, rates in rad/s.

    The argument of :func:`effective_hamiltonian`. The lambda0 part is
    cancelled exactly by the Tr[G rho] shift and never contributes to the
    dynamics; it is carried for completeness. The integrators take the
    triple (lx, ly, lz) instead.
    """

    lambda0: float
    lx: float
    ly: float
    lz: float

    def __post_init__(self):
        finite = math.isfinite
        if not (finite(self.lambda0) and finite(self.lx) and finite(self.ly) and finite(self.lz)):
            raise ValueError("damping coefficients must be finite")

    @property
    def matrix(self) -> np.ndarray:
        return self.lambda0 * I0 + self.lx * IX + self.ly * IY + self.lz * IZ


@dataclass(frozen=True)
class DeviationReport:
    """Per-component worst-case difference between two equal-grid trajectories."""

    max_abs: tuple[float, float, float]
    time_of_max: tuple[float, float, float]
    overall: float
    overall_time: float


def field_matrix(field: CoherentField) -> np.ndarray:
    """Coherent generator wx*IX + wy*IY + wz*IZ in angular-frequency units."""
    return field.wx * IX + field.wy * IY + field.wz * IZ


def effective_hamiltonian(field: CoherentField, gamma: GammaOperator, rho) -> np.ndarray:
    """Non-Hermitian generator H - i (G - Tr[G rho] 1), coefficients in rad/s.

    The state-dependent shift removes the trace of the anti-Hermitian part,
    which is what keeps the induced evolution trace preserving.
    """
    rho = np.asarray(rho, dtype=complex)
    g = gamma.matrix
    shift = np.trace(g @ rho).real
    return field_matrix(field) - 1j * (g - shift * _ID2)


def _check_grid(times: np.ndarray):
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("need a 1-d time grid with at least two samples")
    if not np.all(np.isfinite(times)):
        raise ValueError("time grid contains non-finite entries")
    if times[0] < 0.0:
        raise ValueError("time grid must start at t >= 0")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("time grid must be strictly increasing")


def _base_step(field: CoherentField, step: float | None) -> float:
    if step is not None:
        if step <= 0.0:
            raise ValueError("step must be positive")
        return step
    om = field.omega
    return (2.0 * math.pi / om) / _STEPS_PER_PERIOD if om > 0.0 else math.inf


def _planned(times: np.ndarray, k: int, base: float, rates, rows):
    """RK4 steps of grid intervals k, k + 1, ... as the scalar loop takes them, and their rates.

    Row r of the plan is the interval ending at times[k + r], column j its
    j-th step: the loop's sequential adds of base (a row-wise accumulate)
    until a step takes the span, at most _CHUNK_STEPS cells in all. One
    ``rates`` call covers every midpoint and end; the first start, at
    times[k - 1], is not rate-capped. Rows are usable up to the first with
    a start the loop would rate-cap, a rate that is not finite, a step that
    underflows or runs out of columns, or a last step ending off the sample
    time. Returns the (c_half, c_end, h) steps, the step count of each
    usable row, the time of the last c_end and whether a row fell back.
    """
    est = np.ceil(np.diff(times[k - 1 : k + _CHUNK_STEPS]) / base)  # base steps per interval
    width = np.maximum.accumulate(est) + 2.0
    n_rows = int(np.count_nonzero(width * np.arange(1, len(width) + 1) <= _CHUNK_STEPS))
    s = np.full((n_rows, int(width[n_rows - 1])), base)
    s[:, 0] = times[k - 1 : k - 1 + n_rows]
    np.add.accumulate(s, axis=1, out=s)
    span = times[k : k + n_rows, None] - s
    # Spans shrink along a row, so the steps short of the span come first.
    longer = span > base
    n = np.minimum(np.count_nonzero(longer, axis=1) + 1, s.shape[1])
    valid = np.arange(s.shape[1]) < n[:, None]
    s, h = s[valid], np.where(longer, base, span)[valid]
    mid, end = s + 0.5 * h, s + h
    r = rates(np.concatenate((mid, end)))
    m, first = len(mid), np.cumsum(n) - n
    # max(|lx|, |ly|, |lz|): the loop's value wherever all three are finite, else not finite.
    a = np.abs(r)
    r_max = np.maximum(np.maximum(a[:, 0], a[:, 1]), a[:, 2])
    with np.errstate(divide="ignore"):
        capped = _RATE_CAP / r_max[m:] < base
    # A sum of the |rates| that overflows also falls back.
    bad = (end == s) | ~np.isfinite(r_max[:m] + r_max[m:])
    bad[1:] |= capped[:-1]  # each end is the next step's start
    row_bad = np.logical_or.reduceat(bad, first) | longer[:, -1]
    row_bad[1:] |= end[first[1:] - 1] != times[k : k - 1 + n_rows]
    usable = int(np.append(row_bad, True).argmax())
    count = int(np.append(first, m)[usable])
    both = rows(r)
    steps = zip(both[:count], both[m : m + count], h[:count].tolist())
    c_time = float(end[count - 1] if count else times[k - 1])
    return steps, n[:usable].tolist(), c_time, usable < n_rows


def _rk4(advance, coefficients, y: tuple, times: np.ndarray, base: float, rates=None, rows=np.ndarray.tolist):
    """Classical RK4 of the state tuple ``y`` across the grid; one state per sample.

    ``coefficients(t)`` is evaluated at most once per distinct time (see the
    module docstring); its value starts with (lambda_x, lambda_y, lambda_z),
    which set the step limit. ``advance(c, c_half, c_end, y, h)`` returns the state
    one RK4 step of size h later, given the coefficients at the step's
    start, midpoint and end. Raises RuntimeError, before stepping, when the
    grid would take more than ``_MAX_STEPS`` base steps.

    ``rates`` is the provider's array form, if any, and ``rows`` turns its
    (N, 3) rates into values of ``coefficients``; see :func:`_planned`.
    """
    grid = times.tolist()
    steps = (grid[-1] - grid[0]) / base
    if steps > _MAX_STEPS:
        raise RuntimeError(
            f"integrating to t = {grid[-1]!r} s would take about {steps:.3g} RK4 steps,"
            f" over the budget of {_MAX_STEPS}; the closed form (--model analytic) has no"
            " step cost"
        )
    states = [y]
    t = grid[0]
    c_time = c = None
    k = 1
    while k < len(grid):
        # An interval of more base steps than a chunk holds runs the scalar loop.
        if rates is not None and (grid[k] - t) / base <= _CHUNK_STEPS - 2:
            if c_time != t:
                c = coefficients(t)
                c_time = t
            # The scalar loop's step limit, as below.
            rate = max(abs(c[0]), abs(c[1]), abs(c[2]))
            if not (rate > 0.0 and _RATE_CAP / rate < base):
                planned, counts, c_last, fell_back = _planned(times, k, base, rates, rows)
                for count in counts:
                    for c_half, c_end, h in islice(planned, count):
                        y = advance(c, c_half, c_end, y, h)
                        c = c_end
                    states.append(y)
                k += len(counts)
                t, c_time = grid[k - 1], c_last
                if not fell_back:
                    continue
        t1 = grid[k]
        while t < t1:
            if c_time != t:
                c = coefficients(t)
            # h = min(min(base, _RATE_CAP / rate), t1 - t) for rate =
            # max(|lx|, |ly|, |lz|), as comparisons in the builtins' order,
            # so a NaN rate picks the same value.
            rate = abs(c[0])
            v = abs(c[1])
            if v > rate:
                rate = v
            v = abs(c[2])
            if v > rate:
                rate = v
            h = base
            if rate > 0.0:
                v = _RATE_CAP / rate
                if v < base:
                    h = v
            span = t1 - t
            if span < h:
                h = span
            if t + h == t:
                raise RuntimeError(f"integration step underflow at t = {t!r}")
            c_half = coefficients(t + 0.5 * h)
            c_time = t + h
            c_end = coefficients(c_time)
            y = advance(c, c_half, c_end, y, h)
            c = c_end
            t = t1 if h >= span else c_time
        states.append(y)
        k += 1
    return states


def integrate_bloch(
    field: CoherentField,
    lambda_provider: Callable[[float], tuple[float, float, float]],
    r0,
    times,
    *,
    step: float | None = None,
) -> Trajectory:
    """Integrate the Bloch-form equations over ``times``; r(times[0]) = r0.

    ``r0`` is any length-3 real sequence. ``lambda_provider`` maps a time to
    the damping triple (lambda_x, lambda_y, lambda_z), such as
    :func:`~nhbloch.analytic.damping_provider`; pass
    ``lambda t: (0.0, 0.0, 0.0)`` for purely coherent motion. One value per
    distinct integrator time is used, from the provider or from its array
    form ``bulk`` (see the module docstring). ``step`` overrides the base step
    (useful for convergence studies); either way h * max|lambda_k| is at
    most ``_RATE_CAP``, which is what resolves the singular ramp of the
    analytic coefficients near the seed time.
    """
    times = np.asarray(times, dtype=float)
    _check_grid(times)
    r_init = np.array(r0, dtype=float)
    if r_init.shape != (3,) or not np.all(np.isfinite(r_init)):
        raise ValueError("initial state must be a finite length-3 vector")
    wx, wy, wz = field.wx, field.wy, field.wz

    def advance(c, c_half, c_end, r, h):
        # dr_k/dt = r_k (lambda . r) + (w x r)_k - lambda_k, four stages.
        x, y, z = r
        half = 0.5 * h
        lx, ly, lz = c
        dot = lx * x + ly * y + lz * z
        ax = x * dot + wy * z - wz * y - lx
        ay = y * dot + wz * x - wx * z - ly
        az = z * dot + wx * y - wy * x - lz
        sx, sy, sz = x + half * ax, y + half * ay, z + half * az
        lx, ly, lz = c_half
        dot = lx * sx + ly * sy + lz * sz
        bx = sx * dot + wy * sz - wz * sy - lx
        by = sy * dot + wz * sx - wx * sz - ly
        bz = sz * dot + wx * sy - wy * sx - lz
        sx, sy, sz = x + half * bx, y + half * by, z + half * bz
        dot = lx * sx + ly * sy + lz * sz
        cx = sx * dot + wy * sz - wz * sy - lx
        cy = sy * dot + wz * sx - wx * sz - ly
        cz = sz * dot + wx * sy - wy * sx - lz
        sx, sy, sz = x + h * cx, y + h * cy, z + h * cz
        lx, ly, lz = c_end
        dot = lx * sx + ly * sy + lz * sz
        dx = sx * dot + wy * sz - wz * sy - lx
        dy = sy * dot + wz * sx - wx * sz - ly
        dz = sz * dot + wx * sy - wy * sx - lz
        w = h / 6.0
        return (
            x + w * (ax + 2.0 * (bx + cx) + dx),
            y + w * (ay + 2.0 * (by + cy) + dy),
            z + w * (az + 2.0 * (bz + cz) + dz),
        )

    base = _base_step(field, step)
    rates = getattr(lambda_provider, "bulk", None)
    states = _rk4(advance, lambda_provider, tuple(r_init.tolist()), times, base, rates)
    out = np.array(states)
    worst = float(np.max(np.sqrt(np.sum(out**2, axis=1))))
    if worst > 1.0 + 1e-9:
        raise RuntimeError(f"integration left the Bloch ball (|r| = {worst!r})")
    return Trajectory(times, out)


def integrate_density(
    field: CoherentField,
    lambda_provider: Callable[[float], tuple[float, float, float]],
    rho0,
    times,
    *,
    step: float | None = None,
) -> Trajectory:
    """Integrate the matrix-form equation; returns Bloch rows plus rho samples.

    ``lambda_provider`` is the same ``t -> (lambda_x, lambda_y, lambda_z)``
    provider that :func:`integrate_bloch` takes, array form included, with
    one value per distinct integrator time; G = lambda_x IX + lambda_y IY +
    lambda_z IZ is built from each triple, and a non-finite rate at a time
    the scalar loop reaches raises ValueError. Trace and Hermiticity are
    preserved by the flow on the unit-trace manifold; the returned
    trajectory re-validates both at 1e-10 on every sample.
    """
    times = np.asarray(times, dtype=float)
    _check_grid(times)
    y = np.array(rho0, dtype=complex)
    if y.shape != (2, 2) or not np.all(np.isfinite(y)):
        raise ValueError("initial state must be a finite 2x2 matrix")
    (h00, h01), (h10, h11) = field_matrix(field).tolist()
    finite = math.isfinite

    def coefficients(t):
        # (lx, ly, lz) followed by G's entries g00, g01, g10, g11, row-major.
        # 0.0 +/- 0.5 * lz is 0.5 * lambda0 +/- 0.5 * lz at lambda0 = 0: it
        # keeps G's diagonal free of -0.0.
        lx, ly, lz = lambda_provider(t)
        if not (finite(lx) and finite(ly) and finite(lz)):
            raise ValueError("damping coefficients must be finite")
        return (
            lx,
            ly,
            lz,
            complex(0.0 + 0.5 * lz),
            complex(0.5 * lx, -0.5 * ly),
            complex(0.5 * lx, 0.5 * ly),
            complex(0.0 - 0.5 * lz),
        )

    def rhs(c, r00, r01, r10, r11):
        # -i [H, rho] - {G - Tr[G rho] 1, rho}, written out for 2x2. Complex
        # products commute bit for bit, so each one is computed once; no sum
        # is reordered.
        _, _, _, g00, g01, g10, g11 = c
        g01r10 = g01 * r10
        g10r01 = g10 * r01
        shift = (g00 * r00 + g01r10 + g10r01 + g11 * r11).real
        s00 = g00 - shift
        s11 = g11 - shift
        h00r00 = h00 * r00
        h11r11 = h11 * r11
        s00r00 = s00 * r00
        s11r11 = s11 * r11
        return (
            -1j * ((h00r00 + h01 * r10) - (h00r00 + r01 * h10))
            - ((s00r00 + g01r10) + (s00r00 + g10r01)),
            -1j * ((h00 * r01 + h01 * r11) - (r00 * h01 + r01 * h11))
            - ((s00 * r01 + g01 * r11) + (r00 * g01 + r01 * s11)),
            -1j * ((h10 * r00 + h11 * r10) - (r10 * h00 + r11 * h10))
            - ((g10 * r00 + s11 * r10) + (r10 * s00 + r11 * g10)),
            -1j * ((h10 * r01 + h11r11) - (r10 * h01 + h11r11))
            - ((g10r01 + s11r11) + (g01r10 + s11r11)),
        )

    def advance(c, c_half, c_end, rho, h):
        r00, r01, r10, r11 = rho
        half = 0.5 * h
        a00, a01, a10, a11 = rhs(c, r00, r01, r10, r11)
        b00, b01, b10, b11 = rhs(
            c_half, r00 + half * a00, r01 + half * a01, r10 + half * a10, r11 + half * a11
        )
        d00, d01, d10, d11 = rhs(
            c_half, r00 + half * b00, r01 + half * b01, r10 + half * b10, r11 + half * b11
        )
        e00, e01, e10, e11 = rhs(c_end, r00 + h * d00, r01 + h * d01, r10 + h * d10, r11 + h * d11)
        w = h / 6.0
        return (
            r00 + w * (a00 + 2.0 * (b00 + d00) + e00),
            r01 + w * (a01 + 2.0 * (b01 + d01) + e01),
            r10 + w * (a10 + 2.0 * (b10 + d10) + e10),
            r11 + w * (a11 + 2.0 * (b11 + d11) + e11),
        )

    def rows(r):
        # coefficients' values for (N, 3) rates, with the same complex constructions.
        hx, hy, hz = 0.5 * r.T
        g = np.zeros((4, len(r)), dtype=complex)
        g.real[:] = 0.0 + hz, hx, hx, 0.0 - hz
        g.imag[1:3] = -hy, hy
        return list(zip(*r.T.tolist(), *g.tolist()))

    rates = getattr(lambda_provider, "bulk", None)
    y0 = tuple(y.ravel().tolist())
    states = _rk4(advance, coefficients, y0, times, _base_step(field, step), rates, rows)
    rho_out = np.array(states).reshape(len(times), 2, 2)
    bloch = np.empty((len(times), 3))
    for i in range(len(times)):
        bloch[i] = density_to_bloch(rho_out[i])
    return Trajectory(times, bloch, rho_out)


def max_deviation(a: Trajectory, b: Trajectory) -> DeviationReport:
    """Worst per-component difference between two trajectories on one grid."""
    if not np.array_equal(a.times, b.times):
        raise ValueError("trajectories are sampled on different grids")
    diff = np.abs(a.bloch - b.bloch)
    idx = np.argmax(diff, axis=0)
    per_comp = tuple(float(diff[idx[k], k]) for k in range(3))
    t_comp = tuple(float(a.times[idx[k]]) for k in range(3))
    flat = int(np.argmax(diff))
    row, col = divmod(flat, 3)
    return DeviationReport(
        max_abs=per_comp,
        time_of_max=t_comp,
        overall=float(diff[row, col]),
        overall_time=float(a.times[row]),
    )


def fidelity_trace(theory: Trajectory, measured: Trajectory) -> np.ndarray:
    """Per-sample state overlap of two trajectories on the same grid.

    The :func:`~nhbloch.core.fidelity` of the two states, row-wise on the
    Bloch rows: Tr[rho_a rho_b] = (1 + ra.rb) / 2 and Tr[rho^2] =
    (1 + |r|^2) / 2 give (1 + ra.rb) / sqrt((1 + |ra|^2) (1 + |rb|^2)).
    """
    if not np.array_equal(theory.times, measured.times):
        raise ValueError("trajectories are sampled on different grids")
    ra, rb = theory.bloch, measured.bloch
    overlap = 1.0 + np.sum(ra * rb, axis=1)
    return overlap / np.sqrt((1.0 + np.sum(ra * ra, axis=1)) * (1.0 + np.sum(rb * rb, axis=1)))
