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

Both forms, and :func:`effective_hamiltonian`, take the damping as one
provider contract: a callable ``t -> (lambda_x, lambda_y, lambda_z)`` of
finite rates in rad/s, such as :func:`~nhbloch.analytic.damping_provider`;
the first triple read that is not finite raises one ValueError, naming its
time. The matrix form builds G = lambda_x IX + lambda_y IY + lambda_z IZ
from the triple; an identity part lambda0 I0 would be cancelled exactly by
the Tr[G rho] shift. When the coefficients follow the analytic g-form
they blow up like 1/(2t) toward t = 0, so integrations must start at
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
provider reuse, the rate and underflow checks and the sampling. It runs
the scalar loop, one provider call per new time, on each grid interval
that has no array form to use or whose first step is rate-capped (the
1/(2t) ramp), and on one longer than a chunk: there each form's
``advance`` takes RK4 steps of its nonlinear equations on Python numbers.
Other intervals it plans from the grid alone, ``_CHUNK_STEPS`` cells at a
time, evaluates the rates at all planned midpoints and ends in one array
call, and steps linearly, for both forms are the normalized image of the
linear non-Hermitian evolution rho~' = -i (K rho~ - rho~ K^+), K = H - iG.
The Bloch form lifts r to (u0, u), with u0' = -lambda . u, u' = w x u -
lambda u0 and r = u / u0; the matrix form steps vec(rho~), row-major,
under A (x) I + I (x) conj(A) for A = -iH - G (-i times
:func:`effective_hamiltonian` before its Tr[G rho] shift), with
rho = rho~ / Tr rho~. Each step's RK4 matrix is built in numpy for the
whole chunk; the state, lifted at the interval start, is carried through
them on Python numbers and normalized at the sample. RK4 commutes with
linear changes of variables, so the two lifts agree to rounding, on the
scalar loop's steps, times and rates. The ramp keeps the nonlinear step:
lifting it too doubled the worst deviation from the closed form of a slow
decay (1 Hz drive, mu = 1/s, from 1e-9 s), while lifting only the planned
intervals moves it by -25 % to +0.16 % on the grids the tests pin. An
interval that breaks the plan (a capped start, an underflow, a rate that
is not finite) runs the scalar loop after all, so both forms refuse a
non-finite rate only where that loop reads one. Before stepping, the
driver refuses a grid of more than ``_MAX_STEPS`` base steps.

Both integrators return a :class:`~nhbloch.core.Trajectory` (also importable
from here) and refuse, in one check, a state with |r| > 1 + ``core.BALL_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

from .analytic import CoherentField
from .core import BALL_TOL, IX, IY, IZ, Trajectory, density_to_bloch

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
    """The damping rates (lx, ly, lz) of G = lx IX + ly IY + lz IZ, in rad/s."""

    lx: float
    ly: float
    lz: float


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


def effective_hamiltonian(field: CoherentField, rates, rho) -> np.ndarray:
    """Non-Hermitian generator H - i (G - Tr[G rho] 1), coefficients in rad/s.

    G = lx IX + ly IY + lz IZ for a provider's triple ``rates``, refused as
    the integrators refuse it. The state-dependent shift removes the trace
    of the anti-Hermitian part, which keeps the evolution trace preserving.
    """
    lx, ly, lz = _finite_rates(rates)
    g = lx * IX + ly * IY + lz * IZ
    shift = np.trace(g @ np.asarray(rho, dtype=complex)).real
    return field_matrix(field) - 1j * (g - shift * _ID2)


def _finite_rates(rates, t: float | None = None):
    """The one rule on a provider's damping rates: ``rates``, or ValueError naming them (and time ``t``)."""
    lx, ly, lz = rates
    if math.isfinite(lx) and math.isfinite(ly) and math.isfinite(lz):
        return rates
    at = "" if t is None else f" at t = {t!r} s"
    raise ValueError(f"the damping rates ({float(lx)!r}, {float(ly)!r}, {float(lz)!r}){at} are not finite")


def _grid(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("need a 1-d time grid with at least two samples")
    if not np.all(np.isfinite(times)):
        raise ValueError("time grid contains non-finite entries")
    if times[0] < 0.0:
        raise ValueError("time grid must start at t >= 0")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("time grid must be strictly increasing")
    return times


def _base_step(field: CoherentField, step: float | None) -> float:
    if step is not None:
        if step <= 0.0:
            raise ValueError("step must be positive")
        return step
    om = field.omega
    return (2.0 * math.pi / om) / _STEPS_PER_PERIOD if om > 0.0 else math.inf


class _Form(NamedTuple):
    """One representation's parts for :func:`_rk4`; the state is a tuple of Python numbers."""

    entries: Callable  # (lx, ly, lz) -> the value ``advance`` takes for one time
    advance: Callable  # (c, c_half, c_end, y, h) -> y one nonlinear RK4 step later
    generator: Callable  # (N, 3) rates -> the lift's generators M(t), v' = M v, as (4, 4, N)
    lift: Callable  # state -> v at an interval start
    normalize: Callable  # v0, v1, v2, v3 -> state at a sample


def _product(a, b):
    """Stacked 4x4 products of (4, 4, N) arrays, one per step: entry (i, j) of
    step n is the sum over k of a[i, k, n] * b[k, j, n], added left to right.
    Steps come last so that each operation runs over contiguous rows of N.

    Complex entries multiply as Python's complex numbers do,
    (ar br - ai bi) + i (ar bi + ai br), on contiguous real and imaginary
    parts; numpy's own complex product may fuse multiply-adds.
    """
    if a.dtype.kind != "c":
        total = a[:, 0, None] * b[0]
        for k in 1, 2, 3:
            total = total + a[:, k, None] * b[k]
        return total
    ar, ai, br, bi = a.real.copy(), a.imag.copy(), b.real.copy(), b.imag.copy()
    for k in range(4):
        xr, xi, yr, yi = ar[:, k, None], ai[:, k, None], br[k], bi[k]
        pr, pi = xr * yr - xi * yi, xr * yi + xi * yr
        re, im = (pr, pi) if k == 0 else (re + pr, im + pi)
    total = np.empty(a.shape, dtype=complex)
    total.real, total.imag = re, im
    return total


def _step_matrices(m0, m_half, m_end, h):
    """The RK4 step v -> R v of v' = M(t) v as a matrix, one per step: (4, 4, N).

    R = I + h/6 (K1 + 2 (K2 + K3) + K4) with K1 = M(t), K2 = M(t + h/2)
    (I + h/2 K1), K3 = M(t + h/2) (I + h/2 K2) and K4 = M(t + h) (I + h K3),
    from the (4, 4, N) generators at each step's start, midpoint and end.
    """
    eye = np.eye(4)[:, :, None]
    half = 0.5 * h
    k2 = _product(m_half, eye + half * m0)
    k3 = _product(m_half, eye + half * k2)
    k4 = _product(m_end, eye + h * k3)
    return eye + (h / 6.0) * (m0 + 2.0 * (k2 + k3) + k4)


def _planned(times, k, base, rates, start, generator):
    """RK4 matrices of grid intervals k, k + 1, ... on the scalar loop's steps.

    Row r of the plan is the interval ending at times[k + r], column j its
    j-th step: the loop's sequential adds of base (a row-wise accumulate)
    until a step takes the span, at most _CHUNK_STEPS cells in all. One
    ``rates`` call covers every midpoint and end; the first start, at
    times[k - 1], has the rates ``start`` and is not rate-capped, and each
    later start is the previous step's end. Rows are usable up to the first
    with a start the loop would rate-cap, a rate that is not finite, a step
    that underflows or runs out of columns, or a last step ending off the
    sample time. Returns an iterator over the usable steps'
    :func:`_step_matrices`, each as 16 numbers in row-major order, the step
    count of each usable row, the rates and time of the last step's end (of
    times[k - 1] if no row is usable) and whether a row fell back.
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
    if not count:
        return (), [], start, float(times[k - 1]), True
    ends = generator(np.concatenate(([start], r[m : m + count])))
    matrices = _step_matrices(ends[..., :-1], generator(r[:count]), ends[..., 1:], h[:count])
    steps = zip(*matrices.reshape(16, count).tolist())
    return steps, n[:usable].tolist(), r[m + count - 1].tolist(), float(end[count - 1]), usable < n_rows


def _rk4(form: _Form, provider, y: tuple, times: np.ndarray, base: float):
    """Classical RK4 of the state tuple ``y`` across the grid; one state per sample.

    ``provider(t)`` is evaluated at most once per distinct time (see the
    module docstring), its (lambda_x, lambda_y, lambda_z) checked by
    :func:`_finite_rates`, and ``form.entries`` turns them into the value
    ``form.advance`` takes; the rates set the step limit. ``advance(c,
    c_half, c_end, y, h)`` returns the state one RK4 step of size h later,
    given that value at the step's start, midpoint and end. Where the
    provider has an array form ``bulk``, the intervals :func:`_planned` lays
    out step the linear lift instead: ``form.lift(y)`` at the interval
    start, one 4x4 RK4 matrix per step, ``form.normalize`` at the sample.
    Raises RuntimeError, before stepping, when the grid would take more than
    ``_MAX_STEPS`` base steps.
    """
    grid = times.tolist()
    steps = (grid[-1] - grid[0]) / base
    if steps > _MAX_STEPS:
        raise RuntimeError(
            f"integrating to t = {grid[-1]!r} s would take about {steps:.3g} RK4 steps,"
            f" over the budget of {_MAX_STEPS}; the closed form (--model analytic) has no"
            " step cost"
        )
    entries, advance, lift, normalize = form.entries, form.advance, form.lift, form.normalize
    read = lambda t: entries(_finite_rates(provider(t), t))
    rates = getattr(provider, "bulk", None)
    states = [y]
    t = grid[0]
    c_time = c = None
    k = 1
    while k < len(grid):
        # An interval of more base steps than a chunk holds runs the scalar loop.
        if rates is not None and (grid[k] - t) / base <= _CHUNK_STEPS - 2:
            if c_time != t:
                c = read(t)
                c_time = t
            # The scalar loop's step limit, as below.
            rate = max(abs(c[0]), abs(c[1]), abs(c[2]))
            if not (rate > 0.0 and _RATE_CAP / rate < base):
                steps, counts, last, last_time, fell_back = _planned(times, k, base, rates, c[:3], form.generator)
                for count in counts:
                    # v -> R v, step by step; a, b, c and d are the rows of R.
                    v0, v1, v2, v3 = lift(y)
                    for a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 in islice(steps, count):
                        v0, v1, v2, v3 = (
                            a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3,
                            b0 * v0 + b1 * v1 + b2 * v2 + b3 * v3,
                            c0 * v0 + c1 * v1 + c2 * v2 + c3 * v3,
                            d0 * v0 + d1 * v1 + d2 * v2 + d3 * v3,
                        )
                    y = normalize(v0, v1, v2, v3)
                    states.append(y)
                k += len(counts)
                t, c, c_time = grid[k - 1], entries(last), last_time
                if not fell_back:
                    continue
        t1 = grid[k]
        while t < t1:
            if c_time != t:
                c = read(t)
            # h = min(min(base, _RATE_CAP / rate), t1 - t) for rate =
            # max(|lx|, |ly|, |lz|), as comparisons: faster than the builtins.
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
            c_half = read(t + 0.5 * h)
            c_time = t + h
            c_end = read(c_time)
            y = advance(c, c_half, c_end, y, h)
            c = c_end
            t = t1 if h >= span else c_time
        states.append(y)
        k += 1
    return states


def _bloch_form(field: CoherentField) -> _Form:
    """The Bloch form's parts: r, and its lift (u0, u) with r = u / u0."""
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

    cross = np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])  # W u = w x u

    def generator(r):
        # u0' = -lambda . u and u' = w x u - lambda u0: M = [[0, -lambda^T], [-lambda, W]].
        m = np.zeros((4, 4, len(r)))
        m[0, 1:] = m[1:, 0] = -r.T
        m[1:, 1:] = cross[:, :, None]
        return m

    return _Form(
        tuple, advance, generator, lambda r: (1.0, *r), lambda u0, x, y, z: (x / u0, y / u0, z / u0)
    )


def _density_form(field: CoherentField) -> _Form:
    """The matrix form's parts: rho's entries, and the unnormalized rho~ with rho = rho~ / Tr rho~."""
    h = field_matrix(field)
    (h00, h01), (h10, h11) = h.tolist()

    def entries(rates):
        # (lx, ly, lz) followed by G's entries g00, g01, g10, g11, row-major.
        # 0.0 +/- 0.5 * lz keeps G's diagonal free of -0.0.
        lx, ly, lz = rates
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

    def generator(r):
        # rho~' = A rho~ + rho~ A^dagger for A = -iH - G, on row-major vec(rho~):
        # A (x) I + I (x) conj(A), entry ((i, j), (k, l)) = A_ik d_jl + d_ik conj(A_jl).
        hx, hy, hz = 0.5 * r.T  # G = [[hz, hx - i hy], [hx + i hy, -hz]]
        zero = np.zeros(len(r))
        a = np.empty((4, len(r)), dtype=complex)  # A00, A01, A10, A11
        a.real = h.imag.reshape(4, 1) - np.stack((hz, hx, hx, -hz))
        a.imag = -h.real.reshape(4, 1) - np.stack((zero, -hy, hy, zero))
        a00, a01, a10, a11 = a
        c00, c01, c10, c11 = a.conj()
        return np.stack(
            (
                a00 + c00, c01, a01, zero,
                c10, a00 + c11, zero, a01,
                a10, zero, a11 + c00, c01,
                zero, a10, c10, a11 + c11,
            )
        ).reshape(4, 4, len(r))

    def normalize(v00, v01, v10, v11):
        trace = v00 + v11
        return (v00 / trace, v01 / trace, v10 / trace, v11 / trace)

    return _Form(entries, advance, generator, tuple, normalize)


def _in_ball(rows: np.ndarray) -> np.ndarray:
    """Both forms' output rule: ``rows``, or RuntimeError naming the largest |r| if it exceeds 1 + ``BALL_TOL``."""
    worst = float(np.max(np.sqrt(np.sum(rows**2, axis=1))))
    if worst > 1.0 + BALL_TOL:
        raise RuntimeError(f"integration left the Bloch ball (|r| = {worst!r})")
    return rows


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
    analytic coefficients near the seed time. A non-finite rate read raises
    ValueError, and a state outside the Bloch ball RuntimeError (see the
    module docstring).
    """
    times = _grid(times)
    r_init = np.array(r0, dtype=float)
    if r_init.shape != (3,) or not np.all(np.isfinite(r_init)):
        raise ValueError("initial state must be a finite length-3 vector")
    states = _rk4(_bloch_form(field), lambda_provider, tuple(r_init.tolist()), times, _base_step(field, step))
    return Trajectory(times, _in_ball(np.array(states)))


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
    one value per distinct integrator time and the same refusal of a
    non-finite rate; G = lambda_x IX + lambda_y IY + lambda_z IZ is built
    from each triple. The ramp's intervals step rho
    itself; the planned ones past it step the unnormalized rho~ of the
    linear non-Hermitian evolution and divide it by its trace at each
    sample (see the module docstring). Trace and Hermiticity are preserved
    by the flow; the returned trajectory re-validates both at 1e-10 on
    every sample. A state outside the Bloch ball raises :func:`integrate_bloch`'s RuntimeError.
    """
    times = _grid(times)
    y = np.array(rho0, dtype=complex)
    if y.shape != (2, 2) or not np.all(np.isfinite(y)):
        raise ValueError("initial state must be a finite 2x2 matrix")
    states = _rk4(_density_form(field), lambda_provider, tuple(y.ravel().tolist()), times, _base_step(field, step))
    rho_out = np.array(states).reshape(len(times), 2, 2)
    return Trajectory(times, _in_ball(density_to_bloch(rho_out)), rho_out)


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
