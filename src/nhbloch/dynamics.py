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

Damping coefficients are supplied as a callable of time; when they follow
the analytic g-form they blow up like 1/(2t) toward t = 0, so integrations
must start at a strictly positive seed time and the substep size is capped
at ``rate_cap / max_k |lambda_k(t)|`` to resolve the ramp. Away from the
ramp the base step 2*pi / (200 * omega) applies.

The provider must be a pure function of t: the integrators call it once per
distinct time, keyed on the exact float. Within an RK4 step the step limiter
and k1 share the value at t, and k2 and k3 share the value at t + h/2; k4's
value at t + h is reused by the next step only if that step starts exactly
there (the last step of a grid interval ends at the sample time instead).

Both forms run on one scalar RK4 loop that steps a tuple of Python
numbers: 3 floats for the Bloch form and the 4 complex entries of rho, in
row-major order, for the matrix form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import CoherentField
from .core import I0, IX, IY, IZ, BlochVector, density_to_bloch

_ID2 = np.eye(2, dtype=complex)

# Steps per field period for the base fixed step.
_STEPS_PER_PERIOD = 200

# Trace / Hermiticity slack accepted for numerically produced matrices.
_MATRIX_TOL = 1e-10


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: times (s), Bloch rows (N, 3), optional rho (N, 2, 2).

    Times must be strictly increasing and all samples finite; stored density
    matrices must be Hermitian with unit trace to 1e-10. Arrays are frozen
    after construction so a trajectory can be shared freely.
    """

    times: np.ndarray
    bloch: np.ndarray
    rho: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        bloch = np.asarray(self.bloch, dtype=float)
        if times.ndim != 1 or len(times) == 0:
            raise ValueError("times must be a non-empty 1-d array")
        if bloch.shape != (len(times), 3):
            raise ValueError(f"bloch shape {bloch.shape} does not match {len(times)} times")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(bloch)):
            raise ValueError("trajectory contains non-finite entries")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        rho = self.rho
        if rho is not None:
            rho = np.asarray(rho, dtype=complex)
            if rho.shape != (len(times), 2, 2):
                raise ValueError(f"rho shape {rho.shape} does not match {len(times)} times")
            herm = np.max(np.abs(rho - np.conj(np.swapaxes(rho, 1, 2))))
            if herm > _MATRIX_TOL:
                raise ValueError(f"stored matrices not Hermitian (defect {herm:.3e})")
            traces = np.einsum("nii->n", rho).real
            worst = np.max(np.abs(traces - 1.0))
            if worst > _MATRIX_TOL:
                raise ValueError(f"stored matrices not unit trace (defect {worst:.3e})")
            rho.setflags(write=False)
        times.setflags(write=False)
        bloch.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "bloch", bloch)
        object.__setattr__(self, "rho", rho)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class GammaOperator:
    """Damping operator lambda0*I0 + lx*IX + ly*IY + lz*IZ, rates in rad/s.

    The lambda0 part is cancelled exactly by the Tr[G rho] shift and never
    contributes to the dynamics; it is carried for completeness.
    """

    lambda0: float
    lx: float
    ly: float
    lz: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.lambda0, self.lx, self.ly, self.lz)):
            raise ValueError("damping coefficients must be finite")

    @property
    def matrix(self) -> np.ndarray:
        return self.lambda0 * I0 + self.lx * IX + self.ly * IY + self.lz * IZ

    @classmethod
    def from_matrix(cls, m) -> GammaOperator:
        """Recover coefficients from a Hermitian 2x2 matrix (exact round trip)."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("damping operator must be Hermitian")
        return cls(
            float((m[0, 0] + m[1, 1]).real),
            float(2.0 * m[1, 0].real),
            float(2.0 * m[1, 0].imag),
            float((m[0, 0] - m[1, 1]).real),
        )


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


def _rk4(rhs, coefficients, y: tuple, times: np.ndarray, base: float, rate_cap: float):
    """Classical RK4 of the state tuple ``y`` across the grid; one state per sample.

    ``coefficients(t)`` is evaluated once per distinct time (see the module
    docstring); its value starts with (lambda_x, lambda_y, lambda_z), which
    set the step limit. ``rhs(c, y)`` returns dy/dt as a tuple, given the
    coefficients ``c`` at that time.
    """
    grid = times.tolist()
    states = [y]
    t = grid[0]
    c_time = c = None
    for t1 in grid[1:]:
        while t < t1:
            if c_time != t:
                c = coefficients(t)
            rate = max(abs(c[0]), abs(c[1]), abs(c[2]))
            h = min(base, rate_cap / rate) if rate > 0.0 else base
            h = min(h, t1 - t)
            if t + h == t:
                raise RuntimeError(f"integration step underflow at t = {t!r}")
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
    return states


def integrate_bloch(
    field: CoherentField,
    lambda_provider: Callable[[float], tuple[float, float, float]],
    r0,
    times,
    *,
    step: float | None = None,
    rate_cap: float = 0.01,
) -> Trajectory:
    """Integrate the Bloch-form equations over ``times``; r(times[0]) = r0.

    ``lambda_provider`` maps a time to the damping triple (lambda_x,
    lambda_y, lambda_z); pass ``lambda t: (0.0, 0.0, 0.0)`` for purely
    coherent motion. It is called once per distinct integrator time.
    ``step`` overrides the base step (useful for convergence studies);
    ``rate_cap`` bounds h * max|lambda_k|, which is what resolves the
    singular ramp of the analytic coefficients near the seed time.
    """
    times = np.asarray(times, dtype=float)
    _check_grid(times)
    r_init = r0.as_array() if isinstance(r0, BlochVector) else np.array(r0, dtype=float)
    if r_init.shape != (3,) or not np.all(np.isfinite(r_init)):
        raise ValueError("initial state must be a finite length-3 vector")
    wx, wy, wz = field.wx, field.wy, field.wz

    def rhs(lam, r):
        lx, ly, lz = lam
        x, y, z = r
        dot = lx * x + ly * y + lz * z
        return (
            x * dot + wy * z - wz * y - lx,
            y * dot + wz * x - wx * z - ly,
            z * dot + wx * y - wy * x - lz,
        )

    base = _base_step(field, step)
    states = _rk4(rhs, lambda_provider, tuple(r_init.tolist()), times, base, rate_cap)
    out = np.array(states)
    worst = float(np.max(np.sqrt(np.sum(out**2, axis=1))))
    if worst > 1.0 + 1e-9:
        raise RuntimeError(f"integration left the Bloch ball (|r| = {worst!r})")
    return Trajectory(times, out)


def _gamma_entries(gamma: GammaOperator) -> tuple:
    """(lx, ly, lz) followed by the entries g00, g01, g10, g11 of G, row-major."""
    l0, lx, ly, lz = gamma.lambda0, gamma.lx, gamma.ly, gamma.lz
    return (
        lx,
        ly,
        lz,
        complex(0.5 * l0 + 0.5 * lz),
        complex(0.5 * lx, -0.5 * ly),
        complex(0.5 * lx, 0.5 * ly),
        complex(0.5 * l0 - 0.5 * lz),
    )


def integrate_density(
    field: CoherentField,
    gamma_provider: Callable[[float], GammaOperator],
    rho0,
    times,
    *,
    step: float | None = None,
    rate_cap: float = 0.01,
) -> Trajectory:
    """Integrate the matrix-form equation; returns Bloch rows plus rho samples.

    ``gamma_provider`` is called once per distinct integrator time. Trace
    and Hermiticity are preserved by the flow on the unit-trace manifold;
    the returned trajectory re-validates both at 1e-10 on every sample.
    """
    times = np.asarray(times, dtype=float)
    _check_grid(times)
    y = np.array(rho0, dtype=complex)
    if y.shape != (2, 2) or not np.all(np.isfinite(y)):
        raise ValueError("initial state must be a finite 2x2 matrix")
    (h00, h01), (h10, h11) = field_matrix(field).tolist()

    def rhs(c, rho):
        # -i [H, rho] - {G - Tr[G rho] 1, rho}, written out for 2x2.
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

    states = _rk4(
        rhs,
        lambda t: _gamma_entries(gamma_provider(t)),
        tuple(y.ravel().tolist()),
        times,
        _base_step(field, step),
        rate_cap,
    )
    rho_out = np.array(states).reshape(len(times), 2, 2)
    bloch = np.empty((len(times), 3))
    for i in range(len(times)):
        bloch[i] = density_to_bloch(rho_out[i]).as_array()
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
