"""Parameter estimation for damped magnetization records.

The model fitted here is

    m_x(t) = f(t) sin(w1 t),   m_z(t) = f(t) cos(w1 t),   m_y(t) = 0,
    f(t)   = exp(-delta t) + nu (1 - exp(-mu t)),

with free parameters (delta, mu, nu, w1). The optimizer is a damped
Gauss-Newton iteration (Levenberg-style lambda control) on an internally
reparameterized vector that keeps the iterate feasible:

    mu = e^m,  delta = mu (1 + e^s),  nu = logistic(q),  w1 = e^w.

The Jacobian is analytic in all four parameters. m_y never enters the
objective, because the model pins it to zero; its rms is reported separately
as a model-mismatch indicator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Unused here; perfbench/tracing.py wraps fit.fidelity and fit.bloch_to_density by name.
from .core import bloch_to_density, fidelity  # noqa: F401
from .dynamics import Trajectory

_MAX_COMPONENT = 1.5  # loose physical bound for measured data


class DegenerateJacobianError(RuntimeError):
    """Raised when the fit design has no usable signal (rank-deficient)."""


@dataclass(frozen=True)
class MagnetizationSeries:
    """Measured magnetization record: times (s) plus the three components."""

    times: np.ndarray
    mx: np.ndarray
    my: np.ndarray
    mz: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("times", "mx", "my", "mz"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            arrays[name] = arr
        n = len(arrays["times"])
        if n < 8:
            raise ValueError(f"need at least 8 samples, got {n}")
        if any(len(a) != n for a in arrays.values()):
            raise ValueError("all columns must have the same length")
        if np.any(np.diff(arrays["times"]) <= 0.0):
            raise ValueError("times must be strictly increasing")
        for name in ("mx", "my", "mz"):
            worst = np.max(np.abs(arrays[name]))
            if worst > _MAX_COMPONENT:
                raise ValueError(f"|{name}| = {worst:.3f} exceeds the sanity bound {_MAX_COMPONENT}")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class FitResult:
    """Estimated parameters, their standard errors and fit diagnostics."""

    delta: float
    mu: float
    nu: float
    omega1: float
    delta_err: float
    mu_err: float
    nu_err: float
    omega1_err: float
    rms: float
    my_rms: float
    iterations: int
    converged: bool


def _check_feasible(params: Sequence[float]):
    delta, mu, nu, omega1 = params
    if not all(math.isfinite(p) for p in (delta, mu, nu, omega1)):
        raise ValueError("parameters must be finite")
    if not (mu > 0.0 and delta >= mu):
        raise ValueError(f"need delta >= mu > 0, got delta={delta}, mu={mu}")
    if not 0.0 <= nu < 1.0:
        raise ValueError(f"nu={nu} outside [0, 1)")
    if omega1 <= 0.0:
        raise ValueError(f"omega1={omega1} must be positive")


def _model(params: Sequence[float], times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    delta, mu, nu, omega1 = params
    f = np.exp(-delta * times) - nu * np.expm1(-mu * times)
    phase = omega1 * times
    return f * np.sin(phase), f * np.cos(phase)


def residuals(params: Sequence[float], series: MagnetizationSeries) -> np.ndarray:
    """Stacked residuals [mx - model_x; mz - model_z] for feasible params.

    m_y is not part of the objective; see the module docstring.
    """
    _check_feasible(params)
    model_x, model_z = _model(params, series.times)
    return np.concatenate([series.mx - model_x, series.mz - model_z])


def _jacobian(params: Sequence[float], times: np.ndarray) -> np.ndarray:
    """d(residual)/d(delta, mu, nu, omega1), shape (2N, 4)."""
    delta, mu, nu, omega1 = params
    e_delta = np.exp(-delta * times)
    e_mu = np.exp(-mu * times)
    f = e_delta - nu * np.expm1(-mu * times)
    phase = omega1 * times
    sin, cos = np.sin(phase), np.cos(phase)
    df_ddelta = -times * e_delta
    df_dmu = nu * times * e_mu
    df_dnu = -np.expm1(-mu * times)
    jac = np.empty((2 * len(times), 4))
    jac[: len(times), 0] = -df_ddelta * sin
    jac[: len(times), 1] = -df_dmu * sin
    jac[: len(times), 2] = -df_dnu * sin
    jac[: len(times), 3] = -f * times * cos
    jac[len(times):, 0] = -df_ddelta * cos
    jac[len(times):, 1] = -df_dmu * cos
    jac[len(times):, 2] = -df_dnu * cos
    jac[len(times):, 3] = f * times * sin
    return jac


def _encode(params: Sequence[float], ratio: float | None) -> np.ndarray:
    delta, mu, nu, omega1 = params
    nu = min(max(nu, 1e-12), 1.0 - 1e-12)
    q = math.log(nu / (1.0 - nu))
    if ratio is None:
        excess = max(delta / mu - 1.0, 1e-8)
        return np.array([math.log(excess), math.log(mu), q, math.log(omega1)])
    return np.array([math.log(mu), q, math.log(omega1)])


def _decode(theta: np.ndarray, ratio: float | None) -> tuple[float, float, float, float]:
    if ratio is None:
        s, m, q, w = theta
        mu = math.exp(m)
        delta = mu * (1.0 + math.exp(s))
    else:
        m, q, w = theta
        mu = math.exp(m)
        delta = ratio * mu
    nu = 1.0 / (1.0 + math.exp(-q))
    return delta, mu, nu, math.exp(w)


def _chain(params: Sequence[float], ratio: float | None) -> np.ndarray:
    """d(delta, mu, nu, omega1)/d(theta) for the internal parameterization."""
    delta, mu, nu, omega1 = params
    if ratio is None:
        t = np.zeros((4, 4))
        t[0, 0] = delta - mu
        t[0, 1] = delta
        t[1, 1] = mu
        t[2, 2] = nu * (1.0 - nu)
        t[3, 3] = omega1
        return t
    t = np.zeros((4, 3))
    t[0, 0] = delta
    t[1, 0] = mu
    t[2, 1] = nu * (1.0 - nu)
    t[3, 2] = omega1
    return t


def default_initial_guess(
    series: MagnetizationSeries, *, delta_mu_ratio: float = 11.5
) -> tuple[float, float, float, float]:
    """Starting point from the data: FFT peak, envelope slope, tail level.

    w1 comes from the dominant discrete-Fourier peak of m_x (parabolic
    refinement); delta from a log-linear fit to the envelope over the first
    quarter of the record; nu from the mean envelope over the last tenth;
    mu anchors to delta / delta_mu_ratio.
    """
    n = len(series)
    if n < 8:
        raise ValueError("record too short for a frequency estimate")
    dt = (series.times[-1] - series.times[0]) / (n - 1)
    spectrum = np.abs(np.fft.rfft(series.mx))
    spectrum[0] = 0.0
    peak = int(np.argmax(spectrum))
    if spectrum[peak] <= 0.0:
        raise DegenerateJacobianError("flat record: no oscillation peak to anchor omega1")
    shift = 0.0
    if 1 <= peak < len(spectrum) - 1:
        left, mid, right = spectrum[peak - 1 : peak + 2]
        denom = left - 2.0 * mid + right
        if denom != 0.0:
            shift = float(np.clip(0.5 * (left - right) / denom, -0.5, 0.5))
    omega1 = 2.0 * math.pi * (peak + shift) / (n * dt)

    envelope = np.hypot(series.mx, series.mz)
    span = series.times[-1] - series.times[0]
    delta_floor = 1e-3 / span
    head = max(n // 4, 3)
    mask = envelope[:head] > 1e-12
    if np.count_nonzero(mask) >= 2:
        slope = np.polyfit(series.times[:head][mask], np.log(envelope[:head][mask]), 1)[0]
        delta = max(-float(slope), delta_floor)
    else:
        delta = delta_floor
    tail = max(n // 10, 2)
    nu = float(np.clip(np.mean(envelope[-tail:]), 1e-6, 1.0 - 1e-6))
    if delta_mu_ratio < 1.0:
        raise ValueError("delta_mu_ratio must be at least 1")
    mu = delta / delta_mu_ratio
    return delta, mu, nu, omega1


def fit_decay_model(
    series: MagnetizationSeries,
    guess: Sequence[float] | None = None,
    *,
    delta_mu_ratio: float | None = None,
    max_iterations: int = 200,
) -> FitResult:
    """Weighted-free least squares on the decaying-oscillation model.

    ``delta_mu_ratio`` pins delta = ratio * mu during the fit (three free
    parameters); otherwise all four are free with delta > mu enforced by
    construction. Deterministic for a fixed input and guess. Returns with
    ``converged=False`` when the iteration cap is hit; raises
    DegenerateJacobianError when the design matrix carries no information.
    """
    if guess is None:
        guess = default_initial_guess(series, delta_mu_ratio=delta_mu_ratio or 11.5)
    _check_feasible(guess)
    if delta_mu_ratio is not None and delta_mu_ratio < 1.0:
        raise ValueError("delta_mu_ratio must be at least 1")

    theta = _encode(guess, delta_mu_ratio)
    params = _decode(theta, delta_mu_ratio)
    r = residuals(params, series)
    cost = float(r @ r)
    damping = 1e-3
    iterations = 0
    converged = False

    for iterations in range(1, max_iterations + 1):
        jac_int = _jacobian(params, series.times) @ _chain(params, delta_mu_ratio)
        if not np.all(np.isfinite(jac_int)):
            raise DegenerateJacobianError("non-finite Jacobian")
        if iterations == 1:
            singular = np.linalg.svd(jac_int, compute_uv=False)
            if singular[0] <= 0.0 or singular[-1] <= 1e-13 * singular[0]:
                raise DegenerateJacobianError("design matrix is numerically rank deficient")
        normal = jac_int.T @ jac_int
        grad = jac_int.T @ r
        scale = np.diag(normal).copy()
        scale = np.maximum(scale, 1e-12 * np.max(scale))

        accepted = False
        step = np.zeros_like(theta)
        new_cost = cost
        while damping < 1e15:
            try:
                step = np.linalg.solve(normal + damping * np.diag(scale), -grad)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            candidate = theta + step
            try:
                cand_params = _decode(candidate, delta_mu_ratio)
            except OverflowError:
                # exp() of the trial step overflows: reject it like an uphill step.
                damping *= 10.0
                continue
            cand_r = residuals(cand_params, series)
            new_cost = float(cand_r @ cand_r)
            if new_cost <= cost:
                accepted = True
                theta, params, r = candidate, cand_params, cand_r
                break
            damping *= 10.0
        if not accepted:
            # No descent direction left at any damping: numerically stationary.
            converged = True
            break
        damping = max(damping / 3.0, 1e-14)
        rel_step = float(np.linalg.norm(step)) / max(1.0, float(np.linalg.norm(theta)))
        rel_drop = (cost - new_cost) / max(cost, 1e-300)
        cost = new_cost
        if rel_step < 1e-10 and rel_drop < 1e-12:
            converged = True
            break

    delta, mu, nu, omega1 = params
    errs = _standard_errors(params, series, delta_mu_ratio, cost)
    n = len(series)
    return FitResult(
        delta=delta,
        mu=mu,
        nu=nu,
        omega1=omega1,
        delta_err=errs[0],
        mu_err=errs[1],
        nu_err=errs[2],
        omega1_err=errs[3],
        rms=math.sqrt(cost / (2 * n)),
        my_rms=math.sqrt(float(np.mean(series.my**2))),
        iterations=iterations,
        converged=converged,
    )


def _standard_errors(
    params: Sequence[float],
    series: MagnetizationSeries,
    ratio: float | None,
    cost: float,
) -> tuple[float, float, float, float]:
    """Jacobian-based covariance estimate at the optimum."""
    jac = _jacobian(params, series.times)
    if ratio is not None:
        # Free parameters are (mu, nu, omega1) with delta carried along.
        jac = np.column_stack([jac[:, 1] + ratio * jac[:, 0], jac[:, 2], jac[:, 3]])
    k = jac.shape[1]
    dof = max(2 * len(series) - k, 1)
    sigma2 = cost / dof
    cov = sigma2 * np.linalg.pinv(jac.T @ jac)
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    if ratio is not None:
        return ratio * err[0], err[0], err[1], err[2]
    return err[0], err[1], err[2], err[3]


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


def residual_magnetization_stats(fits: Iterable[FitResult | float]) -> tuple[float, float]:
    """Mean and half-range of the residual magnetization, in percent.

    Accepts FitResult objects or bare nu values (fractions).
    """
    pcts = [100.0 * (f.nu if isinstance(f, FitResult) else float(f)) for f in fits]
    if len(pcts) < 2:
        raise ValueError("need at least two fits")
    return float(np.mean(pcts)), 0.5 * (max(pcts) - min(pcts))
