"""Parameter estimation for damped magnetization records.

The model fitted here is

    m_x(t) = f(t) sin(w1 t),   m_z(t) = f(t) cos(w1 t),   m_y(t) = 0,
    f(t)   = exp(-delta t) + nu (1 - exp(-mu t)),

with parameters (delta, mu, nu, w1). The fit works in the frame that rotates
with the drive. Turning each sample (m_x, m_z) by -w1 t keeps its norm and
maps the model pair onto (f(t), 0), so with

    p + i q = (m_z + i m_x) e^{-i w1 t}
            = (m_x sin + m_z cos) + i (m_x cos - m_z sin)

the lab-frame cost |m_x - f sin|^2 + |m_z - f cos|^2 equals
|p - f|^2 + |q|^2. nu enters f linearly, so variable projection (Golub &
Pereyra) solves for it in closed form at every iterate,

    nu = b.(p - a) / b.b,   a = exp(-delta t),   b = 1 - exp(-mu t),

clipped to [0, 1). A damped Gauss-Newton iteration (Levenberg-style lambda
control) runs over the remaining coordinates only, which keep the iterate
feasible by construction:

    mu = e^m,  delta = mu (1 + e^s),  w1 = e^w     (free: s, m, w)
    mu = e^m,  delta = ratio mu,      w1 = e^w     (ratio pinned: m, w)

Its Jacobian is the analytic one at fixed nu with the direction b projected
out (Kaufman's form of the variable-projection Jacobian; the exact form did
not lower the iteration counts on noisy benchmark records), or the plain one
while nu sits on a bound of its clip. The lab-frame :func:`residuals`, which
evaluates the closed-form kernel :func:`~nhbloch.analytic.trajectory`, and
:func:`_jacobian` stay the reference definitions: the loop and the reference
rest on two independent formulations of the model. The standard errors come
from :func:`_jacobian`.

m_y never enters the objective, because the model pins it to zero; its rms is
reported separately as a model-mismatch indicator.

A record is a :class:`~nhbloch.core.Trajectory` of measured (m_x, m_y, m_z)
rows; the fit and the initial guess first apply :func:`check_record` to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .analytic import CoherentField, DecayModel, trajectory
from .core import Trajectory

# Unused here; perfbench/tracing.py wraps fit.fidelity and fit.bloch_to_density by name.
from .core import bloch_to_density, fidelity  # noqa: F401

_MAX_COMPONENT = 1.5  # loose physical bound for measured data
_TIME_SCALE = 1e150  # the fit squares t and 1 / span (envelope polyfit, LM Gram matrix)

# LM iteration cap of fit_decay_model.
_MAX_ITERATIONS = 200


class DegenerateJacobianError(RuntimeError):
    """Raised when the fit design has no usable signal (rank-deficient)."""


def check_record(record: Trajectory):
    """Raise ValueError on < 8 samples, any |m_k| > 1.5, any |t| > 1e150 s or a span < 1e-150 s."""
    n = len(record)
    if n < 8:
        raise ValueError(f"need at least 8 samples, got {n}")
    for k, name in enumerate(("mx", "my", "mz")):
        worst = np.max(np.abs(record.bloch[:, k]))
        if worst > _MAX_COMPONENT:
            raise ValueError(f"|{name}| = {worst:.3f} exceeds the sanity bound {_MAX_COMPONENT}")
    first, last = float(record.times[0]), float(record.times[-1])
    if not (max(-first, last) <= _TIME_SCALE and (last - first) * _TIME_SCALE >= 1.0):
        raise ValueError(
            f"the times run from {first!r} to {last!r} s; the fit needs |t| <= {_TIME_SCALE:g} s"
            f" and a span of at least {1.0 / _TIME_SCALE:g} s"
        )


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


def residuals(params: Sequence[float], series: Trajectory) -> np.ndarray:
    """Stacked residuals [mx - model_x; mz - model_z] for feasible params.

    The model is the closed-form :func:`~nhbloch.analytic.trajectory` under
    the resonant field (0, w1, 0). m_y is not part of the objective; see the
    module docstring.
    """
    _check_feasible(params)
    delta, mu, nu, omega1 = params
    model = trajectory(CoherentField(0.0, omega1, 0.0), DecayModel(delta, mu, nu), series.times)
    return np.concatenate([series.bloch[:, 0] - model[:, 0], series.bloch[:, 2] - model[:, 2]])


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


# Largest double below 1: the projected nu is clipped into [0, 1).
_NU_MAX = 1.0 - 2.0**-53


def _encode(params: Sequence[float], ratio: float | None) -> tuple[float, ...]:
    """LM coordinates of (delta, mu, omega1); nu is not one of them."""
    delta, mu, _, omega1 = params
    if ratio is None:
        excess = max(delta / mu - 1.0, 1e-8)
        return math.log(excess), math.log(mu), math.log(omega1)
    return math.log(mu), math.log(omega1)


def _decode(theta: Sequence[float], ratio: float | None) -> tuple[float, float, float]:
    if ratio is None:
        s, m, w = theta
        mu = math.exp(m)
        delta = mu * (1.0 + math.exp(s))
    else:
        m, w = theta
        mu = math.exp(m)
        delta = ratio * mu
    return delta, mu, math.exp(w)


def _demodulate(
    record: np.ndarray, times: np.ndarray, delta: float, mu: float, omega1: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(p, q, a, b) of the complex record m_z + i m_x; see the module docstring."""
    rotated = record * np.exp((-1j * omega1) * times)
    return rotated.real, rotated.imag, np.exp(-delta * times), -np.expm1(-mu * times)


def _project(record: np.ndarray, times: np.ndarray, theta: Sequence[float], ratio: float | None):
    """Evaluate LM coordinates with nu solved in closed form.

    Returns ``(params, cost, frame)``; ``frame`` holds the arrays that the
    normal equations at this point reuse. Raises OverflowError when decoding
    ``theta`` overflows.
    """
    delta, mu, omega1 = _decode(theta, ratio)
    p, q, a, b = _demodulate(record, times, delta, mu, omega1)
    g = p - a
    bb = float(b @ b)
    nu_star = float(b @ g) / bb if bb > 0.0 else 0.0
    nu = min(max(nu_star, 0.0), _NU_MAX)
    params = (delta, mu, nu, omega1)
    _check_feasible(params)
    r = g - nu * b
    cost = float(r @ r) + float(q @ q)
    return params, cost, (p, q, a, b, r, bb, bb > 0.0 and nu == nu_star)


def _normal_equations(times: np.ndarray, params, frame, ratio: float | None):
    """J^T J and J^T r of the residual [p - a - nu b; q] in LM coordinates, as lists."""
    delta, mu, nu, omega1 = params
    p, q, a, b, r, bb, interior = frame
    ta = times * a
    # d(p - a - nu b) at fixed nu, one row per coordinate: (s,) log mu, log omega1.
    rows = [delta * ta - (nu * mu) * (times - times * b), omega1 * (times * q)]
    if ratio is None:
        rows.insert(0, (delta - mu) * ta)
    k = len(rows)
    # One Gram matrix holds every product needed; -omega1 t p is d q / d log omega1.
    vectors = np.array((*rows, b, r, omega1 * (times * p), q))
    gram = (vectors @ vectors.T).tolist()
    normal = [row[:k] for row in gram[:k]]
    grad = [row[k + 1] for row in gram[:k]]
    if interior:
        # nu follows the iterate: project b out of every row (Kaufman's form).
        jb = [row[k] for row in gram[:k]]
        br = gram[k][k + 1]
        for i in range(k):
            grad[i] -= jb[i] * br / bb
            for j in range(k):
                normal[i][j] -= jb[i] * jb[j] / bb
    normal[-1][-1] += gram[k + 2][k + 2]
    grad[-1] -= gram[k + 2][k + 3]
    return normal, grad


def _solve_damped(
    normal: list[list[float]], shift: list[float], rhs: list[float]
) -> list[float] | None:
    """Solve (normal + diag(shift)) x = rhs; None unless that matrix is positive definite.

    Gaussian elimination without pivoting, which is stable on a symmetric
    positive definite matrix and fails on a pivot <= 0 otherwise. At two or
    three unknowns, plain floats cost a few microseconds where
    np.linalg.solve costs tens.
    """
    k = len(rhs)
    a = [row[:] for row in normal]
    x = list(rhs)
    for i in range(k):
        a[i][i] += shift[i]
    for i in range(k):
        pivot = a[i][i]
        if not pivot > 0.0:
            return None
        for j in range(i + 1, k):
            factor = a[j][i] / pivot
            for m in range(i + 1, k):
                a[j][m] -= factor * a[i][m]
            x[j] -= factor * x[i]
    for i in reversed(range(k)):
        s = x[i]
        for m in range(i + 1, k):
            s -= a[i][m] * x[m]
        x[i] = s / a[i][i]
    return x


def _check_rank(params: Sequence[float], times: np.ndarray, ratio: float | None):
    """Refuse a start whose lab-frame Jacobian in (LM coordinates, nu) is rank deficient."""
    delta, mu, _, omega1 = params
    jac = _jacobian(params, times)
    cols = [delta * jac[:, 0] + mu * jac[:, 1], jac[:, 2], omega1 * jac[:, 3]]
    if ratio is None:
        cols.insert(0, (delta - mu) * jac[:, 0])
    jac = np.column_stack(cols)
    if not np.all(np.isfinite(jac)):
        raise DegenerateJacobianError("non-finite Jacobian")
    singular = np.linalg.svd(jac, compute_uv=False)
    if singular[0] <= 0.0 or singular[-1] <= 1e-13 * singular[0]:
        raise DegenerateJacobianError("design matrix is numerically rank deficient")


def default_initial_guess(
    series: Trajectory, *, delta_mu_ratio: float = 11.5
) -> tuple[float, float, float, float]:
    """Starting point from the data: FFT peak, envelope slope, tail level.

    w1 comes from the dominant discrete-Fourier peak of m_x (parabolic
    refinement); delta from a log-linear fit to the envelope over the first
    quarter of the record; nu from the mean envelope over the last tenth;
    mu anchors to delta / delta_mu_ratio.
    """
    check_record(series)
    n = len(series)
    mx, mz = series.bloch[:, 0], series.bloch[:, 2]
    dt = (series.times[-1] - series.times[0]) / (n - 1)
    spectrum = np.abs(np.fft.rfft(mx))
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

    envelope = np.hypot(mx, mz)
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
    series: Trajectory,
    guess: Sequence[float] | None = None,
    *,
    delta_mu_ratio: float | None = None,
) -> FitResult:
    """Weighted-free least squares on the decaying-oscillation model.

    ``delta_mu_ratio`` pins delta = ratio * mu during the fit; otherwise
    delta > mu is enforced by construction. nu is projected out (see the
    module docstring), so the iteration runs over two or three coordinates.
    Deterministic for a fixed input and guess; the guess's nu is used only
    for the rank check at the start. Returns with ``converged=False`` when
    the cap of 200 LM iterations (``_MAX_ITERATIONS``) is hit; raises
    DegenerateJacobianError when the design matrix carries no information,
    and ValueError when the record fails :func:`check_record`.
    """
    if guess is None:
        guess = default_initial_guess(series, delta_mu_ratio=delta_mu_ratio or 11.5)  # checks the record
    else:
        check_record(series)
    _check_feasible(guess)
    if delta_mu_ratio is not None and delta_mu_ratio < 1.0:
        raise ValueError("delta_mu_ratio must be at least 1")

    theta = _encode(guess, delta_mu_ratio)
    delta, mu, omega1 = _decode(theta, delta_mu_ratio)
    _check_rank((delta, mu, guess[2], omega1), series.times, delta_mu_ratio)
    times, record = series.times, series.bloch[:, 2] + 1j * series.bloch[:, 0]
    params, cost, frame = _project(record, times, theta, delta_mu_ratio)
    damping = 1e-3
    iterations = 0
    converged = False

    for iterations in range(1, _MAX_ITERATIONS + 1):
        normal, grad = _normal_equations(times, params, frame, delta_mu_ratio)
        if not all(math.isfinite(v) for v in grad + [v for row in normal for v in row]):
            raise DegenerateJacobianError("non-finite Jacobian")
        diag = [normal[i][i] for i in range(len(grad))]
        floor = 1e-12 * max(diag)
        scale = [max(d, floor) for d in diag]
        minus_grad = [-g for g in grad]

        accepted = False
        while damping < 1e15:
            step = _solve_damped(normal, [damping * s for s in scale], minus_grad)
            if step is None:
                damping *= 10.0
                continue
            candidate = tuple(x + d for x, d in zip(theta, step))
            try:
                cand_params, new_cost, cand_frame = _project(record, times, candidate, delta_mu_ratio)
            except OverflowError:
                # exp() of the trial step overflows: reject it like an uphill step.
                damping *= 10.0
                continue
            if new_cost <= cost:
                accepted = True
                theta, params, frame = candidate, cand_params, cand_frame
                break
            damping *= 10.0
        if not accepted:
            # No descent direction left at any damping: numerically stationary.
            converged = True
            break
        damping = max(damping / 3.0, 1e-14)
        rel_step = math.hypot(*step) / max(1.0, math.hypot(*theta))
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
        my_rms=math.sqrt(float(np.mean(series.bloch[:, 1] ** 2))),
        iterations=iterations,
        converged=converged,
    )


def _standard_errors(
    params: Sequence[float],
    series: Trajectory,
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


def residual_magnetization_stats(nus: Iterable[float]) -> tuple[float, float]:
    """Mean and half-range, in percent, of residual magnetizations nu given as fractions."""
    pcts = [100.0 * float(nu) for nu in nus]
    if len(pcts) < 2:
        raise ValueError("need at least two fits")
    return float(np.mean(pcts)), 0.5 * (max(pcts) - min(pcts))
