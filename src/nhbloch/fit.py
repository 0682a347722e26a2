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
while nu sits on a bound of its clip.

Every evaluation of an iterate (:func:`_project`) computes one frame: the
rotation e^{-i w1 t}, p and q as views of the rotated record, a, b, the
residual r = p - a - nu b, b.b and whether nu lies inside its clip. The
normal equations at that iterate are built from it, and the frames of the
start and of the optimum also feed the lab-frame Jacobian :func:`_jacobian`
of the rank check and of the standard errors: cos w1 t and sin w1 t are the
real part and minus the imaginary part of the rotation, and a and b stand
for exp(-delta t) and -expm1(-mu t). (numpy's complex exp gave np.cos and
-np.sin bit for bit in 2e6 samples on x86-64 with numpy 2.4.) The lab-frame
:func:`residuals`, which evaluates the closed-form kernel
:func:`~nhbloch.analytic.trajectory`, stays the reference definition: the
loop and the reference rest on two independent formulations of the model.

m_y never enters the objective, because the model pins it to zero; its rms is
reported separately as a model-mismatch indicator.

A record is a :class:`~nhbloch.core.Trajectory` of measured (m_x, m_y, m_z)
rows. The fit's input rules are :func:`check_record`, which the fit and the
initial guess apply first, :func:`check_resonance` and :func:`check_guess`.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .analytic import DECAY_DOMAIN, CoherentField, DecayModel, trajectory
from .core import Trajectory

# Unused here; perfbench/tracing.py wraps fit.fidelity and fit.bloch_to_density by name.
from .core import bloch_to_density, fidelity  # noqa: F401

__all__ = [
    "DegenerateJacobianError", "FitRangeError", "FitResult", "check_guess", "check_record",
    "check_resonance", "default_initial_guess", "fit_decay_model", "residual_magnetization_stats",
    "residuals",
]

_MAX_COMPONENT = 1.5  # loose physical bound for measured data
_TIME_SCALE = 1e150  # the fit squares t and 1 / span (envelope polyfit, LM Gram matrix)

# LM iteration cap of fit_decay_model.
_MAX_ITERATIONS = 200

_MY_SIGNAL_Z = 5.0  # check_resonance's bound on the z of m_y's von Neumann ratio


class DegenerateJacobianError(RuntimeError):
    """Raised when the fit design has no usable signal (rank-deficient)."""


class FitRangeError(ValueError):
    """Raised when an LM trial step takes (delta, mu, omega1) out of the float range."""


def check_record(record: Trajectory):
    """Raise ValueError on < 8 samples, any |m_k| > 1.5, any |t| > 1e150 s, a span < 1e-150 s or a t < 0."""
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
    if first < 0.0:
        raise ValueError(f"the times start at t = {first!r} s; {DECAY_DOMAIN}")


def check_resonance(record: Trajectory):
    """Raise ValueError on a record whose m_y rules the fit model out.

    The model drives on resonance about +y (phi = 1.5 pi), which keeps m_y at 0; any
    other phase or a detuning puts signal there. The von Neumann ratio
    eta = sum(diff(my)^2) / sum(my^2) of white noise about zero is 2 with variance 4/N,
    and smooth structure pulls it toward 0, so z = (2 - eta) / sqrt(4/N) > _MY_SIGNAL_Z
    flags signal. An m_y below sqrt(eps) of the record's amplitude is rounding residue
    (about 1e-16 on a clean resonant record) and is never signal.
    """
    mx, my, mz = record.bloch.T
    power = float(_dot(len(my))(my, my))
    my_rms = math.sqrt(power / len(my))
    amplitude = max(float(np.max(np.abs(mx))), float(np.max(np.abs(mz))))
    if not my_rms > math.sqrt(np.finfo(float).eps) * amplitude:
        return
    eta = float(np.sum(np.diff(my) ** 2)) / power
    z = (2.0 - eta) / math.sqrt(4.0 / len(my))
    if z > _MY_SIGNAL_Z:
        raise ValueError(
            f"m_y carries signal (rms {my_rms:.3g}, von Neumann z = {z:.1f} > {_MY_SIGNAL_Z:g});"
            " the fit model assumes a resonant drive (phi = 1.5 pi, no detuning), which keeps m_y at 0"
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


def _check_feasible(params: Sequence[float]) -> DecayModel:
    """The DecayModel of (delta, mu, nu, omega1), by its own rules; ValueError unless 0 < omega1 < inf."""
    decay, omega1 = DecayModel(*params[:3]), params[3]
    if not 0.0 < omega1 < math.inf:
        raise ValueError(f"omega1={omega1} must be positive and finite")
    return decay


def residuals(params: Sequence[float], series: Trajectory) -> np.ndarray:
    """Stacked residuals [mx - model_x; mz - model_z] for feasible params.

    The model is the closed-form :func:`~nhbloch.analytic.trajectory` under
    the resonant field (0, w1, 0). m_y is not part of the objective; see the
    module docstring.
    """
    decay = _check_feasible(params)
    model = trajectory(CoherentField(0.0, params[3], 0.0), decay, series.times)
    return np.concatenate([series.bloch[:, 0] - model[:, 0], series.bloch[:, 2] - model[:, 2]])


def _jacobian(params: Sequence[float], times: np.ndarray, frame) -> np.ndarray:
    """d(residual)/d(delta, mu, nu, omega1), shape (2N, 4), from a frame at (delta, mu, omega1)."""
    delta, mu, nu, omega1 = params
    rotation, _, _, e_delta, df_dnu = frame[:5]
    cos, sin = rotation.real, -rotation.imag
    e_mu = np.exp(-mu * times)
    f = e_delta + nu * df_dnu
    df_ddelta = -times * e_delta
    df_dmu = nu * times * e_mu
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


def check_guess(guess: Sequence[float], ratio: float | None):
    """Raise ValueError on an infeasible start (delta, mu, nu, omega1), on a delta / mu (free) or
    ratio * mu (pinned) that overflows, and on a pinned ``ratio`` below 1."""
    _check_feasible(guess)
    delta, mu = guess[:2]
    if ratio is None and delta / mu == math.inf:
        raise ValueError(f"delta / mu overflows, got delta={delta}, mu={mu}")
    if ratio is not None and ratio * mu == math.inf:
        raise ValueError(f"ratio * mu overflows, got ratio={ratio}, mu={mu}")
    if ratio is not None and ratio < 1.0:
        raise ValueError("delta_mu_ratio must be at least 1")


def _encode(params: Sequence[float], ratio: float | None) -> tuple[float, ...]:
    """LM coordinates of (delta, mu, omega1) of a guess that passes check_guess; nu is not one of them."""
    delta, mu, _, omega1 = params
    if ratio is not None:
        return math.log(mu), math.log(omega1)
    return math.log(max(delta / mu - 1.0, 1e-8)), math.log(mu), math.log(omega1)


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


def _demodulate(record: np.ndarray, times: np.ndarray, delta: float, mu: float, omega1: float) -> tuple:
    """(rotation, p, q, a, b) of the complex record m_z + i m_x; see the module docstring.

    p and q are views of the rotated record, so their dot products keep its memory layout.
    """
    rotation = np.exp((-1j * omega1) * times)
    rotated = record * rotation
    return rotation, rotated.real, rotated.imag, np.exp(-delta * times), -np.expm1(-mu * times)


# OpenBLAS splits a dot product of more than 10,000 elements across its
# threads, and the rounding of the sum then follows the thread count. Longer
# vectors are summed over fixed blocks of this many samples instead, in order.
_DOT_BLOCK = 8192


def _dot(n: int):
    """The dot product of two n-sample vectors: x @ y, or beyond _DOT_BLOCK samples the in-order sum of its blocks'."""
    if n <= _DOT_BLOCK:
        return operator.matmul
    return lambda x, y: sum(float(x[i : i + _DOT_BLOCK] @ y[i : i + _DOT_BLOCK]) for i in range(0, n, _DOT_BLOCK))


def _project(record: np.ndarray, times: np.ndarray, theta: Sequence[float], ratio: float | None):
    """Evaluate LM coordinates with nu solved in closed form.

    Returns ``(params, cost, frame)``; ``frame`` is :func:`_demodulate`'s
    tuple followed by (r, b.b, whether nu lies inside its clip), which the
    normal equations, the rank check and the standard errors at this point
    reuse. Raises OverflowError when decoding ``theta`` overflows, and
    ValueError when it decodes to a rate of 0 or inf.
    """
    delta, mu, omega1 = _decode(theta, ratio)
    if not (0.0 < mu <= delta < math.inf and 0.0 < omega1 < math.inf):
        _check_feasible((delta, mu, 0.0, omega1))  # raises before numpy sees the rates; nu is clipped below
    rotation, p, q, a, b = _demodulate(record, times, delta, mu, omega1)
    g = p - a
    dot = _dot(len(times))
    bb = float(dot(b, b))
    nu_star = float(dot(b, g)) / bb if bb > 0.0 else 0.0
    nu = min(max(nu_star, 0.0), _NU_MAX)
    r = g - nu * b
    cost = float(dot(r, r)) + float(dot(q, q))
    return (delta, mu, nu, omega1), cost, (rotation, p, q, a, b, r, bb, bb > 0.0 and nu == nu_star)


def _normal_equations(times: np.ndarray, params, frame, ratio: float | None):
    """J^T J and J^T r of the residual [p - a - nu b; q] in LM coordinates, as tuples."""
    delta, mu, nu, omega1 = params
    _, p, q, a, b, r, bb, interior = frame
    ta = times * a
    # d(p - a - nu b) at fixed nu, one row per coordinate: (s,) log mu, log omega1.
    rows = (delta * ta - (nu * mu) * (times - times * b), omega1 * (times * q))
    if ratio is None:
        rows = ((delta - mu) * ta, *rows)
    # One Gram matrix holds every product needed; -omega1 t p is d q / d log omega1.
    vectors = np.array((*rows, b, r, omega1 * (times * p), q))
    gram = (vectors @ vectors.T).tolist()
    # Row by row: the coordinates' products with (the coordinates, b, r), then
    # b.r, and (-omega1 t p).(-omega1 t p, q) for the q-terms of log omega1.
    if ratio is not None:
        (n00, n01, j0, g0, _, _), (n10, n11, j1, g1, _, _), (_, _, _, br, _, _), _, (*_, pp, pq), _ = gram
        if interior:
            # nu follows the iterate: project b out of every row (Kaufman's form).
            g0, g1 = g0 - j0 * br / bb, g1 - j1 * br / bb
            n00, n01 = n00 - j0 * j0 / bb, n01 - j0 * j1 / bb
            n10, n11 = n10 - j1 * j0 / bb, n11 - j1 * j1 / bb
        return ((n00, n01), (n10, n11 + pp)), (g0, g1 - pq)
    (n00, n01, n02, j0, g0, _, _), (n10, n11, n12, j1, g1, _, _), (n20, n21, n22, j2, g2, _, _) = gram[:3]
    (_, _, _, _, br, _, _), (*_, pp, pq) = gram[3], gram[5]
    if interior:
        g0, g1, g2 = g0 - j0 * br / bb, g1 - j1 * br / bb, g2 - j2 * br / bb
        n00, n01, n02 = n00 - j0 * j0 / bb, n01 - j0 * j1 / bb, n02 - j0 * j2 / bb
        n10, n11, n12 = n10 - j1 * j0 / bb, n11 - j1 * j1 / bb, n12 - j1 * j2 / bb
        n20, n21, n22 = n20 - j2 * j0 / bb, n21 - j2 * j1 / bb, n22 - j2 * j2 / bb
    return ((n00, n01, n02), (n10, n11, n12), (n20, n21, n22 + pp)), (g0, g1, g2 - pq)


def _solve_damped(normal, shift, rhs) -> tuple[float, ...] | None:
    """Solve (normal + diag(shift)) x = rhs in 2 or 3 unknowns; None unless it is positive definite.

    Gaussian elimination without pivoting, written out, which is stable on
    a symmetric positive definite matrix and fails on a pivot <= 0
    otherwise. Plain floats cost about a microsecond where np.linalg.solve
    costs tens.
    """
    if len(rhs) == 2:
        (a00, a01), (a10, a11) = normal
        (s0, s1), (x0, x1) = shift, rhs
        a00 += s0
        if not a00 > 0.0:
            return None
        f1 = a10 / a00
        a11 = a11 + s1 - f1 * a01
        if not a11 > 0.0:
            return None
        x1 = (x1 - f1 * x0) / a11
        return (x0 - a01 * x1) / a00, x1
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = normal
    (s0, s1, s2), (x0, x1, x2) = shift, rhs
    a00 += s0
    if not a00 > 0.0:
        return None
    f1, f2 = a10 / a00, a20 / a00
    a11, a12, x1 = a11 + s1 - f1 * a01, a12 - f1 * a02, x1 - f1 * x0
    a21, a22, x2 = a21 - f2 * a01, a22 + s2 - f2 * a02, x2 - f2 * x0
    if not a11 > 0.0:
        return None
    f3 = a21 / a11
    a22, x2 = a22 - f3 * a12, x2 - f3 * x1
    if not a22 > 0.0:
        return None
    x2 /= a22
    x1 = (x1 - a12 * x2) / a11
    return (x0 - a01 * x1 - a02 * x2) / a00, x1, x2


def _check_rank(params: Sequence[float], times: np.ndarray, ratio: float | None, frame):
    """Refuse a start (``params`` with the guess's nu, and its frame) whose Jacobian is rank deficient.

    The Jacobian is the lab-frame one in (LM coordinates, nu).
    """
    delta, mu, _, omega1 = params
    jac = _jacobian(params, times, frame)
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
    if delta_mu_ratio < 1.0:
        raise ValueError("delta_mu_ratio must be at least 1")
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
    FitRangeError when a trial step leaves the float range, and ValueError
    when the record fails :func:`check_record` or the guess :func:`check_guess`.
    """
    if guess is None:
        guess = default_initial_guess(series, delta_mu_ratio=delta_mu_ratio or 11.5)  # checks the record
    else:
        check_record(series)
    check_guess(guess, delta_mu_ratio)
    theta = _encode(guess, delta_mu_ratio)
    times, record = series.times, series.bloch[:, 2] + 1j * series.bloch[:, 0]
    params, cost, frame = _project(record, times, theta, delta_mu_ratio)
    _check_rank((*params[:2], guess[2], params[3]), times, delta_mu_ratio, frame)
    damping = 1e-3
    iterations = 0
    converged = False

    for iterations in range(1, _MAX_ITERATIONS + 1):
        normal, grad = _normal_equations(times, params, frame, delta_mu_ratio)
        if not all(map(math.isfinite, itertools.chain(grad, *normal))):
            raise DegenerateJacobianError("non-finite Jacobian")
        diag = [row[i] for i, row in enumerate(normal)]
        floor = 1e-12 * max(diag)
        scale = [max(d, floor) for d in diag]
        minus_grad = [-g for g in grad]

        accepted = False
        while damping < 1e15:
            step = _solve_damped(normal, tuple(map(damping.__mul__, scale)), minus_grad)
            if step is None:
                damping *= 10.0
                continue
            candidate = tuple(map(operator.add, theta, step))
            try:
                cand_params, new_cost, cand_frame = _project(record, times, candidate, delta_mu_ratio)
            except OverflowError:
                # exp() of the trial step overflows: reject it like an uphill step.
                damping *= 10.0
                continue
            except ValueError:
                # A rate underflowed to 0 or overflowed to inf. Rejecting the step
                # lets the fit wander on over a cost surface this flat.
                delta, mu, omega1 = _decode(candidate, delta_mu_ratio)
                raise FitRangeError(
                    f"a trial step of LM iteration {iterations} took the fit out of the float range"
                    f" (delta = {delta!r}, mu = {mu!r} 1/s, omega1 = {omega1!r} rad/s)"
                ) from None
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
    errs = _standard_errors(params, times, delta_mu_ratio, cost, frame)
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
    params: Sequence[float], times: np.ndarray, ratio: float | None, cost: float, frame
) -> tuple[float, float, float, float]:
    """Jacobian-based covariance estimate at the optimum, whose frame :func:`_project` gave."""
    jac = _jacobian(params, times, frame)
    if ratio is not None:
        # Free parameters are (mu, nu, omega1) with delta carried along.
        jac = np.column_stack([jac[:, 1] + ratio * jac[:, 0], jac[:, 2], jac[:, 3]])
    k = jac.shape[1]
    dof = max(2 * len(times) - k, 1)
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
