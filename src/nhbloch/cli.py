"""Command-line front end: simulate, fit, compare and thermal subcommands.

Frequencies are taken in Hz on the command line and converted by 2*pi
internally; decay rates are plain 1/s; angles are given in units of pi
(``--phi 1.5`` means 3*pi/2). Every float flag must be finite. Trajectory
tables are written and read by :mod:`nhbloch.table`, whose module docstring
states their CSV contract. JSON results carry ``schema_version`` "1" and are
strict JSON (no NaN or Infinity). File writes are whole-file atomic.

Exit codes: 0 success; 1 with one ``error:`` line when a flag, a flag
combination or an input file is refused; 2 with one ``numerical failure:``
line when the computation cannot answer (an ODE run over its step budget, out of
the Bloch ball or on a damping rate that is not finite, a failed fit, a record
whose m_y rules the fit model out, a result that strict JSON cannot hold, a
compare whose arithmetic overflows, a fit stopped at its iteration cap, whose
result is written first, or a free fit whose LM step leaves the float range). A
CSV source is read by its format alone; ``fit`` calls the input rules of
:mod:`nhbloch.fit` and maps their refusals to exit codes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from .analytic import (
    DECAY_DOMAIN,
    CoherentField,
    DecayModel,
    coherent_bloch,
    damped_bloch,
    damping_provider,
    gamma_coefficients,  # noqa: F401 -- unused; perfbench/tracing.py wraps it by name
    trajectory,
)
from .core import bloch_to_density, purity
from .dynamics import (
    GammaOperator,  # noqa: F401 -- unused; perfbench/tracing.py wraps it by name
    Trajectory,
    Trajectory as MagnetizationSeries,  # noqa: F401 -- unused; perfbench/tracing.py wraps it by name
    fidelity_trace,
    integrate_bloch,
    integrate_density,
    max_deviation,
)
from .fit import FitRangeError, check_guess, check_record, check_resonance, fit_decay_model
from .nmr import (
    ROOM_TEMPERATURE_K, drive_field, partition_function, polarization_factor, thermal_argument, thermal_state,
)
from .table import UsageError, _csv_text, _read_series, _write_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

_MODELS = ("analytic", "ode-bloch", "ode-density")

# Seed time for ODE runs with decay: the damping coefficients diverge at 0.
_SINGULAR_T0 = 1e-9


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _finite(text: str) -> float:
    """argparse type of every float flag: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("not a finite number")
    return value


# A negative number in decimal or exponent form. argparse's own pattern (on
# Python 3.10 and 3.11) matches plain decimals only, so it took "-1e-09" for a
# flag, and "--field-hz -1e-09 0 1e3" failed with "expected 3 arguments".
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative number, exponent form too, as a value.

    Its subparsers are of this class too (argparse makes them of the parent's).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _add_field_args(sp: argparse.ArgumentParser):
    sp.add_argument("--rabi-hz", type=_finite, help="drive strength nu_1 in Hz (omega_1 = 2 pi nu_1)")
    sp.add_argument("--phi", type=_finite, default=1.5, help="drive phase in units of pi (default 1.5)")
    sp.add_argument("--detuning-hz", type=_finite, default=0.0, help="larmor minus drive frequency, Hz")
    sp.add_argument(
        "--field-hz",
        type=_finite,
        nargs=3,
        metavar=("WX", "WY", "WZ"),
        help="explicit field components in Hz (overrides --rabi-hz)",
    )


def _add_decay_args(sp: argparse.ArgumentParser):
    sp.add_argument("--delta", type=_finite, help="fast decay rate, 1/s")
    sp.add_argument("--mu", type=_finite, help="slow decay rate, 1/s")
    sp.add_argument("--nu", type=_finite, help="residual bloch radius (dimensionless)")
    sp.add_argument("--delta-mu-ratio", type=_finite, help="set delta = ratio * mu")


def _add_grid_args(sp: argparse.ArgumentParser):
    sp.add_argument("--t-max", type=_finite, help="last sample time, s")
    sp.add_argument("--samples", type=int, help="number of samples (default 251)")
    sp.add_argument(
        "--t-start",
        type=_finite,
        help="first sample time, s (default 0; ODE models with decay default to 1e-9)",
    )


def _rad_per_s(flag: str, hz: float) -> float:
    """The angular frequency 2*pi*hz of the Hz flag ``flag``; overflow is a usage error."""
    omega = 2.0 * math.pi * hz
    if not math.isfinite(omega):
        raise UsageError(f"{flag} {hz!r} Hz is out of range (2*pi times it overflows)")
    return omega


def _field_flags(args) -> str:
    """The flags that set the field, with their values, for messages."""
    if args.field_hz is not None:
        return "--field-hz " + " ".join(map(repr, args.field_hz))
    return f"--rabi-hz {args.rabi_hz!r} and --detuning-hz {args.detuning_hz!r}"


def _field_from_args(args) -> CoherentField:
    if args.field_hz is not None:
        build, values = CoherentField, [_rad_per_s("--field-hz", w) for w in args.field_hz]
    else:
        if args.rabi_hz is None:
            raise UsageError("need --rabi-hz or --field-hz")
        if args.rabi_hz <= 0.0:
            raise UsageError("--rabi-hz must be positive")
        omega1 = _rad_per_s("--rabi-hz", args.rabi_hz)
        phase = math.pi * args.phi
        if not math.isfinite(phase):
            raise UsageError(f"--phi {args.phi!r} is out of range (pi times it overflows)")
        build, values = drive_field, (omega1, phase, _rad_per_s("--detuning-hz", args.detuning_hz))
    try:
        return build(*values)
    except ValueError:  # the components are finite, so it is their norm that overflows
        raise UsageError(f"the field of {_field_flags(args)} Hz is out of range (its norm overflows)") from None


def _decay_from_args(args) -> DecayModel | None:
    given = [v is not None for v in (args.delta, args.mu, args.nu, args.delta_mu_ratio)]
    if not any(given):
        return None
    if args.mu is None or args.nu is None:
        raise UsageError("decay needs --mu and --nu plus either --delta or --delta-mu-ratio")
    if (args.delta is None) == (args.delta_mu_ratio is None):
        raise UsageError("give exactly one of --delta or --delta-mu-ratio")
    delta = args.delta if args.delta is not None else args.delta_mu_ratio * args.mu
    try:
        return DecayModel(delta, args.mu, args.nu)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_start(start: float, model: str, decay: DecayModel | None, source: str | None = None):
    """Refuse a grid start outside the model's domain: file ``source``'s first time, or --t-start."""
    ode = model.startswith("ode")
    if ode and decay is not None and start <= 0.0:
        if source is None:
            raise UsageError("ODE models with decay need --t-start > 0 (damping diverges at t = 0)")
        reason = "ODE models with decay need t > 0 (damping diverges at t = 0)"
    elif ode and start < 0.0:
        reason = "the ODE models start at t >= 0"
    elif decay is not None and start < 0.0:
        reason = DECAY_DOMAIN
    else:
        return
    if source is None:
        raise UsageError(f"--t-start {start!r} is negative; {reason}")
    raise UsageError(f"the times of {source} start at t = {start!r} s; {reason}")


def _grid_from_args(args, model: str, decay: DecayModel | None) -> np.ndarray:
    if args.t_max is None:
        raise UsageError("need --t-max")
    samples = 251 if args.samples is None else args.samples
    if samples < 2:
        raise UsageError("--samples must be at least 2")
    t_start, start = args.t_start, f"--t-start {args.t_start!r}"
    if t_start is None:
        seeded = decay is not None and model.startswith("ode")
        t_start = _SINGULAR_T0 if seeded else 0.0
        start = f"the default start time {t_start!r} s"
        if seeded:
            start += " (the seed of the ODE models with decay; --t-start sets it)"
    if args.t_max <= t_start:
        raise UsageError(f"--t-max {args.t_max!r} must exceed {start}")
    _check_start(t_start, model, decay)
    grid = f"--t-start {t_start!r} and --t-max {args.t_max!r} s"
    if not math.isfinite(args.t_max - t_start):
        raise UsageError(f"the span of {grid} overflows")
    times = np.linspace(t_start, args.t_max, samples)
    if not np.all(np.diff(times) > 0.0):
        raise UsageError(f"--samples {samples} distinct times do not fit between {grid}")
    return times


def _simulate(model: str, field: CoherentField, decay: DecayModel | None, times) -> Trajectory:
    if model == "analytic":
        return Trajectory(times, trajectory(field, decay, times))
    if decay is not None:
        lam = damping_provider(field, decay)
        r0 = damped_bloch(field, decay, times[0])
    else:
        lam = lambda t: (0.0, 0.0, 0.0)
        r0 = coherent_bloch(field, times[0])
    if model == "ode-bloch":
        return integrate_bloch(field, lam, r0, times)
    return integrate_density(field, lam, bloch_to_density(r0), times)


def _trajectories(args, sources) -> list[Trajectory]:
    """One Trajectory per source, a model name or a CSV path, on one checked grid.

    The files among the sources set the grid; they must agree on it, and
    the grid flags given must match it. Without a file, the flags set it.
    Under the strictest model (an ODE model, if there is one) the grid's
    start must lie in the model's domain, and the rotation angle omega * t
    must stay finite over the grid (sin(inf) is nan).
    """
    records = [None if source in _MODELS else _read_series(source) for source in sources]
    files = [(source, record.times) for source, record in zip(sources, records) if record is not None]
    if files:
        path, times = files[0]
        first, last = float(times[0]), float(times[-1])
        for other, other_times in files[1:]:
            if not np.array_equal(times, other_times):
                raise UsageError(
                    f"{path} and {other} hold different time grids ({len(times)} rows to {last!r} s"
                    f" against {len(other_times)} rows to {float(other_times[-1])!r} s)"
                )
        if args.t_start is not None and args.t_start != first:
            raise UsageError(f"--t-start {args.t_start!r} contradicts {path}, whose times start at {first!r} s")
        if args.t_max is not None and args.t_max != last:
            raise UsageError(f"--t-max {args.t_max!r} contradicts {path}, whose times end at {last!r} s")
        if args.samples is not None and args.samples != len(times):
            raise UsageError(f"--samples {args.samples} contradicts {path}, which has {len(times)} rows")
    models = [source for source in sources if source in _MODELS]
    if not models:
        return records
    field = _field_from_args(args)
    decay = _decay_from_args(args)
    strictest = max(models, key=lambda model: model.startswith("ode"))
    if files:
        _check_start(first, strictest, decay, path)
        if len(times) < 2 and strictest.startswith("ode"):
            raise UsageError(f"{path} has one row; the ODE models integrate between at least two times")
        grid = f"the times of {path}"
    else:
        times = _grid_from_args(args, strictest, decay)
        grid = "--t-start and --t-max"
    reach = max(-float(times[0]), float(times[-1]))
    if not math.isfinite(field.omega * reach):
        raise UsageError(
            f"the field of {_field_flags(args)} Hz is out of range over {grid}"
            f" (the rotation angle omega * t overflows at |t| = {reach!r} s)"
        )
    return [
        _simulate(source, field, decay, times) if record is None else record
        for source, record in zip(sources, records)
    ]


def cmd_simulate(args) -> int:
    if args.noise is not None and args.seed is None:
        raise UsageError("--noise needs --seed for a reproducible record")
    if args.noise is not None and args.noise < 0.0:
        raise UsageError("--noise must be non-negative")
    if args.seed is not None and args.seed < 0:
        raise UsageError("--seed must be non-negative")
    (traj,) = _trajectories(args, (args.model,))
    # Purity is reported for the clean model state; noise perturbs only the
    # magnetization columns.
    purity_col = purity(traj.bloch)
    data = traj.bloch.copy()
    if args.noise is not None:
        rng = np.random.default_rng(args.seed)
        data = data + rng.normal(0.0, args.noise, data.shape)
        if not np.all(np.isfinite(data)):
            raise UsageError(f"--noise {args.noise!r} is out of range (the noisy table overflows)")
    if args.format == "csv":
        text = _csv_text(traj.times, data[:, 0], data[:, 1], data[:, 2], purity_col)
    else:
        text = _json_text(
            {
                "schema_version": "1",
                "command": "simulate",
                "model": args.model,
                "seed": args.seed,
                "noise": args.noise,
                "t": traj.times.tolist(),
                "mx": data[:, 0].tolist(),
                "my": data[:, 1].tolist(),
                "mz": data[:, 2].tolist(),
                "purity": purity_col.tolist(),
            }
        )
    _write_text(args.out, text)
    return EXIT_OK


def cmd_fit(args) -> int:
    if args.fix_ratio is not None and args.fix_ratio < 1.0:
        raise UsageError("--fix-ratio must be at least 1")
    cure = "--fix-ratio pins delta = ratio * mu"
    pinned = "" if args.fix_ratio is None else f"with delta pinned at {args.fix_ratio!r} * mu by --fix-ratio"
    guess = None
    if args.guess is not None:
        guess = (*args.guess[:3], _rad_per_s("--guess", args.guess[3]))
        try:
            check_guess(guess, args.fix_ratio)
        except ValueError as exc:
            raise UsageError(f"--guess: {exc}") from None
    series = _read_series(args.input)
    try:
        check_record(series)
    except ValueError as exc:
        raise UsageError(f"{args.input}: {exc}") from None
    check_resonance(series)
    try:
        result = fit_decay_model(series, guess, delta_mu_ratio=args.fix_ratio)
    except FitRangeError as exc:
        hint = f"does not pin mu {pinned}" if pinned else f"does not pin delta and mu, and {cure}"
        raise ValueError(f"{exc}; the record {hint}") from None
    payload = {
        "schema_version": "1",
        "command": "fit",
        "delta": result.delta,
        "mu": result.mu,
        "nu": result.nu,
        "omega1": result.omega1,
        "rabi_hz": result.omega1 / (2.0 * math.pi),
        "stderr": {
            "delta": result.delta_err,
            "mu": result.mu_err,
            "nu": result.nu_err,
            "omega1": result.omega1_err,
        },
        "rms": result.rms,
        "my_rms": result.my_rms,
        "iterations": result.iterations,
        "converged": result.converged,
        "fixed_delta_mu_ratio": args.fix_ratio,
        "seed": args.seed,
    }
    _write_text(args.out, _json_text(payload))
    if not result.converged:
        hint = f", {pinned}" if pinned else f"; a free fit can drift along the delta ~ mu ridge, and {cure}"
        print(
            f"numerical failure: the fit stopped at its cap of {result.iterations} LM iterations"
            f" without converging{hint}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_compare(args) -> int:
    traj_a, traj_b = _trajectories(args, (args.a, args.b))
    with np.errstate(over="raise"):  # a table's finite values may overflow a square or difference
        try:
            report, fid = max_deviation(traj_a, traj_b), fidelity_trace(traj_a, traj_b)
        except FloatingPointError:
            raise ValueError(f"comparing {args.a} with {args.b} overflows") from None
    i_min = int(np.argmin(fid))
    payload = {
        "schema_version": "1",
        "command": "compare",
        "a": args.a,
        "b": args.b,
        "max_abs": {"mx": report.max_abs[0], "my": report.max_abs[1], "mz": report.max_abs[2]},
        "time_of_max": {"mx": report.time_of_max[0], "my": report.time_of_max[1], "mz": report.time_of_max[2]},
        "overall": report.overall,
        "overall_time": report.overall_time,
        "min_fidelity": float(fid[i_min]),
        "min_fidelity_time": float(traj_a.times[i_min]),
    }
    if args.json:
        _write_text(args.out, _json_text(payload))
    else:
        lines = [
            f"max |d mx| = {report.max_abs[0]:.6e} at t = {report.time_of_max[0]:.6e} s",
            f"max |d my| = {report.max_abs[1]:.6e} at t = {report.time_of_max[1]:.6e} s",
            f"max |d mz| = {report.max_abs[2]:.6e} at t = {report.time_of_max[2]:.6e} s",
            f"overall max deviation = {report.overall:.6e} at t = {report.overall_time:.6e} s",
            f"min fidelity = {fid[i_min]:.9f} at t = {traj_a.times[i_min]:.6e} s",
        ]
        _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_thermal(args) -> int:
    if args.larmor_hz <= 0.0 or args.temperature <= 0.0:
        raise UsageError("larmor frequency and temperature must be positive")
    omega_larmor = _rad_per_s("--larmor-hz", args.larmor_hz)
    # cosh overflows or is inf (2 kB T underflowed); a finite z means a finite argument.
    try:
        z = partition_function(omega_larmor, args.temperature)
    except OverflowError:
        z = math.inf
    if not math.isfinite(z):
        raise UsageError(
            f"--larmor-hz {args.larmor_hz!r} Hz is out of range at --temperature"
            f" {args.temperature!r} K (cosh(hbar w_L / 2 kB T) overflows)"
        )
    eps_high_t = thermal_argument(omega_larmor, args.temperature)
    eps_exact = polarization_factor(omega_larmor, args.temperature)
    payload = {
        "schema_version": "1",
        "command": "thermal",
        "larmor_hz": args.larmor_hz,
        "temperature_k": args.temperature,
        "epsilon_exact": eps_exact,
        "epsilon_high_t": eps_high_t,
        "partition_function": z,
        "eigenvalues": thermal_state(omega_larmor, args.temperature).diagonal().real.tolist(),
    }
    _write_text(args.out, _json_text(payload))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built on the first call only.

    Every later call returns the same parser, so that repeated in-process
    calls of :func:`main` do not rebuild it. It is shared: callers must not
    mutate it. It holds no per-call state, since each parse makes a fresh
    namespace and help text is formatted (at the terminal width of that
    moment) when it is printed.
    """
    parser = _Parser(
        prog="nhbloch",
        description="Simulate, cross-check and fit damped two-level magnetization dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a trajectory table (t, mx, my, mz, purity)")
    sim.add_argument("--model", choices=_MODELS, default="analytic")
    _add_field_args(sim)
    _add_decay_args(sim)
    _add_grid_args(sim)
    sim.add_argument("--noise", type=_finite, help="additive Gaussian sigma on the output columns")
    sim.add_argument("--seed", type=int, help="seed for the noise generator")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--out", help="output path (default stdout)")
    sim.set_defaults(func=cmd_simulate)

    fit_p = sub.add_parser("fit", help="estimate (delta, mu, nu, omega1) from a CSV record")
    fit_p.add_argument("input", help="CSV file with header t,mx,my,mz")
    fit_p.add_argument("--fix-ratio", type=_finite, help="pin delta = ratio * mu during the fit")
    fit_p.add_argument(
        "--guess",
        type=_finite,
        nargs=4,
        metavar=("DELTA", "MU", "NU", "RABI_HZ"),
        help="starting point (rates in 1/s, drive in Hz)",
    )
    fit_p.add_argument("--seed", type=int, help="provenance seed echoed into the result")
    fit_p.add_argument("--out", help="output path (default stdout)")
    fit_p.set_defaults(func=cmd_fit)

    cmp_p = sub.add_parser("compare", help="deviation and fidelity between two trajectories")
    cmp_p.add_argument("--a", required=True, help="model name (analytic, ode-bloch, ode-density) or CSV path")
    cmp_p.add_argument("--b", required=True, help="model name or CSV path")
    _add_field_args(cmp_p)
    _add_decay_args(cmp_p)
    _add_grid_args(cmp_p)
    cmp_p.add_argument("--json", action="store_true", help="machine-readable output")
    cmp_p.add_argument("--out", help="output path (default stdout)")
    cmp_p.set_defaults(func=cmd_compare)

    th = sub.add_parser("thermal", help="polarization factor and thermal-state quantities")
    th.add_argument("--larmor-hz", type=_finite, required=True)
    th.add_argument(
        "--temperature",
        type=_finite,
        default=ROOM_TEMPERATURE_K,
        help=f"kelvin (default {ROOM_TEMPERATURE_K})",
    )
    th.add_argument("--out", help="output path (default stdout)")
    th.set_defaults(func=cmd_thermal)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:  # DegenerateJacobianError is a RuntimeError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
