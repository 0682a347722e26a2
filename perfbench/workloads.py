"""Workloads of the nhbloch benchmark: generated CLI argv, input records and output checks.

Every CLI call the benchmark makes is a :class:`Call`. A call carries its
argv, the file the CLI writes, and a check that decides, from that file
alone, whether an exit-0 answer is right. The checks use an oracle that the
benchmark evaluates itself (a vectorized numpy closed form, or the known
generating parameters), never the package under test.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Tri-phenyl phosphate working point, built the same way as tests/conftest.py.
NOMINAL_HZ = 21186.0
RABI_HZ = 1.05 * NOMINAL_HZ
OMEGA1 = 2.0 * math.pi * RABI_HZ
MU = 3.95e-3 * 2.0 * math.pi * NOMINAL_HZ
RATIO = 11.5
DELTA = RATIO * MU
NU = 6.53e-2
TRUTH = {"delta": DELTA, "mu": MU, "nu": NU, "omega1": OMEGA1}
WORKING_POINT_ARGS = [
    "--rabi-hz", repr(RABI_HZ), "--mu", repr(MU), "--delta-mu-ratio", repr(RATIO), "--nu", repr(NU)
]
T_MAX = 500e-6
GRID = 251

# Acceptance criterion 1: an ODE cross-check deviates from the closed form by
# at most this much. Criterion 7: medians of the relative errors of noisy
# ratio-pinned fits stay within these tolerances.
A1_MAX_DEV = 1e-6
A7_TOLERANCE = {"delta": 0.10, "mu": 0.25, "nu": 0.15, "omega1": 0.005}

# An exit-0 fit is wrong when some true parameter lies more than this many of
# the fit's own reported standard errors away from the estimate. Nominal fits
# stay below 3; the silently wrong detuned fits land above 40.
FIT_Z_MAX = 6.0

# Noise seeds of the acceptance-7 round trip, as in tests/test_acceptance.py.
A7_SEEDS = range(20)


@dataclass
class Call:
    """One CLI invocation and the rules for judging its outcome.

    ``check`` runs only after exit 0 and returns None for a right answer or
    a reason. ``may_refuse`` marks calls for which an exit of 1 or 2 with a
    message is an acceptable answer; elsewhere it is a failure. ``required``
    is False for the fit-sweep fits, whose failure share is what that
    workload measures (``ok_ops``, ``failed_ops``); a failed required call
    makes the run incorrect.
    """

    kind: str
    argv: list[str]
    out: str
    check: Callable[[], "str | None"]
    tag: str = ""
    required: bool = True
    may_refuse: bool = False
    result: dict = field(default_factory=dict)
    # Filled in when the call has run: raw wall time, the host-speed factor
    # that normalizes it (see run.calibration), the outcome.
    seconds: float = 0.0
    scale: float = 1.0
    group: object = None  # the pass, or the set of reference calls, it ran in
    verdict: str = ""
    note: str = ""

    @property
    def failed(self) -> bool:
        """Crashed, answered wrongly, or refused where an answer was required."""
        return self.verdict != "ok" and not (self.verdict == "refused" and self.may_refuse)


def closed_form(times: np.ndarray, phi: float = 1.5, detuning_hz: float = 0.0) -> np.ndarray:
    """Damped Bloch rows f(t) r0(t), shape (N, 3), from the north pole.

    The drive phase is in units of pi; the field follows the CLI's convention.
    """
    phase = math.pi * phi + math.pi
    w = np.array([OMEGA1 * math.cos(phase), OMEGA1 * math.sin(phase), -2.0 * math.pi * detuning_hz])
    omega = float(np.linalg.norm(w))
    nx, ny, nz = w / omega
    angle = omega * times
    s = np.sin(angle)
    vers = 2.0 * np.sin(0.5 * angle) ** 2
    r0 = np.column_stack(
        [nx * nz * vers + ny * s, ny * nz * vers - nx * s, nz * nz * vers + 1.0 - vers]
    )
    f = np.exp(-DELTA * times) - NU * np.expm1(-MU * times)
    return f[:, None] * r0


def write_record(path: str, times: np.ndarray, m: np.ndarray):
    """Write a t,mx,my,mz table with the CLI's repr formatting."""
    rows = np.column_stack([times, m]).tolist()
    lines = ["t,mx,my,mz"] + [",".join(map(repr, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def read_table(path: str) -> np.ndarray:
    """Parse a table written by ``simulate``; raises ValueError on a bad table."""
    with open(path, encoding="utf-8") as handle:
        first = handle.readline().rstrip("\n")
        body = handle.read()
    if first != "t,mx,my,mz,purity":
        raise ValueError(f"header {first!r}, expected 't,mx,my,mz,purity'")
    values = np.array(body.replace(",", " ").split(), dtype=float)
    if values.size % 5:
        raise ValueError("ragged table")
    return values.reshape(-1, 5)


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def refusal_note(call: Call) -> str:
    """The explanation a non-zero exit left behind in the call's output, if any.

    ``fit`` exits 2 without a stderr message when the iteration cap is hit,
    but still writes its result with ``converged: false``.
    """
    if call.kind != "fit" or not os.path.exists(call.out):
        return ""
    try:
        payload = _read_json(call.out)
    except ValueError:
        return ""
    return "fit did not converge" if payload.get("converged") is False else ""


def simulate_call(
    out: str,
    samples: int,
    *,
    noise: float | None = None,
    seed: int | None = None,
    tag: str = "",
) -> Call:
    """``simulate`` of the nominal working point, checked against the closed form."""
    argv = ["simulate", *WORKING_POINT_ARGS, "--t-max", repr(T_MAX)]
    argv += ["--samples", str(samples), "--out", out]
    if noise is not None:
        argv += ["--noise", repr(noise), "--seed", str(seed)]

    def check():
        table = read_table(out)
        times = np.linspace(0.0, T_MAX, samples)
        if table.shape != (samples, 5) or not np.array_equal(table[:, 0], times):
            return "time column differs from the requested grid"
        exact = closed_form(times)
        purity = 0.5 * (1.0 + np.minimum(np.sum(exact**2, axis=1), 1.0))
        if np.max(np.abs(table[:, 4] - purity)) > 1e-12:
            return "purity column differs from the closed form"
        resid = table[:, 1:4] - exact
        if noise is None:
            worst = float(np.max(np.abs(resid)))
            return None if worst <= 1e-12 else f"magnetization off the closed form by {worst:.3e}"
        # Noise statistics within six standard errors of a N(0, noise) sample.
        count = resid.size
        std = float(np.std(resid))
        if abs(std / noise - 1.0) > 6.0 / math.sqrt(2.0 * count):
            return f"noise std {std:.4e}, expected {noise:.4e}"
        if abs(float(np.mean(resid))) > 6.0 * noise / math.sqrt(count):
            return "noise is not centred on the closed form"
        return None

    return Call("simulate", argv, out, check, tag=tag)


def fit_call(
    record: str,
    out: str,
    *,
    pinned: bool,
    tag: str = "",
    required: bool = True,
    may_refuse: bool = False,
    exact: bool = False,
) -> Call:
    """``fit`` of a record generated from TRUTH.

    An exit-0 answer must cover the truth within FIT_Z_MAX reported standard
    errors, or, for a noiseless record (``exact``), match it to 1e-6.
    """
    argv = ["fit", record, "--out", out] + (["--fix-ratio", repr(RATIO)] if pinned else [])
    call = Call("fit", argv, out, lambda: None, tag=tag, required=required, may_refuse=may_refuse)

    def check():
        payload = _read_json(out)
        if payload.get("converged") is not True:
            return "exit 0 without convergence"
        rel = {k: abs(payload[k] - v) / v for k, v in TRUTH.items()}
        call.result.update(rel)
        if exact:
            worst = max(rel, key=rel.get)
            return None if rel[worst] <= 1e-6 else f"{worst} off by {rel[worst]:.2e} on a clean record"
        for name, value in TRUTH.items():
            err = payload["stderr"][name]
            z = abs(payload[name] - value) / err if err > 0.0 else math.inf
            if not z <= FIT_Z_MAX:
                return f"{name}={payload[name]:.6g} is {z:.1f} standard errors from {value:.6g}"
        return None

    call.check = check
    return call


def compare_call(b_model: str, t_max: float, samples: int, out: str, tag: str = "") -> Call:
    """``compare --a analytic --b <ODE model>``: the deviation must stay within A1_MAX_DEV."""
    argv = ["compare", "--a", "analytic", "--b", b_model, *WORKING_POINT_ARGS]
    argv += ["--t-max", repr(t_max), "--samples", str(samples), "--json", "--out", out]

    def check():
        payload = _read_json(out)
        call.result["overall"] = payload["overall"]
        if not payload["overall"] <= A1_MAX_DEV:
            return f"deviation {payload['overall']:.3e} exceeds {A1_MAX_DEV:g}"
        if not payload["min_fidelity"] >= 1.0 - 1e-9:
            return f"min fidelity {payload['min_fidelity']!r}"
        return None

    call = Call("compare", argv, out, check, tag=tag)
    return call


def median_errors(calls: list[Call], tag: str) -> dict[str, float]:
    """Median relative error per parameter over the answered fits with ``tag``."""
    answered = [c.result for c in calls if c.tag == tag and c.result]
    if not answered:
        return {}
    return {k: float(np.median([r[k] for r in answered])) for k in TRUTH}


def a7_problems(calls: list[Call], tag: str, label: str) -> list[str]:
    med = median_errors(calls, tag)
    if not med:
        return [f"{label}: no answered fit"]
    return [
        f"{label}: median {k} error {med[k]:.4f} exceeds {tol}"
        for k, tol in A7_TOLERANCE.items()
        if med[k] > tol
    ]


def a1_compare(workdir: str, i: int) -> Call:
    """Acceptance criterion 1: analytic vs ode-bloch on the benchmark grid."""
    return compare_call("ode-bloch", T_MAX, GRID, os.path.join(workdir, f"ref-a1-{i}.json"), "a1")


def a7_pairs(workdir: str) -> list[list[Call]]:
    """Acceptance criterion 7 as (simulate, fit) pairs.

    A clean round trip, then 20 noisy round trips at sigma 0.01 with noise
    seeds 0-19. The inputs do not depend on the workload seed, so the
    accuracy guard they give repeats exactly across seeds and workloads.
    """
    clean = os.path.join(workdir, "ref-clean.csv")
    pairs = [[
        simulate_call(clean, GRID, tag="a7-clean"),
        fit_call(clean, os.path.join(workdir, "ref-clean.json"), pinned=False, tag="a7-clean", exact=True),
    ]]
    for seed in A7_SEEDS:
        record = os.path.join(workdir, f"ref-noisy-{seed}.csv")
        pairs.append([
            simulate_call(record, GRID, noise=0.01, seed=seed, tag="a7"),
            fit_call(record, os.path.join(workdir, f"ref-noisy-{seed}.json"), pinned=True, tag="a7"),
        ])
    return pairs


def reference_problems(calls: list[Call]) -> list[str]:
    return a7_problems(calls, "a7", "reference round")


class Workload:
    """A named sequence of passes; each pass is a list of CLI calls.

    ``pass_calls(k)`` generates the inputs of pass k (outside any timing).
    ``problems(calls)`` returns aggregate checks that failed over the run.
    ``traced_passes`` is the fixed number of passes the traced run records;
    ``kinds`` names the CLI commands a pass calls.
    """

    name = ""
    traced_passes = 2
    kinds: tuple[str, ...] = ()

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def pass_calls(self, k: int) -> list[Call]:
        raise NotImplementedError

    def problems(self, calls: list[Call]) -> list[str]:
        return []


class Record1e5(Workload):
    """simulate a noisy 1e5-sample record, then fit it back ratio-pinned."""

    name = "record-1e5"
    traced_passes = 3
    kinds = ("simulate", "fit")
    samples = 100_000

    def pass_calls(self, k):
        noise_seed = int(self.rng.integers(2**31))
        record = self.path("record.csv")
        return [
            simulate_call(record, self.samples, noise=0.01, seed=noise_seed),
            fit_call(record, self.path("record-fit.json"), pinned=True, tag="pinned-0.01"),
        ]

    def problems(self, calls):
        return a7_problems(calls, "pinned-0.01", self.name)


class OdeCrosscheck(Workload):
    """Three analytic-vs-ODE compares; the seed sets their order in each pass."""

    name = "ode-crosscheck"
    traced_passes = 3
    kinds = ("compare",)

    def pass_calls(self, k):
        calls = [
            compare_call("ode-bloch", T_MAX, GRID, self.path("bloch.json")),
            compare_call("ode-density", T_MAX, GRID, self.path("density.json")),
            compare_call("ode-bloch", 2e-3, 1001, self.path("bloch-2ms.json")),
        ]
        return [calls[i] for i in self.rng.permutation(len(calls))]


class FitSweep(Workload):
    """Noise-calibration Monte Carlo: seeded 251-point records, each fitted free and pinned.

    Per noise level a pass holds 16 nominal records, two at drive phase 1.0 pi
    instead of 1.5 pi, and two detuned by 5 kHz. The fit model
    hard-codes the resonant 1.5 pi case, so the last two are off-nominal and
    may be refused; their crashes and silent wrong answers are the ROADMAP
    item 4 defects. The free fit may also stop at the iteration cap, because
    (mu, nu) is not identifiable on this window. No fit here is required:
    the workload measures the share that fail. Every pass draws fresh
    records, so that share averages over noise realizations.
    """

    name = "fit-sweep"
    traced_passes = 2
    kinds = ("fit",)
    sigmas = (0.002, 0.01, 0.05)
    nominal_records = 16
    # (phase in units of pi, detuning in Hz), two records each per noise level
    off_nominal = ((1.0, 0.0), (1.0, 0.0), (1.5, 5000.0), (1.5, 5000.0))

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.times = np.linspace(0.0, T_MAX, GRID)
        self.clean = {
            case: closed_form(self.times, *case) for case in {(1.5, 0.0), *self.off_nominal}
        }

    def pass_calls(self, k):
        calls = []
        for sigma in self.sigmas:
            cases = [(1.5, 0.0)] * self.nominal_records + list(self.off_nominal)
            for i, case in enumerate(cases):
                nominal = case == (1.5, 0.0)
                record = self.path(f"sweep-{sigma}-{i}.csv")
                noisy = self.clean[case] + self.rng.normal(0.0, sigma, self.clean[case].shape)
                write_record(record, self.times, noisy)
                for pinned in (True, False):
                    calls.append(
                        fit_call(
                            record,
                            self.path(f"sweep-{sigma}-{i}-{'pinned' if pinned else 'free'}.json"),
                            pinned=pinned,
                            tag=f"{'pinned' if pinned else 'free'}-{sigma}" if nominal else "off-nominal",
                            required=False,
                            may_refuse=not (nominal and pinned),
                        )
                    )
        return calls

    def problems(self, calls):
        return a7_problems(calls, "pinned-0.01", self.name)


WORKLOADS = {w.name: w for w in (Record1e5, OdeCrosscheck, FitSweep)}
