#!/usr/bin/env python3
"""nhbloch benchmark: drives ``nhbloch.cli.main(argv)`` in-process as a closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload record-1e5 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

One client issues each CLI call only after the previous one returned; no
thread or worker process is started for the workload. With ``--trace 0`` the
last stdout line holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced segment. Either way the full record
(context, sample counts, outcomes) goes to
``.bench_build/perfbench/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS, a1_compare, a7_pairs, reference_problems, refusal_note

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTPUT = os.path.join(ROOT, ".bench_build", "perfbench")

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# Calibration loop iterations, and the loop's wall time on the host the
# baseline was recorded on (Intel Xeon, 2 vCPUs) when that host was not
# slowed by its neighbours. See calibration().
CALIBRATION_LOOPS = 15000
REFERENCE_CALIBRATION_S = 0.027
# When the host slows, this package's calls slow by the calibration's factor
# to about this power: least-squares slopes of log call time on log
# calibration time were 0.72-0.81 across the three workloads on the
# baseline host. Using the slope minimizes the spread of normalized times.
SPEED_EXPONENT = 0.8
# Least wall time of calls between two calibrations.
CHUNK_S = 0.25

# Least number of set-up samples and acceptance-1 compares in an untraced run.
SETUP_MIN = 5
COMPARE_MIN = 3

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.calls": "count",
    "analytic.calls": "count",
    "analytic.busy_s": "s",
    "analytic.provider_calls": "count",
    "analytic.provider_s": "s",
    "dynamics.busy_s": "s",
    "dynamics.self_s": "s",
    "fit.busy_s": "s",
    "fit.self_s": "s",
    "fit.lm_iterations": "count",
    "fit.residual_evals": "count",
    "fit.accept_ratio": "1",
    "fit.guess_s": "s",
    "fit.series_s": "s",
    "core.calls": "count",
    "core.busy_s": "s",
    "trace.overhead_s": "s",
    "failed_ops": "1",
}
KINDS = ("simulate", "fit", "compare")


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(seed: int) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def calibration() -> float:
    """Wall time of a fixed mix of interpreter, small-numpy and repr work.

    It runs no nhbloch code, so no change to the package moves it; it tracks
    how fast the shared host runs this process at the moment. Neighbours on
    the host slow everything here by up to a factor two for seconds to
    minutes; scaling a timing by REFERENCE_CALIBRATION_S over the
    calibration measured around it removes most of that.
    """
    start = time.perf_counter()
    x = np.linspace(0.0, 1.0, 3)
    acc = 0.0
    for i in range(CALIBRATION_LOOPS):
        acc += float((x * (i + 1.0))[1]) ** 0.5
        repr(acc)
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    return (REFERENCE_CALIBRATION_S / (0.5 * (before + after))) ** SPEED_EXPONENT


def setup_once() -> float:
    """Wall time of a fresh interpreter that imports nhbloch.cli and builds its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import nhbloch.cli as cli; cli.build_parser()"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True, timeout=60,
    )
    return time.perf_counter() - start


def execute(cli, call):
    """Run one CLI call in-process and classify its outcome on ``call``."""
    if os.path.exists(call.out):
        os.unlink(call.out)
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(call.argv)
    except Exception as exc:  # an exception escaping main() is a crash of the call
        call.seconds = time.perf_counter() - start
        call.verdict = "crash"
        call.note = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        return
    call.seconds = time.perf_counter() - start
    if code == 0:
        try:
            reason = call.check()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable output: {exc!r}"
        call.verdict, call.note = ("ok", "") if reason is None else ("wrong", reason)
        return
    message = err.getvalue().strip() or refusal_note(call)
    if code in (1, 2) and message:
        call.verdict, call.note = "refused", message
    else:
        call.verdict, call.note = "wrong", f"exit {code} without an explanation"


def execute_all(cli, calls, group):
    """Execute ``calls`` in order with a calibration before, after, and between
    chunks of at least CHUNK_S of calls; each call's ``scale`` comes from the
    two calibrations around its chunk."""
    before, chunk = calibration(), []
    for i, call in enumerate(calls):
        call.group = group
        execute(cli, call)
        chunk.append(call)
        if i == len(calls) - 1 or sum(c.seconds for c in chunk) >= CHUNK_S:
            after = calibration()
            for c in chunk:
                c.scale = speed_factor(before, after)
            before, chunk = after, []


class Between:
    """Set-up samples and reference calls made between passes.

    Slow stretches of a shared host last seconds, so samples taken in one
    burst would all land in the same stretch. Spread over the run, their
    timings sample it as the passes do. After each pass: the next two
    acceptance-7 pairs, and in turn either one set-up sample or, when the
    passes make no compare call, one acceptance-1 compare. ``finish`` makes
    what is still owed.
    """

    def __init__(self, cli, workdir: str, compare_each_pass: bool):
        self.cli, self.workdir = cli, workdir
        self.compare_each_pass = compare_each_pass
        self.steps = 0
        self.setup_times: list[float] = []
        self.pending = a7_pairs(workdir)
        self.calls: list = []

    def _run(self, setup: bool, pairs: int, compares: int):
        if setup:
            before = calibration()
            raw = setup_once()
            self.setup_times.append(raw * speed_factor(before, calibration()))
        calls = [call for pair in self.pending[:pairs] for call in pair]
        del self.pending[:pairs]
        calls += [a1_compare(self.workdir, self._compares() + i) for i in range(compares)]
        execute_all(self.cli, calls, ("reference", self.steps))
        self.steps += 1
        self.calls.extend(calls)

    def _compares(self) -> int:
        return sum(c.kind == "compare" for c in self.calls)

    def step(self):
        # Set-up samples and compares alternate to keep the gaps between passes short.
        odd = self.steps % 2
        self._run(not odd, 2, int(self.compare_each_pass and odd))

    def finish(self):
        while len(self.setup_times) < SETUP_MIN:
            self._run(True, 0, 0)
        self._run(False, len(self.pending), max(COMPARE_MIN - self._compares(), 0))


def run_passes(cli, workload, seconds: float, first: int = 0, count: int | None = None,
               between: Between | None = None):
    """Run whole passes for ``seconds`` of wall time (at least one), or exactly ``count``.

    Returns (pass times, calls, raw pass times). A pass time sums the
    speed-normalized wall time of its CLI calls; generating inputs, checking
    outputs and ``between`` work happen outside it.
    """
    pass_times, calls, raw_times = [], [], []
    started = time.perf_counter()
    k = first
    while True:
        batch = workload.pass_calls(k)
        execute_all(cli, batch, k)
        raw_times.append(sum(c.seconds for c in batch))
        pass_times.append(sum(c.seconds * c.scale for c in batch))
        calls.extend(batch)
        k += 1
        if between is not None:
            between.step()
        if count is not None:
            if k - first >= count:
                break
        elif (time.perf_counter() - started) * (k - first + 1) / (k - first) > seconds:
            break
    return pass_times, calls, raw_times


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it: (value, percentile, beyond).

    With fewer than eleven samples no percentile qualifies; the minimum is
    returned with the number of samples above it.
    """
    xs = sorted(values)
    i = max(len(xs) - 11, 0)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def _metric(value, unit, **detail) -> dict:
    return {"value": value, "unit": unit, **detail}


def end_to_end(pass_times, pass_calls, ref_calls, setup_times, rss_mib) -> dict:
    value, pct, beyond = tail(pass_times)
    m = {
        "setup_s": _metric(statistics.median(setup_times), "s", samples=len(setup_times)),
        "pass_s": _metric(statistics.median(pass_times), "s", samples=len(pass_times)),
        "pass_tail_s": _metric(
            value, "s", samples=len(pass_times), percentile=pct, samples_beyond=beyond
        ),
    }
    for kind in KINDS:
        # A kind the passes never call is timed on the reference calls.
        source, calls = "passes", [c for c in pass_calls if c.kind == kind]
        if not calls:
            source, calls = "reference calls", [c for c in ref_calls if c.kind == kind]
        groups = {}
        for c in calls:
            groups.setdefault(c.group, []).append(c)
        # The median over groups of the mean call time within a group: the
        # calls of one fit-sweep pass mix fast pinned and slow free fits in
        # fixed proportion, and a median over calls would sit between the two.
        means = [statistics.fmean(c.seconds * c.scale for c in g) for g in groups.values()]
        m[f"{kind}_s"] = _metric(
            statistics.median(means), "s", samples=len(means), calls=len(calls), source=source
        )
    m["peak_rss_mb"] = _metric(rss_mib, "MiB")
    ok = sum(not c.failed for c in pass_calls)
    m["ok_ops"] = _metric(ok / len(pass_calls), "1", samples=len(pass_calls))
    deviations = [c.result["overall"] for c in pass_calls + ref_calls if "overall" in c.result]
    m["ode_max_dev"] = _metric(max(deviations), "1", samples=len(deviations))
    nu_errors = [c.result["nu"] for c in ref_calls if c.tag == "a7" and c.result]
    m["fit_nu_rel_err"] = _metric(statistics.median(nu_errors), "1", samples=len(nu_errors))
    return m


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, full record)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import nhbloch.cli as cli
    import nhbloch.dynamics
    import nhbloch.fit

    os.makedirs(OUTPUT, exist_ok=True)
    ctx = context(seed)
    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUTPUT)
    layers = None
    try:
        workload = WORKLOADS[workload_name](workdir, seed)
        # One untimed warm-up pass, so that lazy imports and allocator growth
        # are not charged to the first measured pass. Its calls still count.
        _, warm_calls, _ = run_passes(cli, workload, 0.0, count=1)
        if trace:
            tracer = Tracer()
            modules = {"cli": cli, "fit": nhbloch.fit, "dynamics": nhbloch.dynamics}
            plain_times, plain_calls, plain_raw = run_passes(cli, workload, seconds / 2.0, first=1)
            before = calibration()
            with tracer.installed(modules):
                traced_times, traced_calls, traced_raw = run_passes(
                    cli, workload, 0.0, first=1 + len(plain_times), count=workload.traced_passes
                )
                ref_calls = [a1_compare(workdir, i) for i in range(COMPARE_MIN)]
                ref_calls += [call for pair in a7_pairs(workdir) for call in pair]
                for call in ref_calls:
                    execute(cli, call)
            segment_factor = speed_factor(before, calibration())
            pass_times, raw_times = plain_times + traced_times, plain_raw + traced_raw
            pass_calls = warm_calls + plain_calls + traced_calls
        else:
            between = Between(cli, workdir, "compare" not in workload.kinds)
            pass_times, pass_calls, raw_times = run_passes(
                cli, workload, seconds, first=1, between=between
            )
            pass_calls = warm_calls + pass_calls
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            between.finish()
            ref_calls = between.calls
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_calls = pass_calls + ref_calls
    required_failures = [c for c in all_calls if c.failed and c.required]
    problems = workload.problems(pass_calls) + reference_problems(ref_calls)
    problems += [
        f"{c.kind} {os.path.basename(c.out)}: {c.verdict}: {c.note}" for c in required_failures[:10]
    ]

    if trace:
        layers = tracer.layer_metrics()
        metrics = {
            k: _metric(layers[k] * segment_factor if unit == "s" else layers[k], unit, raw=layers[k])
            for k, unit in PER_LAYER_UNITS.items() if k in layers
        }
        overhead = statistics.median(traced_times) - statistics.median(plain_times)
        metrics["trace.overhead_s"] = _metric(
            overhead, "s", samples_traced=len(traced_times), samples_untraced=len(plain_times)
        )
        failed = sum(c.failed for c in pass_calls)
        metrics["failed_ops"] = _metric(failed / len(pass_calls), "1", samples=len(pass_calls))
        os.makedirs(os.path.join(OUTPUT, "traces"), exist_ok=True)
        tracer.write(os.path.join(OUTPUT, "traces", f"{workload_name}-seed{seed}.csv"))
    else:
        metrics = end_to_end(pass_times, pass_calls, ref_calls, between.setup_times, rss_mib)

    line = {
        "correct": not problems,
        "attempted": len(all_calls),
        "failed": len(required_failures),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    verdicts = {}
    for c in all_calls:
        key = f"{c.kind} {c.tag or '-'} {c.verdict}"
        verdicts[key] = verdicts.get(key, 0) + 1
    record = {
        "context": ctx,
        "workload": workload_name,
        "seconds": seconds,
        "trace": int(trace),
        "metrics": metrics,
        "all_layers": layers,
        "pass_seconds": pass_times,
        "raw_pass_seconds": raw_times,
        "outcomes": verdicts,
        "failure_kinds": sorted({f"{c.tag}: {c.verdict}: {c.note.split('=')[0]}" for c in all_calls if c.failed}),
        "problems": problems,
        "result": line,
    }
    return line, record


def smoke() -> int:
    """Run every workload once, traced and untraced; check names, units and counts."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            line, _ = run(workload["name"], DEFAULT_SEED, 0.0, bool(trace))
            label = f"{workload['name']} trace {trace}"
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != expected[trace]:
                errors.append(f"{label}: metrics/units {got} differ from BENCHMARK.json")
            for name, entry in line["metrics"].items():
                if not (isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])):
                    errors.append(f"{label}: {name} = {entry['value']!r}")
            if trace and "failed_ops" not in line["metrics"]:
                errors.append(f"{label}: failed_ops not counted")
            if not line["correct"] or line["attempted"] < 1:
                errors.append(f"{label}: correct={line['correct']} attempted={line['attempted']}")
            print(f"smoke {label}: {json.dumps(line)}")
    for error in errors:
        print(f"smoke FAIL {error}", file=sys.stderr)
    print("smoke ok" if not errors else "smoke failed")
    return 0 if not errors else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="record-1e5, ode-crosscheck or fit-sweep")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=40.0, help="measured wall time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run each workload once and check the output")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(SRC, "nhbloch", "cli.py")):
        print(f"error: no nhbloch sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = os.path.join(
        OUTPUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print(f"# results: {os.path.relpath(path, ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
