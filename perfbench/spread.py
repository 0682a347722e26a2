#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads fit-sweep --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --baseline perfbench/baseline

Runs are made one after another. The spread of a metric is the distance
between the first and third quartiles of its values
(``statistics.quantiles(values, n=4)``) as a share of their median; a
benchmark is steady when every spread but setup_s stays below a third of the
metric's bound in BENCHMARK.json. With ``--baseline DIR`` the per-run
records and the summary are written to ``DIR/<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (Q3 - Q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", help="directory for one <workload>.json per workload")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            argv = spec["command"] + ["--workload", workload, "--seed", str(seed)]
            argv += ["--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            path = os.path.join(ROOT, ".bench_build", "perfbench", "results",
                                f"{workload}-seed{seed}-trace0.json")
            with open(path, encoding="utf-8") as handle:
                runs.append(json.load(handle))
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']}", flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            ok = name == "setup_s" or rel < bound / 3.0
            steady &= ok
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "bound": bound}
            print(f"  {name:15s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {rel:.4f}  bound {bound}  {'ok' if ok else 'WIDE'}")
        if args.baseline:
            os.makedirs(args.baseline, exist_ok=True)
            with open(os.path.join(args.baseline, f"{workload}.json"), "w", encoding="utf-8") as handle:
                json.dump({"workload": workload, "seconds": args.seconds, "seeds": args.seeds,
                           "summary": summary, "runs": runs}, handle, indent=2)
                handle.write("\n")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
