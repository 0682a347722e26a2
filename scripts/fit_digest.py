#!/usr/bin/env python3
"""One sha256 per fixed set of CLI calls, to show that a change keeps every answer.

Runs ``nhbloch.cli.main`` in-process over seeded inputs that the CLI itself
writes with ``simulate``, and hashes, call by call, the argv, the exit code,
stderr, stdout and the bytes of the ``--out`` file. Two trees print the same
line for a set exactly when every call of that set behaves the same, bit for
bit. The sets, at the tri-phenyl phosphate (TPP) working point:

- ``fit-sweep``: 60 noisy 251-point records, 20 per sigma in 0.002, 0.01 and
  0.05, of which two per sigma are at drive phase 1.0 pi and two detuned by
  5 kHz; each is fitted ratio-pinned and free;
- ``acceptance-7``: the clean record fitted free, then 20 records at sigma
  0.01 (noise seeds 0-19) fitted ratio-pinned;
- ``record-1e5``: one 1e5-sample record at sigma 0.01, fitted ratio-pinned;
- ``compare``: a noisy record against the analytic model, as JSON;
- ``ode``: ``simulate --model ode-bloch`` and ``--model ode-density`` on 251
  samples over 500 us and 1001 over 2 ms, each at the working point, at drive
  phase 1.0 pi and detuned by 5 kHz, and ``compare --a analytic --b`` each
  ODE model on the same grids, as JSON.

Run from the root of a checkout:

    PYTHONPATH=src python scripts/fit_digest.py

Each call sees the warning filters of a fresh process, so a numpy warning is
hashed as the stderr text a separate ``nhbloch`` run would print. Uses the
standard library and numpy only.
"""

import contextlib
import hashlib
import io
import math
import os
import tempfile
import warnings

from nhbloch import cli
from nhbloch.nmr import P31_SAMPLES

_NOMINAL_HZ, _SCALE, _MU_RATIO, _NU = P31_SAMPLES["tpp"]
_MU = _MU_RATIO * 2.0 * math.pi * _NOMINAL_HZ
RATIO = 11.5
WORKING_POINT = [
    "--rabi-hz", repr(_SCALE * _NOMINAL_HZ), "--mu", repr(_MU),
    "--delta-mu-ratio", repr(RATIO), "--nu", repr(_NU),
]
T_MAX = "500e-6"


def _simulate(out, *extra, samples=251, noise=None, seed=None):
    argv = ["simulate", *WORKING_POINT, "--t-max", T_MAX, "--samples", str(samples), "--out", out]
    if noise is not None:
        argv += ["--noise", repr(noise), "--seed", str(seed)]
    return argv + list(extra)


def _fit(record, out, *, pinned):
    return ["fit", record, "--out", out] + (["--fix-ratio", repr(RATIO)] if pinned else [])


def fit_sweep():
    calls = []
    cases = [()] * 16 + [("--phi", "1.0")] * 2 + [("--detuning-hz", "5000.0")] * 2
    for level, sigma in enumerate((0.002, 0.01, 0.05)):
        for i, case in enumerate(cases):
            record = f"sweep-{sigma}-{i}.csv"
            calls.append(_simulate(record, *case, noise=sigma, seed=100 * level + i))
            calls.append(_fit(record, f"sweep-{sigma}-{i}-pinned.json", pinned=True))
            calls.append(_fit(record, f"sweep-{sigma}-{i}-free.json", pinned=False))
    return calls


def acceptance_7():
    calls = [_simulate("a7-clean.csv"), _fit("a7-clean.csv", "a7-clean.json", pinned=False)]
    for seed in range(20):
        record = f"a7-{seed}.csv"
        calls.append(_simulate(record, noise=0.01, seed=seed))
        calls.append(_fit(record, f"a7-{seed}.json", pinned=True))
    return calls


def record_1e5():
    return [
        _simulate("long.csv", samples=100_000, noise=0.01, seed=1),
        _fit("long.csv", "long.json", pinned=True),
    ]


def compare():
    return [
        _simulate("cmp.csv", noise=0.01, seed=7),
        ["compare", "--a", "cmp.csv", "--b", "analytic", *WORKING_POINT, "--json", "--out", "cmp.json"],
    ]


def ode():
    calls = []
    for model in ("ode-bloch", "ode-density"):
        for t_max, samples in ((T_MAX, "251"), ("2e-3", "1001")):
            for case in ((), ("--phi", "1.0"), ("--detuning-hz", "5000.0")):
                args = [*WORKING_POINT, "--t-max", t_max, "--samples", samples, *case]
                tag = f"{model}-{samples}-{len(calls)}"
                calls.append(["simulate", "--model", model, *args, "--out", f"{tag}.csv"])
                calls.append(["compare", "--a", "analytic", "--b", model, *args, "--json", "--out", f"{tag}.json"])
    return calls


SETS = {
    "fit-sweep": fit_sweep,
    "acceptance-7": acceptance_7,
    "record-1e5": record_1e5,
    "compare": compare,
    "ode": ode,
}


def digest(calls) -> str:
    """sha256 over every call's argv, exit code, stderr, stdout and --out bytes, in order.

    Runs in the current directory, where the calls read and write their files.
    """
    sha = hashlib.sha256()
    for argv in calls:
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        if out is not None and os.path.exists(out):
            os.unlink(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("default")  # a fresh process's filter; resets the once-per-site registry
            code = cli.main(argv)
        written = b""
        if out is not None and os.path.exists(out):
            with open(out, "rb") as handle:
                written = handle.read()
        for part in ("\0".join(argv), str(code), stderr.getvalue(), stdout.getvalue()):
            sha.update(part.encode("utf-8") + b"\x1e")
        sha.update(written + b"\x1d")
    return sha.hexdigest()


def main():
    start = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="fit-digest-") as workdir:
        os.chdir(workdir)
        try:
            for name, build in SETS.items():
                print(f"{name} {digest(build())}", flush=True)
        finally:
            os.chdir(start)


if __name__ == "__main__":
    main()
