#!/usr/bin/env python3
"""Mutation census of the package's refusals: which ``raise`` can go without a test noticing?

Each ``raise`` statement in ``src/nhbloch`` is replaced, one at a time, by
``pass`` in a copy of the repository, and the test suite runs against that
mutant under a per-mutant timeout. A mutant whose suite still passes is a
survivor: no test fails without that refusal. A mutant that runs out of
time is counted as caught (the refusal is what stops a loop), and reported
as such. The working tree is never modified.

    python scripts/mutation_census.py                    # every raise
    python scripts/mutation_census.py --site dynamics.py:124 --site fit.py:72

Exits 1 when a mutant survives, 0 otherwise.

After DeMillo, Lipton & Sayward, "Hints on test data selection", Computer
11(4):34 (1978); Jia & Harman, IEEE TSE 37(5):649 (2011).
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "nhbloch"
COPIED = ("src", "tests", "perfbench", "scripts", "pyproject.toml")
TIMEOUT = 300.0  # seconds per mutant


def raise_sites(source: str):
    """(line, end line, start column, end column) of every raise statement, in source order."""
    nodes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)]
    return sorted((n.lineno, n.end_lineno, n.col_offset, n.end_col_offset) for n in nodes)


def mutate(source: str, site) -> str:
    """The source with the raise statement at ``site`` replaced by ``pass``."""
    line, end_line, col, end_col = site
    lines = source.splitlines(keepends=True)
    head = lines[line - 1][:col]
    tail = lines[end_line - 1][end_col:]
    return "".join(lines[: line - 1] + [head + "pass" + tail] + lines[end_line:])


def run_suite(workdir: Path) -> str:
    """'SURVIVED' when the whole suite run in workdir passes, else 'caught' or 'timeout'."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "SURVIVED" if proc.returncode == 0 else "caught"


def census(workdir: Path, sites: list[str]) -> list[str]:
    """Run each selected mutant in workdir, print its verdict, and return the survivors."""
    if run_suite(workdir) != "SURVIVED":  # the unmutated copy must pass
        sys.exit("the suite does not pass on the unmutated copy")
    survivors, count = [], 0
    for path in sorted((workdir / PACKAGE).glob("*.py")):
        original = path.read_text(encoding="utf-8")
        for site in raise_sites(original):
            label = f"{path.name}:{site[0]}"
            if sites and label not in sites:
                continue
            path.write_text(mutate(original, site), encoding="utf-8")
            try:
                verdict = run_suite(workdir)
            finally:
                path.write_text(original, encoding="utf-8")
            count += 1
            text = original.splitlines()[site[0] - 1].strip()
            print(f"{verdict:8} {PACKAGE / label}  {text}", flush=True)
            if verdict == "SURVIVED":
                survivors.append(f"{PACKAGE / label}  {text}")
    print(f"\n{count} mutants, {len(survivors)} survived")
    return survivors


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--site", action="append", default=[], help="only this FILE:LINE (repeatable)")
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="mutation-census-"))
    try:
        for name in COPIED:
            src, dst = ROOT / name, workdir / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, dst)
        survivors = census(workdir, args.site)
    finally:
        shutil.rmtree(workdir)
    for line in survivors:
        print(f"  {line}")
    sys.exit(1 if survivors else 0)

if __name__ == "__main__":
    main()
