#!/usr/bin/env python3
"""Reproduce the benchmark decay study for both phosphorus-31 parameter sets.

For each sample the script evaluates the closed-form magnetization and purity
on the acquisition grid, cross-checks the closed form against the ODE
integrations in both representations, and writes plot-ready CSV tables.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from nhbloch.analytic import purity_closed_form
from nhbloch.cli import _simulate
from nhbloch.core import purity
from nhbloch.dynamics import max_deviation
from nhbloch.fit import residual_magnetization_stats
from nhbloch.nmr import P31_SAMPLES, p31_sample
from nhbloch.table import _csv_text, _write_text


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="directory for the CSV tables")
    parser.add_argument("--samples", type=int, default=251)
    parser.add_argument("--t-max", type=float, default=500e-6)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name in P31_SAMPLES:
        field, decay = p31_sample(name)
        times = np.linspace(1e-9, args.t_max, args.samples)
        exact, ode_b, ode_d = (
            _simulate(model, field, decay, times) for model in ("analytic", "ode-bloch", "ode-density")
        )

        path = outdir / f"{name}_magnetization.csv"
        _write_text(str(path), _csv_text(times, *exact.bloch.T, purity(exact.bloch)))

        print(f"[{name}] wrote {path}")
        print(f"[{name}] 1/delta = {1e6 / decay.delta:.2f} us")
        print(f"[{name}] closed form vs bloch ODE   : {max_deviation(exact, ode_b).overall:.3e}")
        print(f"[{name}] closed form vs density ODE : {max_deviation(exact, ode_d).overall:.3e}")
        print(f"[{name}] purity asymptote           : {purity_closed_form(decay, math.inf):.6f}")

    mean, half = residual_magnetization_stats([nu for *_, nu in P31_SAMPLES.values()])
    print(f"residual magnetization across samples: {mean:.3f} +/- {half:.3f} %")


if __name__ == "__main__":
    main()
