#!/usr/bin/env python3
"""Reproduce the benchmark decay study for both phosphorus-31 parameter sets.

For each sample the script evaluates the closed-form magnetization and purity
on the acquisition grid, cross-checks the closed form against the ODE
integrations in both representations, and writes plot-ready CSV tables.
"""

import argparse
from pathlib import Path

import numpy as np

from nhbloch.analytic import (
    damped_bloch,
    damping_provider,
    purity_closed_form,
    trajectory,
)
from nhbloch.core import bloch_to_density
from nhbloch.dynamics import Trajectory, integrate_bloch, integrate_density, max_deviation
from nhbloch.fit import residual_magnetization_stats
from nhbloch.nmr import P31_SAMPLES, p31_sample


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
        exact = Trajectory(times, trajectory(field, decay, times))

        lam = damping_provider(field, decay)
        r0 = damped_bloch(field, decay, times[0])
        ode_b = integrate_bloch(field, lam, r0, times)
        ode_d = integrate_density(field, lam, bloch_to_density(r0), times)

        purity = purity_closed_form(decay, times)
        path = outdir / f"{name}_magnetization.csv"
        with open(path, "w", newline="\n") as handle:
            handle.write("t,mx,my,mz,purity\n")
            for i, t in enumerate(times):
                row = exact.bloch[i]
                handle.write(f"{t!r},{row[0]!r},{row[1]!r},{row[2]!r},{purity[i]!r}\n")

        print(f"[{name}] wrote {path}")
        print(f"[{name}] 1/delta = {1e6 / decay.delta:.2f} us")
        print(f"[{name}] closed form vs bloch ODE   : {max_deviation(exact, ode_b).overall:.3e}")
        print(f"[{name}] closed form vs density ODE : {max_deviation(exact, ode_d).overall:.3e}")
        print(f"[{name}] purity asymptote           : {0.5 + 0.5 * decay.nu**2:.6f}")

    mean, half = residual_magnetization_stats([nu for *_, nu in P31_SAMPLES.values()])
    print(f"residual magnetization across samples: {mean:.3f} +/- {half:.3f} %")


if __name__ == "__main__":
    main()
