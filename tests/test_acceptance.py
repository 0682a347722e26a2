"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The conftest ordering hook runs this module last so the wall-clock check
covers the whole session.
"""

import json
import math
import time
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest

from nhbloch.analytic import damped_bloch, gamma_coefficients, purity_closed_form
from nhbloch.analytic import CoherentField
from nhbloch.core import bloch_to_density
from nhbloch.cli import EXIT_OK, main
from nhbloch.dynamics import (
    Trajectory,
    fidelity_trace,
    integrate_bloch,
    integrate_density,
    max_deviation,
)
from nhbloch.fit import residual_magnetization_stats
from nhbloch.nmr import NmrContext, polarization_factor, ROOM_TEMPERATURE_K
from nhbloch.analytic import coherent_bloch


def _report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:2d} {status}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label} {detail}"


@pytest.fixture(scope="module")
def benchmark_runs(tpp, grid_251):
    lam = lambda t: gamma_coefficients(tpp.field, tpp.decay, t)
    r0 = damped_bloch(tpp.field, tpp.decay, grid_251[0])
    start = time.perf_counter()
    traj_b = integrate_bloch(tpp.field, lam, r0, grid_251)
    bloch_runtime = time.perf_counter() - start
    traj_d = integrate_density(tpp.field, lam, bloch_to_density(r0), grid_251)
    exact = Trajectory(
        grid_251, np.array([list(damped_bloch(tpp.field, tpp.decay, t)) for t in grid_251])
    )
    return traj_b, traj_d, exact, bloch_runtime


def _simulate_flags(tpp, out, samples=251, noise=None, seed=None):
    flags = [
        "simulate",
        "--rabi-hz",
        repr(tpp.rabi_hz),
        "--mu",
        repr(tpp.decay.mu),
        "--delta-mu-ratio",
        "11.5",
        "--nu",
        repr(tpp.decay.nu),
        "--t-max",
        "500e-6",
        "--samples",
        str(samples),
        "--out",
        str(out),
    ]
    if noise is not None:
        flags += ["--noise", repr(noise), "--seed", str(seed)]
    return flags


def test_criterion_1_oracle_equivalence(benchmark_runs):
    traj_b, _, exact, runtime = benchmark_runs
    dev = max_deviation(traj_b, exact)
    ok = max(dev.max_abs) <= 1e-6 and runtime < 1.0
    _report(
        1,
        "numeric integration matches closed form on the 251-point grid",
        ok,
        f"max dev {max(dev.max_abs):.2e}, runtime {runtime:.2f}s",
    )


def test_criterion_2_trace_and_hermiticity(benchmark_runs):
    _, traj_d, _, _ = benchmark_runs
    traces = np.einsum("nii->n", traj_d.rho).real
    trace_defect = float(np.max(np.abs(traces - 1.0)))
    herm_defect = float(np.max(np.abs(traj_d.rho - np.conj(np.swapaxes(traj_d.rho, 1, 2)))))
    ok = trace_defect <= 1e-10 and herm_defect <= 1e-10
    _report(
        2,
        "matrix-form integration preserves trace and Hermiticity",
        ok,
        f"trace {trace_defect:.2e}, herm {herm_defect:.2e}",
    )


def test_criterion_3_polarization_factor():
    ctx = NmrContext(
        omega_larmor=2.0 * math.pi * 161.973e6,
        omega_rf=2.0 * math.pi * 161.973e6,
        omega1=1.0,
        phi=1.5 * math.pi,
        temperature=ROOM_TEMPERATURE_K,
    )
    eps = polarization_factor(ctx, "high_t")
    rel = abs(eps - 1.304e-5) / 1.304e-5
    _report(3, "high-temperature polarization factor reproduced", rel <= 5e-3, f"eps {eps:.4e}, rel {rel:.2e}")


def test_criterion_4_inverse_delta(tpp, dsp):
    tpp_us = 1e6 / tpp.decay.delta
    dsp_us = 1e6 / dsp.decay.delta
    ok = abs(tpp_us - 165.39) / 165.39 <= 0.01 and abs(dsp_us - 195.852) / 195.852 <= 0.01
    _report(4, "fitted decay times 1/delta agree with the reported values", ok, f"{tpp_us:.2f} us, {dsp_us:.2f} us")


def test_criterion_5_purity_asymptote(tpp, dsp, grid_251):
    ok = True
    details = []
    for bench in (tpp, dsp):
        target = 0.5 + 0.5 * bench.decay.nu**2
        got = float(purity_closed_form(bench.decay, 20.0 / bench.decay.mu))
        details.append(f"{got:.9f} vs {target:.9f}")
        ok = ok and abs(got - target) <= 1e-6
        grid_purity = purity_closed_form(bench.decay, grid_251)
        ok = ok and bool(np.all(grid_purity > 0.5) and np.all(grid_purity <= 1.0))
    _report(5, "purity settles at 1/2 + nu^2/2 and stays in (1/2, 1]", ok, "; ".join(details))


def test_criterion_6_residual_magnetization_statistic():
    mean, half = residual_magnetization_stats([6.53e-2, 5.82e-2])
    round2 = lambda x: Decimal(f"{x:.6f}").quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    ok = round2(mean) == Decimal("6.18") and round2(half) == Decimal("0.36")
    _report(6, "residual magnetization statistic rounds to 6.18 +/- 0.36 %", ok, f"{mean:.4f} +/- {half:.4f}")


def test_criterion_7_fit_round_trip(tpp, tmp_path, capsys):
    truth = (tpp.decay.delta, tpp.decay.mu, tpp.decay.nu, tpp.omega1)

    clean = tmp_path / "clean.csv"
    assert main(_simulate_flags(tpp, clean)) == EXIT_OK
    assert main(["fit", str(clean), "--out", str(tmp_path / "clean.json")]) == EXIT_OK
    payload = json.loads((tmp_path / "clean.json").read_text())
    est = (payload["delta"], payload["mu"], payload["nu"], payload["omega1"])
    noiseless_ok = all(abs(e - t) / t <= 1e-6 for e, t in zip(est, truth))

    rels = []
    for seed in range(20):
        noisy = tmp_path / f"noisy{seed}.csv"
        assert main(_simulate_flags(tpp, noisy, noise=0.01, seed=seed)) == EXIT_OK
        out = tmp_path / f"noisy{seed}.json"
        assert main(["fit", str(noisy), "--fix-ratio", "11.5", "--out", str(out)]) == EXIT_OK
        got = json.loads(out.read_text())
        est = (got["delta"], got["mu"], got["nu"], got["omega1"])
        rels.append([abs(e - t) / t for e, t in zip(est, truth)])
    med = np.median(np.array(rels), axis=0)
    noisy_ok = med[0] <= 0.10 and med[1] <= 0.25 and med[2] <= 0.15 and med[3] <= 0.005
    capsys.readouterr()  # drop CLI stdout so the report line stays visible
    _report(
        7,
        "file round trip recovers parameters; noisy medians within tolerances",
        noiseless_ok and noisy_ok,
        f"medians delta {med[0]:.3f}, mu {med[1]:.3f}, nu {med[2]:.3f}, omega1 {med[3]:.5f}",
    )


def test_criterion_8_convergence_order():
    field = CoherentField(0.0, 1.0, 0.0)
    grid = np.linspace(0.0, 32.0, 9)
    exact = Trajectory(grid, np.array([list(coherent_bloch(field, t)) for t in grid]))
    errors = []
    for step in (0.5, 0.25, 0.125):
        traj = integrate_bloch(
            field, lambda t: (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), grid, step=step
        )
        errors.append(max_deviation(traj, exact).overall)
    r1, r2 = errors[0] / errors[1], errors[1] / errors[2]
    _report(8, "halving the step cuts the error by at least 2^4", r1 >= 16.0 and r2 >= 16.0, f"factors {r1:.2f}, {r2:.2f}")


def test_criterion_9_fidelity_properties(tpp, grid_251):
    bloch = np.array([list(damped_bloch(tpp.field, tpp.decay, t)) for t in grid_251])
    theory = Trajectory(grid_251, bloch)
    self_ok = bool(np.max(np.abs(fidelity_trace(theory, theory) - 1.0)) <= 1e-12)

    seed = 2026
    rng = np.random.default_rng(seed)
    noisy = Trajectory(grid_251, bloch + rng.normal(0.0, 0.01, bloch.shape))
    fid = fidelity_trace(theory, noisy)
    i_min = int(np.argmin(fid))
    dip_ok = fid[i_min] < 1.0 - 1e-9 and fid[i_min] > 0.9
    _report(
        9,
        "self fidelity is unity; seeded noisy pipeline shows a finite dip",
        self_ok and dip_ok,
        f"dip {fid[i_min]:.6f} at t {grid_251[i_min]:.2e} s, seed {seed}",
    )


def test_criterion_10_wall_clock(suite_start):
    elapsed = time.monotonic() - suite_start
    _report(10, "full suite wall clock under 60 s", elapsed < 60.0, f"{elapsed:.1f} s")
