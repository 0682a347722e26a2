"""One dimensionless problem, one answer: the CLI at every time unit.

The model has no time scale of its own. Multiplying every rate (drive, delta,
mu) by k and dividing every time by k leaves the table unchanged and scales
the fitted rates by k, so each k must give the k = 1 answer to rounding.
"""

import json

import numpy as np
import pytest

from nhbloch.cli import EXIT_OK, main

RABI_HZ, MU, RATIO, NU, T_MAX = 22245.3, 525.806, 11.5, 0.0653, 500e-6
SCALES = (1e-100, 1e-12, 1e-6, 1.0, 1e6, 1e12, 1e100)


def _problem(k):
    """The TPP working point with its rates times k and its horizon over k."""
    return [
        "--rabi-hz", repr(RABI_HZ * k), "--mu", repr(MU * k), "--delta-mu-ratio", repr(RATIO),
        "--nu", repr(NU), "--t-max", repr(T_MAX / k),
    ]


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXIT_OK, ""), argv
    return captured.out


def _table(capsys, *flags):
    text = _run(capsys, "simulate", "--model", "analytic", *flags)
    return np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]])


def _overall(capsys, k, model):
    # The seed is scaled by hand: the default 1e-9 s start of the ODE models is not scale-free.
    argv = ("compare", "--a", "analytic", "--b", model, *_problem(k), "--t-start", repr(1e-9 / k), "--json")
    return json.loads(_run(capsys, *argv))["overall"]


@pytest.mark.parametrize("k", SCALES)
def test_simulate_gives_the_unscaled_table(capsys, k):
    want, got = _table(capsys, *_problem(1.0)), _table(capsys, *_problem(k))
    np.testing.assert_allclose(got[:, 0] * k, want[:, 0], rtol=1e-14, atol=0.0)
    assert np.max(np.abs(got[:, 1:] - want[:, 1:])) <= 1e-14


@pytest.mark.parametrize("model", ["ode-bloch", "ode-density"])
@pytest.mark.parametrize("k", SCALES)
def test_compare_gives_the_unscaled_deviation(capsys, k, model):
    # The ODE's deviation from the closed form, 2.05e-7 at k = 1.
    assert _overall(capsys, k, model) == pytest.approx(_overall(capsys, 1.0, model), rel=5e-6)


@pytest.mark.parametrize("k", SCALES)
def test_fit_gives_the_rates_times_k(capsys, tmp_path, k):
    def fit(k):
        record = tmp_path / f"record-{k!r}.csv"
        _run(capsys, "simulate", *_problem(k), "--out", str(record))
        return json.loads(_run(capsys, "fit", str(record), "--fix-ratio", repr(RATIO)))

    want, got = fit(1.0), fit(k)
    for rate in ("delta", "mu", "omega1"):
        assert got[rate] / k == pytest.approx(want[rate], rel=1e-13), rate
    assert got["nu"] == pytest.approx(want["nu"], rel=1e-13)


def test_slow_drive_turns_the_closed_form(capsys):
    # A 1e-13 Hz drive turns the state once over 1e13 s, as the ODE models do.
    grid = ("--rabi-hz", "1e-13", "--t-max", "1e13")
    table = _table(capsys, *grid)
    angle = 2.0 * np.pi * 1e-13 * table[:, 0]
    np.testing.assert_allclose(table[:, 1], np.sin(angle), rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(table[:, 3], np.cos(angle), rtol=0.0, atol=1e-14)
    for model in ("ode-bloch", "ode-density"):
        report = json.loads(_run(capsys, "compare", "--a", "analytic", "--b", model, *grid, "--json"))
        assert report["overall"] <= 1e-6, model
