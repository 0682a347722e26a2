import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from nhbloch.analytic import trajectory
from nhbloch.nmr import p31_sample
from nhbloch.table import _read_series

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    # pyproject's filterwarnings reaches this process only, not the script's.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def counts(stdout, mode):
    """(sigma, answered, refused, capped) of the rows under ``== fit mode: <mode>``."""
    lines = stdout.splitlines()
    start = lines.index(f"== fit mode: {mode}") + 2
    rows = []
    for line in lines[start:]:
        if line.startswith("=="):
            break
        fields = line.split()
        rows.append((fields[0], *(int(v) for v in fields[-3:])))
    return rows


def test_free_noise_benchmark_accounts_for_every_trial():
    proc = run_script("fit_noise_benchmark.py", "--free", "--trials", "20", "--noise", "0.05")
    assert proc.returncode == 0, proc.stderr
    for mode in ("ratio 11.5", "free"):
        [(sigma, answered, refused, capped)] = counts(proc.stdout, mode)
        assert sigma == "0.050"
        assert answered + refused + capped == 20


def test_free_noise_benchmark_counts_refused_fits(monkeypatch, capsys):
    # Refusals are whatever fit_decay_model raises (the CLI's exit-2 errors);
    # make every second fit raise one and check that each is counted.
    script = load_script("fit_noise_benchmark.py")
    real_fit = script.fit_decay_model
    calls = []

    def refusing_fit(series, **kwargs):
        calls.append(kwargs)
        if len(calls) % 4 == 2:
            raise ValueError("refused")
        if len(calls) % 4 == 0:
            raise RuntimeError("refused")
        return real_fit(series, **kwargs)

    monkeypatch.setattr(script, "fit_decay_model", refusing_fit)
    monkeypatch.setattr(sys, "argv", ["fit_noise_benchmark.py", "--trials", "4", "--noise", "0.002"])
    script.main()
    [(sigma, answered, refused, capped)] = counts(capsys.readouterr().out, "ratio 11.5")
    assert len(calls) == 4
    assert (sigma, answered, refused, capped) == ("0.002", 2, 2, 0)


def test_decay_study_writes_tables_and_cross_checks(tmp_path):
    proc = run_script("run_decay_study.py", "--samples", "51", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    times = np.linspace(1e-9, 500e-6, 51)
    for name in ("tpp", "dsp"):
        path = tmp_path / f"{name}_magnetization.csv"
        assert path.read_text().splitlines()[0] == "t,mx,my,mz,purity"
        # The table reads back through the CLI's reader, bit for bit.
        table = _read_series(str(path))
        field, decay = p31_sample(name)
        np.testing.assert_array_equal(table.times, times)
        np.testing.assert_array_equal(table.bloch, trajectory(field, decay, times))
    deviations = [
        float(line.rsplit(":", 1)[1]) for line in proc.stdout.splitlines() if "closed form vs" in line
    ]
    assert len(deviations) == 4  # bloch and density ODE, both samples
    assert max(deviations) <= 1e-6


def test_fit_digest_repeats(tmp_path, monkeypatch):
    # Two in-process runs of the same calls hash alike; the 1e5-sample set is
    # left out for time.
    script = load_script("fit_digest.py")
    monkeypatch.chdir(tmp_path)
    sets = [build() for name, build in script.SETS.items() if name != "record-1e5"]
    first = [script.digest(calls) for calls in sets]
    assert [script.digest(calls) for calls in sets] == first
    assert len(set(first)) == len(first)
