import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_free_noise_benchmark_counts_refused_fits():
    # Noise seed 13 at sigma 0.05 drives the free fit's nu to 1.0, which the
    # fit refuses with a ValueError; the script must count it and go on.
    proc = run_script("fit_noise_benchmark.py", "--free", "--trials", "20", "--noise", "0.05")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    free = lines[lines.index("== fit mode: free") + 2].split()
    answered, refused, capped = (int(v) for v in free[-3:])
    assert free[0] == "0.050"
    assert refused >= 1
    assert answered + refused + capped == 20
