"""The example scripts run end to end on a small synthetic dataset."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_synthetic_experiment_writes_every_artifact(tmp_path):
    out_dir = tmp_path / "out"
    done = run_script("run_synthetic_experiment.py", "--n-items", "60",
                      "--em-iterations", "3", "--out-dir", str(out_dir))
    assert done.returncode == 0, done.stderr
    expected = {"truth.csv", "manifest.json", "model.json", "trace.csv"}
    expected |= {f"member_{k}.csv" for k in range(3)}
    expected |= {f"posterior_{m}.csv" for m in ("mv", "ea", "ds", "sds", "bayes")}
    assert {p.name for p in out_dir.iterdir()} == expected
    assert "sds" in done.stdout


def test_online_experiment_reports_every_mode():
    done = run_script("run_online_experiment.py", "--n-items", "60",
                      "--em-iterations", "3")
    assert done.returncode == 0, done.stderr
    for name in ("ea", "online", "offline refit"):
        assert f"\n{name} " in done.stdout
