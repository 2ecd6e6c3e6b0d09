"""The example scripts run end to end on a small synthetic dataset."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("synthetic") / "out"
    done = run_script("run_synthetic_experiment.py", "--n-items", "60",
                      "--em-iterations", "3", "--out-dir", str(out_dir))
    assert done.returncode == 0, done.stderr
    # the in-sample table, then the held-out one scored by the frozen model
    in_sample, held_out = done.stdout.split("\nheld out: ")
    return out_dir, in_sample, held_out


def test_synthetic_experiment_writes_every_artifact(synthetic_run):
    out_dir, in_sample, _ = synthetic_run
    expected = {"truth.csv", "manifest.json", "model.json", "trace.csv"}
    expected |= {f"member_{k}.csv" for k in range(3)}
    expected |= {f"posterior_{m}.csv" for m in ("mv", "ea", "ds", "sds", "bayes")}
    assert {p.name for p in out_dir.iterdir()} == expected
    for name in ("mv", "ea", "ds", "sds", "bayes*"):
        assert f"\n{name} " in in_sample


def test_online_experiment_reports_every_mode(synthetic_run):
    _, _, held_out = synthetic_run
    assert "the first 12 items" in held_out
    for name in ("ea", "online", "offline refit"):
        assert f"\n{name} " in held_out


@pytest.mark.parametrize("fraction", ["1.0", "-0.5", "0.01", "nan"])
def test_synthetic_experiment_rejects_an_empty_split(fraction):
    # 0.01 of 60 items fits on none of them
    done = run_script("run_synthetic_experiment.py", "--n-items", "60",
                      "--em-iterations", "3", "--learn-fraction", fraction)
    assert done.returncode == 2
    assert "error: --learn-fraction" in done.stderr
    assert "Traceback" not in done.stderr


def test_count_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment line\n"
        "import os  # code with a trailing comment\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    # another comment\n"
        '    text = """a string\n'
        'that is not a docstring"""\n'
        "    return (x,\n"
        "            text)\n")
    (tmp_path / "empty.py").write_text("# only a comment\n")
    done = run_script("count_code_lines.py", str(source), str(tmp_path / "empty.py"))
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"6 {source}\n0 {tmp_path / 'empty.py'}\n6 total\n"
    # a directory counts every .py file below it
    done = run_script("count_code_lines.py", str(tmp_path))
    assert done.stdout.splitlines()[-1] == "6 total"


def test_count_code_lines_refuses_a_missing_path(tmp_path):
    # no count is printed, also for the path that exists
    (tmp_path / "a.py").write_text("x = 1\n")
    missing = tmp_path / "missing.py"
    done = run_script("count_code_lines.py", str(tmp_path / "a.py"), str(missing))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {missing}: no such file\n"


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_count_code_lines_help_prints_the_usage(flag):
    done = run_script("count_code_lines.py", flag)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "usage: count_code_lines.py PATH...\n"
