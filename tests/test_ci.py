"""The CI workflow runs the tier-1 command that ROADMAP.md names, every
workload that BENCHMARK.json declares, and the code-line count of the
package."""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _job():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml")
                              .read_text(encoding="utf-8"))
    return workflow["jobs"]["tier1"]


def test_workflow_runs_the_tier1_command():
    job = _job()
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    assert job["steps"][-1]["run"] == command
    legs = {leg["python"]: leg["blocking"] for leg in job["strategy"]["matrix"]["include"]}
    assert legs == {"3.10": False, "3.11": True, "3.12": False}
    assert job["continue-on-error"] == "${{ !matrix.blocking }}"


def test_workflow_runs_every_benchmark_workload():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    steps = {step.get("name"): step for step in _job()["steps"]}
    ran = re.findall(r"perfbench/run\.py --workload (\S+)", steps["Benchmark checks"]["run"])
    assert {w["name"] for w in benchmark["workloads"]} <= set(ran)


def test_workflow_counts_code_lines_before_the_tier1_tests():
    steps = _job()["steps"]
    names = [step.get("name") for step in steps]
    counted = names.index("Code lines")
    assert steps[counted]["run"] == "python scripts/count_code_lines.py src/softds"
    assert counted < names.index("Tier-1 tests")
