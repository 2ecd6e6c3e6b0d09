"""The CI workflow runs the tier-1 command that ROADMAP.md names."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_workflow_runs_the_tier1_command():
    yaml = pytest.importorskip("yaml")
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml")
                              .read_text(encoding="utf-8"))
    job = workflow["jobs"]["tier1"]
    assert job["steps"][-1]["run"] == command
    legs = {leg["python"]: leg["blocking"] for leg in job["strategy"]["matrix"]["include"]}
    assert legs == {"3.11": True, "3.12": False}
    assert job["continue-on-error"] == "${{ !matrix.blocking }}"
