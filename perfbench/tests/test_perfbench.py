"""Tests of the benchmark itself, on workloads small enough to run in a
few seconds.  Run from the repository root with
``python -m pytest perfbench/tests``."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY = [
    run.Workload("tiny", 60, 2, 3, 3, 2, beats_ensemble_average=True),
    run.Workload("tiny-default-config", 40, 2, 3, None, 1),
]


@pytest.fixture(autouse=True)
def short_online_passes(monkeypatch):
    monkeypatch.setattr(run, "ONLINE_ROWS", 30)
    monkeypatch.setattr(run, "LOOP_S", 0.2)
    monkeypatch.setattr(run, "SLICE_ROWS", 50)


def _untraced(w, seed, d):
    ledger, record = run.Ledger(), {}
    d.mkdir()
    metrics = run.untraced_run(w, seed, 0.0, d, ledger, record)
    return metrics, ledger, record


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_two_runs_give_the_same_digests(w, tmp_path):
    first, ledger1, record1 = _untraced(w, 7, tmp_path / "a")
    second, ledger2, record2 = _untraced(w, 7, tmp_path / "b")
    assert ledger1.failures == [] and ledger2.failures == []
    assert record1["digests"] == record2["digests"]
    assert set(record1["digests"]) == {"posterior", "model", "trace_q", "online"}
    for name in ["accuracy", "nll", "ece", "pi_tv_max"]:
        assert first[name] == second[name]
    assert set(first) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in first.values())


def test_another_seed_gives_other_digests(tmp_path):
    _, _, record1 = _untraced(TINY[0], 7, tmp_path / "a")
    _, _, record2 = _untraced(TINY[0], 8, tmp_path / "b")
    assert record1["digests"]["posterior"] != record2["digests"]["posterior"]


@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_traced_run_reports_every_layer(w, tmp_path):
    ledger, record, spans = run.Ledger(), {}, tracer.Tracer()
    metrics = run.traced_run(w, 7, tmp_path, ledger, record, spans)
    assert ledger.failures == []
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    for name in ["sds.e_step_raw", "sds.q_function", "sds.m_step_pi"]:
        assert metrics[f"{name}.calls_per_iter"] == 1.0
    assert metrics["optim.adamw_step.calls_per_iter"] == 5.0  # default inner_steps
    assert metrics["sds.fit.s"] > metrics["sds.fit.self_s"] >= 0.0
    # the traced in-process outputs are those of the untraced children
    _, _, plain = _untraced(w, 7, tmp_path / "untraced")
    assert record["digests"] == plain["digests"]
    # every patched name is restored
    import softds.sds

    assert not hasattr(softds.sds.e_step_raw, "__wrapped__")


def test_self_time_subtracts_the_union_of_children():
    t = tracer.Tracer()
    t.spans = [
        tracer.Span("parent", "r", None, 1, 0.0, 10.0),
        tracer.Span("a", "r", 0, 1, 1.0, 4.0),
        tracer.Span("b", "r", 0, 2, 3.0, 6.0),  # overlaps a on another thread
        tracer.Span("c", "r", 0, 1, 8.0, 9.0),
        tracer.Span("grandchild", "r", 1, 1, 1.5, 2.0),
    ]
    assert t.self_time(0) == pytest.approx(10.0 - 5.0 - 1.0)
    assert t.ancestors(4) == ["a", "parent"]


def test_worker_thread_spans_take_the_submitting_span_as_parent():
    import threading

    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: None)

    def outer():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    t.wrap("outer", outer)()
    assert [(s.name, s.parent) for s in t.spans] == [("outer", None), ("inner", 0)]


def test_missing_program_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "acceptance", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
