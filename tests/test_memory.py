"""Peak memory of the stages of ``aggregate``, as ``tracemalloc`` counts
numpy's and Python's allocations, in multiples of the (N, K, J)
probability array's bytes at a tall shape: many items over many chunks."""

import json
import tracemalloc

import numpy as np
import pytest

import softds as s
from softds.cli import main

# K = 3, J = 10 as in the tall benchmark; 20000 items span ten fit chunks
SHAPE = (20000, 3, 10)


def traced_peak(compute):
    """``(compute(), peak bytes traced while it ran)``."""
    tracemalloc.start()
    try:
        result = compute()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def tall(tmp_path_factory):
    """``(manifest path, PredictionSet)`` of a saved tall dataset."""
    rng = np.random.default_rng(94)
    preds = s.PredictionSet.from_probs(rng.dirichlet(np.ones(SHAPE[2]), size=SHAPE[:2]))
    assert len(s.sds._chunks(*SHAPE)) >= 8
    return s.save_predictions(preds, tmp_path_factory.mktemp("tall")), preds


def test_prediction_set_checks_then_floors_one_copy(tall):
    # the floored copy, plus the larger of the flooring's row sums and the
    # item ids; the check's scratch is freed before the copy is made
    _, preds = tall
    raw = np.random.default_rng(94).dirichlet(np.ones(SHAPE[2]), size=SHAPE[:2])
    built, peak = traced_peak(lambda: s.PredictionSet(raw))
    assert np.array_equal(built.probs, preds.probs)
    assert peak <= 1.3 * raw.nbytes


def test_load_predictions_parses_into_one_array(tall):
    # the array, plus one member file's table and the item ids at a time
    manifest, preds = tall
    loaded, peak = traced_peak(lambda: s.load_predictions(manifest))
    assert np.array_equal(loaded.probs, preds.probs)
    assert peak <= 2.5 * preds.probs.nbytes


def test_fit_holds_log_c_and_posterior(tall):
    # log c (1x) and the posterior (1/K) plus O(chunk * K * J) scratch
    _, preds = tall
    _, peak = traced_peak(lambda: s.fit(preds, s.SdsConfig(em_iterations=2)))
    assert peak <= 2.0 * preds.probs.nbytes


@pytest.mark.parametrize("threads", ["1", "2"])
def test_aggregate_holds_one_probability_array(tall, tmp_path, threads):
    # the load's own peak: the fit writes log c over the loaded array, and
    # its posterior (1/K) and start labels fit under that peak
    manifest, preds = tall
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"em_iterations": 2}))
    code, peak = traced_peak(lambda: main([
        "aggregate", "--manifest", str(manifest), "--out", str(tmp_path / "post.csv"),
        "--method", "sds", "--config", str(cfg), "--threads", threads]))
    assert code == 0
    assert peak <= 2.5 * preds.probs.nbytes


def test_harden_copies_a_block_at_a_time(tall):
    # the (N, K) labels are 1/J of the array; a read-only block is copied
    _, preds = tall
    hard, peak = traced_peak(lambda: s.harden(preds))
    assert np.array_equal(hard, np.argmax(np.array(preds.probs), axis=2))
    assert peak <= 0.25 * preds.probs.nbytes
