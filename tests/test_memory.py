"""Peak memory of the stages of ``aggregate``, as ``tracemalloc`` counts
numpy's and Python's allocations plus the anonymous shared mappings
alive at the time, in multiples of the (N, K, J) probability array's
bytes at a tall shape: many items over many chunks.  Allocations of
forked worker processes are not counted."""

import json
import mmap
import tracemalloc
import weakref

import numpy as np
import pytest

import softds as s
from softds.cli import main

# K = 3, J = 10 as in the tall benchmark; 20000 items span ten fit chunks
SHAPE = (20000, 3, 10)


@pytest.fixture
def traced_peak(monkeypatch):
    """``traced_peak(compute)`` is ``(compute(), peak bytes while it
    ran)``: the traced bytes plus the lengths of the ``mmap.mmap``
    mappings made while it ran and not yet freed, which ``tracemalloc``
    does not see.  The peak is taken apart at each mapping's creation and
    release, so a mapping counts only while it lives."""
    peaks, mapped = [], [0]

    def remap(change):
        peaks.append(tracemalloc.get_traced_memory()[1] + mapped[0])
        tracemalloc.reset_peak()
        mapped[0] += change

    class Counted(mmap.mmap):
        def __new__(cls, fileno, length, *args, **kwargs):
            remap(length)
            mapping = super().__new__(cls, fileno, length, *args, **kwargs)
            weakref.finalize(mapping, remap, -length)
            return mapping

    def measure(compute):
        peaks.clear()
        tracemalloc.start()
        try:
            result = compute()
            remap(0)
            return result, max(peaks)
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(mmap, "mmap", Counted)
    return measure


@pytest.fixture(scope="module")
def tall(tmp_path_factory):
    """``(manifest path, PredictionSet)`` of a saved tall dataset."""
    rng = np.random.default_rng(94)
    preds = s.PredictionSet.from_probs(rng.dirichlet(np.ones(SHAPE[2]), size=SHAPE[:2]))
    assert len(s.sds._chunks(*SHAPE)) >= 8
    return s.save_predictions(preds, tmp_path_factory.mktemp("tall")), preds


def test_prediction_set_checks_then_floors_one_copy(tall, traced_peak):
    # the floored copy, plus the larger of the flooring's row sums and the
    # item ids; the check's scratch is freed before the copy is made
    _, preds = tall
    raw = np.random.default_rng(94).dirichlet(np.ones(SHAPE[2]), size=SHAPE[:2])
    built, peak = traced_peak(lambda: s.PredictionSet(raw))
    assert np.array_equal(built.probs, preds.probs)
    assert peak <= 1.3 * raw.nbytes


def test_load_predictions_parses_into_one_array(tall, traced_peak):
    # the array, which lies in a shared mapping, plus one member file's
    # table and the item ids at a time
    manifest, preds = tall
    loaded, peak = traced_peak(lambda: s.load_predictions(manifest))
    assert np.array_equal(loaded.probs, preds.probs)
    assert peak <= 2.25 * preds.probs.nbytes


def test_fit_holds_log_c_and_posterior(tall, traced_peak):
    # log c (1x) and the posterior (1/K) plus O(chunk * K * J) scratch
    _, preds = tall
    _, peak = traced_peak(lambda: s.fit(preds, s.SdsConfig(em_iterations=2)))
    assert peak <= 2.0 * preds.probs.nbytes


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("shape", [(2000, 5, 100), (200, 3, 300)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_fit_holds_few_confusion_sized_arrays(traced_peak, shape, threads):
    # Beyond the probabilities' copy and the posterior, in (K, J, J)
    # arrays: pi, AdamW's two moments, S and pi - 1, with the log-Gamma
    # normalizer's temporaries at the peak and, just below it, the
    # M-step's copy of pi and gradient and digamma's three (K, J, J + 1)
    # arrays.  With two threads up to four E-step tasks hold their
    # (K, J, J) parts of S and chunk scratch.
    n, k, j = shape
    preds = s.PredictionSet.from_probs(
        np.random.default_rng(95).dirichlet(np.ones(j), size=(n, k)))
    _, peak = traced_peak(lambda: s.fit(preds, s.SdsConfig(em_iterations=2), threads))
    held = (peak - preds.probs.nbytes - n * j * 8) / (k * j * j * 8)
    assert held <= (11.3 if threads == 1 else 14.5)


def test_ds_em_holds_one_member_table(tall, traced_peak):
    # the E-step's (K, N, J) log table (1x), summed over members in place,
    # with the (N, K) labels and a few (N, J) rows (1/K each) beside it
    _, preds = tall
    _, peak = traced_peak(lambda: s.ds_em(preds, 1))
    assert peak <= 2.4 * preds.probs.nbytes


@pytest.mark.parametrize("threads", ["1", "2"])
def test_aggregate_holds_one_probability_array(tall, tmp_path, traced_peak, threads):
    # the loaded array's mapping, with the load's tables and the fit's
    # posterior (1/K), start labels and chunk scratch beside it; the fit
    # writes log c over the array.  With two workers the tables are
    # parsed in the workers, and only their item ids come back.
    manifest, preds = tall
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"em_iterations": 2}))
    code, peak = traced_peak(lambda: main([
        "aggregate", "--manifest", str(manifest), "--out", str(tmp_path / "post.csv"),
        "--method", "sds", "--config", str(cfg), "--threads", threads]))
    assert code == 0
    assert peak <= 2.5 * preds.probs.nbytes


def test_harden_copies_a_block_at_a_time(tall, traced_peak):
    # the (N, K) labels are 1/J of the array; a read-only block is copied
    _, preds = tall
    hard, peak = traced_peak(lambda: s.harden(preds))
    assert np.array_equal(hard, np.argmax(np.array(preds.probs), axis=2))
    assert peak <= 0.25 * preds.probs.nbytes
