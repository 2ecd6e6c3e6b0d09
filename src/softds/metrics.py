"""Evaluation of aggregated posteriors: accuracy, expected calibration
error, Brier score, negative log likelihood, AUROC for
out-of-distribution scoring, and ground-truth confusion matrices."""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .baselines import _ds_m_step
from .data import (
    PROB_FLOOR,
    GroundTruth,
    PredictionSet,
    _posterior_rows,
    harden,
)

__all__ = [
    "ECE_BINS",
    "MetricReport",
    "accuracy",
    "reliability_bins",
    "ece",
    "brier",
    "nll",
    "auroc",
    "ood_score",
    "true_confusion",
    "evaluate_posterior",
]

# Default number of equal-width confidence bins for the ECE.
ECE_BINS = 300


def _labels(truth, n_items, n_classes):
    """The truth's labels, once there are ``n_items`` of them, at least
    one, each in [0, ``n_classes``)."""
    labels = truth.labels if isinstance(truth, GroundTruth) else \
        np.asarray(truth, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("truth must be a 1-D label vector")
    if labels.size != n_items:
        raise ValueError(f"{n_items} items vs {labels.size} truth labels")
    if not labels.size:
        raise ValueError("metrics need at least one item")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("truth label outside [0, J)")
    return labels


def _aligned(post, truth):
    """The posterior's rows, entries capped at 1, and the truth's labels.
    A posterior row may sum to 1 within 1e-9, so an entry may exceed 1
    by as much; capped, every metric stays in its range."""
    rows = np.minimum(_posterior_rows(post), 1.0)
    return rows, _labels(truth, *rows.shape)


@dataclass
class MetricReport:
    accuracy: float
    ece: float
    brier: float
    nll: float
    n_items: int

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy out of [0, 1]")
        if not 0.0 <= self.ece <= 1.0:
            raise ValueError("ece out of [0, 1]")
        if not 0.0 <= self.brier <= 2.0:
            raise ValueError("brier out of [0, 2]")
        if self.nll < 0.0:
            raise ValueError("nll must be >= 0")

    def to_dict(self):
        return asdict(self)


def accuracy(post, truth) -> float:
    """Fraction of items whose argmax class (lowest index on ties)
    matches the truth."""
    rows, labels = _aligned(post, truth)
    return float(np.mean(np.argmax(rows, axis=1) == labels))


def reliability_bins(post, truth, n_bins=ECE_BINS):
    """Per-bin (mean confidence, accuracy, count) over equal-width,
    right-closed confidence bins: bin b covers (b/n, (b+1)/n], and a
    confidence of exactly 0 lands in bin 0.

    Returns three arrays of length ``n_bins``; empty bins report 0.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    rows, labels = _aligned(post, truth)
    conf = rows.max(axis=1)
    correct = (np.argmax(rows, axis=1) == labels).astype(np.float64)
    idx = np.clip(np.ceil(conf * n_bins).astype(np.int64) - 1, 0, n_bins - 1)
    count = np.bincount(idx, minlength=n_bins).astype(np.float64)
    conf_sum = np.bincount(idx, weights=conf, minlength=n_bins)
    acc_sum = np.bincount(idx, weights=correct, minlength=n_bins)
    occupied = count > 0
    mean_conf = np.where(occupied, conf_sum / np.maximum(count, 1.0), 0.0)
    mean_acc = np.where(occupied, acc_sum / np.maximum(count, 1.0), 0.0)
    return mean_conf, mean_acc, count


def ece(post, truth, n_bins=ECE_BINS) -> float:
    """Expected calibration error: the bin-count-weighted mean absolute
    gap between per-bin accuracy and per-bin mean confidence."""
    mean_conf, mean_acc, count = reliability_bins(post, truth, n_bins)
    total = count.sum()
    return float(np.sum((count / total) * np.abs(mean_acc - mean_conf)))


def brier(post, truth) -> float:
    """Multiclass Brier score, summed over classes:
    mean_i sum_j (post[i, j] - onehot(truth_i)_j)^2.  Ranges over [0, 2]."""
    rows, labels = _aligned(post, truth)
    diff = rows.copy()
    diff[np.arange(labels.size), labels] -= 1.0
    return float(np.mean(np.sum(diff * diff, axis=1)))


def nll(post, truth) -> float:
    """Mean negative natural log of the probability assigned to the true
    class, with probabilities floored at ``PROB_FLOOR``."""
    rows, labels = _aligned(post, truth)
    p = np.maximum(rows[np.arange(labels.size), labels], PROB_FLOOR)
    return float(np.mean(-np.log(p)))


def _midranks(values):
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    _, start, count = np.unique(sorted_vals, return_index=True, return_counts=True)
    group_rank = start + (count + 1) / 2.0  # average 1-based rank per tie group
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(group_rank, count)
    return ranks


def auroc(scores_in, scores_out) -> float:
    """P(score_out > score_in) + 0.5 P(equal), computed by midranks
    (the normalized Mann-Whitney U statistic).  Higher scores mean
    more out-of-distribution."""
    a = np.asarray(scores_in, dtype=np.float64).ravel()
    b = np.asarray(scores_out, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("auroc needs non-empty score lists")
    ranks = _midranks(np.concatenate([a, b]))
    u = ranks[a.size:].sum() - b.size * (b.size + 1) / 2.0
    return float(u / (a.size * b.size))


def ood_score(post_row, method="max_prob") -> float:
    """Uncertainty score of one posterior row; increases with
    uncertainty.  ``max_prob`` is 1 - max_j p_j; ``entropy`` is
    -sum_j p_j ln p_j."""
    row = np.asarray(post_row, dtype=np.float64)
    if method == "max_prob":
        return float(1.0 - row.max())
    if method == "entropy":
        nz = row[row > 0.0]
        return float(-(nz * np.log(nz)).sum())
    raise ValueError(f"unknown ood score method {method!r}")


def true_confusion(preds_or_post, truth) -> np.ndarray:
    """Row-stochastic ground-truth confusion matrices, entry (j, l) =
    P(predicted l | true j) of the hardened predictions.

    Accepts a PredictionSet (one matrix per member) or a PosteriorMatrix /
    raw N x J array (a single matrix); returns a (K, J, J) or (1, J, J)
    array.  True classes that never occur get a uniform row and a warning.
    """
    if isinstance(preds_or_post, PredictionSet):
        votes, j = harden(preds_or_post), preds_or_post.n_classes
    else:
        rows = _posterior_rows(preds_or_post)
        votes, j = np.argmax(rows, axis=1)[:, None], rows.shape[1]
    labels = _labels(truth, votes.shape[0], j)

    # exact integer counts, so the DS M-step's normalization is the
    # plain ratio
    conf, _ = _ds_m_step(votes, np.eye(j)[labels], 0.0)
    missing = np.flatnonzero(np.bincount(labels, minlength=j) == 0).tolist()
    if missing:
        empty = [(m, cls) for m in range(votes.shape[1]) for cls in missing]
        warnings.warn(
            f"true classes never observed, rows set to uniform: {empty}",
            stacklevel=2,
        )
    return conf


def evaluate_posterior(post, truth, n_bins=ECE_BINS) -> MetricReport:
    """Bundle the four headline metrics into a report."""
    rows, labels = _aligned(post, truth)
    return MetricReport(
        accuracy=accuracy(rows, labels),
        ece=ece(rows, labels, n_bins),
        brier=brier(rows, labels),
        nll=nll(rows, labels),
        n_items=int(labels.size),
    )
