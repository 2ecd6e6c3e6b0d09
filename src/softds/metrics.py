"""Evaluation of aggregated posteriors: accuracy, expected calibration
error, Brier score, negative log likelihood, AUROC for
out-of-distribution scoring, and ground-truth confusion matrices."""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .data import (
    PROB_FLOOR,
    GroundTruth,
    PosteriorMatrix,
    PredictionSet,
    _whole_labels,
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
    labels = truth.labels if isinstance(truth, GroundTruth) else _whole_labels(truth)
    if labels.ndim != 1:
        raise ValueError("truth must be a 1-D label vector")
    if labels.size != n_items:
        raise ValueError(f"{n_items} items vs {labels.size} truth labels")
    if not labels.size:
        raise ValueError("metrics need at least one item")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("truth label outside [0, J)")
    return labels


def _rows(post):
    """The N x J rows of a PosteriorMatrix or of a raw array, entries
    capped at 1.  A posterior row may sum to 1 within 1e-9, so an entry
    may exceed 1 by as much; capped, every metric and score stays in its
    range."""
    rows = post.rows if isinstance(post, PosteriorMatrix) else \
        np.asarray(post, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("posterior must be an N x J matrix")
    return np.minimum(rows, 1.0)


def _aligned(post, truth):
    """The posterior's rows, as :func:`_rows` reads them, and the truth's
    labels."""
    rows = _rows(post)
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
    # an empty bin's sums are 0, and so are its means
    mean_conf = conf_sum / np.maximum(count, 1.0)
    mean_acc = acc_sum / np.maximum(count, 1.0)
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
    # the capped rows are this call's own copy
    diff, labels = _aligned(post, truth)
    diff[np.arange(labels.size), labels] -= 1.0
    return float(np.mean(np.sum(diff * diff, axis=1)))


def nll(post, truth) -> float:
    """Mean negative natural log of the probability assigned to the true
    class, with probabilities floored at ``PROB_FLOOR``."""
    rows, labels = _aligned(post, truth)
    p = np.maximum(rows[np.arange(labels.size), labels], PROB_FLOOR)
    return float(np.mean(-np.log(p)))


def auroc(scores_in, scores_out) -> float:
    """P(score_out > score_in) + 0.5 P(equal): the normalized
    Mann-Whitney U statistic, its pairs counted by sorted search.  Higher
    scores mean more out-of-distribution."""
    a = np.sort(np.asarray(scores_in, dtype=np.float64).ravel())
    b = np.asarray(scores_out, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("auroc needs non-empty score lists")
    below = np.searchsorted(a, b, side="left")
    ties = np.searchsorted(a, b, side="right") - below
    # integer counts, so U is exact
    return float((below.sum() + 0.5 * ties.sum()) / (a.size * b.size))


def ood_score(post, method="max_prob"):
    """Uncertainty score of each posterior row; increases with
    uncertainty.  ``max_prob`` is 1 - max_j p_j; ``entropy`` is
    -sum_j p_j ln p_j, with 0 ln 0 = 0.

    Takes an N x J array or PosteriorMatrix and returns N scores, or one
    row and returns a float."""
    one_row = not isinstance(post, PosteriorMatrix) and np.ndim(post) == 1
    rows = _rows(np.atleast_2d(post) if one_row else post)
    if method == "max_prob":
        scores = 1.0 - rows.max(axis=1)
    elif method == "entropy":
        scores = -np.sum(rows * np.log(np.where(rows > 0.0, rows, 1.0)), axis=1)
    else:
        raise ValueError(f"unknown ood score method {method!r}")
    return float(scores[0]) if one_row else scores


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
        rows = _rows(preds_or_post)
        votes, j = np.argmax(rows, axis=1)[:, None], rows.shape[1]
    labels = _labels(truth, votes.shape[0], j)
    k = votes.shape[1]

    # each vote becomes the index of its (member, true class, vote)
    # triple, in place, and each triple gets one exact count
    votes += (labels * j)[:, None] + np.arange(k) * (j * j)
    counts = np.bincount(votes.ravel(), minlength=k * j * j).reshape(k, j, j)
    per_class = np.bincount(labels, minlength=j)
    conf = counts / np.maximum(per_class, 1)[:, None]
    missing = np.flatnonzero(per_class == 0)
    conf[:, missing] = 1.0 / j
    if missing.size:
        empty = [(m, cls) for m in range(k) for cls in missing.tolist()]
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
