"""Aggregation baselines: majority voting, ensemble averaging, and the
classic hard-label Dawid-Skene EM (used both as a comparison method and
as the initializer for the soft-label model)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ClassPrior, FormatError, HardLabelSet, PosteriorMatrix, PredictionSet
from .mathutils import sorted_sum

__all__ = ["DsModel", "majority_vote", "ensemble_average", "ds_em"]


@dataclass
class DsModel:
    """Row-stochastic per-member confusion matrices plus a class prior."""

    confusion: np.ndarray  # (K, J, J), every row sums to 1
    prior: ClassPrior

    def __post_init__(self):
        conf = np.array(self.confusion, dtype=np.float64, copy=True)
        if conf.ndim != 3 or conf.shape[1] != conf.shape[2]:
            raise FormatError("confusion must be K x J x J")
        if not np.all(np.isfinite(conf)) or np.any(conf < 0.0):
            raise FormatError("confusion entries must be finite and >= 0")
        if np.max(np.abs(conf.sum(axis=2) - 1.0)) > 1e-9:
            raise FormatError("confusion rows must sum to 1")
        conf.setflags(write=False)
        self.confusion = conf

    @property
    def n_members(self):
        return self.confusion.shape[0]

    @property
    def n_classes(self):
        return self.confusion.shape[1]


def majority_vote(labels: HardLabelSet) -> PosteriorMatrix:
    """One-hot posterior at the modal class of each item; ties go to the
    lowest class index."""
    n, _ = labels.labels.shape
    j = labels.n_classes
    counts = np.zeros((n, j))
    np.add.at(counts, (np.arange(n)[:, None], labels.labels), 1.0)
    winners = np.argmax(counts, axis=1)
    rows = np.zeros((n, j))
    rows[np.arange(n), winners] = 1.0
    return PosteriorMatrix(rows)


def ensemble_average(preds: PredictionSet) -> PosteriorMatrix:
    """Arithmetic mean of the member probability vectors, item by item.

    The member axis is reduced with an order-insensitive sum, so
    permuting members leaves the output bitwise unchanged."""
    rows = sorted_sum(preds.probs, axis=1) / preds.n_members
    return PosteriorMatrix(rows, list(preds.item_ids))


def _rows_from_log(w):
    """Normalize log scores row-wise; -inf entries are allowed, and rows
    that are -inf everywhere fall back to uniform."""
    n, j = w.shape
    out = np.empty((n, j))
    m = w.max(axis=1, keepdims=True)
    ok = np.isfinite(m[:, 0])
    if np.any(ok):
        e = np.exp(w[ok] - m[ok])
        out[ok] = e / e.sum(axis=1, keepdims=True)
    if np.any(~ok):
        out[~ok] = 1.0 / j
    return out


def ds_em(labels: HardLabelSet, n_iterations: int, smoothing: float = 0.01):
    """Classic Dawid-Skene EM on hard labels.

    Item posteriors start from per-item label frequencies (a soft
    majority vote).  Each iteration runs an M-step (confusion row (k, j)
    becomes the smoothed normalized expected count
    ``(count_jl + smoothing) / (sum_l count_jl + J * smoothing)``, prior
    becomes the mean posterior) followed by an E-step (prior times the
    per-member confusion likelihoods, normalized per item).
    ``n_iterations=1`` therefore performs exactly one M-step and one
    E-step.

    Returns ``(DsModel, PosteriorMatrix)``.  With ``smoothing > 0`` the
    output is NaN-free for any input; zero-count confusion rows (possible
    only when ``smoothing == 0``) are set to uniform, matching the
    ``smoothing -> 0`` limit.
    """
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")
    if smoothing < 0:
        raise ValueError("smoothing must be >= 0")
    lab = labels.labels
    n, k = lab.shape
    j = labels.n_classes

    items = np.arange(n)

    def onehot(m):
        # one member's (N, J) one-hot at a time, freed after its use
        out = np.zeros((n, j))
        out[items, lab[:, m]] = 1.0
        return out

    post = np.zeros((n, j))  # per-item label frequencies
    for m in range(k):
        post[items, lab[:, m]] += 1.0
    post /= k

    prior = None
    conf = None
    for _ in range(n_iterations):
        # M-step
        prior = post.mean(axis=0)
        conf = np.empty((k, j, j))
        for m in range(k):
            counts = np.einsum("ij,il->jl", post, onehot(m)) + smoothing
            denom = counts.sum(axis=1, keepdims=True)
            safe = denom > 0.0
            conf[m] = np.where(safe, counts / np.where(safe, denom, 1.0), 1.0 / j)
        # E-step
        with np.errstate(divide="ignore"):
            log_conf = np.log(conf)
            log_prior = np.log(prior)
        per_member = np.empty((k, n, j))
        for m in range(k):
            per_member[m] = log_conf[m][:, lab[:, m]].T
        w = log_prior[None, :] + sorted_sum(per_member, axis=0)
        post = _rows_from_log(w)

    return DsModel(conf, ClassPrior(prior)), PosteriorMatrix(post)
