"""Aggregation baselines: majority voting, ensemble averaging, and the
classic hard-label Dawid-Skene EM.  Each takes a :class:`PredictionSet`;
the hard-label methods harden it (argmax per member) themselves.  The
soft-label fit starts from this module's label frequencies and DS M-step."""

from __future__ import annotations

import numpy as np

from .data import ClassPrior, PosteriorMatrix, PredictionSet, harden
from .mathutils import sorted_sum

__all__ = ["majority_vote", "ensemble_average", "ds_em"]


def _label_frequencies(hard, n_classes):
    """(N, J) share of the members whose hard label is each class, from
    the (N, K) labels ``hard``: a soft majority vote, and the Dawid-Skene
    start posterior."""
    n, k = hard.shape
    items = np.arange(n)
    freq = np.zeros((n, n_classes))
    for m in range(k):
        freq[items, hard[:, m]] += 1.0
    return freq / k


def _ds_m_step(hard, post, smoothing):
    """Dawid-Skene M-step on the (N, K) labels ``hard`` under the (N, J)
    posterior rows ``post``: confusion row (k, j) is the smoothed
    normalized expected count ``(count_jl + smoothing) / (sum_l count_jl
    + J * smoothing)`` and the prior is the mean posterior.  Returns
    ``(confusion, prior)`` as (K, J, J) and (J,) arrays; zero-count rows
    (possible only when ``smoothing == 0``) are uniform, the
    ``smoothing -> 0`` limit."""
    n, k = hard.shape
    j = post.shape[1]
    items = np.arange(n)
    conf = np.empty((k, j, j))
    for m in range(k):
        # one member's (N, J) one-hot at a time, freed after its use
        onehot = np.zeros((n, j))
        onehot[items, hard[:, m]] = 1.0
        counts = np.einsum("ij,il->jl", post, onehot) + smoothing
        denom = counts.sum(axis=1, keepdims=True)
        safe = denom > 0.0
        conf[m] = np.where(safe, counts / np.where(safe, denom, 1.0), 1.0 / j)
    return conf, post.mean(axis=0)


def majority_vote(preds: PredictionSet) -> PosteriorMatrix:
    """One-hot posterior at the class most members' argmax picks for each
    item; ties go to the lowest class index."""
    freq = _label_frequencies(harden(preds), preds.n_classes)
    rows = np.zeros_like(freq)
    rows[np.arange(preds.n_items), np.argmax(freq, axis=1)] = 1.0
    return PosteriorMatrix(rows, list(preds.item_ids))


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


def ds_em(preds: PredictionSet, n_iterations: int, smoothing: float = 0.01):
    """Classic Dawid-Skene EM on the hardened predictions.

    Item posteriors start from per-item label frequencies (a soft
    majority vote).  Each iteration runs the M-step of
    :func:`_ds_m_step` followed by an E-step (prior times the per-member
    confusion likelihoods, normalized per item).  ``n_iterations=1``
    therefore performs exactly one M-step and one E-step.

    Returns ``(confusion, ClassPrior, PosteriorMatrix)``: the (K, J, J)
    row-stochastic confusion matrices, the class prior and the posterior
    under ``preds.item_ids``.  With ``smoothing > 0`` the output is
    NaN-free for any input.
    """
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")
    if smoothing < 0:
        raise ValueError("smoothing must be >= 0")
    hard = harden(preds)
    n, k = hard.shape
    post = _label_frequencies(hard, preds.n_classes)
    for _ in range(n_iterations):
        conf, prior = _ds_m_step(hard, post, smoothing)
        with np.errstate(divide="ignore"):
            log_conf = np.log(conf)
            log_prior = np.log(prior)
        per_member = np.empty((k, n, preds.n_classes))
        for m in range(k):
            per_member[m] = log_conf[m][:, hard[:, m]].T
        post = _rows_from_log(log_prior[None, :] + sorted_sum(per_member, axis=0))
    return conf, ClassPrior(prior), PosteriorMatrix(post, list(preds.item_ids))
