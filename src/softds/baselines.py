"""Aggregation baselines: majority voting, ensemble averaging, and the
classic hard-label Dawid-Skene EM.  Each takes a :class:`PredictionSet`;
the hard-label methods harden it (argmax per member) themselves.  The
majority-vote and ensemble-average rows are on the simplex by
construction and are not checked again; Dawid-Skene's rows come from
:func:`_normalize_log_rows`, the soft-label fit's checked normalizer.
The soft-label fit starts from this module's label frequencies and DS
M-step."""

from __future__ import annotations

import numpy as np

from .data import ClassPrior, NumericError, PosteriorMatrix, PredictionSet, harden
from .mathutils import _sorted_sum_of, sorted_sum

__all__ = ["majority_vote", "ensemble_average", "ds_em"]

# Additive smoothing of the Dawid-Skene counts, in ds_em and in the
# soft-label fit's start, which is ds_em's first M-step
_DS_SMOOTHING = 0.01


def _label_frequencies(hard, n_classes):
    """(N, J) share of the members whose hard label is each class, from
    the (N, K) labels ``hard``: a soft majority vote, and the Dawid-Skene
    start posterior."""
    n, k = hard.shape
    items = np.arange(n)
    freq = np.zeros((n, n_classes))
    for m in range(k):
        freq[items, hard[:, m]] += 1.0
    freq /= k
    return freq


def _ds_m_step(hard, post):
    """Dawid-Skene M-step on the (N, K) labels ``hard`` under the (N, J)
    posterior rows ``post``: confusion row (k, j) is the smoothed
    normalized expected count ``(count_jl + 0.01) / (sum_l count_jl + J *
    0.01)`` and the prior is the mean posterior.  Returns ``(confusion,
    prior)`` as (K, J, J) and (J,) arrays.  The rows of ``post`` are
    label frequencies or checked posterior rows, so every count is a sum
    of at most N weights in [0, 1] and every row sum is at least 0.01 * J.

    Count (k, j, l) is ``post[:, j]`` summed in item order over the items
    member k labels l, one ``np.bincount`` per (member, class) pair: the
    sums of a one-hot product over items, bit for bit, without an (N, J)
    one-hot."""
    k, j = hard.shape[1], post.shape[1]
    conf = np.empty((k, j, j))
    for m in range(k):
        for c in range(j):
            conf[m, c] = np.bincount(hard[:, m], weights=post[:, c], minlength=j)
    conf += _DS_SMOOTHING
    conf /= conf.sum(axis=2, keepdims=True)
    return conf, post.mean(axis=0)


def majority_vote(preds: PredictionSet) -> PosteriorMatrix:
    """One-hot posterior at the class most members' argmax picks for each
    item; ties go to the lowest class index."""
    freq = _label_frequencies(harden(preds), preds.n_classes)
    rows = np.zeros_like(freq)
    rows[np.arange(preds.n_items), np.argmax(freq, axis=1)] = 1.0
    return PosteriorMatrix._take(rows, list(preds.item_ids))


def ensemble_average(preds: PredictionSet) -> PosteriorMatrix:
    """Arithmetic mean of the member probability vectors, item by item.

    The member axis is reduced with an order-insensitive sum, so
    permuting members leaves the output bitwise unchanged."""
    return PosteriorMatrix._take(_average_rows(preds.probs), list(preds.item_ids))


def _average_rows(probs):
    """(n, J) member means of (n, K, J) probabilities; each row's value is
    independent of the block it is computed in."""
    return sorted_sum(probs, axis=1) / probs.shape[1]


def _normalize_log_rows(w):
    """Row-wise exp(w - log_sum_exp(w)); per-row results do not depend on
    the other rows.  Raises :class:`NumericError` when a row is
    non-finite or does not sum to 1 within 1e-9, as happens once the log
    weights are so large that adding ln J to their maximum rounds away."""
    m = w.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(w - m).sum(axis=1, keepdims=True))
    rows = np.exp(w - lse)
    # written so that a NaN sum fails too
    if not np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-9):
        raise NumericError("posterior rows are non-finite or do not sum to 1")
    return rows


def ds_em(preds: PredictionSet, n_iterations: int):
    """Classic Dawid-Skene EM on the hardened predictions.

    Item posteriors start from per-item label frequencies (a soft
    majority vote).  Each iteration runs the M-step of
    :func:`_ds_m_step`, with the smoothing 0.01, followed by an E-step
    (prior times the per-member confusion likelihoods, normalized per
    item by :func:`_normalize_log_rows`).  ``n_iterations=1`` therefore
    performs exactly one M-step and one E-step.

    Returns ``(confusion, ClassPrior, PosteriorMatrix)``: the (K, J, J)
    row-stochastic confusion matrices, the class prior and the posterior
    under ``preds.item_ids``.  A posterior row that is not finite raises
    :class:`NumericError`.
    """
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")
    hard = harden(preds)
    n, k = hard.shape
    post = _label_frequencies(hard, preds.n_classes)
    for _ in range(n_iterations):
        conf, prior = _ds_m_step(hard, post)
        with np.errstate(divide="ignore"):
            log_conf = np.log(conf)
            log_prior = np.log(prior)
        # the (K, N, J) member log likelihoods, summed over members as by
        # sorted_sum(w, axis=0) but in place; the table is freed on rebinding
        w = np.empty((k, n, preds.n_classes))
        for m in range(k):
            w[m] = log_conf[m][:, hard[:, m]].T
        w = _sorted_sum_of(w) + log_prior
        post = _normalize_log_rows(w)
    return conf, ClassPrior(prior), PosteriorMatrix._take(post, list(preds.item_ids))
