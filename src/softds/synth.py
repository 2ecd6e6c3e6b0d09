"""Synthetic data from the exact generative model the fitter assumes,
plus the exact Bayes posterior under the true parameters.  Together they
form the ground-truth oracle used to verify fitting and online inference.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

from .data import (
    NU_LOG_FLOOR,
    ClassPrior,
    ConfusionTensor,
    FormatError,
    GroundTruth,
    NumericError,
    PosteriorMatrix,
    PredictionSet,
    _TRUTH_HEADER,
    _csv_rows,
    _floor_and_renormalize_in_place,
    _fork_map,
    _is_int,
    _json_numbers,
    _load_json,
    _loading,
    _member_files,
    _prob_header,
    _save_json,
    _save_manifest,
    _write_tables,
)
from .mathutils import dirichlet_log_density

__all__ = ["GenerativeSpec", "sample", "bayes_posterior"]


@dataclass
class GenerativeSpec:
    """Parameters of the generative model: item count, member count,
    class count, true class prior, true confusion tensor, and the seed."""

    n_items: int
    n_members: int
    n_classes: int
    nu_true: ClassPrior
    pi_true: ConfusionTensor
    seed: int

    def __post_init__(self):
        counts = (self.n_items, self.n_members, self.n_classes, self.seed)
        if not all(_is_int(value) for value in counts):
            raise FormatError("n_items, n_members, n_classes, seed must be integers")
        if self.n_items < 1 or self.n_members < 1 or self.n_classes < 2:
            raise FormatError("need n_items >= 1, n_members >= 1, n_classes >= 2")
        if self.nu_true.n_classes != self.n_classes:
            raise FormatError("nu_true length does not match n_classes")
        if self.pi_true.pi.shape != (self.n_members, self.n_classes, self.n_classes):
            raise FormatError("pi_true shape does not match (K, J, J)")
        if self.seed < 0:
            raise FormatError(f"seed must be a non-negative integer, got {self.seed!r}")

    @classmethod
    def from_json(cls, path):
        obj = _load_json(path, "generative spec")
        required = {"n_items", "n_members", "n_classes", "nu_true", "pi_true", "seed"}
        if not required.issubset(obj):
            raise FormatError(
                f"{path}: generative spec needs keys {sorted(required)}"
            )
        nu_true = _json_numbers(obj["nu_true"], path, "nu_true")
        pi_true = _json_numbers(obj["pi_true"], path, "pi_true")
        with _loading(path):
            return cls(
                n_items=obj["n_items"],
                n_members=obj["n_members"],
                n_classes=obj["n_classes"],
                nu_true=ClassPrior(nu_true),
                pi_true=ConfusionTensor(pi_true),
                seed=obj["seed"],
            )

    def to_json(self, path):
        _save_json({
            "n_items": self.n_items,
            "n_members": self.n_members,
            "n_classes": self.n_classes,
            "nu_true": self.nu_true.nu.tolist(),
            "pi_true": self.pi_true.pi.tolist(),
            "seed": self.seed,
        }, path)


# Items per block, the unit of work of a worker process.  The block size
# is part of the sampler's stream definition: each block draws its labels
# from one stream and each member's vectors from another, so another size
# draws other data.
_BLOCK_ITEMS = 1024


def _blocks(spec, workers, finish=lambda ids, labels, probs: (labels, probs)):
    """A generator to close: for each block of ``_BLOCK_ITEMS`` items, in
    order, ``finish(ids, labels, probs)`` of the block's str item ids, its
    labels and its floored ``(block, K, J)`` probabilities, called in the
    block's task, on up to ``workers`` forked worker processes (see
    :func:`softds.data._fork_map`), whose results alone are pickled.
    Each task draws its block from the block's own streams, as
    :func:`sample` defines them."""
    n, k, j = spec.n_items, spec.n_members, spec.n_classes
    cdf = np.cumsum(spec.nu_true.nu)
    pi = spec.pi_true.pi
    seed = int(spec.seed)

    def task(start):
        block = start // _BLOCK_ITEMS
        stop = min(start + _BLOCK_ITEMS, n)
        # np.random is reached at draw time: numpy imports it on first use,
        # so commands that draw nothing do not load it
        u = np.random.default_rng([seed, 0, block]).random(stop - start)
        labels = np.minimum(np.searchsorted(cdf, u, side="right"), j - 1)
        probs = np.empty((labels.size, k, j))
        for m in range(k):
            stream = np.random.default_rng([seed, 1, block, m])
            probs[:, m] = stream.standard_gamma(pi[m][labels])
        # a sum past the float range is reported below, not by numpy
        with np.errstate(over="ignore"):
            total = probs.sum(axis=2, keepdims=True)
        if not np.all(np.isfinite(total)):
            item, m = np.argwhere(~np.isfinite(total[..., 0]))[0]
            raise NumericError(f"item {start + item} member {m}: Gamma draws sum past "
                               f"the float range")
        drawn = total > 0.0
        np.divide(probs, total, out=probs, where=drawn)
        probs[~drawn[..., 0]] = 1.0 / j
        # every row now holds finite entries >= 0 summing to 1 up to rounding
        _floor_and_renormalize_in_place(probs)
        return finish(list(map(str, range(start, stop))), labels, probs)

    return _fork_map(task, range(0, n, _BLOCK_ITEMS), workers)


def sample(spec: GenerativeSpec, workers=1):
    """Draw a dataset from the generative model.

    Per item: the latent class comes from the true prior (inverse-CDF on
    one uniform); per member, a probability vector is drawn from the
    Dirichlet whose parameters are that member's confusion row for the
    latent class, via normalized independent Gamma draws (numpy's
    ``standard_gamma``: an exponential draw for shape 1, rejection from a
    uniform and an exponential draw below 1, Marsaglia-Tsang above 1).
    A vector whose Gamma draws all underflow to 0 is uniform; one whose
    draws sum past the float range raises :class:`NumericError` naming
    the first such item and member.  Fully determined by ``spec.seed``.

    The draws come in blocks of ``_BLOCK_ITEMS`` items, and each block
    has its own numpy streams: ``default_rng([seed, 0, block])`` draws
    the block's labels in one call and ``default_rng([seed, 1, block,
    member])`` draws that member's vectors in one call, item by item.  So
    adding members never perturbs earlier draws, nor does adding items,
    which only extends the last block's calls and adds blocks.  With
    ``workers > 1`` the blocks are drawn on up to that many forked worker
    processes; since every block has its own streams, the result is
    bitwise the same for any ``workers``.

    Returns ``(PredictionSet, GroundTruth)``.
    """
    n, k, j = spec.n_items, spec.n_members, spec.n_classes
    labels = np.empty(n, dtype=np.int64)
    probs = np.empty((n, k, j))
    stop = 0
    with contextlib.closing(_blocks(spec, workers)) as blocks:
        for block_labels, block_probs in blocks:
            start, stop = stop, stop + block_labels.size
            labels[start:stop] = block_labels
            probs[start:stop] = block_probs
    item_ids = [str(i) for i in range(n)]
    preds = PredictionSet._take(probs, item_ids)
    return preds, GroundTruth(labels, list(item_ids), n_classes=j)


def _sample_files(n_members, bayes):
    """The names of the files :func:`_save_sample` writes: its tables, the
    truth first, then the manifest."""
    return (["truth.csv", *_member_files(n_members)]
            + ["bayes_posterior.csv"] * bayes + ["manifest.json"])


def _save_sample(spec: GenerativeSpec, out_dir, workers=1, bayes=False):
    """Write the dataset of ``sample(spec)`` to ``out_dir`` as
    :func:`softds.data.save_ground_truth` and
    :func:`softds.data.save_predictions` write it: ``truth.csv``,
    ``member_<k>.csv`` and ``manifest.json`` (labels ``truth.csv``), and
    with ``bayes`` the :func:`bayes_posterior` in
    ``bayes_posterior.csv``, as :func:`softds.data.save_posterior` writes
    it.  Returns the manifest path.

    The tables are written by :func:`softds.data._write_tables`, which
    creates every one before the first draw and removes them all if a
    draw, the oracle or a write fails; the manifest is written last.
    Each block's task draws the block from its own streams (see
    :func:`sample`) and formats its rows of every table, the oracle's
    included, on a worker with ``workers > 1``, and returns the texts
    alone; they are written in block order, so every file holds the same
    bytes for any ``workers``.
    """
    k, j = spec.n_members, spec.n_classes
    truth_name, *prob_names, _ = _sample_files(k, bayes)
    tables = [(truth_name, _TRUTH_HEADER)] + [(name, _prob_header(j))
                                              for name in prob_names]

    def texts(ids, labels, probs):
        values = [labels[:, None], *probs.transpose(1, 0, 2)]
        if bayes:
            # each oracle row depends on its item alone
            values.append(bayes_posterior(spec, PredictionSet._take(probs, ids)).rows)
        return list(map("".join, zip(*_csv_rows(ids, values))))

    os.makedirs(out_dir, exist_ok=True)
    _write_tables([(os.path.join(out_dir, name), header) for name, header in tables],
                  _blocks(spec, workers, texts))
    return _save_manifest(out_dir, j, k, truth_name)


def bayes_posterior(spec: GenerativeSpec, preds: PredictionSet) -> PosteriorMatrix:
    """Exact posterior over the latent class under the true parameters:

        row_i  proportional to  nu_j * prod_k Dir(c_i^(k); pi_true[k, j])

    One class at a time through :func:`dirichlet_log_density` on all items,
    a code path independent of the fitter's E-step kernel.
    """
    if preds.n_members != spec.n_members or preds.n_classes != spec.n_classes:
        raise ValueError("prediction shape does not match the generative spec")
    pi = spec.pi_true.pi
    log_nu = np.log(np.maximum(spec.nu_true.nu, NU_LOG_FLOOR))
    w = np.empty((preds.n_items, spec.n_classes))
    for cls in range(spec.n_classes):
        w[:, cls] = (log_nu[cls]
                     + dirichlet_log_density(preds.probs, pi[:, cls]).sum(axis=1))
    rows = np.exp(w - np.logaddexp.reduce(w, axis=1, keepdims=True))
    return PosteriorMatrix(rows, list(preds.item_ids))
