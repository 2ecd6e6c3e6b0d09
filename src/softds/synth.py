"""Synthetic data from the exact generative model the fitter assumes,
plus the exact Bayes posterior under the true parameters.  Together they
form the ground-truth oracle used to verify fitting and online inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    ClassPrior,
    ConfusionTensor,
    FormatError,
    GroundTruth,
    PosteriorMatrix,
    PredictionSet,
    _is_int,
    _load_json,
    _save_json,
)
from .mathutils import dirichlet_log_density

__all__ = ["GenerativeSpec", "sample", "bayes_posterior"]

_NU_LOG_FLOOR = 1e-300


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
        if self.n_items < 1 or self.n_members < 1 or self.n_classes < 2:
            raise FormatError("need n_items >= 1, n_members >= 1, n_classes >= 2")
        if self.nu_true.n_classes != self.n_classes:
            raise FormatError("nu_true length does not match n_classes")
        if self.pi_true.pi.shape != (self.n_members, self.n_classes, self.n_classes):
            raise FormatError("pi_true shape does not match (K, J, J)")

    @classmethod
    def from_json(cls, path):
        obj = _load_json(path, "generative spec")
        required = {"n_items", "n_members", "n_classes", "nu_true", "pi_true", "seed"}
        if not required.issubset(obj):
            raise FormatError(
                f"{path}: generative spec needs keys {sorted(required)}"
            )
        counts = ("n_items", "n_members", "n_classes", "seed")
        if not all(_is_int(obj[key]) for key in counts):
            raise FormatError(f"{path}: {', '.join(counts)} must be integers")
        try:
            return cls(
                n_items=obj["n_items"],
                n_members=obj["n_members"],
                n_classes=obj["n_classes"],
                nu_true=ClassPrior(np.asarray(obj["nu_true"], dtype=np.float64)),
                pi_true=ConfusionTensor(
                    np.asarray(obj["pi_true"], dtype=np.float64),
                    pi_floor=float(np.min(np.asarray(obj["pi_true"], dtype=np.float64))),
                ),
                seed=obj["seed"],
            )
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}: {exc}") from None

    def to_json(self, path):
        _save_json({
            "n_items": self.n_items,
            "n_members": self.n_members,
            "n_classes": self.n_classes,
            "nu_true": self.nu_true.nu.tolist(),
            "pi_true": self.pi_true.pi.tolist(),
            "seed": self.seed,
        }, path)


def _stream(seed, *key):
    """A dedicated PCG64 stream for one draw site.

    Streams are keyed as (seed, 0, item) for the latent label and
    (seed, 1, item, member) for that member's probability vector, so
    adding members or items never perturbs earlier draws.
    """
    entropy = (int(seed),) + tuple(int(v) for v in key)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def sample(spec: GenerativeSpec):
    """Draw a dataset from the generative model.

    Per item: the latent class comes from the true prior (inverse-CDF on
    one uniform); per member, a probability vector is drawn from the
    Dirichlet whose parameters are that member's confusion row for the
    latent class, via normalized independent Gamma draws (numpy's
    Marsaglia-Tsang sampler with the shape < 1 boost, valid for all
    positive shapes).  Fully determined by ``spec.seed``.

    Returns ``(PredictionSet, GroundTruth)``.
    """
    n, k, j = spec.n_items, spec.n_members, spec.n_classes
    cdf = np.cumsum(spec.nu_true.nu)
    pi = spec.pi_true.pi
    labels = np.empty(n, dtype=np.int64)
    probs = np.empty((n, k, j))
    for i in range(n):
        u = _stream(spec.seed, 0, i).random()
        t = min(int(np.searchsorted(cdf, u, side="right")), j - 1)
        labels[i] = t
        for m in range(k):
            gam = _stream(spec.seed, 1, i, m).standard_gamma(pi[m, t])
            total = gam.sum()
            probs[i, m] = gam / total if total > 0.0 else np.full(j, 1.0 / j)
    item_ids = [str(i) for i in range(n)]
    preds = PredictionSet.from_probs(probs, item_ids)
    return preds, GroundTruth(labels, list(item_ids), n_classes=j)


def bayes_posterior(spec: GenerativeSpec, preds: PredictionSet) -> PosteriorMatrix:
    """Exact posterior over the latent class under the true parameters:

        row_i  proportional to  nu_j * prod_k Dir(c_i^(k); pi_true[k, j])

    One class at a time through :func:`dirichlet_log_density` on all items,
    a code path independent of the fitter's E-step kernel.
    """
    if preds.n_members != spec.n_members or preds.n_classes != spec.n_classes:
        raise ValueError("prediction shape does not match the generative spec")
    pi = spec.pi_true.pi
    log_nu = np.log(np.maximum(spec.nu_true.nu, _NU_LOG_FLOOR))
    w = np.empty((preds.n_items, spec.n_classes))
    for cls in range(spec.n_classes):
        w[:, cls] = (log_nu[cls]
                     + dirichlet_log_density(preds.probs, pi[:, cls]).sum(axis=1))
    rows = np.exp(w - np.logaddexp.reduce(w, axis=1, keepdims=True))
    return PosteriorMatrix(rows, list(preds.item_ids))
