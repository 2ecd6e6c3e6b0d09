"""Synthetic data from the exact generative model the fitter assumes,
plus the exact Bayes posterior under the true parameters.  Together they
form the ground-truth oracle used to verify fitting and online inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    NU_LOG_FLOOR,
    ClassPrior,
    ConfusionTensor,
    FormatError,
    GroundTruth,
    PosteriorMatrix,
    PredictionSet,
    _fork_map,
    _is_int,
    _json_numbers,
    _load_json,
    _save_json,
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
        try:
            return cls(
                n_items=obj["n_items"],
                n_members=obj["n_members"],
                n_classes=obj["n_classes"],
                nu_true=ClassPrior(nu_true),
                pi_true=ConfusionTensor(pi_true),
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


# numpy's SeedSequence hash constants (bit_generator.pyx) and PCG64's LCG
# multiplier (pcg64.h), for seeding many streams at once below.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# Items per block of seeds and draws, the unit of work of a worker
# process; the seeding scratch is O(block * K).
_BLOCK_ITEMS = 1024


def _int_words(n):
    """The uint32 words SeedSequence makes of a non-negative int, low first."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _pcg64_states(entropy):
    """PCG64 ``{"state", "inc"}`` dicts, one per row of ``entropy``, each
    equal to ``PCG64(SeedSequence(key)).state["state"]`` for the key whose
    uint32 words make up that row.

    ``SeedSequence`` mixes its entropy into a 4-word pool and hashes the
    pool into ``generate_state(4, uint64)``; the hash constants follow one
    sequence whatever the entropy, so both steps run here as uint32 array
    arithmetic over all rows at once.  PCG64 then seeds its 128-bit LCG
    with ``srandom`` (two LCG steps), which runs on Python ints per row.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    n_rows, n_words = entropy.shape
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> np.uint32(16))

    zeros = np.zeros(n_rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < n_words else zeros)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # little-endian pairs of words make the four uint64 seed words
    seed_hi, seed_lo, seq_hi, seq_lo = (
        (words[2 * w] | (words[2 * w + 1] << np.uint64(32))).tolist()
        for w in range(4))
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        inc = ((((q_hi << 64) | q_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"state": state, "inc": inc})
    return states


def sample(spec: GenerativeSpec, workers=1):
    """Draw a dataset from the generative model.

    Per item: the latent class comes from the true prior (inverse-CDF on
    one uniform); per member, a probability vector is drawn from the
    Dirichlet whose parameters are that member's confusion row for the
    latent class, via normalized independent Gamma draws (numpy's
    Marsaglia-Tsang sampler with the shape < 1 boost, valid for all
    positive shapes).  A vector whose Gamma draws all underflow to 0 is
    uniform.  Fully determined by ``spec.seed``.

    Each draw site has its own PCG64 stream, bitwise the stream of
    ``Generator(PCG64(SeedSequence(key)))`` with key ``(seed, 0, item)``
    for the latent label and ``(seed, 1, item, member)`` for that member's
    probability vector, so adding members or items never perturbs earlier
    draws.  The streams are seeded a block of items at a time and drawn
    from one reused generator.  With ``workers > 1`` the blocks are drawn
    on up to that many forked worker processes (see
    :func:`softds.data._fork_map`); since every site has its own stream,
    the result is bitwise the same for any ``workers``.

    Returns ``(PredictionSet, GroundTruth)``.
    """
    n, k, j = spec.n_items, spec.n_members, spec.n_classes
    cdf = np.cumsum(spec.nu_true.nu)
    pi = spec.pi_true.pi
    bitgen = np.random.PCG64()
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0,
             "uinteger": 0}

    def seed_site(site):
        state["state"] = site
        bitgen.state = state

    # SeedSequence turns each int of a key into its uint32 words; item and
    # member indices fit in one word each, since probs holds n * k * j floats.
    seed_words = np.array(_int_words(int(spec.seed)), dtype=np.uint32)

    def keys(*columns):
        rows = columns[-1].size
        return np.column_stack([np.tile(seed_words, (rows, 1)),
                                *(np.broadcast_to(c, rows) for c in columns)])

    def draw_block(start):
        """The labels and the unnormalised Gamma draws, ``(block, K, J)``,
        of the items from ``start`` on."""
        items = np.arange(start, min(start + _BLOCK_ITEMS, n), dtype=np.uint32)
        u = np.empty(items.size)
        for row, site in enumerate(_pcg64_states(keys(0, items))):
            seed_site(site)
            u[row] = gen.random()
        labels = np.minimum(np.searchsorted(cdf, u, side="right"), j - 1)
        item_of, member = np.divmod(np.arange(items.size * k, dtype=np.uint32), k)
        shapes = pi[member, labels[item_of]]
        gammas = np.empty((items.size, k, j))
        rows = gammas.reshape(-1, j)
        for row, site in enumerate(_pcg64_states(keys(1, items[item_of], member))):
            seed_site(site)
            gen.standard_gamma(shapes[row], out=rows[row])
        return labels, gammas

    labels = np.empty(n, dtype=np.int64)
    probs = np.empty((n, k, j))
    starts = range(0, n, _BLOCK_ITEMS)
    for start, (block_labels, gammas) in zip(starts, _fork_map(draw_block, starts, workers)):
        labels[start:start + block_labels.size] = block_labels
        probs[start:start + block_labels.size] = gammas
    total = probs.sum(axis=2, keepdims=True)
    drawn = total > 0.0
    np.divide(probs, total, out=probs, where=drawn)
    probs[~drawn[..., 0]] = 1.0 / j
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
    log_nu = np.log(np.maximum(spec.nu_true.nu, NU_LOG_FLOOR))
    w = np.empty((preds.n_items, spec.n_classes))
    for cls in range(spec.n_classes):
        w[:, cls] = (log_nu[cls]
                     + dirichlet_log_density(preds.probs, pi[:, cls]).sum(axis=1))
    rows = np.exp(w - np.logaddexp.reduce(w, axis=1, keepdims=True))
    return PosteriorMatrix(rows, list(preds.item_ids))
