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


# numpy's SeedSequence hash constants (bit_generator.pyx) and PCG64's LCG
# multiplier (pcg64.h), for seeding many streams at once below.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# Items per block of seeds, draws and formatted rows, the unit of work of
# a worker process; the seeding scratch is O(block * K).
_BLOCK_ITEMS = 1024

# A confusion row whose shapes form at most this many runs of equal
# consecutive values is drawn with one scalar-shape standard_gamma call
# per run, any other row with one call on the whole row.  Both draw each
# entry with numpy's random_standard_gamma, in order, from the same
# stream, so the draws are the same; the scalar call skips the array
# call's broadcast set-up and shape checks.  Timed on a 2-vCPU Xeon VM
# (numpy 2.4.6), a row of r runs cost about 0.5 + 1.6 r us by runs
# against 12 us in one call at J = 10, and 7 + 1.6 r us against 18 us
# at J = 100: the two meet at 7 runs at both widths.  A diagonal row
# (one diagonal, one off-diagonal value) has 2 or 3 runs.
_MAX_RUNS = 6


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


def _draw_plans(pi_rows):
    """Per confusion row (a row of the (K * J, J) ``pi_rows``), the
    ``(lo, hi, shape)`` calls that draw it: one per run of equal
    consecutive shapes, ``shape`` a float, or with more than
    ``_MAX_RUNS`` runs one call, ``(0, J, row)``."""
    j = pi_rows.shape[1]
    starts = pi_rows[:, 1:] != pi_rows[:, :-1]
    plans = []
    for row, step in zip(pi_rows, starts):
        edges = [0, *(np.flatnonzero(step) + 1).tolist(), j]
        plans.append([(lo, hi, float(row[lo])) for lo, hi in zip(edges, edges[1:])]
                     if len(edges) - 1 <= _MAX_RUNS else [(0, j, row)])
    return plans


def _blocks(spec, workers, finish=lambda ids, labels, probs: (labels, probs)):
    """A generator to close: for each block of ``_BLOCK_ITEMS`` items, in
    order, ``finish(ids, labels, probs)`` of the block's str item ids, its
    labels and its floored ``(block, K, J)`` probabilities, called in the
    block's task, on up to ``workers`` forked worker processes (see
    :func:`softds.data._fork_map`), whose results alone are pickled."""
    n, k, j = spec.n_items, spec.n_members, spec.n_classes
    cdf = np.cumsum(spec.nu_true.nu)
    pi_rows = spec.pi_true.pi.reshape(k * j, j)
    plans = _draw_plans(pi_rows)
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

    def task(start):
        items = np.arange(start, min(start + _BLOCK_ITEMS, n), dtype=np.uint32)
        u = np.empty(items.size)
        for row, site in enumerate(_pcg64_states(keys(0, items))):
            seed_site(site)
            u[row] = gen.random()
        labels = np.minimum(np.searchsorted(cdf, u, side="right"), j - 1)
        item_of, member = np.divmod(np.arange(items.size * k, dtype=np.uint32), k)
        probs = np.empty((items.size, k, j))
        sites = probs.reshape(-1, j)
        pi_row_of = (member * j + labels[item_of]).tolist()
        for out, site, pi_row in zip(sites, _pcg64_states(keys(1, items[item_of], member)),
                                     pi_row_of):
            seed_site(site)
            for lo, hi, shape in plans[pi_row]:
                gen.standard_gamma(shape, out=out[lo:hi])
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
        return finish(list(map(str, items.tolist())), labels, probs)

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

    Each draw site has its own PCG64 stream, bitwise the stream of
    ``Generator(PCG64(SeedSequence(key)))`` with key ``(seed, 0, item)``
    for the latent label and ``(seed, 1, item, member)`` for that member's
    probability vector, so adding members or items never perturbs earlier
    draws.  The streams are seeded a block of items at a time and drawn
    from one reused generator; a confusion row of at most ``_MAX_RUNS``
    runs of equal shapes is drawn one call per run, any other row in one
    call, the same draws either way.  With ``workers > 1`` the blocks
    are drawn on up to that many forked worker processes; since every
    site has its own stream, the result is bitwise the same for any
    ``workers``.

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
    Each block's task formats its rows of every table, the oracle's
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
