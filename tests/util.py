"""Shared builders for the test suite."""

import csv
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np

import softds as s
from softds import synth
from softds.data import FormatError, _check_prob_header
from softds.mathutils import sorted_sum


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code, *args, **run):
    """``python -c code *args`` in a child interpreter that imports
    softds from this checkout, with a 60 s timeout, so that a hang fails
    the test instead of stalling the suite; ``run`` goes to
    ``subprocess.run``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=60, **run)


# The fit's start scale and smoothing and its confusion floor
INIT_SCALE, INIT_SMOOTHING, PI_FLOOR = 10.0, 0.01, 1e-6
# AdamW's steps per M-step and its decoupled weight decay
INNER_STEPS, WEIGHT_DECAY = 5, 1e-4

# (N, K, J): each spans two item chunks of the fit's kernels
REFERENCE_SHAPES = [(12000, 3, 2), (2500, 3, 10), (600, 4, 33), (150, 5, 100),
                    (40, 2, 1000)]


def random_instance(rng, n_items, n_members, n_classes):
    """Random predictions, posterior, and model arrays for Q/gradient
    checks.  Confusion entries are kept in [0.3, 3] so finite-difference
    probes stay in the domain."""
    probs = rng.dirichlet(np.full(n_classes, 0.8), size=(n_items, n_members))
    preds = s.PredictionSet.from_probs(probs)
    post = rng.dirichlet(np.full(n_classes, 1.0), size=n_items)
    pi = rng.uniform(0.3, 3.0, size=(n_members, n_classes, n_classes))
    nu = rng.dirichlet(np.full(n_classes, 2.0))
    return preds, post, pi, nu


def model(pi, nu):
    """An :class:`SdsModel` from raw confusion and prior arrays."""
    return s.SdsModel(s.ConfusionTensor(pi), s.ClassPrior(nu))


def diagonal_spec(diag, off, seed, n_items, n_members=3, n_classes=5):
    """Generative spec with identical diagonally dominant members."""
    eye = np.eye(n_classes, dtype=bool)
    pi = np.where(eye, diag, off)[None].repeat(n_members, axis=0)
    return s.GenerativeSpec(
        n_items=n_items,
        n_members=n_members,
        n_classes=n_classes,
        nu_true=s.ClassPrior(np.full(n_classes, 1.0 / n_classes)),
        pi_true=s.ConfusionTensor(pi),
        seed=seed,
    )


def reference_sample(spec):
    """The sampler item by item.  Per block of ``synth._BLOCK_ITEMS``
    items (read at call time), the stream ``default_rng([seed, 0,
    block])`` gives each item's label from one scalar ``random`` call and
    ``default_rng([seed, 1, block, member])`` each item's vector from one
    scalar-row ``standard_gamma`` call, in item order; each vector is
    normalised on its own.  Returns ``(PredictionSet, GroundTruth)``."""
    n, k, j = spec.n_items, spec.n_members, spec.n_classes
    seed, block_items = int(spec.seed), synth._BLOCK_ITEMS
    cdf = np.cumsum(spec.nu_true.nu)
    pi = spec.pi_true.pi
    labels = np.empty(n, dtype=np.int64)
    probs = np.empty((n, k, j))
    for start in range(0, n, block_items):
        block = start // block_items
        label_stream = np.random.default_rng([seed, 0, block])
        member_streams = [np.random.default_rng([seed, 1, block, m]) for m in range(k)]
        for i in range(start, min(start + block_items, n)):
            u = label_stream.random()
            t = min(int(np.searchsorted(cdf, u, side="right")), j - 1)
            labels[i] = t
            for m, stream in enumerate(member_streams):
                gam = stream.standard_gamma(pi[m, t])
                total = gam.sum()
                probs[i, m] = gam / total if total > 0.0 else np.full(j, 1.0 / j)
    item_ids = [str(i) for i in range(n)]
    preds = s.PredictionSet.from_probs(probs, item_ids)
    return preds, s.GroundTruth(labels, list(item_ids), n_classes=j)


def label_preds(labels, n_classes, item_ids=None):
    """A :class:`PredictionSet` whose (N, K) hard labels are ``labels``:
    each member's row is the one-hot vector of its label, floored."""
    return s.PredictionSet.from_probs(np.eye(n_classes)[np.asarray(labels)], item_ids)


def accurate_hard_labels(rng, n_items, n_members, accuracy=0.9, n_classes=2):
    """Predictions whose hard labels match a random truth with the given
    per-vote accuracy; returns ``(PredictionSet, truth)``."""
    truth = rng.integers(0, n_classes, size=n_items)
    flips = rng.random((n_items, n_members)) > accuracy
    labels = np.where(flips, (truth[:, None] + 1) % n_classes, truth[:, None])
    return label_preds(labels, n_classes), truth


def reference_log_weights(probs, pi, nu):
    """The E-step's unnormalized log posteriors, shape (N, J), as one
    ``"ikl,jkl->kij"`` einsum of the item-first ``log c`` against
    ``pi - 1`` laid out (J, K, L), summed over members by ``sorted_sum``,
    plus the per-class constant."""
    block = np.einsum("ikl,jkl->kij", np.log(probs), np.swapaxes(pi, 0, 1) - 1.0)
    return sorted_sum(block, axis=0) + s.sds._log_weight_terms(pi, nu)[1][None, :]


def reference_ds_m_step(hard, post, smoothing):
    """The Dawid-Skene M-step with each member's counts as one
    ``"ij,il->jl"`` einsum of ``post`` against the (N, J) one-hot of its
    labels.  Returns ``(confusion, prior)``; zero-count rows are
    uniform."""
    n, k = hard.shape
    j = post.shape[1]
    conf = np.empty((k, j, j))
    for m in range(k):
        onehot = np.zeros((n, j))
        onehot[np.arange(n), hard[:, m]] = 1.0
        counts = np.einsum("ij,il->jl", post, onehot) + smoothing
        denom = counts.sum(axis=1, keepdims=True)
        safe = denom > 0.0
        conf[m] = np.where(safe, counts / np.where(safe, denom, 1.0), 1.0 / j)
    return conf, post.mean(axis=0)


def evidence_stats(preds, post, map_chunks=map):
    """``S`` and mass of the (N, J) posterior rows ``post`` as ``fit``
    sums them: one part per item chunk of ``log c``, taken afresh, added
    in chunk order."""
    log_c = np.log(preds.probs)
    parts = map_chunks(partial(s.sds._evidence_part, log_c, post),
                       s.sds._chunks(*log_c.shape))
    return s.sds._sum_parts(parts), post.sum(axis=0)


def reference_evidence_stats(probs, post):
    """``S`` and mass from one whole-array item-last copy of ``log c``:
    the ``"jc,klc->kjl"`` einsum per :func:`s.sds._chunks` chunk, and the
    chunk parts summed in order."""
    log_c_t = np.ascontiguousarray(np.log(probs).transpose(1, 2, 0))
    n_members, n_classes, n_items = log_c_t.shape
    post_t = np.ascontiguousarray(post.T)

    def chunk(rows):
        return np.einsum("jc,klc->kjl", post_t[:, rows], log_c_t[:, :, rows])

    parts = map(chunk, s.sds._chunks(n_items, n_members, n_classes))
    total = next(parts)
    for p in parts:
        total += p
    return total, post.sum(axis=0)


def q_function(preds, post, m):
    """Q of ``post`` under the :class:`SdsModel` ``m``, from ``fit``'s kernels."""
    return s.sds._q_from_stats(*evidence_stats(preds, post), m._terms)


def q_grad_pi(preds, post, m):
    """dQ/dpi of ``post`` at ``m``'s confusion tensor, from ``fit``'s kernels."""
    return s.sds._grad_from_stats(*evidence_stats(preds, post), m.pi.pi)


def m_step_pi(preds, post, m, lr):
    """``fit``'s AdamW M-step at learning rate ``lr`` on ``m``'s confusion
    tensor from zero moments.  Returns ``(pi, first moment, second
    moment)``."""
    pi = m.pi.pi
    moments = np.zeros_like(pi), np.zeros_like(pi)
    return s.sds._adamw_pi(*evidence_stats(preds, post), pi, lr, *moments, 0), *moments


def reference_adamw_step(params, grad, m, v, step, lr, weight_decay,
                         beta1=0.9, beta2=0.999, eps=1e-8):
    """AdamW step number ``step`` (Loshchilov & Hutter 2019), written
    functionally:

        m <- b1*m + (1-b1)*g          v <- b2*v + (1-b2)*g^2
        params' = params - lr * m_hat / (sqrt(v_hat) + eps)
                         - lr * weight_decay * params

    with the bias-corrected moments.  Returns ``(params', m', v')``."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** step)
    v_hat = v / (1.0 - beta2 ** step)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * weight_decay * params
    return new_params, m, v


def reference_adamw_pi(pi, grad_of, lr, state, n_steps=INNER_STEPS):
    """``n_steps`` steps of :func:`reference_adamw_step` on ``pi`` at
    learning rate ``lr`` and weight decay ``WEIGHT_DECAY``, with
    ``grad_of(pi)`` the loss gradient, each clamped to ``PI_FLOOR``.
    ``state`` is ``[step count, first moment, second moment]`` and is
    advanced in place.  Returns the new pi."""
    for _ in range(n_steps):
        state[0] += 1
        pi, state[1], state[2] = reference_adamw_step(
            pi, grad_of(pi), state[1], state[2], state[0], lr, WEIGHT_DECAY)
        pi = np.maximum(pi, PI_FLOOR)
    return pi


def reference_m_step_pi(preds, post, m, cfg, state):
    """:func:`reference_adamw_pi` on ``m``'s confusion tensor against -Q at
    ``cfg.learning_rate``.  Returns the new confusion tensor."""
    stats = evidence_stats(preds, post)
    return reference_adamw_pi(m.pi.pi, lambda pi: -s.sds._grad_from_stats(*stats, pi),
                              cfg.learning_rate, state)


def reference_fit(preds, cfg, on_m_step=None):
    """The EM loop of ``s.fit`` spelled out over :func:`s.e_step_raw`,
    :func:`reference_m_step_pi` and the steps above, single-threaded, with
    ``log c`` and the evidence statistics taken afresh by every step and
    the model terms taken from each :class:`SdsModel`.
    ``on_m_step(post, before, after)``, if given, sees each M-step's
    posterior and the models (new prior) with the confusion tensor before
    and after the AdamW steps.

    Returns ``(SdsModel, posterior rows, q values)``."""
    confusion, prior, _ = s.ds_em(preds, 1, INIT_SMOOTHING)
    pi = np.maximum(INIT_SCALE * (confusion + INIT_SMOOTHING), PI_FLOOR)
    model = s.SdsModel(s.ConfusionTensor(pi), prior)
    post = s.ensemble_average(preds).rows
    state = [0, np.zeros_like(pi), np.zeros_like(pi)]
    qs = []
    for _ in range(cfg.em_iterations):
        post = (1.0 - cfg.alpha) * post + cfg.alpha * s.e_step_raw(preds, model).rows
        mass = post.sum(axis=0)
        nu = s.ClassPrior(mass / mass.sum())
        before = s.SdsModel(model.pi, nu)
        model = s.SdsModel(s.ConfusionTensor(reference_m_step_pi(preds, post, before,
                                                                 cfg, state)), nu)
        if on_m_step is not None:
            on_m_step(post, before, model)
        qs.append(q_function(preds, post, model))
        if (cfg.q_rel_tolerance > 0.0 and len(qs) > 1 and qs[-1] != 0.0
                and abs(qs[-1] - qs[-2]) / abs(qs[-1]) < cfg.q_rel_tolerance):
            break
    return model, post, qs


def reference_parse_prob_file(path, expect_classes=None):
    """A member or posterior CSV read row by row with ``csv.reader`` and
    ``float()``.  Returns ``(ids, N x J values)``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise FormatError(f"{path}: empty file")
    n_cols = _check_prob_header(rows[0], path)
    if expect_classes is not None and n_cols != expect_classes:
        raise FormatError(
            f"{path}: found {n_cols} probability columns, expected {expect_classes}"
        )
    ids, values = [], []
    for rn, row in enumerate(rows[1:], start=2):
        if len(row) != n_cols + 1:
            raise FormatError(
                f"{path}, line {rn}: expected {n_cols + 1} columns, found "
                f"{len(row)} (missing column?)"
            )
        ids.append(row[0])
        try:
            values.append([float(v) for v in row[1:]])
        except ValueError:
            raise FormatError(f"{path}, line {rn}: non-numeric probability") from None
    if not ids:
        raise FormatError(f"{path}: no data rows")
    return ids, np.asarray(values, dtype=np.float64)


def reference_write_prob_file(path, ids, rows):
    """A member or posterior CSV written row by row with ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id"] + [f"p_{j}" for j in range(rows.shape[1])])
        writer.writerows([item_id, *row] for item_id, row in zip(ids, rows.tolist()))
