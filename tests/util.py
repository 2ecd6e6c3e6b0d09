"""Shared builders for the test suite."""

import csv

import numpy as np

import softds as s
from softds.data import FormatError, _check_prob_header
from softds.mathutils import sorted_sum
from softds.optim import AdamState


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
    """The sampler as one ``Generator(PCG64(SeedSequence(key)))`` per draw
    site, keyed ``(seed, 0, item)`` for the label and ``(seed, 1, item,
    member)`` for each probability vector, normalised row by row.
    Returns ``(PredictionSet, GroundTruth)``."""
    def stream(*key):
        entropy = (int(spec.seed),) + tuple(int(v) for v in key)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    n, k, j = spec.n_items, spec.n_members, spec.n_classes
    cdf = np.cumsum(spec.nu_true.nu)
    pi = spec.pi_true.pi
    labels = np.empty(n, dtype=np.int64)
    probs = np.empty((n, k, j))
    for i in range(n):
        u = stream(0, i).random()
        t = min(int(np.searchsorted(cdf, u, side="right")), j - 1)
        labels[i] = t
        for m in range(k):
            gam = stream(1, i, m).standard_gamma(pi[m, t])
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


def evidence_stats(preds, post):
    """``S`` and mass of the (N, J) posterior rows ``post``, with ``log c``
    taken afresh."""
    return s.sds._evidence_stats(s.sds._item_last(s.sds._member_major(preds.probs)),
                                 post)


def q_function(preds, post, m):
    """Q of ``post`` under the :class:`SdsModel` ``m``, from ``fit``'s kernels."""
    return s.sds._q_from_stats(*evidence_stats(preds, post), m._terms)


def q_grad_pi(preds, post, m):
    """dQ/dpi of ``post`` at ``m``'s confusion tensor, from ``fit``'s kernels."""
    return s.sds._grad_from_stats(*evidence_stats(preds, post), m.pi.pi)


def m_step_pi(preds, post, m, cfg, state):
    """``fit``'s AdamW M-step on ``m``'s confusion tensor.  Returns
    ``(pi, AdamState)``."""
    return s.sds._adamw_pi(*evidence_stats(preds, post), m.pi.pi, cfg, state)


def reference_fit(preds, cfg, on_m_step=None):
    """The EM loop of ``s.fit`` spelled out over :func:`s.e_step_raw` and
    the steps above, single-threaded, with ``log c`` and the evidence
    statistics taken afresh by every step and the model terms taken from
    each :class:`SdsModel`.  ``on_m_step(post, before, after)``, if given,
    sees each M-step's posterior and the models (new prior) with the
    confusion tensor before and after the AdamW steps.

    Returns ``(SdsModel, posterior rows, q values)``."""
    cfg = cfg.validate()
    confusion, prior, _ = s.ds_em(preds, 1, cfg.ds_init_smoothing)
    pi = np.maximum(cfg.ds_init_concentration * (confusion + cfg.ds_init_smoothing),
                    cfg.pi_floor)
    model = s.SdsModel(s.ConfusionTensor(pi), prior)
    post = s.ensemble_average(preds).rows
    state = AdamState.zeros(pi.size)
    qs = []
    for it in range(cfg.em_iterations):
        alpha = [a for start, a in cfg.alpha_schedule if start <= it][-1]
        post = (1.0 - alpha) * post + alpha * s.e_step_raw(preds, model).rows
        mass = post.sum(axis=0)
        nu = s.ClassPrior(mass / mass.sum())
        if cfg.reset_optimizer_each_m_step:
            state = AdamState.zeros(pi.size)
        before = s.SdsModel(model.pi, nu)
        new_pi, state = m_step_pi(preds, post, before, cfg, state)
        model = s.SdsModel(s.ConfusionTensor(new_pi), nu)
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
