"""Shared builders for the test suite."""

import numpy as np

import softds as s
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


def accurate_hard_labels(rng, n_items, n_members, accuracy=0.9, n_classes=2):
    """Hard labels that match a random binary truth with the given
    per-vote accuracy."""
    truth = rng.integers(0, n_classes, size=n_items)
    flips = rng.random((n_items, n_members)) > accuracy
    labels = np.where(flips, (truth[:, None] + 1) % n_classes, truth[:, None])
    return s.HardLabelSet(labels, n_classes), truth


def reference_fit(preds, cfg, on_m_step=None):
    """The EM loop of ``s.fit`` spelled out with the public step
    functions, single-threaded.  ``on_m_step(post, before, after)``, if
    given, sees each M-step's posterior and the models (new prior) with
    the confusion tensor before and after the AdamW steps.

    Returns ``(SdsModel, PosteriorMatrix, q values)``."""
    cfg = cfg.validate()
    ds_model, _ = s.ds_em(s.harden(preds), 1, cfg.ds_init_smoothing)
    pi = np.maximum(cfg.ds_init_concentration
                    * (ds_model.confusion + cfg.ds_init_smoothing),
                    cfg.pi_floor)
    model = s.SdsModel(s.ConfusionTensor(pi), ds_model.prior)
    post = s.ensemble_average(preds)
    state = AdamState.zeros(pi.size)
    qs = []
    for it in range(cfg.em_iterations):
        alpha = [a for start, a in cfg.alpha_schedule if start <= it][-1]
        post = s.polyak_update(post, s.e_step_raw(preds, model), alpha)
        nu = s.m_step_nu(post)
        if cfg.reset_optimizer_each_m_step:
            state = AdamState.zeros(pi.size)
        before = s.SdsModel(model.pi, nu)
        new_pi, state = s.m_step_pi(preds, post, before, cfg, state)
        model = s.SdsModel(new_pi, nu)
        if on_m_step is not None:
            on_m_step(post, before, model)
        qs.append(s.q_function(preds, post, model))
        if (cfg.q_rel_tolerance > 0.0 and len(qs) > 1 and qs[-1] != 0.0
                and abs(qs[-1] - qs[-2]) / abs(qs[-1]) < cfg.q_rel_tolerance):
            break
    return model, post, qs
