"""Soft-label aggregation by EM over a Dirichlet observation model.

The model: each item i has a latent class t_i drawn from a prior nu over
J classes; member k then emits a probability vector c_i^(k) drawn from a
Dirichlet whose parameter vector is row t_i of that member's positive
J x J confusion tensor pi^(k).  Fitting alternates a damped E-step
(posterior over t, mixed into the previous posterior with weight alpha)
with an M-step (closed form for nu, a few AdamW steps on pi against the
expected complete-data log likelihood Q).

:func:`fit` runs each EM iteration as one pass over the private kernels,
sharing one ``log c`` per fit and one set of evidence statistics per
iteration.  The public step functions check their inputs and call the
same kernels; they are the reference ``fit`` is tested against, bitwise.

The model's E-step terms (``pi - 1`` and a per-class constant holding the
log-Gamma normalizer) are computed once per frozen :class:`SdsModel`, and
in ``fit`` once per iteration, for its Q and the next E-step.

Determinism: all item reductions run over fixed-size chunks combined in
chunk order, and member reductions use order-insensitive sums, so results
are bitwise identical for any thread count, any batch size (per-item
posteriors), and any member ordering.  Only ``fit`` runs chunks on a
thread pool; the public step functions are single-threaded.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .baselines import ds_em, ensemble_average
from .data import (
    NU_LOG_FLOOR,
    ClassPrior,
    ConfusionTensor,
    FormatError,
    PosteriorMatrix,
    PredictionSet,
    SdsConfig,
    _load_json,
    _members_pi,
    _parse_members_pi,
    _posterior_rows,
    _read_csv,
    _save_json,
    _write_csv,
    harden,
)
from .mathutils import digamma, log_gamma, sorted_sum
from .optim import AdamState, adamw_step

__all__ = [
    "NumericError",
    "SdsModel",
    "FitTrace",
    "Explanation",
    "q_function",
    "q_grad_pi",
    "m_step_nu",
    "m_step_pi",
    "e_step_raw",
    "polyak_update",
    "fit",
    "online_infer",
    "explain",
    "save_model",
    "load_model",
]

_TRACE_HEADER = ["iteration", "q", "alpha", "millis"]

# Items per chunk are this many float64 elements over K*J*J, the
# multiply-adds one item costs in the E-step.  Chunk boundaries depend
# only on array shapes - never on the thread count - which is what makes
# threaded runs byte-identical.
_CHUNK_TARGET = 1 << 20


class NumericError(RuntimeError):
    """A numeric failure (NaN/inf) was detected during fitting."""


@dataclass(frozen=True)
class SdsModel:
    """Frozen, so the E-step terms it computes on first use cannot go stale."""

    pi: ConfusionTensor
    nu: ClassPrior

    def __post_init__(self):
        if self.pi.n_classes != self.nu.n_classes:
            raise FormatError("confusion tensor and class prior disagree on J")

    @cached_property
    def _terms(self):
        """:func:`_log_weight_terms` of the model's parameters."""
        return _log_weight_terms(self.pi.pi, self.nu.nu)

    @property
    def n_members(self):
        return self.pi.n_members

    @property
    def n_classes(self):
        return self.pi.n_classes


@dataclass
class FitTrace:
    """Per-iteration fit records; serializable as CSV
    ``iteration,q,alpha,millis``."""

    iteration: np.ndarray
    q: np.ndarray
    alpha: np.ndarray
    millis: np.ndarray

    def __post_init__(self):
        self.iteration = np.asarray(self.iteration, dtype=np.int64)
        self.q = np.asarray(self.q, dtype=np.float64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.millis = np.asarray(self.millis, dtype=np.float64)
        if not (self.iteration.size == self.q.size == self.alpha.size
                == self.millis.size):
            raise FormatError("trace columns must have equal length")
        if self.iteration.size and np.any(np.diff(self.iteration) <= 0):
            raise FormatError("trace iterations must be strictly increasing")

    def __len__(self):
        return self.iteration.size

    def save_csv(self, path):
        _write_csv(path, _TRACE_HEADER,
                   zip(self.iteration.tolist(), self.q.tolist(), self.alpha.tolist(),
                       self.millis.tolist()))

    @classmethod
    def load_csv(cls, path):
        rows = _read_csv(path)
        if rows[0] != _TRACE_HEADER:
            raise FormatError(f"{path}: header must be iteration,q,alpha,millis")
        data = [[], [], [], []]
        for rn, row in enumerate(rows[1:], start=2):
            if len(row) != 4:
                raise FormatError(f"{path}, line {rn}: expected 4 columns")
            try:
                data[0].append(int(row[0]))
                for col in range(1, 4):
                    data[col].append(float(row[col]))
            except ValueError:
                raise FormatError(f"{path}, line {rn}: non-numeric value") from None
        return cls(*data)


# ---------------------------------------------------------------------------
# internal kernels


def _chunks(n_items, n_members, n_classes):
    """Item slices of the fixed-size chunks."""
    per_item = max(1, n_members * n_classes * n_classes)
    step = max(1, _CHUNK_TARGET // per_item)
    return [slice(lo, min(lo + step, n_items)) for lo in range(0, n_items, step)]


def _log_nu(nu):
    return np.log(np.maximum(nu, NU_LOG_FLOOR))


def _normalizer_per_member(pi):
    """(K, J) array: sum_l ln Gamma(pi_kjl) - ln Gamma(sum_l pi_kjl)."""
    return log_gamma(pi).sum(axis=2) - log_gamma(pi.sum(axis=2))


def _log_weight_terms(pi, nu):
    """The model's part of the log weights: ``pi - 1`` as (J, K, L) and
    const[j] = ln nu_j - sum_k (sum_l ln Gamma(pi_kjl) - ln Gamma(sum_l pi_kjl))."""
    return (np.swapaxes(pi, 0, 1) - 1.0,
            _log_nu(nu) - sorted_sum(_normalizer_per_member(pi), axis=0))


def _log_weight_matrix(log_c, terms, map_chunks=map):
    """Unnormalized per-item log posteriors, shape (N, J):

        w[i, j] = const[j] + sum_{k,l} (pi_kjl - 1) ln c_ikl

    with ``terms`` from :func:`_log_weight_terms`.  Each row's value is
    independent of the batch it is computed in.  ``map_chunks`` is
    ``map`` or a thread pool's ``map``; either returns the chunks in
    order.
    """
    pim1_by_class, const = terms
    w = np.empty((log_c.shape[0], const.size))

    def chunk(rows):
        # numpy's own einsum loop, not BLAS: each row's sums over l then
        # run in one order, whatever the batch around it
        return sorted_sum(np.einsum("ikl,jkl->kij", log_c[rows], pim1_by_class),
                          axis=0)

    chunks = _chunks(*log_c.shape)
    for rows, block in zip(chunks, map_chunks(chunk, chunks)):
        w[rows] = block + const[None, :]
    return w


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


def _transposed(log_c):
    """``log c`` as a (K, J, N) array, item axis contiguous."""
    return np.ascontiguousarray(log_c.transpose(1, 2, 0))


def _evidence_stats(log_c_t, post_rows, map_chunks=map):
    """S[k, j, l] = sum_i post[i, j] * ln c_ikl and the per-class mass
    vector sum_i post[i, j], accumulated over chunks in fixed order.
    ``log_c_t`` is ``log c`` in the item-last layout of
    :func:`_transposed`, so each sum over items runs over contiguous
    memory.  numpy's einsum loop, not BLAS: a BLAS product's sums change
    with the member order and with its thread count."""
    n_members, n_classes, n_items = log_c_t.shape
    post_t = np.ascontiguousarray(post_rows.T)

    def chunk(rows):
        return np.einsum("jc,klc->kjl", post_t[:, rows], log_c_t[:, :, rows])

    # summed as the chunks arrive, so that one (K, J, J) part per chunk
    # is not held at once
    parts = map_chunks(chunk, _chunks(n_items, n_members, n_classes))
    s = next(parts)
    for p in parts:
        s += p
    return s, post_rows.sum(axis=0)


def _q_from_stats(s, mass, pi, const):
    """Q from the evidence statistics and the model's ``const``."""
    return float(np.sum((pi - 1.0) * s) + np.sum(mass * const))


def _grad_from_stats(s, mass, pi):
    correction = digamma(pi.sum(axis=2))[:, :, None] - digamma(pi)
    return s + mass[None, :, None] * correction


def _adamw_pi(s, mass, pi, config, state):
    """``config.inner_steps`` AdamW updates of pi minimizing -Q with the
    analytic gradient, clamping entries to ``config.pi_floor`` after
    every step.  Returns ``(pi', state')``."""
    params = pi.ravel().copy()
    for _ in range(config.inner_steps):
        grad_q = _grad_from_stats(s, mass, params.reshape(pi.shape))
        # a step that overflows is reported by the check below, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            params, state = adamw_step(
                params, -grad_q.ravel(), state,
                lr=config.learning_rate,
                beta1=config.adam_beta1, beta2=config.adam_beta2,
                eps=config.adam_epsilon, weight_decay=config.weight_decay,
            )
            params = np.maximum(params, config.pi_floor)
            # One sum catches a non-finite entry and any row sum that
            # would overflow in the next gradient's digamma.
            if not np.isfinite(params.sum()):
                raise NumericError("confusion tensor overflowed in the AdamW M-step")
    return params.reshape(pi.shape), state


def _checked_model(preds, model: SdsModel):
    """The model's ``(pi, nu)`` arrays, once its (K, J) matches the
    predictions'."""
    if (model.n_members, model.n_classes) != preds.probs.shape[1:]:
        raise ValueError(f"model (K, J) = ({model.n_members}, {model.n_classes}) "
                         f"does not match the predictions' {preds.probs.shape[1:]}")
    return model.pi.pi, model.nu.nu


def _e_step_rows(preds, model):
    """The undamped posterior rows, as checked by :func:`_normalize_log_rows`."""
    _checked_model(preds, model)
    return _normalize_log_rows(_log_weight_matrix(np.log(preds.probs), model._terms))


def _checked_stats(preds, post, model):
    """Input checks shared by the public M-step and Q functions, then the
    evidence statistics of ``post``.  Returns ``(S, mass, pi, nu)``."""
    pi, nu = _checked_model(preds, model)
    rows = _posterior_rows(post)
    if rows.shape != (preds.n_items, preds.n_classes):
        raise ValueError(f"posterior shape {rows.shape} does not match "
                         f"({preds.n_items}, {preds.n_classes})")
    s, mass = _evidence_stats(_transposed(np.log(preds.probs)), rows)
    return s, mass, pi, nu


# ---------------------------------------------------------------------------
# public operations


def q_function(preds: PredictionSet, post, model: SdsModel) -> float:
    """Expected complete-data log likelihood

        Q = sum_i sum_j post[i,j] * ( ln nu_j
              + sum_k sum_l (pi_kjl - 1) ln c_ikl
              - sum_k ( sum_l ln Gamma(pi_kjl) - ln Gamma(sum_l pi_kjl) ) )

    Raises ValueError if the prior puts zero mass on a class that carries
    posterior weight.
    """
    s, mass, pi, nu = _checked_stats(preds, post, model)
    if np.any((nu <= 0.0) & (mass > 0.0)):
        raise ValueError("class prior is zero on a class with posterior mass")
    return _q_from_stats(s, mass, pi, model._terms[1])


def q_grad_pi(preds: PredictionSet, post, model: SdsModel) -> np.ndarray:
    """Gradient of :func:`q_function` with respect to the confusion
    tensor:

        d Q / d pi_kjl = sum_i post[i,j] *
            ( ln c_ikl - psi(pi_kjl) + psi(sum_l' pi_kjl') )
    """
    s, mass, pi, _ = _checked_stats(preds, post, model)
    return _grad_from_stats(s, mass, pi)


def m_step_nu(post) -> ClassPrior:
    """Closed-form prior update: nu_j = sum_i post[i,j] / sum_ij post[i,j]."""
    rows = _posterior_rows(post)
    mass = rows.sum(axis=0)
    total = float(mass.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise ValueError("posterior carries no mass")
    return ClassPrior(mass / total)


def m_step_pi(preds: PredictionSet, post, model: SdsModel, config: SdsConfig,
              state: AdamState):
    """Run ``config.inner_steps`` AdamW updates on the flattened
    confusion tensor, minimizing -Q with the analytic gradient, clamping
    entries to ``config.pi_floor`` after every step.

    The optimizer state is carried, so it can persist across EM
    iterations.  Returns ``(ConfusionTensor, AdamState)``.
    """
    s, mass, pi, _ = _checked_stats(preds, post, model)
    pi, state = _adamw_pi(s, mass, pi, config, state)
    return ConfusionTensor(pi), state


def e_step_raw(preds: PredictionSet, model: SdsModel) -> PosteriorMatrix:
    """Posterior over the latent class of every item under the current
    parameters: row i is the normalized exponential of the log weights of
    :func:`_log_weight_matrix`.  No damping is applied here."""
    return PosteriorMatrix(_e_step_rows(preds, model), list(preds.item_ids))


def polyak_update(old, new, alpha: float) -> PosteriorMatrix:
    """Damped posterior update: rowwise (1 - alpha) * old + alpha * new.
    ``alpha = 1`` returns ``new`` exactly (no damping)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    o = _posterior_rows(old)
    n = _posterior_rows(new)
    if o.shape != n.shape:
        raise ValueError("posterior shapes do not match")
    ids = None
    for candidate in (old, new):
        if isinstance(candidate, PosteriorMatrix):
            ids = list(candidate.item_ids)
            break
    return PosteriorMatrix((1.0 - alpha) * o + alpha * n, ids)


def _alpha_at(schedule, iteration):
    """Alpha of the last schedule entry starting at or before
    ``iteration``; a validated schedule always covers iteration 0."""
    return [alpha for start, alpha in schedule if start <= iteration][-1]


def fit(preds: PredictionSet, config: SdsConfig | None = None, threads=1):
    """Full EM fit.

    Initialization: one Dawid-Skene iteration on the hardened
    predictions provides the class prior and a row-stochastic confusion
    estimate D; the confusion tensor starts at
    ``ds_init_concentration * (D + ds_init_smoothing)`` (clamped to
    ``pi_floor``), and the posterior starts from the ensemble average.

    Each iteration is one pass over plain arrays, with ``log c`` taken
    once per fit:

    1. the undamped E-step posterior (as :func:`e_step_raw`), mixed into
       the previous posterior with the alpha active per
       ``alpha_schedule`` (as :func:`polyak_update`);
    2. the evidence statistics S/mass of that posterior, computed once;
    3. the prior ``nu = mass / sum(mass)`` (as :func:`m_step_nu`);
    4. ``inner_steps`` AdamW steps on pi (as :func:`m_step_pi`), with the
       optimizer state carried across iterations unless
       ``reset_optimizer_each_m_step``;
    5. Q of the updated model on the same statistics (as
       :func:`q_function`).

    Q is recorded after every iteration; when ``q_rel_tolerance > 0`` the
    loop stops early once |dQ| / |Q| falls below it.  The model and
    posterior containers are built once, after the loop.  An E-step
    posterior, confusion tensor or Q that stops being finite raises
    :class:`NumericError`.  With ``threads > 1`` the item chunks run on
    one thread pool, opened for the whole fit.

    Returns ``(SdsModel, PosteriorMatrix, FitTrace)``.  Deterministic:
    identical inputs and config produce bitwise identical results for any
    ``threads``, and the same results as chaining the public step
    functions.
    """
    cfg = config if config is not None else SdsConfig()
    cfg.validate()

    ds_model, _ = ds_em(harden(preds), 1, cfg.ds_init_smoothing)
    pi = np.maximum(
        cfg.ds_init_concentration * (ds_model.confusion + cfg.ds_init_smoothing),
        cfg.pi_floor,
    )
    nu = ds_model.prior.nu
    post = ensemble_average(preds).rows
    log_c = np.log(preds.probs)
    log_c_t = _transposed(log_c)
    state = AdamState.zeros(pi.size)
    terms = _log_weight_terms(pi, nu)

    iters, qs, alphas, millis = [], [], [], []
    prev_q = None
    # the executor starts no thread until the first task is submitted
    with ThreadPoolExecutor(max_workers=threads) as pool:
        map_chunks = pool.map if threads > 1 else map
        for it in range(cfg.em_iterations):
            t0 = time.perf_counter()
            alpha = _alpha_at(cfg.alpha_schedule, it)
            fresh = _normalize_log_rows(_log_weight_matrix(log_c, terms, map_chunks))
            post = (1.0 - alpha) * post + alpha * fresh
            s, mass = _evidence_stats(log_c_t, post, map_chunks)
            nu = mass / mass.sum()
            if cfg.reset_optimizer_each_m_step:
                state = AdamState.zeros(pi.size)
            pi, state = _adamw_pi(s, mass, pi, cfg, state)
            # shared by this iteration's Q and the next iteration's E-step
            terms = _log_weight_terms(pi, nu)
            q = _q_from_stats(s, mass, pi, terms[1])
            if not np.isfinite(q):
                raise NumericError(f"Q became non-finite at iteration {it}")
            iters.append(it)
            qs.append(q)
            alphas.append(alpha)
            millis.append((time.perf_counter() - t0) * 1e3)
            if (cfg.q_rel_tolerance > 0.0 and prev_q is not None and q != 0.0
                    and abs(q - prev_q) / abs(q) < cfg.q_rel_tolerance):
                break
            prev_q = q

    model = SdsModel(ConfusionTensor(pi), ClassPrior(nu))
    trace = FitTrace(np.asarray(iters), np.asarray(qs), np.asarray(alphas),
                     np.asarray(millis))
    return model, PosteriorMatrix(post, list(preds.item_ids)), trace


def online_infer(item_probs, model: SdsModel) -> np.ndarray:
    """Posterior for a single arriving item under a frozen model: the
    :func:`e_step_raw` row of a one-item batch, with no parameter updates.

    ``item_probs`` is the K x J matrix of raw member probabilities for
    the item.  It is checked, floored and renormalized by
    :meth:`PredictionSet.from_probs`, under the same rule as
    :func:`load_predictions`, so the result is bitwise identical to the
    item's row of :func:`e_step_raw` on any batch holding the same raw
    values.  The row is a fresh, writeable array.
    """
    item = PredictionSet.from_probs(np.asarray(item_probs)[None])
    return _e_step_rows(item, model)[0]


@dataclass
class Explanation:
    """Additive decomposition of one item's unnormalized log posterior.

    For class j: ``log_prior[j]`` is ln nu_j, ``member_evidence[k, j]``
    is sum_l (pi_kjl - 1) ln c_ikl (the data-dependent vote of member k),
    and ``member_normalizer[k, j]`` is the item-independent term
    ln Gamma(sum_l pi_kjl) - sum_l ln Gamma(pi_kjl).  Their sum is
    ``log_weights`` up to rounding, and ``posterior`` is its normalized
    exponential.
    """

    item_id: str
    log_prior: np.ndarray        # (J,)
    member_evidence: np.ndarray  # (K, J)
    member_normalizer: np.ndarray  # (K, J)
    log_weights: np.ndarray      # (J,)
    posterior: np.ndarray        # (J,)

    def to_dict(self):
        return {
            "item_id": self.item_id,
            "log_prior": self.log_prior.tolist(),
            "member_evidence": self.member_evidence.tolist(),
            "member_normalizer": self.member_normalizer.tolist(),
            "log_weights": self.log_weights.tolist(),
            "posterior": self.posterior.tolist(),
        }


def explain(preds: PredictionSet, model: SdsModel, item_index: int) -> Explanation:
    """Break one item's log posterior into prior, per-member evidence,
    and per-member normalizer terms; summing them reproduces the
    unnormalized log posterior to rounding.

    ``log_weights`` and ``posterior`` come from the batch E-step kernel on
    the item's row, so ``posterior`` equals the item's :func:`e_step_raw`
    row bit for bit and does not depend on member order."""
    if not 0 <= item_index < preds.n_items:
        raise IndexError(f"item index {item_index} out of range [0, {preds.n_items})")
    pi, nu = _checked_model(preds, model)
    log_c = np.log(preds.probs[item_index:item_index + 1])  # (1, K, J)
    log_weights = _log_weight_matrix(log_c, model._terms)
    return Explanation(
        item_id=preds.item_ids[item_index],
        log_prior=_log_nu(nu),
        member_evidence=((pi - 1.0) * log_c[0, :, None, :]).sum(axis=2),  # (K, J)
        member_normalizer=-_normalizer_per_member(pi),  # (K, J)
        log_weights=log_weights[0],
        posterior=_normalize_log_rows(log_weights)[0],
    )


# ---------------------------------------------------------------------------
# model serialization (confusion-members schema plus the class prior)


def save_model(model: SdsModel, path):
    _save_json({"nu": model.nu.nu.tolist(), "members": _members_pi(model.pi.pi)},
               path)


def load_model(path) -> SdsModel:
    """Read ``nu`` and ``members``; other keys, such as the ``pi_floor``
    that older files carry, are ignored."""
    obj = _load_json(path, "model")
    if "nu" not in obj or "members" not in obj:
        raise FormatError(f"{path}: model must be an object with nu and members")
    pi = _parse_members_pi(obj, path)
    try:
        return SdsModel(ConfusionTensor(pi),
                        ClassPrior(np.asarray(obj["nu"], dtype=np.float64)))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from None
