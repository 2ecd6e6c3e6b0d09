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
iteration.  The batch E-step :func:`e_step_raw`, :func:`online_infer` and
:func:`explain` apply a frozen model with the same E-step kernel.

The model's E-step terms (``pi - 1`` and a per-class constant holding the
log-Gamma normalizer) are computed once per frozen :class:`SdsModel`, and
in ``fit`` once per iteration, for its Q and the next E-step.

Determinism: all item reductions run over fixed-size chunks combined in
chunk order, and member reductions use order-insensitive sums, so results
are bitwise identical for any thread count, any batch size (per-item
posteriors), and any member ordering.  Only ``fit`` runs chunks on a
thread pool; the other public functions are single-threaded.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .baselines import _ds_m_step, _label_frequencies, ensemble_average
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
    _read_table,
    _save_json,
    _write_table,
    harden,
)
from .mathutils import digamma, log_gamma, sorted_sum
from .optim import AdamState, adamw_step

__all__ = [
    "NumericError",
    "SdsModel",
    "FitTrace",
    "Explanation",
    "e_step_raw",
    "fit",
    "online_infer",
    "explain",
    "save_model",
    "load_model",
]

_TRACE_HEADER = ["iteration", "q", "alpha", "millis"]

# Items per chunk are this many float64 elements over K*J, the size of
# one item's part of the E-step's (K, chunk, J) block and of its ``log c``
# slice in S; both kernels share the one chunk list.  Smaller chunks lose
# to per-call overhead at J = 100.  2^17 ran a few percent faster but raised
# peak memory at K = 3, J = 10: its freed 1 MB block lifts malloc's mmap
# threshold above the fit's N x J temporaries, which then stay in the heap.
# Chunk boundaries depend only on array shapes - never on the thread
# count - which is what makes threaded runs byte-identical.
_CHUNK_TARGET = 1 << 16


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
        _write_table(path, _TRACE_HEADER, self.iteration.tolist(),
                     np.column_stack([self.q, self.alpha, self.millis]))

    @classmethod
    def load_csv(cls, path):
        def row_dtype(header):
            if header != _TRACE_HEADER:
                raise FormatError(f"{path}: header must be iteration,q,alpha,millis")
            return [(name, np.int64 if name == "iteration" else np.float64)
                    for name in _TRACE_HEADER]

        table = _read_table(path, row_dtype, "non-numeric value")
        return cls(*(table[name] for name in _TRACE_HEADER))


# ---------------------------------------------------------------------------
# internal kernels


def _chunks(n_items, n_members, n_classes):
    """Item slices of the fixed-size chunks."""
    per_item = max(1, n_members * n_classes)
    step = max(1, _CHUNK_TARGET // per_item)
    return [slice(lo, min(lo + step, n_items)) for lo in range(0, n_items, step)]


def _log_nu(nu):
    return np.log(np.maximum(nu, NU_LOG_FLOOR))


def _normalizer_per_member(pi):
    """(K, J) array: sum_l ln Gamma(pi_kjl) - ln Gamma(sum_l pi_kjl)."""
    return log_gamma(pi).sum(axis=2) - log_gamma(pi.sum(axis=2))


def _log_weight_terms(pi, nu):
    """The model's part of the log weights: ``pi - 1`` as (K, J, L) and
    const[j] = ln nu_j - sum_k (sum_l ln Gamma(pi_kjl) - ln Gamma(sum_l pi_kjl))."""
    return pi - 1.0, _log_nu(nu) - sorted_sum(_normalizer_per_member(pi), axis=0)


def _log_weight_matrix(log_c, terms, map_chunks=map):
    """Unnormalized per-item log posteriors, shape (N, J):

        w[i, j] = const[j] + sum_{k,l} (pi_kjl - 1) ln c_ikl

    with ``log_c`` from :func:`_member_major` and ``terms`` from
    :func:`_log_weight_terms`.  Each row's value is independent of the
    batch it is computed in.  ``map_chunks`` is ``map`` or a thread
    pool's ``map``; the chunks write disjoint rows.
    """
    pim1, const = terms
    n_members, n_items, n_classes = log_c.shape
    w = np.empty((n_items, const.size))

    def chunk(rows):
        block = np.empty((n_members, rows.stop - rows.start, const.size))
        # numpy's own einsum loop, not BLAS: each row's sums over l then
        # run in one order, whatever the batch around it
        for k in range(n_members):
            np.einsum("il,jl->ij", log_c[k, rows], pim1[k], out=block[k])
        w[rows] = sorted_sum(block, axis=0) + const

    # drained, so that a chunk's error is raised here
    list(map_chunks(chunk, _chunks(n_items, n_members, n_classes)))
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


def _member_major(probs):
    """``log c`` of (N, K, J) probabilities as a (K, N, J) array."""
    # the log runs on the item-first layout, so its bits match every caller's
    return np.ascontiguousarray(np.log(probs).transpose(1, 0, 2))


def _item_last(log_c):
    """Member-major ``log c`` as a (K, J, N) array, item axis contiguous."""
    return np.ascontiguousarray(log_c.transpose(0, 2, 1))


def _evidence_stats(log_c_t, post_rows, map_chunks=map):
    """S[k, j, l] = sum_i post[i, j] * ln c_ikl and the per-class mass
    vector sum_i post[i, j], accumulated over chunks in fixed order.
    ``log_c_t`` is ``log c`` in the item-last layout of
    :func:`_item_last`, so each sum over items runs over contiguous
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


def _q_from_stats(s, mass, terms):
    """The expected complete-data log likelihood

        Q = sum_i sum_j post[i,j] * ( ln nu_j
              + sum_k sum_l (pi_kjl - 1) ln c_ikl
              - sum_k ( sum_l ln Gamma(pi_kjl) - ln Gamma(sum_l pi_kjl) ) )

    from the evidence statistics and the model's E-step ``terms``."""
    return float(np.sum(terms[0] * s) + np.sum(mass * terms[1]))


def _grad_from_stats(s, mass, pi):
    """dQ/dpi_kjl = S_kjl + mass_j * (psi(sum_l' pi_kjl') - psi(pi_kjl))."""
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
    return _normalize_log_rows(_log_weight_matrix(_member_major(preds.probs),
                                                  model._terms))


# ---------------------------------------------------------------------------
# public operations


def e_step_raw(preds: PredictionSet, model: SdsModel) -> PosteriorMatrix:
    """Posterior over the latent class of every item under the current
    parameters: row i is the normalized exponential of the log weights of
    :func:`_log_weight_matrix`.  No damping is applied here."""
    return PosteriorMatrix(_e_step_rows(preds, model), list(preds.item_ids))


def _alpha_at(schedule, iteration):
    """Alpha of the last schedule entry starting at or before
    ``iteration``; a validated schedule always covers iteration 0."""
    return [alpha for start, alpha in schedule if start <= iteration][-1]


def fit(preds: PredictionSet, config: SdsConfig | None = None, threads=1):
    """Full EM fit.

    Initialization: the Dawid-Skene M-step on the label frequencies of
    the hardened predictions (the first M-step of ``ds_em``) provides
    the class prior and a row-stochastic confusion estimate D; the
    confusion tensor starts at
    ``ds_init_concentration * (D + ds_init_smoothing)`` (clamped to
    ``pi_floor``), and the posterior starts from the ensemble average.

    Each iteration is one pass over plain arrays, with ``log c`` taken
    once per fit:

    1. the undamped E-step posterior (as :func:`e_step_raw`), mixed into
       the previous posterior as ``(1 - alpha) * old + alpha * new``, with
       the alpha active per ``alpha_schedule``;
    2. the evidence statistics S/mass of that posterior, computed once;
    3. the prior ``nu = mass / sum(mass)``;
    4. ``inner_steps`` AdamW steps on pi against -Q, with the optimizer
       state carried across iterations unless
       ``reset_optimizer_each_m_step``;
    5. Q of the updated model on the same statistics.

    Q is recorded after every iteration; when ``q_rel_tolerance > 0`` the
    loop stops early once |dQ| / |Q| falls below it.  The model and
    posterior containers are built once, after the loop.  An E-step
    posterior, confusion tensor or Q that stops being finite raises
    :class:`NumericError`.  With ``threads > 1`` the item chunks run on
    one thread pool, opened for the whole fit.

    Returns ``(SdsModel, PosteriorMatrix, FitTrace)``.  Deterministic:
    identical inputs and config produce bitwise identical results for any
    ``threads``.
    """
    cfg = config if config is not None else SdsConfig()
    cfg.validate()

    hard = harden(preds)
    conf, nu = _ds_m_step(hard, _label_frequencies(hard, preds.n_classes),
                          cfg.ds_init_smoothing)
    pi = np.maximum(cfg.ds_init_concentration * (conf + cfg.ds_init_smoothing),
                    cfg.pi_floor)
    post = ensemble_average(preds).rows
    # two N*K*J copies: the item-first log is freed before the second
    log_c = _member_major(preds.probs)
    log_c_t = _item_last(log_c)
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
            q = _q_from_stats(s, mass, terms)
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
    log_c = _member_major(preds.probs[item_index:item_index + 1])  # (K, 1, J)
    log_weights = _log_weight_matrix(log_c, model._terms)
    return Explanation(
        item_id=preds.item_ids[item_index],
        log_prior=_log_nu(nu),
        member_evidence=((pi - 1.0) * log_c[:, 0, None, :]).sum(axis=2),  # (K, J)
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
