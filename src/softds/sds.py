"""Soft-label aggregation by EM over a Dirichlet observation model.

The model: each item i has a latent class t_i drawn from a prior nu over
J classes; member k then emits a probability vector c_i^(k) drawn from a
Dirichlet whose parameter vector is row t_i of that member's positive
J x J confusion tensor pi^(k).  Fitting alternates a damped E-step
(posterior over t, mixed into the previous posterior with weight alpha)
with an M-step (closed form for nu, a few AdamW steps on pi against the
expected complete-data log likelihood Q).  The AdamW update is this
module's own, in :func:`_adamw_pi`; :func:`fit` owns its moments.

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
from dataclasses import dataclass, fields
from functools import cached_property, partial

import numpy as np

from .baselines import (_DS_SMOOTHING, _average_rows, _ds_m_step, _label_frequencies,
                        _normalize_log_rows)
from .data import (
    NU_LOG_FLOOR,
    ClassPrior,
    ConfusionTensor,
    FormatError,
    NumericError,
    PosteriorMatrix,
    PredictionSet,
    SdsConfig,
    _hard_labels,
    _in_order,
    _json_numbers,
    _load_json,
    _loading,
    _members_pi,
    _parse_members_pi,
    _read_table,
    _save_json,
    _write_table,
)
from .mathutils import _digamma_of, _sorted_sum_of, log_gamma

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
# one item's part of the fit's (N, K, J) buffer, of the E-step's
# (K, chunk, J) block and of the item-last ``log c`` copy that S makes of
# each chunk; the fit's one task per chunk and iteration and e_step_raw
# share the one chunk list.  Smaller chunks lose to per-call
# overhead at J = 100.
# 2^17 ran a few percent faster but raised peak memory at K = 3, J = 10:
# its freed 1 MB block lifts malloc's mmap threshold above the fit's N x J
# temporaries, which then stay in the heap.  Chunk boundaries depend only
# on array shapes - never on the thread count - which is what makes
# threaded runs byte-identical.
_CHUNK_TARGET = 1 << 16

# AdamW's moment decay rates, the guard added to sqrt(v_hat), its steps
# per M-step and its decoupled weight decay.
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_INNER_STEPS = 5
_WEIGHT_DECAY = 1e-4

# The confusion tensor starts at this multiple of the smoothed
# Dawid-Skene confusion rows, and AdamW clamps its entries to the floor.
_INIT_SCALE = 10.0
_PI_FLOOR = 1e-6


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
                raise FormatError(f"{path}: header must be {','.join(_TRACE_HEADER)}")
            return [(name, np.int64 if name == "iteration" else np.float64)
                    for name in _TRACE_HEADER]

        table = _read_table(path, row_dtype, "non-numeric value")
        with _loading(path):
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


def _with_row_sums(pi):
    """(K, J, J + 1) array of pi with each row's sum after it, so that one
    digamma call takes both."""
    out = np.empty(pi.shape[:2] + (pi.shape[2] + 1,))
    out[:, :, :-1] = pi
    out[:, :, -1] = pi.sum(axis=2)
    return out


def _normalizer_per_member(pi):
    """(K, J) array: sum_l ln Gamma(pi_kjl) - ln Gamma(sum_l pi_kjl)."""
    return log_gamma(pi).sum(axis=2) - log_gamma(pi.sum(axis=2))


def _log_weight_terms(pi, nu):
    """The model's part of the log weights: ``pi - 1`` as (K, J, L) and
    const[j] = ln nu_j - sum_k (sum_l ln Gamma(pi_kjl) - ln Gamma(sum_l pi_kjl)).
    Raises :class:`NumericError` when the sum of pi or the constant is not
    finite."""
    # an overflow is reported by the checks below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        # one sum catches any row sum that log_gamma would reject
        if not np.isfinite(pi.sum()):
            raise NumericError("confusion tensor entries sum past the float range")
        const = _log_nu(nu) - _sorted_sum_of(_normalizer_per_member(pi))
    if not np.all(np.isfinite(const)):
        raise NumericError("log-Gamma normalizer of the confusion tensor is not finite")
    return pi - 1.0, const


def _log_weights(log_c, terms):
    """Unnormalized per-item log posteriors, shape (n, J):

        w[i, j] = const[j] + sum_{k,l} (pi_kjl - 1) ln c_ikl

    with ``log_c`` an item-first (n, K, J) block and ``terms`` from
    :func:`_log_weight_terms`.  Each row's value is independent of the
    block it is computed in."""
    pim1, const = terms
    n_items, n_members, _ = log_c.shape
    block = np.empty((n_members, n_items, const.size))
    # numpy's own einsum loop, not BLAS: each row's sums over l then run
    # in one order, whatever the block around it
    for k in range(n_members):
        np.einsum("il,jl->ij", log_c[:, k], pim1[k], out=block[k])
    # sorted_sum(block, axis=0), sorting the block itself
    w = _sorted_sum_of(block)
    w += const
    return w


def _evidence_part(log_c, post, rows):
    """The chunk ``rows``'s part of S, (K, J, J): sum over its items of
    post[i, j] * ln c_ikl.  The chunk's slices of the item-first ``log_c``
    and of ``post`` are copied item-last, O(chunk * K * J) scratch, so
    each sum over items runs over contiguous memory.  numpy's einsum
    loop, not BLAS: a BLAS product's sums change with the member order
    and with its thread count."""
    post_t = np.ascontiguousarray(post[rows].T)
    log_c_t = np.ascontiguousarray(log_c[rows].transpose(1, 2, 0))
    return np.einsum("jc,klc->kjl", post_t, log_c_t)


def _em_chunk(log_c, post, terms, alpha, start, rows):
    """One EM iteration's task on the chunk ``rows``: replace ``post[rows]``
    by ``(1 - alpha) * old + alpha * new``, with ``new`` the undamped
    E-step rows of :func:`_e_step_rows`, then return the chunk's part of
    S under the new rows.  With ``start`` (iteration 0) ``log_c[rows]``
    still holds the chunk's probabilities: the task first writes their
    ensemble average into ``post[rows]``, as ``old``, and then their logs
    over them."""
    if start:
        post[rows] = _average_rows(log_c[rows])
        np.log(log_c[rows], out=log_c[rows])
    fresh = _normalize_log_rows(_log_weights(log_c[rows], terms))
    fresh *= alpha
    old = post[rows]
    old *= 1.0 - alpha
    old += fresh
    return _evidence_part(log_c, post, rows)


def _sum_parts(parts):
    """The sum of the S ``parts`` in their order, added as they arrive, so
    that one (K, J, J) part per chunk is not held at once."""
    s = next(parts)
    for p in parts:
        s += p
    return s


def _q_from_stats(s, mass, terms):
    """The expected complete-data log likelihood

        Q = sum_i sum_j post[i,j] * ( ln nu_j
              + sum_k sum_l (pi_kjl - 1) ln c_ikl
              - sum_k ( sum_l ln Gamma(pi_kjl) - ln Gamma(sum_l pi_kjl) ) )

    from the evidence statistics and the model's E-step ``terms``."""
    return float(np.sum(terms[0] * s) + np.sum(mass * terms[1]))


def _grad_from_stats(s, mass, pi, out=None):
    """dQ/dpi_kjl = S_kjl + mass_j * (psi(sum_l' pi_kjl') - psi(pi_kjl)),
    written into ``out`` when it is given.  Digamma is taken once, over pi
    and its row sums."""
    psi = _digamma_of(_with_row_sums(pi))
    grad = np.subtract(psi[:, :, -1:], psi[:, :, :-1], out=out)
    grad *= mass[:, None]
    grad += s
    return grad


def _adamw_pi(s, mass, pi, lr, m, v, step):
    """``_INNER_STEPS`` (5) AdamW steps (Loshchilov & Hutter 2019) at
    learning rate ``lr`` on pi minimizing -Q with the analytic gradient,
    clamping entries to ``_PI_FLOOR`` (1e-6) after every step.  ``step``
    is the number of steps the moments ``m`` and ``v``, shaped like pi,
    have taken; they are updated in place.  Returns the new pi:

        m <- b1*m + (1-b1)*g          v <- b2*v + (1-b2)*g^2
        pi <- pi - lr * m_hat / (sqrt(v_hat) + eps) - lr * weight_decay * pi

    with g = -dQ/dpi, the bias-corrected moments m_hat and v_hat, and
    weight_decay ``_WEIGHT_DECAY`` (1e-4).  The steps update one copy of
    pi in place and write each gradient into one ``grad`` buffer."""
    decay = lr * _WEIGHT_DECAY
    pi = np.array(pi)
    grad = np.empty_like(pi)
    for t in range(step + 1, step + _INNER_STEPS + 1):
        # a gradient or step that overflows is reported by the checks
        # below, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            _grad_from_stats(s, mass, pi, out=grad)
            np.negative(grad, out=grad)
            if not np.all(np.isfinite(grad)):
                raise NumericError("non-finite gradient in the AdamW M-step")
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * grad
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * grad * grad
            # the decay term of the pre-step pi, subtracted after the step
            decayed = decay * pi
            pi -= (lr * (m / (1.0 - _ADAM_BETA1 ** t))
                   / (np.sqrt(v / (1.0 - _ADAM_BETA2 ** t)) + _ADAM_EPS))
            pi -= decayed
            del decayed
            np.maximum(pi, _PI_FLOOR, out=pi)
            # One sum catches a non-finite entry and any row sum that
            # would overflow in the next gradient's digamma.
            if not np.isfinite(pi.sum()):
                raise NumericError("confusion tensor overflowed in the AdamW M-step")
    return pi


def _checked_model(preds, model: SdsModel):
    """The model's ``(pi, nu)`` arrays, once its (K, J) matches the
    predictions'."""
    if (model.n_members, model.n_classes) != preds.probs.shape[1:]:
        raise ValueError(f"model (K, J) = ({model.n_members}, {model.n_classes}) "
                         f"does not match the predictions' {preds.probs.shape[1:]}")
    return model.pi.pi, model.nu.nu


def _e_step_rows(preds, model):
    """The undamped posterior rows, as checked by :func:`_normalize_log_rows`,
    with ``log c`` taken a chunk at a time."""
    _checked_model(preds, model)
    probs = preds.probs
    rows_out = np.empty((preds.n_items, preds.n_classes))
    for rows in _chunks(*probs.shape):
        rows_out[rows] = _normalize_log_rows(_log_weights(np.log(probs[rows]),
                                                          model._terms))
    return rows_out


# ---------------------------------------------------------------------------
# public operations


def e_step_raw(preds: PredictionSet, model: SdsModel) -> PosteriorMatrix:
    """Posterior over the latent class of every item under the current
    parameters: row i is the normalized exponential of the log weights of
    :func:`_log_weights`, checked by :func:`_normalize_log_rows`.  No
    damping is applied here."""
    return PosteriorMatrix._take(_e_step_rows(preds, model), list(preds.item_ids))


def fit(preds: PredictionSet, config: SdsConfig | None = None, threads=1):
    """Full EM fit.

    Initialization: the Dawid-Skene M-step on the label frequencies of
    the hardened predictions (the first M-step of ``ds_em``) provides
    the class prior and a row-stochastic confusion estimate D, with the
    smoothing 0.01 of ``ds_em``'s default; the confusion tensor starts
    at ``10 * (D + 0.01)``, and the posterior starts from the ensemble
    average.  After every AdamW step the confusion entries are clamped
    to 1e-6.

    Memory: the fit works on a copy of ``preds.probs``, which it leaves
    untouched.  That one (N, K, J) buffer holds the probabilities, and
    each chunk's ``log c`` once iteration 0's task on the chunk has
    written it over them; besides it the fit holds the (N, J) posterior,
    and everything else that grows with N is the start's (N, K) labels
    and (N, J) label frequencies or O(chunk * K * J) scratch of one item
    chunk.  In (K, J, J) arrays the fit holds pi, the two AdamW moments,
    S and pi - 1; an AdamW step's gradient adds five more: the steps'
    copy of pi, the gradient buffer, and digamma's argument, result and
    work array, (K, J, J + 1) each for pi and its row sums.  The peak,
    about 11 in all, is in the log-Gamma normalizer of the new pi, whose
    plain expressions hold about six temporaries beside the five; the
    step's update peaks just below it.  The start's confusion estimate is
    dropped once pi is built.  With ``threads > 1`` at most two E-step
    tasks per thread are in flight, each with its (K, J, J) part of S.

    Each iteration is one pass over the item chunks, one task per chunk,
    and the fit makes no other pass over them; ``log c`` is taken once
    per fit:

    1. the undamped E-step posterior (as :func:`e_step_raw`), mixed into
       the previous posterior as ``(1 - alpha) * old + alpha * new``, with
       the config's one ``alpha`` in every iteration; each chunk's task
       normalizes and damps its rows and writes them in place, then
       returns its part of the evidence statistics S.  In iteration 0
       the task first writes its chunk's ensemble average into the
       posterior, as ``old``, and the logs of its chunk's probabilities
       over them, so that iteration's time includes the start;
    2. S, the parts summed in chunk order, and the per-class mass of the
       posterior;
    3. the prior ``nu = mass / sum(mass)``;
    4. five AdamW steps on pi against -Q (:func:`_adamw_pi`, betas 0.9
       and 0.999, eps 1e-8, decoupled weight decay 1e-4), with the
       moments and the step count carried across iterations;
    5. Q of the updated model on the same statistics.

    Q is recorded after every iteration; when ``q_rel_tolerance > 0`` the
    loop stops early once |dQ| / |Q| falls below it.  The model and
    posterior containers are built once, after the loop; the posterior's
    rows are not checked again.  An E-step posterior, confusion tensor or
    Q that stops being finite raises :class:`NumericError`.  With
    ``threads > 1`` the item chunks run on one thread pool, opened for
    the whole fit.

    Returns ``(SdsModel, PosteriorMatrix, FitTrace)``.  Deterministic:
    identical inputs and config produce bitwise identical results for any
    ``threads``.
    """
    return _fit(np.array(preds.probs), list(preds.item_ids),
                config if config is not None else SdsConfig(), threads)


def _fit(buf, item_ids, cfg, threads):
    """:func:`fit` of the writable, C-contiguous (N, K, J) array ``buf`` of
    floored, renormalized probabilities under ``item_ids``; the fit
    writes ``log c`` over ``buf``."""
    n_items, _, n_classes = buf.shape

    hard = _hard_labels(buf)
    conf, nu = _ds_m_step(hard, _label_frequencies(hard, n_classes), _DS_SMOOTHING)
    del hard
    # conf lies in [0, 1], so every entry starts at or above 0.1
    pi = _INIT_SCALE * (conf + _DS_SMOOTHING)
    del conf
    # AdamW's moments, carried across iterations
    m, v = np.zeros_like(pi), np.zeros_like(pi)
    terms = _log_weight_terms(pi, nu)
    chunks = _chunks(*buf.shape)
    post = np.empty((n_items, n_classes))

    qs, millis = [], []
    # the executor starts no thread until the first task is submitted
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # at most two tasks per thread, so that at most as many of the
        # E-step's (K, J, J) parts of S wait to be summed
        map_chunks = partial(_in_order, pool, 2 * threads) if threads > 1 else map
        for it in range(cfg.em_iterations):
            t0 = time.perf_counter()
            # iteration 0's tasks turn the buffer into log c, chunk by chunk
            s = _sum_parts(map_chunks(partial(_em_chunk, buf, post, terms, cfg.alpha,
                                              it == 0), chunks))
            mass = post.sum(axis=0)
            nu = mass / mass.sum()
            pi = _adamw_pi(s, mass, pi, cfg.learning_rate, m, v, it * _INNER_STEPS)
            # shared by this iteration's Q and the next iteration's E-step
            terms = _log_weight_terms(pi, nu)
            q = _q_from_stats(s, mass, terms)
            # freed before the next E-step, which builds its own S
            del s
            if not np.isfinite(q):
                raise NumericError(f"Q became non-finite at iteration {it}")
            qs.append(q)
            millis.append((time.perf_counter() - t0) * 1e3)
            if (cfg.q_rel_tolerance > 0.0 and it > 0 and q != 0.0
                    and abs(q - qs[-2]) / abs(q) < cfg.q_rel_tolerance):
                break

    model = SdsModel(ConfusionTensor(pi), ClassPrior(nu))
    trace = FitTrace(np.arange(len(qs)), qs, np.full(len(qs), cfg.alpha), millis)
    return model, PosteriorMatrix._take(post, item_ids), trace


def online_infer(item_probs, model: SdsModel) -> np.ndarray:
    """Posterior for a single arriving item under a frozen model: the
    :func:`e_step_raw` row of a one-item batch, with no parameter updates.

    ``item_probs`` is the K x J matrix of raw member probabilities for
    the item.  The :class:`PredictionSet` of the one-item batch checks,
    floors and renormalizes it under the raw-row rule of a member-file
    row in :func:`load_predictions`, so the result is bitwise identical to
    the item's row of :func:`e_step_raw` on any batch holding the same raw
    values.  The row is a fresh, writeable array.
    """
    item = PredictionSet(np.asarray(item_probs)[None])
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
        """The fields in order, each array as nested lists."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: value.tolist() if isinstance(value, np.ndarray) else value
                for name, value in values.items()}


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
    log_weights = _log_weights(log_c, model._terms)
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
    nu = _json_numbers(obj["nu"], path, "nu")
    with _loading(path):
        return SdsModel(ConfusionTensor(pi), ClassPrior(nu))
