"""Containers for predictions, confusion parameters, posteriors, and
labels, plus the file formats that carry them.

File formats
------------
member / posterior CSV : header ``item_id,p_0,...,p_{J-1}``; probabilities
    are decimal literals, item ids are opaque strings.
manifest JSON : ``{"n_classes": J, "members": ["m0.csv", ...],
    "labels": "truth.csv"}`` with ``labels`` optional; member paths are
    resolved relative to the manifest's directory.
ground-truth CSV : header ``item_id,label`` with 0-based class indices.
confusion tensor JSON : ``{"members": [{"pi": [[...J floats] x J]}, ...]}``.
config JSON : keys mirror :class:`SdsConfig` field names; absent fields
    take the defaults below.

Floats are serialized with ``repr`` so save -> load round-trips are
bit-exact.  Containers validate on construction and mark their arrays
read-only, which makes instances safe to share across threads;
``ConfusionTensor`` and ``ClassPrior`` are frozen as well.
"""

from __future__ import annotations

import csv
import json
import numbers
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "FormatError",
    "PROB_FLOOR",
    "PI_FLOOR_DEFAULT",
    "floor_and_renormalize",
    "PredictionSet",
    "HardLabelSet",
    "ConfusionTensor",
    "ClassPrior",
    "PosteriorMatrix",
    "GroundTruth",
    "SdsConfig",
    "harden",
    "load_predictions",
    "save_predictions",
    "load_posterior",
    "save_posterior",
    "load_ground_truth",
    "save_ground_truth",
    "save_confusion_tensor",
]

# Every load floors probabilities here (then renormalizes), so their logs
# stay finite; metrics floor at the same value.
PROB_FLOOR = 1e-12
PI_FLOOR_DEFAULT = 1e-6

# Rows whose sum is already within this tolerance of 1 are left untouched
# by renormalization, so loading a file we wrote reproduces it bit-exactly.
_RENORM_SKIP_TOL = 5e-13


class FormatError(ValueError):
    """An input file or in-memory container violates its format contract."""


def _frozen(arr, dtype=np.float64):
    out = np.array(arr, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


def floor_and_renormalize(probs):
    """Clamp probabilities to >= ``PROB_FLOOR``, then renormalize any row
    of the trailing axis whose sum drifted from 1.

    The output is a bitwise fixed point: every entry is >= the floor exactly
    (division is followed by a re-clamp) and rows already summing to 1
    within 5e-13 are returned unchanged.  Applying the function to its
    own output therefore reproduces it bit for bit, which keeps batch
    loading, save/load round-trips, and per-item online processing in
    exact agreement.
    """
    p = np.maximum(np.asarray(probs, dtype=np.float64), PROB_FLOOR)
    for _ in range(3):
        sums = p.sum(axis=-1, keepdims=True)
        off = np.abs(sums - 1.0) > _RENORM_SKIP_TOL
        if not np.any(off):
            break
        p = np.maximum(np.where(off, p / sums, p), PROB_FLOOR)
    return p


# ---------------------------------------------------------------------------
# containers


@dataclass
class PredictionSet:
    """N x K x J per-(item, member) class probabilities.

    Rows are expected to be floored and renormalized already; build
    instances from raw data with :meth:`from_probs` or
    :func:`load_predictions`.
    """

    probs: np.ndarray
    item_ids: list[str] | None = None

    def __post_init__(self):
        probs = _frozen(self.probs)
        if probs.ndim != 3:
            raise FormatError("prediction array must be N x K x J")
        n, k, j = probs.shape
        if n < 1 or k < 1 or j < 2:
            raise FormatError(f"need N >= 1, K >= 1, J >= 2, got shape {probs.shape}")
        if not np.all(np.isfinite(probs)) or np.any(probs <= 0.0):
            raise FormatError("probabilities must be finite and > 0 after flooring")
        if np.max(np.abs(probs.sum(axis=2) - 1.0)) > 1e-12:
            raise FormatError(
                "rows are not renormalized; use PredictionSet.from_probs"
            )
        if self.item_ids is None:
            self.item_ids = [str(i) for i in range(n)]
        if len(self.item_ids) != n:
            raise FormatError("item_ids length does not match item count")
        self.probs = probs

    @classmethod
    def from_probs(cls, raw, item_ids=None, sum_tol=1e-6):
        """Validate raw probabilities (row sums within ``sum_tol`` of 1,
        no negatives), floor at ``PROB_FLOOR`` and renormalize."""
        raw = np.asarray(raw, dtype=np.float64)
        if raw.ndim != 3:
            raise FormatError("prediction array must be N x K x J")
        # a NaN passes these checks and the flooring; the constructor rejects it
        if np.any(raw < 0.0):
            raise FormatError("negative probability value")
        dev = np.abs(raw.sum(axis=2) - 1.0)
        if np.any(dev > sum_tol):
            i, k = np.unravel_index(int(np.argmax(dev)), dev.shape)
            raise FormatError(
                f"member {k} item {i}: probabilities sum to "
                f"{raw[i, k].sum():.6f} (tolerance {sum_tol:g})"
            )
        return cls(floor_and_renormalize(raw), item_ids)

    @property
    def n_items(self):
        return self.probs.shape[0]

    @property
    def n_members(self):
        return self.probs.shape[1]

    @property
    def n_classes(self):
        return self.probs.shape[2]


@dataclass
class HardLabelSet:
    """N x K class indices obtained by hardening soft predictions."""

    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        labels = _frozen(self.labels, dtype=np.int64)
        if labels.ndim != 2:
            raise FormatError("hard labels must be N x K")
        if self.n_classes < 2:
            raise FormatError("need at least 2 classes")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise FormatError("label outside [0, n_classes)")
        self.labels = labels

    @property
    def n_items(self):
        return self.labels.shape[0]

    @property
    def n_members(self):
        return self.labels.shape[1]


@dataclass(frozen=True)
class ConfusionTensor:
    """K stacked J x J positive Dirichlet parameter matrices; row j of
    member k parameterizes that member's output when the true class is j."""

    pi: np.ndarray
    pi_floor: float = PI_FLOOR_DEFAULT

    def __post_init__(self):
        pi = _frozen(self.pi)
        if pi.ndim != 3 or pi.shape[1] != pi.shape[2]:
            raise FormatError("confusion tensor must be K x J x J")
        if not self.pi_floor > 0.0:  # written so that NaN fails too
            raise FormatError("pi_floor must be > 0")
        if not np.all(np.isfinite(pi)) or np.any(pi < self.pi_floor):
            raise FormatError("confusion entries must be finite and >= pi_floor")
        object.__setattr__(self, "pi", pi)

    @property
    def n_members(self):
        return self.pi.shape[0]

    @property
    def n_classes(self):
        return self.pi.shape[1]


@dataclass(frozen=True)
class ClassPrior:
    """Probability vector over the J classes."""

    nu: np.ndarray

    def __post_init__(self):
        nu = _frozen(self.nu)
        if nu.ndim != 1 or nu.size < 2:
            raise FormatError("class prior must be a 1-D vector of length >= 2")
        if not np.all(np.isfinite(nu)) or np.any(nu < 0.0):
            raise FormatError("class prior entries must be finite and >= 0")
        if abs(float(nu.sum()) - 1.0) > 1e-9:
            raise FormatError(f"class prior sums to {float(nu.sum())!r}, expected 1")
        object.__setattr__(self, "nu", nu)

    @property
    def n_classes(self):
        return self.nu.size


@dataclass
class PosteriorMatrix:
    """N x J per-item class probabilities."""

    rows: np.ndarray
    item_ids: list[str] | None = None

    def __post_init__(self):
        rows = _frozen(self.rows)
        if rows.ndim != 2 or rows.shape[1] < 2:
            raise FormatError("posterior must be N x J with J >= 2")
        if not np.all(np.isfinite(rows)) or np.any(rows < 0.0):
            raise FormatError("posterior entries must be finite and >= 0")
        if rows.size and np.max(np.abs(rows.sum(axis=1) - 1.0)) > 1e-9:
            i = int(np.argmax(np.abs(rows.sum(axis=1) - 1.0)))
            raise FormatError(
                f"posterior row {i} sums to {float(rows[i].sum())!r}")
        if self.item_ids is None:
            self.item_ids = [str(i) for i in range(rows.shape[0])]
        if len(self.item_ids) != rows.shape[0]:
            raise FormatError("item_ids length does not match row count")
        self.rows = rows

    @property
    def n_items(self):
        return self.rows.shape[0]

    @property
    def n_classes(self):
        return self.rows.shape[1]


@dataclass
class GroundTruth:
    """True class indices, used only for evaluation."""

    labels: np.ndarray
    item_ids: list[str] | None = None
    n_classes: int | None = None

    def __post_init__(self):
        labels = _frozen(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size < 1:
            raise FormatError("ground truth must be a non-empty 1-D label vector")
        if labels.min() < 0:
            raise FormatError("negative class label")
        if self.n_classes is not None and labels.max() >= self.n_classes:
            raise FormatError("label outside [0, n_classes)")
        if self.item_ids is None:
            self.item_ids = [str(i) for i in range(labels.size)]
        if len(self.item_ids) != labels.size:
            raise FormatError("item_ids length does not match label count")
        self.labels = labels

    @property
    def n_items(self):
        return self.labels.size


# ---------------------------------------------------------------------------
# configuration


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# Accepted values per SdsConfig annotation: (description, test).  A float
# field takes a real number that is finite as a float64; the comparison is
# exact for ints, so one too large to convert fails it, and so does NaN.
_FIELD_KINDS = {
    "int": ("an integer", _is_int),
    "float": ("a finite number",
              lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
              and abs(v) <= sys.float_info.max),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
}


@dataclass
class SdsConfig:
    """Hyperparameters of the EM fit.

    ``alpha_schedule`` is a list of ``(start_iteration, alpha)`` pairs;
    the alpha of the last pair whose start is <= the current iteration is
    in effect.  A constant damping factor is a one-entry schedule.
    ``q_rel_tolerance = 0`` disables early stopping (fixed iteration
    count).
    """

    alpha_schedule: list = field(default_factory=lambda: [(0, 1e-3)])
    em_iterations: int = 100
    inner_steps: int = 5
    learning_rate: float = 1e-4
    weight_decay: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    pi_floor: float = PI_FLOOR_DEFAULT
    ds_init_concentration: float = 10.0
    ds_init_smoothing: float = 0.01
    q_rel_tolerance: float = 0.0
    reset_optimizer_each_m_step: bool = False

    def validate(self):
        """Check every field against its annotation and range, and convert
        ``alpha_schedule`` to ``(int, float)`` pairs; returns ``self``."""
        for f in fields(self):
            kind = _FIELD_KINDS.get(f.type)
            value = getattr(self, f.name)
            if kind is not None and not kind[1](value):
                raise FormatError(f"config field {f.name} must be {kind[0]}, "
                                  f"got {value!r}")
        is_int, is_float = _FIELD_KINDS["int"][1], _FIELD_KINDS["float"][1]
        try:
            typed = all(is_int(s) and is_float(a) for s, a in self.alpha_schedule)
        except (TypeError, ValueError):
            typed = False
        if not typed:
            raise FormatError("alpha_schedule must be a list of [start_iteration, "
                              "alpha] pairs of an integer and a finite number")
        sched = [(int(s), float(a)) for s, a in self.alpha_schedule]
        if not sched:
            raise FormatError("alpha_schedule must be non-empty")
        if sched[0][0] != 0:
            raise FormatError("alpha_schedule must cover iteration 0")
        starts = [s for s, _ in sched]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise FormatError("alpha_schedule starts must be strictly increasing")
        if any(not (0.0 < a <= 1.0) for _, a in sched):
            raise FormatError("alpha values must lie in (0, 1]")
        if self.em_iterations < 1 or self.inner_steps < 1:
            raise FormatError("em_iterations and inner_steps must be >= 1")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise FormatError("need learning_rate > 0 and weight_decay >= 0")
        if self.pi_floor <= 0:
            raise FormatError("pi_floor must be > 0")
        if self.ds_init_concentration <= 0 or self.ds_init_smoothing < 0:
            raise FormatError(
                "need ds_init_concentration > 0 and ds_init_smoothing >= 0"
            )
        if self.q_rel_tolerance < 0:
            raise FormatError("q_rel_tolerance must be >= 0")
        self.alpha_schedule = sched
        return self

    @classmethod
    def from_dict(cls, d):
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise FormatError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d).validate()

    @classmethod
    def from_json(cls, path):
        return cls.from_dict(_load_json(path, "config"))


# ---------------------------------------------------------------------------
# operations


def _posterior_rows(post):
    """The N x J rows of a PosteriorMatrix or of a raw array."""
    rows = post.rows if isinstance(post, PosteriorMatrix) else \
        np.asarray(post, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("posterior must be an N x J matrix")
    return rows


def harden(preds: PredictionSet) -> HardLabelSet:
    """Argmax class per (item, member); ties broken toward the lowest
    class index."""
    return HardLabelSet(np.argmax(preds.probs, axis=2), preds.n_classes)


# ---------------------------------------------------------------------------
# CSV / JSON I/O: the only places that open a file for a format


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise FormatError(f"{path}: empty file")
    return rows


def _write_csv(path, header, rows):
    """A header line, then one line per row; lines end with ``\\r\\n`` and
    floats are written with ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_json(path, what):
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: {what} must be a JSON object")
    return obj


def _json_text(obj):
    """The text of every JSON file and report: two-space indent, one
    trailing newline."""
    return json.dumps(obj, indent=2) + "\n"


def _save_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(obj))


def _check_prob_header(header, path):
    if len(header) < 3 or header[0] != "item_id":
        raise FormatError(f"{path}: header must be item_id,p_0,...,p_{{J-1}}")
    expected = ["item_id"] + [f"p_{j}" for j in range(len(header) - 1)]
    if header != expected:
        raise FormatError(
            f"{path}: malformed header (expected item_id,p_0,...,p_{{J-1}})"
        )
    return len(header) - 1


def _parse_prob_file(path, expect_classes=None):
    rows = _read_csv(path)
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


def _write_prob_file(path, ids, rows):
    _write_csv(path, ["item_id"] + [f"p_{j}" for j in range(rows.shape[1])],
               ([item_id, *row] for item_id, row in zip(ids, rows.tolist())))


def load_predictions(manifest_path, sum_tol=1e-3):
    """Load the member CSVs referenced by a manifest into a validated,
    floored, renormalized :class:`PredictionSet`.

    Item order follows member file 0; all member files must list the
    same item ids in the same order.  A row whose probabilities sum
    further than ``sum_tol`` from 1, a negative or non-finite entry, or
    a missing column raises :class:`FormatError` naming the file and
    line.
    """
    manifest = _load_json(manifest_path, "manifest")
    n_classes = manifest.get("n_classes")
    members = manifest.get("members")
    if not isinstance(n_classes, int) or n_classes < 2:
        raise FormatError(f"{manifest_path}: n_classes must be an integer >= 2")
    if not isinstance(members, list) or not members:
        raise FormatError(f"{manifest_path}: members must be a non-empty list")
    base = os.path.dirname(os.path.abspath(manifest_path))

    ids0 = None
    stacks = []
    for member_path in members:
        full = member_path if os.path.isabs(member_path) else os.path.join(base, member_path)
        ids, mat = _parse_prob_file(full, expect_classes=n_classes)
        bad = ~(np.isfinite(mat) & (mat >= 0.0))
        if np.any(bad):
            rn = int(np.argwhere(bad)[0][0]) + 2
            raise FormatError(f"{full}, line {rn}: negative or non-finite probability")
        dev = np.abs(mat.sum(axis=1) - 1.0)
        if np.any(dev > sum_tol):
            bad = int(np.argmax(dev))
            raise FormatError(
                f"{full}, line {bad + 2}: probabilities sum to "
                f"{mat[bad].sum():.6f} (tolerance {sum_tol:g})"
            )
        if ids0 is None:
            ids0 = ids
        elif ids != ids0:
            # same items in a different order are re-aligned to member
            # file 0; a genuinely different item set is an error
            if sorted(ids) != sorted(ids0):
                raise FormatError(
                    f"{full}: item ids disagree with {members[0]}"
                )
            if len(set(ids)) != len(ids):
                raise FormatError(
                    f"{full}: duplicate item ids cannot be re-aligned"
                )
            lookup = {item_id: row for item_id, row in zip(ids, mat)}
            mat = np.stack([lookup[item_id] for item_id in ids0])
        stacks.append(mat)
    # every row is checked above, with its file and line
    return PredictionSet(floor_and_renormalize(np.stack(stacks, axis=1)), ids0)


def save_predictions(preds: PredictionSet, out_dir, manifest_name="manifest.json",
                     member_prefix="member", labels_filename=None):
    """Write one CSV per member plus a manifest; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    member_files = []
    for k in range(preds.n_members):
        name = f"{member_prefix}_{k}.csv"
        _write_prob_file(os.path.join(out_dir, name), preds.item_ids,
                         preds.probs[:, k, :])
        member_files.append(name)
    manifest = {"n_classes": preds.n_classes, "members": member_files}
    if labels_filename is not None:
        manifest["labels"] = labels_filename
    manifest_path = os.path.join(out_dir, manifest_name)
    _save_json(manifest, manifest_path)
    return manifest_path


def load_posterior(path) -> PosteriorMatrix:
    ids, mat = _parse_prob_file(path)
    try:
        return PosteriorMatrix(mat, ids)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def save_posterior(post: PosteriorMatrix, path):
    _write_prob_file(path, post.item_ids, post.rows)


def load_ground_truth(path) -> GroundTruth:
    rows = _read_csv(path)
    if rows[0] != ["item_id", "label"]:
        raise FormatError(f"{path}: header must be item_id,label")
    ids, labels = [], []
    for rn, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise FormatError(f"{path}, line {rn}: expected 2 columns")
        ids.append(row[0])
        try:
            labels.append(int(row[1]))
        except ValueError:
            raise FormatError(f"{path}, line {rn}: non-integer label") from None
    if not ids:
        raise FormatError(f"{path}: no data rows")
    try:
        return GroundTruth(np.asarray(labels, dtype=np.int64), ids)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def save_ground_truth(truth: GroundTruth, path):
    _write_csv(path, ["item_id", "label"], zip(truth.item_ids, truth.labels.tolist()))


def _members_pi(pi):
    """The ``members`` list of the confusion schema for K x J x J ``pi``."""
    return [{"pi": mat.tolist()} for mat in np.asarray(pi, dtype=np.float64)]


def _parse_members_pi(obj, path):
    members = obj.get("members")
    if not isinstance(members, list) or not members:
        raise FormatError(f"{path}: members must be a non-empty list")
    mats = []
    for k, entry in enumerate(members):
        if not isinstance(entry, dict) or "pi" not in entry:
            raise FormatError(f"{path}: member {k} must be an object with a pi key")
        try:
            mat = np.asarray(entry["pi"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}: member {k} pi: {exc}") from None
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise FormatError(f"{path}: member {k} pi must be a square matrix")
        mats.append(mat)
    if len({m.shape for m in mats}) != 1:
        raise FormatError(f"{path}: member matrices have inconsistent shapes")
    return np.stack(mats, axis=0)


def save_confusion_tensor(pi, path):
    """Write K stacked J x J matrices (a ConfusionTensor or raw array)."""
    _save_json({"members": _members_pi(pi.pi if isinstance(pi, ConfusionTensor) else pi)},
               path)
