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

A raw probability row, in a member CSV, on the ``online`` stream or given
to ``PredictionSet``, must sum to 1 within ``ROW_SUM_TOL`` and hold only
finite entries >= 0; it is then floored at ``PROB_FLOOR`` and
renormalized.  Floats are serialized with ``repr`` so save -> load
round-trips are bit-exact.

CSV records are walked by ``_records`` (the header is line 1; blank
records after it are skipped and not numbered; a record holding a byte
that is not UTF-8 is rejected) and checked and parsed by
``_parse_record``.  ``_read_table`` reads every table: its header as
the first record, its body with one ``np.loadtxt`` call.  Fields split
as ``csv.reader`` splits them, numbers convert with ``float()``'s C
routine (without its underscores and non-ASCII digits); a rejected
table, or one holding a text field or a line over ``csv``'s field size
limit or a text field that is not UTF-8, is walked again to name the
line.  A JSON file that is not UTF-8 is invalid JSON.  ``_csv_rows``
formats the body of every CSV file in the bytes of ``csv.writer``, for
``_write_table`` and for ``simulate``'s blocks; the ``online`` stream
reads and writes each row with the same ``_records``, ``_parse_record``
and ``_csv_line``.

JSON files are ``json.dumps(obj)`` and one newline, written by
``_save_json``; the ``evaluate`` and ``explain`` reports, which the CLI
writes, are indented.  The readers take any JSON text, so files written
with ``indent=2`` by earlier versions still load.

Every file written here, CSV tables through ``_write_tables`` and JSON
through ``_save_json``, is created by ``_created``, which removes it if
its writing raises: after a failure Python sees (an I/O error, a worker
process that died, an interrupt) each file is complete or absent.  The
``online`` output is a stream and is opened by the command itself.

Containers validate on construction and mark their arrays read-only,
which makes instances safe to share across threads; ``ConfusionTensor``
and ``ClassPrior`` are frozen as well.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import mmap
import numbers
import os
import re
import sys
import threading
import warnings
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "FormatError",
    "NumericError",
    "PROB_FLOOR",
    "NU_LOG_FLOOR",
    "ROW_SUM_TOL",
    "PredictionSet",
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
# The class prior is floored here inside logarithms only, so that a prior
# entry that collapsed to exactly 0 keeps the log weights finite.
NU_LOG_FLOOR = 1e-300
# How far from 1 a raw probability row may sum; see the module docstring.
ROW_SUM_TOL = 1e-3

# Rows whose sum is already within this tolerance of 1 are left untouched
# by renormalization, so loading a file we wrote reproduces it bit-exactly.
_RENORM_SKIP_TOL = 5e-13


class FormatError(ValueError):
    """An input file or in-memory container violates its format contract."""


class NumericError(RuntimeError):
    """A numeric failure (NaN/inf) was detected during fitting."""


def _frozen(arr, dtype=np.float64):
    out = np.array(arr, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


def _floor_and_renormalize_in_place(p):
    """Clamp the float64 array ``p`` to >= ``PROB_FLOOR`` in place, then
    renormalize any row of the trailing axis whose sum drifted from 1;
    its scratch is two floats and a bool per row.

    The result is a bitwise fixed point: every entry is >= the floor
    exactly (division is followed by a re-clamp) and rows already summing
    to 1 within 5e-13 are left unchanged.  Applying the function to its
    own output therefore reproduces it bit for bit, which keeps batch
    loading, save/load round-trips, and per-item online processing in
    exact agreement.
    """
    np.maximum(p, PROB_FLOOR, out=p)
    for _ in range(3):
        sums = p.sum(axis=-1, keepdims=True)
        dev = sums - 1.0
        off = np.abs(dev, out=dev) > _RENORM_SKIP_TOL
        if not np.any(off):
            break
        np.divide(p, sums, out=p, where=off)
        np.maximum(p, PROB_FLOOR, out=p)


def _check_raw_rows(raw, where):
    """Raise :class:`FormatError` unless every row (last axis) of ``raw``
    sums to 1 within ``ROW_SUM_TOL`` and holds only finite entries >= 0;
    ``where(*index)`` names the first bad row from its index over the
    leading axes.  The sum is checked first: an ``inf`` fails it, and a
    NaN, which passes every comparison, fails the second check."""
    sums = raw.sum(axis=-1)
    off = np.abs(sums - 1.0) > ROW_SUM_TOL
    if np.any(off):
        idx = np.unravel_index(int(np.argmax(off)), off.shape)
        raise FormatError(f"{where(*idx)}: probabilities sum to {sums[idx]:.6f} "
                          f"(tolerance {ROW_SUM_TOL:g})")
    bad = ~np.all(np.isfinite(raw) & (raw >= 0.0), axis=-1)
    if np.any(bad):
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise FormatError(f"{where(*idx)}: negative or non-finite probability")


# ---------------------------------------------------------------------------
# containers


def _item_ids(item_ids, n, what):
    """``item_ids``, which must name the ``n`` items, or ``"0"`` to
    ``str(n - 1)`` without them."""
    if item_ids is None:
        return [str(i) for i in range(n)]
    if len(item_ids) != n:
        raise FormatError(f"item_ids length does not match {what} count")
    return item_ids


@dataclass
class PredictionSet:
    """N x K x J per-(item, member) class probabilities: a floored,
    renormalized, read-only copy of the raw rows ``probs`` (N >= 1, K >= 1,
    J >= 2; see the module docstring)."""

    probs: np.ndarray
    item_ids: list[str] | None = None

    def __post_init__(self):
        raw = np.asarray(self.probs, dtype=np.float64)
        if raw.ndim != 3:
            raise FormatError("prediction array must be N x K x J")
        if raw.shape[0] < 1 or raw.shape[1] < 1 or raw.shape[2] < 2:
            raise FormatError(f"need N >= 1, K >= 1, J >= 2, got shape {raw.shape}")
        # checked before the copy, and the ids made after flooring it, so
        # that no two of the check's scratch, the flooring's and the ids
        # are held at once
        _check_raw_rows(raw, lambda i, k: f"member {k} item {i}")
        self.probs = np.array(raw, order="C")
        _floor_and_renormalize_in_place(self.probs)
        self.probs.setflags(write=False)
        self.item_ids = _item_ids(self.item_ids, raw.shape[0], "item")

    @classmethod
    def from_probs(cls, raw, item_ids=None):
        """The same as ``PredictionSet(raw, item_ids)``."""
        return cls(raw, item_ids)

    @classmethod
    def _take(cls, probs, item_ids):
        """The set of ``probs``, a floored C-contiguous float64 array that
        softds has checked and no one else holds, marked read-only in place."""
        probs.setflags(write=False)
        preds = cls.__new__(cls)
        preds.probs, preds.item_ids = probs, item_ids
        return preds

    @property
    def n_items(self):
        return self.probs.shape[0]

    @property
    def n_members(self):
        return self.probs.shape[1]

    @property
    def n_classes(self):
        return self.probs.shape[2]


@dataclass(frozen=True)
class ConfusionTensor:
    """K stacked J x J positive Dirichlet parameter matrices; row j of
    member k parameterizes that member's output when the true class is j."""

    pi: np.ndarray

    def __post_init__(self):
        pi = _frozen(self.pi)
        if pi.ndim != 3 or pi.shape[1] != pi.shape[2]:
            raise FormatError("confusion tensor must be K x J x J")
        if not np.all(np.isfinite(pi)) or np.any(pi <= 0.0):
            raise FormatError("confusion entries must be finite and > 0")
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
        self.item_ids = _item_ids(self.item_ids, rows.shape[0], "row")
        self.rows = rows

    @classmethod
    def _take(cls, rows, item_ids):
        """The posterior of ``rows``, a C-contiguous float64 array that
        softds has computed and no one else holds, marked read-only in place."""
        rows.setflags(write=False)
        post = cls.__new__(cls)
        post.rows, post.item_ids = rows, item_ids
        return post

    @property
    def n_items(self):
        return self.rows.shape[0]

    @property
    def n_classes(self):
        return self.rows.shape[1]


def _whole_labels(values):
    """``values`` as an int64 array, once each is a whole number that
    int64 holds.  The cast of NaN, an infinity or a float past the range
    gives a value unequal to the float, so the comparison refuses it."""
    raw = np.asarray(values)
    with np.errstate(invalid="ignore"):
        labels = raw.astype(np.int64)
    if not np.array_equal(labels, raw):
        raise FormatError("class labels must be whole numbers")
    return labels


@dataclass
class GroundTruth:
    """True class indices, used only for evaluation."""

    labels: np.ndarray
    item_ids: list[str] | None = None
    n_classes: int | None = None

    def __post_init__(self):
        labels = _frozen(_whole_labels(self.labels), dtype=np.int64)
        if labels.ndim != 1 or labels.size < 1:
            raise FormatError("ground truth must be a non-empty 1-D label vector")
        if labels.min() < 0:
            raise FormatError("negative class label")
        if self.n_classes is not None and labels.max() >= self.n_classes:
            raise FormatError("label outside [0, n_classes)")
        self.item_ids = _item_ids(self.item_ids, labels.size, "label")
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
}


@dataclass(frozen=True)
class SdsConfig:
    """Hyperparameters of the EM fit, checked when built.

    ``alpha`` in (0, 1] damps every E-step of the fit; ``alpha = 1``
    disables damping.  ``q_rel_tolerance = 0`` disables early stopping
    (fixed iteration count).  The fit's start scale and smoothing, its
    confusion floor and AdamW's steps per M-step and weight decay are
    constants, not fields (see :func:`softds.sds.fit`).
    """

    alpha: float = 1e-3
    em_iterations: int = 100
    learning_rate: float = 1e-4
    q_rel_tolerance: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            description, accepts = _FIELD_KINDS[f.type]
            if not accepts(getattr(self, f.name)):
                raise FormatError(f"config field {f.name} must be {description}, "
                                  f"got {getattr(self, f.name)!r}")
        for refused, message in ((not 0.0 < self.alpha <= 1.0, "alpha must lie in (0, 1]"),
                                 (self.em_iterations < 1, "em_iterations must be >= 1"),
                                 (self.learning_rate <= 0, "learning_rate must be > 0"),
                                 (self.q_rel_tolerance < 0, "q_rel_tolerance must be >= 0")):
            if refused:
                raise FormatError(message)

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise FormatError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json(cls, path):
        obj = _load_json(path, "config")
        with _loading(path):
            return cls.from_dict(obj)


# ---------------------------------------------------------------------------
# operations


def harden(preds: PredictionSet) -> np.ndarray:
    """(N, K) argmax class per (item, member); ties broken toward the
    lowest class index."""
    return _hard_labels(preds.probs)


def _hard_labels(probs):
    """:func:`harden` of the (N, K, J) array ``probs``."""
    hard = np.empty(probs.shape[:2], dtype=np.intp)
    # np.argmax copies a read-only array whole, so it gets a block at a time
    step = max(1, _BLOCK_CELLS // (probs.shape[1] * probs.shape[2]))
    for lo in range(0, probs.shape[0], step):
        np.argmax(probs[lo:lo + step], axis=2, out=hard[lo:lo + step])
    return hard


# ---------------------------------------------------------------------------
# worker processes


# The function of _fork_map's current pool; set only in its worker
# processes, by their initializer, never in the caller's process.
_fork_func = None


def _set_fork_func(func):
    global _fork_func
    _fork_func = func


def _call_fork_func(item):
    return _fork_func(item)


def _in_order(pool, window, func, items):
    """``map(func, items)``, in order, as a generator, with the calls run
    on the executor ``pool``: at most ``window`` calls are submitted whose
    results are not yet taken, so that at most that many results are
    held.  Each result is yielded as soon as it and those before it are
    done, and an exception raised by a call is raised here, at its
    item."""
    pending = deque()
    for item in items:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(pool.submit(func, item))
    while pending:
        yield pending.popleft().result()


def _fork_map(func, items, workers):
    """``map(func, items)``, in order, as a generator.

    With ``workers > 1`` the calls run on ``min(workers, len(items))``
    worker processes forked from this one, through :func:`_in_order` with
    every call submitted at once.  ``func`` (a closure is fine) and
    everything it reads reach the workers through the fork,
    copy-on-write; only the items and the results are pickled.  The pool
    forks all its workers before it starts its own thread, so no thread
    is copied into them; in a process that already runs other threads,
    or where ``fork`` is unavailable, this is the builtin ``map``.  An
    exception raised by ``func`` in a worker is raised here, at its item,
    and a worker that dies raises ``BrokenProcessPool``.  When the
    generator is exhausted or closed, calls not yet started are cancelled
    and no worker outlives it; a caller that may stop early closes it
    (for example with ``contextlib.closing``).
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers > 1 and threading.active_count() == 1:
        # imported here, so that a process that never forks, such as
        # online, does not load multiprocessing
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_set_fork_func, initargs=(func,))
            try:
                yield from _in_order(pool, len(items), _call_fork_func, items)
            finally:
                pool.shutdown(cancel_futures=True)
            return
    yield from map(func, items)


# ---------------------------------------------------------------------------
# CSV / JSON I/O: the only places that open a file for a format


# Keyword arguments of every np.loadtxt table read: fields split at commas
# under csv's double-quote rules, and no comment character, so that an id
# starting with "#" is data.
_LOADTXT = dict(delimiter=",", quotechar='"', comments=None, ndmin=1)

# Cells per block of rows in a CSV write and in harden; sized in cells,
# not rows, so that a block's Python floats and strings, or its copy,
# do not grow with J.
_BLOCK_CELLS = 1 << 15


def _escaped(text):
    """Whether the str ``text`` holds a byte that is not UTF-8, which a
    text file opened with ``errors="surrogateescape"`` reads as a lone
    surrogate from U+DC80 to U+DCFF."""
    return not text.isascii() and re.search("[\udc80-\udcff]", text) is not None


def _records(fh):
    """``(line, record)`` for each CSV record of ``fh``, a text file read
    with ``errors="surrogateescape"``: ``record`` is ``csv.reader``'s list
    of str, or a ``csv.Error`` for a record it rejects, such as one with a
    field over its size limit, and for one that holds a byte that is not
    UTF-8, so that no such byte reaches a writer.  The first record is
    line 1; after it, blank records are skipped and not numbered."""
    reader = csv.reader(fh)
    line = 0
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            record = exc
        if line and record == []:
            continue
        line += 1
        if isinstance(record, list) and _escaped("".join(record)):
            record = csv.Error("not UTF-8 text")
        yield line, record


def _parse_record(record, n_fields, dtype, what):
    """One record of :func:`_records` parsed under ``dtype`` as
    :func:`_read_table` parses a line of a table: written back as one CSV
    line and read by ``np.loadtxt``.  Returns a one-element array.  A
    rejected record or one without ``n_fields`` fields raises
    :class:`FormatError`, and so does a field that does not convert, with
    the message ``what``."""
    if isinstance(record, csv.Error):
        raise FormatError(str(record))
    if len(record) != n_fields:
        raise FormatError(
            f"expected {n_fields} columns, found {len(record)} (missing column?)")
    try:
        return np.loadtxt([",".join(map(_csv_field, record))], dtype=dtype, **_LOADTXT)
    except ValueError:
        raise FormatError(what) from None


def _read_table(path, row_dtype, what):
    """The data rows of the CSV table at ``path`` as a structured array.

    ``row_dtype(header)`` checks the header, the first record of
    :func:`_records`, and returns the dtype of one data row.  The body is
    read with one ``np.loadtxt`` call, which splits fields as
    ``csv.reader`` does, converts numbers with ``float()``'s C routine
    and skips blank lines.  If it fails, or the table may hold a field
    over ``csv.field_size_limit()`` (a text field or a line of the file
    is longer) or holds a byte that is not UTF-8 in a text field, the
    records are walked again with :func:`_parse_record` to raise a
    :class:`FormatError` naming the first bad line (``what`` describes a
    field that does not convert); a walk that finds none returns the
    table.
    """
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        _, header = next(_records(fh), (1, None))
        if header is None:
            raise FormatError(f"{path}: empty file")
        if isinstance(header, csv.Error):
            raise FormatError(f"{path}, line 1: {header}")
        dtype = np.dtype(row_dtype(header))
        try:
            with warnings.catch_warnings():
                # a file without data rows is the caller's to report
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, dtype=dtype, **_LOADTXT)
        except ValueError as exc:
            table, failure = None, exc
        else:
            # np.loadtxt has no field size limit; csv.reader, and so the
            # online stream, rejects a longer field.  A number field lies
            # within one line, whose bytes are at least its characters.
            limit = csv.field_size_limit()
            with open(path, "rb") as raw:
                if (all(max(map(len, table[name]), default=0) <= limit
                        and not _escaped("".join(table[name]))
                        for name in dtype.names if dtype[name] == object)
                        and max(map(len, raw), default=0) <= limit):
                    return table
        fh.seek(0)
        for line, record in itertools.islice(_records(fh), 1, None):
            try:
                # a record of a table np.loadtxt read can fail only in csv
                if table is None or isinstance(record, csv.Error):
                    _parse_record(record, len(header), dtype, what)
            except FormatError as exc:
                raise FormatError(f"{path}, line {line}: {exc}") from None
    if table is not None:
        # long lines, each of short fields
        return table
    raise FormatError(f"{path}: unreadable CSV ({failure})")


def _csv_field(value):
    """``value`` as ``csv.writer`` writes one field of a row of several:
    ``str(value)`` (empty for ``None``), quoted when it holds a comma, a
    quote or a line break."""
    text = "" if value is None else str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(first, cells):
    """One CSV line as ``csv.writer`` writes it: ``first`` by
    :func:`_csv_field`, then the str ``cells``, which hold no comma, quote
    or line break, as they are, then ``\\r\\n``."""
    return f"{_csv_field(first)},{','.join(cells)}\r\n"


def _csv_rows(ids, tables, workers=1):
    """The bodies of tables that share their item ids, one
    :func:`_csv_line` per row: ``ids[i]``, then the entries of row ``i``
    of the table's 2-D array in ``tables`` written with ``repr``, as the
    ``csv`` module writes them.  Yields, a block of rows at a time, the
    list of every table's text of the block, each block formatted by
    :func:`_fork_map` on up to ``workers`` forked worker processes: a
    generator to close."""
    step = max(1, _BLOCK_CELLS // max(values.shape[1] for values in tables))

    def text(values, lo):
        width = values.shape[1]
        cells = list(map(repr, values[lo:lo + step].ravel().tolist()))
        return "".join([_csv_line(item, cells[r * width:(r + 1) * width])
                        for r, item in enumerate(ids[lo:lo + step])])

    return _fork_map(lambda lo: [text(values, lo) for values in tables],
                     range(0, len(ids), step), workers)


@contextlib.contextmanager
def _created(path):
    """``path`` opened for writing UTF-8 text with no newline
    translation, and removed if the block raises, so that no partial
    file is left.  A path whose ``open`` fails is not removed: no file
    was created there."""
    fh = open(path, "w", newline="", encoding="utf-8")
    try:
        with fh:
            yield fh
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(path)
        raise


def _write_tables(tables, blocks):
    """Create the CSV table of each ``(path, header)`` of ``tables``, then
    write the i-th text of each block of ``blocks`` to the i-th table, in
    block order, so the bytes do not depend on the process a block was
    formatted in.  Every header line is written and flushed before the
    first block is pulled, so that a worker forked for ``blocks`` holds
    no buffered text.  ``blocks`` is a generator, closed here before any
    file is removed, so that no worker outlives a failure; a failure
    removes every table created (see :func:`_created`)."""
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(_created(path)) for path, _ in tables]
        stack.enter_context(contextlib.closing(blocks))
        for fh, (_, header) in zip(files, tables):
            fh.write(_csv_line(header[0], header[1:]))
            fh.flush()
        for block in blocks:
            for fh, text in zip(files, block):
                fh.write(text)


def _write_table(path, header, ids, values, workers=1):
    """The one-table case of :func:`_write_tables`: a header line, then
    the :func:`_csv_rows` of ``ids`` and ``values``, formatted on up to
    ``workers`` forked worker processes."""
    _write_tables([(path, header)], _csv_rows(list(ids), [values], workers))


@contextlib.contextmanager
def _loading(path):
    """Re-raise a ``TypeError`` or ``ValueError`` from the block, where a
    loader builds its container from the file ``path``, as a
    :class:`FormatError` whose message begins ``path: ``."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def _load_json(path, what):
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: {what} must be a JSON object")
    return obj


def _json_numbers(value, path, what):
    """The JSON array ``value``, nested lists of numbers, as a float64
    array.  A string, a bool or a null among them, a ragged nesting or a
    number too large for a float64 raises :class:`FormatError` naming
    ``path`` and ``what``."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: {what}: {exc}") from None
    # the conversion above also takes "0.5" and true; only int and float
    # are JSON numbers
    leaves = [value]
    for _ in range(arr.ndim):
        leaves = itertools.chain.from_iterable(leaves)
    if not set(map(type, leaves)) <= {int, float}:
        raise FormatError(f"{path}: {what} must hold only JSON numbers")
    return arr


def _save_json(obj, path):
    """Write ``json.dumps(obj)`` and one newline to the file ``path``."""
    with _created(path) as fh:
        fh.write(json.dumps(obj) + "\n")


def _prob_header(n_classes):
    return ["item_id"] + [f"p_{j}" for j in range(n_classes)]


def _check_prob_header(header, path):
    if len(header) < 3 or header[0] != "item_id":
        raise FormatError(f"{path}: header must be item_id,p_0,...,p_{{J-1}}")
    if header != _prob_header(len(header) - 1):
        raise FormatError(
            f"{path}: malformed header (expected item_id,p_0,...,p_{{J-1}})"
        )
    return len(header) - 1


def _parse_prob_file(path, expect_classes=None):
    def row_dtype(header):
        n_cols = _check_prob_header(header, path)
        if expect_classes is not None and n_cols != expect_classes:
            raise FormatError(
                f"{path}: found {n_cols} probability columns, expected {expect_classes}"
            )
        return [("id", object), ("p", np.float64, (n_cols,))]

    table = _read_table(path, row_dtype, "non-numeric probability")
    if table.size == 0:
        raise FormatError(f"{path}: no data rows")
    return table["id"].tolist(), table["p"]


def _write_prob_file(path, ids, rows, workers=1):
    _write_table(path, _prob_header(rows.shape[1]), ids, rows, workers)


def load_predictions(manifest_path):
    """Load the member CSVs referenced by a manifest into a validated,
    floored, renormalized :class:`PredictionSet`.

    Item order follows member file 0; every member file must list the
    same item ids, and one that lists them in another order is
    re-aligned to member file 0.  A different id set, or duplicate ids
    in a re-aligned file, raise :class:`FormatError`.  So does a row
    whose probabilities sum further than ``ROW_SUM_TOL`` from 1, a
    negative or non-finite entry, or a missing column, naming the file
    and line.
    """
    return PredictionSet._take(*_load_probs(manifest_path))


def _manifest_members(manifest_path):
    """``(n_classes, members, paths)`` of the manifest at
    ``manifest_path``: its class count, its member file names as listed,
    and those names resolved against the manifest's directory."""
    manifest = _load_json(manifest_path, "manifest")
    n_classes = manifest.get("n_classes")
    members = manifest.get("members")
    if not _is_int(n_classes) or n_classes < 2:
        raise FormatError(f"{manifest_path}: n_classes must be an integer >= 2")
    if not isinstance(members, list) or not members:
        raise FormatError(f"{manifest_path}: members must be a non-empty list")
    if not all(isinstance(member_path, str) for member_path in members):
        raise FormatError(f"{manifest_path}: members must be file paths (strings)")
    base = os.path.dirname(os.path.abspath(manifest_path))
    paths = [member_path if os.path.isabs(member_path) else os.path.join(base, member_path)
             for member_path in members]
    return n_classes, members, paths


def _load_probs(manifest_path, workers=1):
    """``(probs, item_ids)`` of :func:`load_predictions`: the floored,
    renormalized and checked (N, K, J) array, writable and owned by the
    caller, which :class:`PredictionSet` would freeze.

    The array is the first N rows of one (cap, K, J) buffer, an anonymous
    shared mapping made before the member files are read; ``cap`` is
    :func:`_line_bound` of file 0, and pages never written cost no
    memory.  One :func:`_fork_map` task per member file, on up to
    ``workers`` forked worker processes, parses and checks the file and
    writes its N x J block into that member's slice of the buffer; only
    its item ids return.  They are compared with file 0's in manifest
    order, so the first failure is the one a serial load meets, and a
    file that lists the same ids in another order is re-aligned in place.
    """
    n_classes, members, paths = _manifest_members(manifest_path)
    cap = _line_bound(paths[0])
    # mmap.mmap(-1, n) is anonymous and shared, so workers' writes land here
    buf = np.frombuffer(mmap.mmap(-1, cap * len(paths) * n_classes * 8),
                        dtype=np.float64).reshape(cap, len(paths), n_classes)

    def parse(k):
        ids, mat = _parse_prob_file(paths[k], expect_classes=n_classes)
        _check_raw_rows(mat, lambda i: f"{paths[k]}, line {i + 2}")
        # a longer file cannot list file 0's ids, which is reported below
        if len(ids) <= cap:
            buf[:len(ids), k] = mat
        return ids

    with contextlib.closing(_fork_map(parse, range(len(paths)), workers)) as results:
        ids0 = next(results)
        n_items = len(ids0)
        for k in range(1, len(paths)):
            # not enumerate(results), whose last tuple would keep these
            # ids while the next file is read
            ids = next(results)
            if ids != ids0:
                # same items in a different order are re-aligned to member
                # file 0; a genuinely different item set is an error
                if sorted(ids) != sorted(ids0):
                    raise FormatError(f"{paths[k]}: item ids disagree with {members[0]}")
                if len(set(ids)) != len(ids):
                    raise FormatError(f"{paths[k]}: duplicate item ids cannot be re-aligned")
                row_of = {item_id: i for i, item_id in enumerate(ids)}
                buf[:n_items, k] = buf[[row_of[item_id] for item_id in ids0], k]
                del row_of
            del ids
    probs = buf[:n_items]
    # every row is checked above, with its file and line
    _floor_and_renormalize_in_place(probs)
    return probs, ids0


def _line_bound(path):
    """One more than the line breaks (``\\n``, ``\\r\\n`` or a lone
    ``\\r``) of the file at ``path``, read a chunk at a time: a bound on
    its CSV records, and so on a table's data rows."""
    count, after_cr = 1, False
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            count += chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
            # a \r\n split between two chunks
            count -= after_cr and chunk.startswith(b"\n")
            after_cr = chunk.endswith(b"\r")
    return count


def _member_files(n_members):
    return [f"member_{k}.csv" for k in range(n_members)]


def _save_manifest(out_dir, n_classes, n_members, labels_filename):
    """Write the ``manifest.json`` of :func:`save_predictions`; returns its
    path."""
    manifest = {"n_classes": n_classes, "members": _member_files(n_members)}
    if labels_filename is not None:
        manifest["labels"] = labels_filename
    manifest_path = os.path.join(out_dir, "manifest.json")
    _save_json(manifest, manifest_path)
    return manifest_path


def save_predictions(preds: PredictionSet, out_dir, labels_filename=None):
    """Write ``member_<k>.csv`` per member plus ``manifest.json``; returns
    the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    for k, name in enumerate(_member_files(preds.n_members)):
        _write_prob_file(os.path.join(out_dir, name), preds.item_ids, preds.probs[:, k, :])
    return _save_manifest(out_dir, preds.n_classes, preds.n_members, labels_filename)


def load_posterior(path) -> PosteriorMatrix:
    ids, mat = _parse_prob_file(path)
    with _loading(path):
        return PosteriorMatrix(mat, ids)


def save_posterior(post: PosteriorMatrix, path):
    _write_prob_file(path, post.item_ids, post.rows)


_TRUTH_HEADER = ["item_id", "label"]


def load_ground_truth(path) -> GroundTruth:
    def row_dtype(header):
        if header != _TRUTH_HEADER:
            raise FormatError(f"{path}: header must be item_id,label")
        return [("id", object), ("label", np.int64)]

    table = _read_table(path, row_dtype, "non-integer label")
    if table.size == 0:
        raise FormatError(f"{path}: no data rows")
    with _loading(path):
        return GroundTruth(table["label"], table["id"].tolist())


def save_ground_truth(truth: GroundTruth, path):
    _write_table(path, _TRUTH_HEADER, truth.item_ids, truth.labels[:, None])


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
        mat = _json_numbers(entry["pi"], path, f"member {k} pi")
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
