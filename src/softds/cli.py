"""Command-line interface.

Subcommands: ``aggregate`` (fit/apply an aggregation method to a
prediction manifest), ``evaluate`` (metrics against ground truth and/or
OOD AUROC), ``simulate`` (write a synthetic dataset), ``online`` (stream
per-item posteriors under a frozen model), ``explain`` (decompose one
item's posterior).

Exit codes: 0 success, 1 validation error, 2 I/O error, a closed
standard stream, memory exhausted or a worker process that died, 3
numeric failure.  Diagnostics go to stderr, and are dropped when it is
closed; stdout and output files carry payload only.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
import time
from concurrent.futures import BrokenExecutor

import numpy as np

from .baselines import ds_em, ensemble_average, majority_vote
from .data import (
    FormatError,
    PredictionSet,
    SdsConfig,
    _created,
    _csv_line,
    _load_probs,
    _manifest_members,
    _parse_record,
    _prob_header,
    _records,
    _write_prob_file,
    _write_table,
    load_ground_truth,
    load_posterior,
    load_predictions,
    save_confusion_tensor,
)
from .metrics import (ECE_BINS, auroc, evaluate_posterior, ood_score, reliability_bins,
                      true_confusion)
from .sds import (
    NumericError,
    _fit,
    explain,
    load_model,
    online_infer,
    save_model,
)
from .synth import GenerativeSpec, _sample_files, _save_sample

__all__ = ["main", "build_parser"]


def _log(msg):
    # Python sets sys.stderr to None when fd 2 is closed at startup
    if sys.stderr is not None:
        print(msg, file=sys.stderr)


def _resolve_threads(value):
    if value is not None:
        threads = value
    elif os.environ.get("SOFTDS_THREADS"):
        try:
            threads = int(os.environ["SOFTDS_THREADS"])
        except ValueError:
            raise FormatError("SOFTDS_THREADS must be an integer") from None
    elif hasattr(os, "sched_getaffinity"):
        # every CPU this process may run on
        threads = len(os.sched_getaffinity(0))
    else:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise FormatError("thread count must be >= 1")
    return threads


# the options that name a file a command reads, and those that name one
# it writes
_INPUTS = ("config", "model", "posterior", "truth", "ood_in", "ood_out", "input", "spec")
_OUTPUTS = ("out", "ece_bins_out", "confusion_out")
# the (command, option) pairs whose "-" is a standard stream; every other
# "-" is a file of that name
_STREAMS = {("online", "input"): "stdin", ("online", "out"): "stdout",
            ("evaluate", "out"): "stdout", ("explain", "out"): "stdout"}


def _sds_outputs(out):
    """The model and trace paths that ``aggregate --method sds`` writes
    beside the posterior ``out``."""
    stem = os.path.splitext(out)[0]
    return stem + ".model.json", stem + ".trace.csv"


def _stream(args, name):
    """The standard stream that the option ``name`` of ``args`` names
    when it is ``-`` and ``_STREAMS`` lists it, else None.  A closed
    stream, which Python sets to None when its file descriptor is closed
    at startup, raises an ``OSError``."""
    where = _STREAMS.get((args.command, name))
    if where is None or getattr(args, name) != "-":
        return None
    stream = getattr(sys, where)
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), where)
    return stream


def _stat(source):
    """``os.stat`` of a path, or ``os.fstat`` of an open stream; None
    when there is no such file or the stream has no file descriptor."""
    try:
        return os.fstat(source.fileno()) if hasattr(source, "fileno") else os.stat(source)
    except (OSError, ValueError):  # io.UnsupportedOperation is both
        return None


def _check_outputs(args):
    """Refuse every output file of the command ``args`` before any input
    is read: ``-`` where it cannot mean stdout, two outputs that are one
    file, and one that is an input file, which opening it for writing
    would truncate (exit 1); and one that is a directory or whose
    directory does not exist, or stdin or stdout when the command would
    use it and it is closed (exit 2).  ``-`` is stdin only for ``online
    --input`` and stdout only for the ``--out`` of ``online``,
    ``evaluate`` and ``explain`` (``_STREAMS``); any other input ``-`` is
    a file named ``-``.  ``simulate``'s outputs are the files it writes in
    an existing ``--out-dir``.  An input that cannot be read is left for
    its load to report."""
    inputs = [_stream(args, name) or getattr(args, name, None) for name in _INPUTS]
    manifest = getattr(args, "manifest", None)
    if manifest:
        inputs.append(manifest)
        with contextlib.suppress(ValueError, OSError):
            inputs += _manifest_members(manifest)[2]
    stats = [st for st in map(_stat, filter(None, inputs)) if st is not None]
    outputs = [("--" + name.replace("_", "-"), getattr(args, name, None))
               for name in _OUTPUTS if not _stream(args, name)]
    if getattr(args, "method", None) == "sds":
        outputs += zip(("model output", "trace output"), _sds_outputs(args.out))
    if args.command == "simulate" and os.path.isdir(args.out_dir):
        # the spec's member count names the member files
        with contextlib.suppress(ValueError, OSError):
            names = _sample_files(GenerativeSpec.from_json(args.spec).n_members, args.bayes)
            outputs += [("--out-dir", os.path.join(args.out_dir, name)) for name in names]
    named = {}
    for label, path in outputs:
        if path is None:
            continue
        if path == "-":
            raise FormatError(f"{label} must name a file, not - (stdout)")
        directory = os.path.dirname(path) or os.curdir
        if not os.path.isdir(directory):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), directory)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        real = os.path.realpath(path)
        if real in named:
            raise FormatError(f"{named[real]} and {label} {path} name the same file")
        named[real] = f"{label} {path}"
        out = _stat(path)
        if out is not None and any(os.path.samestat(out, st) for st in stats):
            raise FormatError(f"{label} {path} is the input file")


def _write_report(report, args):
    """A JSON report, ``json.dumps(report, indent=2)`` and one newline, to
    the ``--out`` of ``args``: a file, or stdout for ``-``."""
    text = json.dumps(report, indent=2) + "\n"
    stdout = _stream(args, "out")
    with contextlib.nullcontext(stdout) if stdout else _created(args.out) as fh:
        fh.write(text)


def _cmd_aggregate(args):
    threads = _resolve_threads(args.threads)
    config = SdsConfig.from_json(args.config) if args.config else SdsConfig()
    start = time.perf_counter()
    probs, item_ids = _load_probs(args.manifest, threads)
    loaded = time.perf_counter()
    _log(f"loaded {probs.shape[0]} items x {probs.shape[1]} members x "
         f"{probs.shape[2]} classes in {loaded - start:.3f} s")

    if args.method == "sds":
        # the fit writes log c over the array, which it alone holds
        model, post, trace = _fit(probs, item_ids, config, threads)
    else:
        preds = PredictionSet._take(probs, item_ids)
        if args.method == "ea":
            post = ensemble_average(preds)
        elif args.method == "mv":
            post = majority_vote(preds)
        else:  # ds
            post = ds_em(preds, config.em_iterations)[2]
    del probs
    fitted = time.perf_counter()

    if args.method == "sds":
        model_path, trace_path = _sds_outputs(args.out)
        save_model(model, model_path)
        trace.save_csv(trace_path)
        _log(f"model -> {model_path}; trace -> {trace_path} "
             f"({len(trace)} iterations, final q={trace.q[-1]:.6g})")
    _write_prob_file(args.out, post.item_ids, post.rows, threads)
    _log(f"posterior -> {args.out} (fit {fitted - loaded:.3f} s, "
         f"write {time.perf_counter() - fitted:.3f} s)")
    return 0


def _check_ids(source, source_path, truth, truth_path):
    """Refuse a posterior or prediction set whose item ids are not the
    ground truth's, in order."""
    if list(source.item_ids) != list(truth.item_ids):
        raise FormatError(f"item ids of {source_path} and {truth_path} do not match")


def _cmd_evaluate(args):
    # every option is checked against the others before any input is read
    for refused, message in (
            (bool(args.posterior) != bool(args.truth),
             "--posterior and --truth must be given together"),
            (bool(args.ood_in) != bool(args.ood_out),
             "--ood-in and --ood-out must be given together"),
            (not (args.posterior or args.ood_in),
             "nothing to evaluate: pass --posterior/--truth and/or --ood-in/--ood-out"),
            (args.ece_bins_out and not args.posterior,
             "--ece-bins-out needs --posterior and --truth"),
            (args.confusion_out and not args.posterior,
             "--confusion-out needs --posterior and --truth"),
            (args.manifest and not args.confusion_out, "--manifest needs --confusion-out")):
        if refused:
            raise FormatError(message)

    report = {}
    if args.posterior:
        post = load_posterior(args.posterior)
        truth = load_ground_truth(args.truth)
        _check_ids(post, args.posterior, truth, args.truth)
        report.update(evaluate_posterior(post, truth, n_bins=args.bins).to_dict())
        if args.ece_bins_out:
            conf, acc, count = reliability_bins(post, truth, args.bins)
            # an object array keeps each count a Python int
            columns = [conf.tolist(), acc.tolist(), count.astype(np.int64).tolist()]
            _write_table(args.ece_bins_out, ["bin", "conf", "acc", "count"],
                         range(args.bins), np.array(columns, dtype=object).T)
        if args.confusion_out:
            source = post
            if args.manifest:
                source = load_predictions(args.manifest)
                _check_ids(source, args.manifest, truth, args.truth)
            save_confusion_tensor(true_confusion(source, truth), args.confusion_out)

    if args.ood_in:
        post_in = load_posterior(args.ood_in)
        post_out = load_posterior(args.ood_out)
        scores_in = [ood_score(row, args.ood_score) for row in post_in.rows]
        scores_out = [ood_score(row, args.ood_score) for row in post_out.rows]
        report["auroc"] = auroc(scores_in, scores_out)
        report["ood_score"] = args.ood_score
    _write_report(report, args)
    return 0


def _cmd_simulate(args):
    spec = GenerativeSpec.from_json(args.spec)
    manifest_path = _save_sample(spec, args.out_dir, _resolve_threads(None), bayes=args.bayes)
    _log(f"wrote {spec.n_items} items to {args.out_dir} "
         f"(manifest: {manifest_path})")
    return 0


def _cmd_online(args):
    model = load_model(args.model)
    k, j = model.n_members, model.n_classes
    expected = ["item_id"] + [f"m{m}_p{c}" for m in range(k) for c in range(j)]
    # a stream row parses as a member-CSV line of K * J probabilities does
    row_dtype = np.dtype([("id", object), ("p", np.float64, (k, j))])
    bad_header = False
    written = skipped = 0
    start = time.perf_counter()
    # closes the input also when the output cannot be opened; a byte that
    # is not UTF-8 is escaped, and its record rejected by _records
    with contextlib.ExitStack() as files:
        stdin = _stream(args, "input")
        fin = files.enter_context(open(stdin.fileno() if stdin else args.input,
                                       newline="", encoding="utf-8", errors="surrogateescape",
                                       closefd=not stdin))
        fout = _stream(args, "out") or files.enter_context(
            open(args.out, "w", newline="", encoding="utf-8"))
        for line_no, row in _records(fin):
            if line_no == 1:
                if row != expected:
                    _log(f"line 1: bad header, expected "
                         f"item_id,m0_p0,...,m{k - 1}_p{j - 1}")
                    bad_header = True
                fout.write(_csv_line("item_id", _prob_header(j)[1:]))
                fout.flush()
                continue
            try:
                posterior = online_infer(
                    _parse_record(row, 1 + k * j, row_dtype,
                                  "non-numeric probability")["p"][0], model)
            except ValueError as exc:
                _log(f"line {line_no}: skipped ({exc})")
                skipped += 1
                continue
            fout.write(_csv_line(row[0], map(repr, posterior.tolist())))
            fout.flush()
            written += 1
    seconds = time.perf_counter() - start
    _log(f"online: {written} rows written, {skipped} skipped in {seconds:.3f} s "
         f"({written / seconds if seconds > 0 else 0.0:.0f} rows/s)")
    return 1 if bad_header or skipped else 0


def _cmd_explain(args):
    model = load_model(args.model)
    preds = load_predictions(args.manifest)
    try:
        index = preds.item_ids.index(args.item)
    except ValueError:
        raise FormatError(f"unknown item id {args.item!r}") from None
    _write_report(explain(preds, model, index).to_dict(), args)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="softds",
        description="Aggregate soft classifier predictions into calibrated "
                    "per-item posteriors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    agg = sub.add_parser("aggregate", help="aggregate a prediction manifest")
    agg.add_argument("--manifest", required=True, help="prediction manifest JSON")
    agg.add_argument("--method", choices=["sds", "ea", "mv", "ds"], default="sds")
    agg.add_argument("--config", help="SdsConfig JSON (defaults apply otherwise)")
    agg.add_argument("--out", required=True,
                     help="posterior CSV to write; sds also writes the model "
                          "and the fit trace beside it, as <stem>.model.json "
                          "and <stem>.trace.csv")
    agg.add_argument("--threads", type=int, default=None,
                     help="worker cap (default: SOFTDS_THREADS, else every CPU "
                          "this process may run on)")
    agg.set_defaults(func=_cmd_aggregate)

    ev = sub.add_parser("evaluate", help="score a posterior against ground truth")
    ev.add_argument("--posterior", help="posterior CSV")
    ev.add_argument("--truth", help="ground-truth CSV")
    ev.add_argument("--bins", type=int, default=ECE_BINS, help="ECE bin count")
    ev.add_argument("--ece-bins-out", help="per-bin (conf, acc, count) CSV")
    ev.add_argument("--confusion-out", help="ground-truth confusion JSON")
    ev.add_argument("--manifest", help="manifest for per-member confusion")
    ev.add_argument("--ood-in", help="posterior CSV of in-distribution items")
    ev.add_argument("--ood-out", help="posterior CSV of out-of-distribution items")
    ev.add_argument("--ood-score", choices=["max_prob", "entropy"],
                    default="max_prob")
    ev.add_argument("--out", default="-", help="report JSON path, or - for stdout (default)")
    ev.set_defaults(func=_cmd_evaluate)

    sim = sub.add_parser("simulate", help="write a synthetic dataset")
    sim.add_argument("--spec", required=True, help="generative spec JSON")
    sim.add_argument("--out-dir", required=True)
    sim.add_argument("--bayes", action="store_true",
                     help="also write the exact posterior under the true "
                          "parameters")
    sim.set_defaults(func=_cmd_simulate)

    onl = sub.add_parser("online", help="stream per-item posteriors under a "
                                        "frozen model")
    onl.add_argument("--model", required=True, help="model JSON from aggregate")
    onl.add_argument("--input", default="-",
                     help="CSV stream, header item_id,m0_p0,... (default stdin)")
    onl.add_argument("--out", default="-", help="posterior CSV (default stdout)")
    onl.set_defaults(func=_cmd_online)

    ex = sub.add_parser("explain", help="decompose one item's posterior")
    ex.add_argument("--model", required=True)
    ex.add_argument("--manifest", required=True)
    ex.add_argument("--item", required=True, help="item id to explain")
    ex.add_argument("--out", default="-", help="JSON path, or - for stdout (default)")
    ex.set_defaults(func=_cmd_explain)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except NumericError as exc:
        _log(f"numeric error: {exc}")
        return 3
    except (ValueError, KeyError, IndexError) as exc:
        _log(f"error: {exc}")
        return 1
    except OSError as exc:
        _log(f"i/o error: {exc}")
        return 2
    except BrokenExecutor as exc:
        _log(f"worker error: {exc}")
        return 2
    except MemoryError as exc:
        _log(f"memory error: {str(exc) or 'out of memory'}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
