"""Command-line interface.

Subcommands: ``aggregate`` (fit/apply an aggregation method to a
prediction manifest), ``evaluate`` (metrics against ground truth and/or
OOD AUROC), ``simulate`` (write a synthetic dataset), ``online`` (stream
per-item posteriors under a frozen model), ``explain`` (decompose one
item's posterior).

Exit codes: 0 success, 1 validation error, 2 I/O error or a worker
process that died, 3 numeric failure.  Diagnostics go to stderr; stdout
and output files carry payload only.
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
from .synth import GenerativeSpec, _save_sample

__all__ = ["main", "build_parser"]


def _log(msg):
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
# it writes; an input "-" is stdin, and the --out "-" of a command that
# writes one text is stdout
_INPUTS = ("config", "model", "posterior", "truth", "ood_in", "ood_out", "input")
_OUTPUTS = ("out", "ece_bins_out", "confusion_out")
_ONE_TEXT = ("evaluate", "explain", "online")


def _sds_outputs(out):
    """The model and trace paths that ``aggregate --method sds`` writes
    beside the posterior ``out``."""
    stem = os.path.splitext(out)[0]
    return stem + ".model.json", stem + ".trace.csv"


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
    would truncate (exit 1); and one whose directory does not exist (exit
    2).  An input that cannot be read is left for its load to report."""
    outputs = [("--" + name.replace("_", "-"), getattr(args, name, None))
               for name in _OUTPUTS]
    if getattr(args, "method", None) == "sds":
        outputs += zip(("model output", "trace output"), _sds_outputs(args.out))
    inputs = [getattr(args, name, None) for name in _INPUTS]
    manifest = getattr(args, "manifest", None)
    if manifest:
        inputs.append(manifest)
        with contextlib.suppress(ValueError, OSError):
            inputs += _manifest_members(manifest)[2]
    stats = [st for st in (_stat(sys.stdin if path == "-" else path)
                           for path in inputs if path) if st is not None]
    named = {}
    for label, path in outputs:
        if path is None:
            continue
        if path == "-":
            if label == "--out" and args.command in _ONE_TEXT:
                continue
            raise FormatError(f"{label} must name a file, not - (stdout)")
        directory = os.path.dirname(path) or os.curdir
        if not os.path.isdir(directory):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), directory)
        real = os.path.realpath(path)
        if real in named:
            raise FormatError(f"{named[real]} and {label} {path} name the same file")
        named[real] = f"{label} {path}"
        out = _stat(path)
        if out is not None and any(os.path.samestat(out, st) for st in stats):
            raise FormatError(f"{label} {path} is the input file")


def _write_report(report, out):
    """A JSON report, ``json.dumps(report, indent=2)`` and one newline, to
    the file ``out``, or to stdout when ``out`` is None or ``-``."""
    text = json.dumps(report, indent=2) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with _created(out) as fh:
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


def _cmd_evaluate(args):
    report = {}
    if args.posterior and args.truth:
        post = load_posterior(args.posterior)
        truth = load_ground_truth(args.truth)
        if list(post.item_ids) != list(truth.item_ids):
            raise FormatError(
                f"item ids of {args.posterior} and {args.truth} do not match"
            )
        report.update(evaluate_posterior(post, truth, n_bins=args.bins).to_dict())
        if args.ece_bins_out:
            conf, acc, count = reliability_bins(post, truth, args.bins)
            # an object array keeps each count a Python int
            columns = [conf.tolist(), acc.tolist(), count.astype(np.int64).tolist()]
            _write_table(args.ece_bins_out, ["bin", "conf", "acc", "count"],
                         range(args.bins), np.array(columns, dtype=object).T)
        if args.confusion_out:
            if args.manifest:
                source = load_predictions(args.manifest)
                if list(source.item_ids) != list(truth.item_ids):
                    raise FormatError(
                        f"item ids of {args.manifest} and {args.truth} "
                        f"do not match"
                    )
            else:
                source = post
            save_confusion_tensor(true_confusion(source, truth), args.confusion_out)
    elif args.posterior or args.truth:
        raise FormatError("--posterior and --truth must be given together")

    if args.ood_in and args.ood_out:
        post_in = load_posterior(args.ood_in)
        post_out = load_posterior(args.ood_out)
        scores_in = [ood_score(row, args.ood_score) for row in post_in.rows]
        scores_out = [ood_score(row, args.ood_score) for row in post_out.rows]
        report["auroc"] = auroc(scores_in, scores_out)
        report["ood_score"] = args.ood_score
    elif args.ood_in or args.ood_out:
        raise FormatError("--ood-in and --ood-out must be given together")

    if not report:
        raise FormatError(
            "nothing to evaluate: pass --posterior/--truth and/or --ood-in/--ood-out"
        )
    _write_report(report, args.out)
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
    # closes the input also when the output cannot be opened
    with contextlib.ExitStack() as files:
        fin = sys.stdin if args.input in (None, "-") else files.enter_context(
            open(args.input, newline="", encoding="utf-8"))
        fout = sys.stdout if args.out in (None, "-") else files.enter_context(
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
    _write_report(explain(preds, model, index).to_dict(), args.out)
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
    ev.add_argument("--out", help="report JSON path, or - for stdout (the default)")
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
    ex.add_argument("--out", help="JSON path, or - for stdout (the default)")
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


if __name__ == "__main__":
    sys.exit(main())
