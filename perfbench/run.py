#!/usr/bin/env python3
"""Benchmark of the ``softds`` command line: ``aggregate`` and ``online``
end to end, and each layer of the package traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 10 --trace 0

The benchmark builds nothing; it runs the package from ``src/`` of the
tree it sits in, and exits with code 2 when that is missing.

Every workload is one pipeline, so that every metric exists on every
workload; the sizes decide which layer dominates:

1. **set-up** (``setup_s``): ``softds simulate`` writes a synthetic
   dataset drawn from a diagonally dominant true confusion (diagonal 3.0,
   off-diagonal 0.4, uniform prior), and a second one of 10k
   items at the acceptance shape (K=3, J=10) from another seed, which the
   benchmark turns into the CSV stream of ``softds online``; the frozen
   model of ``online`` is those true parameters.  Every workload streams
   at that one shape, so that the online figures do not depend on the
   workload's aggregate shape.  Repeated, median reported.
2. **rounds**, repeated until ``--seconds`` have passed (a round is never
   cut short, and one always runs): ``softds aggregate --method sds`` as
   a child process (``aggregate_s``, peak RSS from ``os.wait4``), then one
   file-to-file ``softds online`` pass over the stream, whose wall time
   goes to the record.
3. **checks**, untimed: every child exits 0; posterior, model and trace
   reload; posterior rows are finite and sum to 1 within 1e-9; online
   output has one row per input row and each equals, ``repr`` for
   ``repr``, the matching ``e_step_raw`` row under the same model;
   rounds and set-ups reproduce the same bytes (and, in the traced run,
   ``--threads 1`` and the closed loop do too).  Quality metrics of the
   aggregate (accuracy, nll, ece, pi_tv_max) are computed against the
   synthetic truth.

With ``--trace 1`` the run is instead set up once and aggregated
in-process, first plain and then with every public layer function
wrapped in timing spans (see ``tracer.py``), and once more as child
processes at the default and at ``--threads 1``; it prints the per-layer
metrics.  These include the online figures: the rows per second of a
file-to-file ``softds online`` pass, and the per-row latency of a
closed-loop, single-client ``softds online`` session over pipes, which
sends a row and waits for its posterior row before sending the next (the
medians over its 1000-row slices of each slice's p50 and p99).  They are
not end-to-end metrics, which must stay within a bound of at most 0.25:
on a shared 2-vCPU VM, whose speed flips between two levels about 1.6x
apart every few seconds, their IQR over median across ten runs reached
0.22-0.27 for the throughput and 0.25-0.37 for the latencies, while
``aggregate_s`` stayed within 0.09-0.14.

The last line of standard output is the result object; the line before
it is a record of the environment and of the output digests.  Spans and
the record are also written to ``.bench_results/``; scratch files live in
``.bench_work/`` and are removed at exit.  Exit code 1 means a check
failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

# A child that runs longer than this is killed and counted as failed;
# it keeps every run inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150.0
# Longest wait for one posterior row in the closed loop.
ROW_TIMEOUT_S = 10.0
# The closed-loop online session of the traced run sends rows for this
# long, in slices of this many rows, so that a slice's p99 has ten samples
# beyond it.
LOOP_S = 2.0
SLICE_ROWS = 1000

TRUE_DIAGONAL = 3.0
TRUE_OFF_DIAGONAL = 0.4
# Length and shape of the online stream, and the offset between a run's
# dataset seed and the seed of its stream.
ONLINE_ROWS, ONLINE_MEMBERS, ONLINE_CLASSES = 10_000, 3, 10
STREAM_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Workload:
    """``n_items`` x ``n_members`` x ``n_classes`` is the aggregated
    dataset."""

    name: str
    n_items: int
    n_members: int
    n_classes: int
    em_iterations: int | None  # None: the default config
    setup_repeats: int
    beats_ensemble_average: bool = False


# Why each workload exists is recorded in BENCHMARK.json.  Set-up repeats
# are fewer where a set-up is slow, to keep a run near 30 s.
WORKLOADS = {w.name: w for w in [
    Workload("acceptance", 10_000, 3, 10, None, 2, beats_ensemble_average=True),
    Workload("wide", 2_000, 5, 100, 10, 2),
    Workload("tall", 50_000, 3, 10, 10, 1),
]}

END_TO_END_UNITS = {
    "setup_s": "s",
    "aggregate_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "frac",
    "nll": "nats",
    "ece": "frac",
    "pi_tv_max": "frac",
}

# Functions whose calls per EM iteration are counted.
COUNTED = ["sds.e_step_raw", "sds.q_function", "sds.m_step_pi", "mathutils.sorted_sum",
           "mathutils.digamma", "mathutils.log_gamma", "optim.adamw_step"]
# Functions whose total time in the traced aggregate is reported.
TIMED = ["data.load_predictions", "data.save_posterior", "baselines.ds_em",
         "baselines.ensemble_average", "sds.fit", "sds.e_step_raw", "sds.m_step_pi",
         "sds.q_function", "sds.polyak_update", "sds.save_model", "sds.FitTrace.save_csv",
         "mathutils.sorted_sum", "mathutils.digamma", "mathutils.log_gamma",
         "optim.adamw_step"]

PER_LAYER_UNITS = {
    "cli.online.rows_per_s": "rows/s",
    "cli.online.row_overhead_us": "us",
    "cli.online.row_p50_us": "us",
    "cli.online.row_p99_us": "us",
    "cli.threads1_over_default": "ratio",
    "data.save_predictions.s": "s",
    "synth.sample.s": "s",
    "sds.fit.self_s": "s",
    "sds.fit.iter_ms": "ms",
    "sds.online_infer.us": "us",
    "sds.e_step_raw.madds_per_iter_computed": "count",
    "sds.e_step_raw.scratch_mb_per_iter_computed": "MB",
    "trace.overhead_frac": "ratio",
    **{f"{name}.s": "s" for name in TIMED},
    **{f"{name}.calls_per_iter": "count" for name in COUNTED},
}


class Ledger:
    """Operations attempted and failed: child commands, online rows and
    output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}" if detail else what)
            print(f"check failed: {self.failures[-1]}", file=sys.stderr)

    def rows(self, sent, answered, what):
        self.attempted += sent
        if answered < sent:
            self.failed += sent - answered
            self.failures.append(f"{what}: {sent - answered} of {sent} rows missing")
            print(f"check failed: {self.failures[-1]}", file=sys.stderr)


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float  # user + system
    peak_rss_mb: float


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _softds(*args):
    return [sys.executable, "-m", "softds.cli", *map(str, args)]


def run_child(args, log_path) -> Child:
    """Run ``python -m softds.cli ARGS``; wall time is taken around the
    child and its peak RSS comes from ``os.wait4``."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(_softds(*args), env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


class _LineReader:
    """Line reads from a pipe with a timeout, so that a row the child
    never answers cannot hang the benchmark."""

    def __init__(self, fd):
        self.fd = fd
        self.buf = b""

    def readline(self, timeout):
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return line + b"\n"


class ClosedLoop:
    """One client with one row in flight against a ``softds online``
    child: send a row, wait for its posterior row, send the next.  Rows
    are taken from the top of the stream, wrapping around.  The first
    row also waits for the interpreter to start and is not timed.

    Client and server share one CPU while rows are in flight, so a row's
    latency is the server's work plus one hand-off.  Across CPUs each
    row also waits for an idle virtual CPU to wake, which on a 2-vCPU VM
    made p99 vary fivefold from run to run."""

    def __init__(self, model_path, stream_path, log_path):
        header, *self.rows = Path(stream_path).read_bytes().splitlines(keepends=True)
        self.allowed = os.sched_getaffinity(0)
        self.cpu = {min(self.allowed)}
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(_softds("online", "--model", model_path),
                                         env=_child_env(), stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=log, bufsize=0)
        os.sched_setaffinity(self.proc.pid, self.cpu)
        self.reader = _LineReader(self.proc.stdout.fileno())
        self.slices: list[list[float]] = []  # latencies in microseconds
        self.answers: list[bytes] = []
        self.sent = 1
        try:
            self.proc.stdin.write(header + self.rows[0])
        except BrokenPipeError:
            return
        if self.reader.readline(CHILD_TIMEOUT_S) is not None:  # output header
            first = self.reader.readline(CHILD_TIMEOUT_S)
            self.answers += [first] if first is not None else []

    def run(self, seconds):
        """Send rows for ``seconds``, in slices of ``SLICE_ROWS`` rows; the
        last slice is completed."""
        os.sched_setaffinity(0, self.cpu)
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                latencies = []
                self.slices.append(latencies)
                while len(latencies) < SLICE_ROWS:
                    if len(self.answers) < self.sent:
                        return  # a row went unanswered
                    start = time.perf_counter_ns()
                    self.proc.stdin.write(self.rows[self.sent % len(self.rows)])
                    self.sent += 1
                    answer = self.reader.readline(ROW_TIMEOUT_S)
                    elapsed = time.perf_counter_ns() - start
                    if answer is None:
                        return
                    latencies.append(elapsed / 1e3)
                    self.answers.append(answer)
        except BrokenPipeError:
            pass
        finally:
            os.sched_setaffinity(0, self.allowed)

    def percentile(self, q):
        """Median over slices of each slice's ``q``-th percentile."""
        import numpy as np

        return statistics.median(float(np.percentile(lat, q)) for lat in self.slices if lat)

    def close(self):
        """End the session and return the child's exit code."""
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        timer = threading.Timer(ROW_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            while self.reader.readline(ROW_TIMEOUT_S) is not None:
                pass
            self.proc.wait()
        finally:
            timer.cancel()
            self.proc.stdout.close()
        return self.proc.returncode

    def check(self, file_rows, ledger):
        ledger.rows(self.sent, len(self.answers), "closed loop")
        ledger.check("closed-loop rows equal file-pass rows",
                     self.answers == [file_rows[i % len(file_rows)]
                                      for i in range(len(self.answers))])


# ---------------------------------------------------------------------------
# inputs


def _true_model(n_members, n_classes):
    import numpy as np

    from softds.data import ClassPrior, ConfusionTensor
    from softds.sds import SdsModel

    eye = np.eye(n_classes, dtype=bool)
    pi = np.where(eye, TRUE_DIAGONAL, TRUE_OFF_DIAGONAL)[None].repeat(n_members, axis=0)
    return SdsModel(ConfusionTensor(pi), ClassPrior(np.full(n_classes, 1.0 / n_classes)))


def _write_spec(n_items, n_members, n_classes, seed, path):
    from softds.synth import GenerativeSpec

    model = _true_model(n_members, n_classes)
    GenerativeSpec(n_items, n_members, n_classes, model.nu, model.pi, seed).to_json(path)


def _write_stream(data_dir, out_path):
    """Join the member CSVs of a dataset into the row format ``softds
    online`` reads, copying every number's text unchanged."""
    manifest = json.loads((data_dir / "manifest.json").read_text())
    handles = [open(data_dir / name, newline="", encoding="utf-8")
               for name in manifest["members"]]
    try:
        readers = [csv.reader(h) for h in handles]
        j = len(next(readers[0])) - 1
        for r in readers[1:]:
            next(r)
        with open(out_path, "w", newline="", encoding="utf-8") as out:
            writer = csv.writer(out)
            writer.writerow(["item_id"] + [f"m{k}_p{c}" for k in range(len(readers))
                                           for c in range(j)])
            for parts in zip(*readers):
                if any(p[0] != parts[0][0] for p in parts):
                    raise ValueError(f"{data_dir}: member files disagree on item order")
                writer.writerow([parts[0][0]] + [v for p in parts for v in p[1:]])
    finally:
        for h in handles:
            h.close()


def setup(w, seed, d, simulate):
    """Generate every input of a run into ``d``; ``simulate(argv)``
    runs ``softds simulate``."""
    from softds.sds import save_model

    d.mkdir(parents=True)
    _write_spec(w.n_items, w.n_members, w.n_classes, seed, d / "spec.json")
    simulate(["simulate", "--spec", d / "spec.json", "--out-dir", d / "data"])
    _write_spec(ONLINE_ROWS, ONLINE_MEMBERS, ONLINE_CLASSES, seed + STREAM_SEED_OFFSET,
                d / "stream_spec.json")
    simulate(["simulate", "--spec", d / "stream_spec.json", "--out-dir", d / "stream_data"])
    _write_stream(d / "stream_data", d / "stream.csv")
    save_model(_true_model(ONLINE_MEMBERS, ONLINE_CLASSES), d / "online.model.json")
    if w.em_iterations is not None:
        (d / "config.json").write_text(json.dumps({"em_iterations": w.em_iterations}))


def _input_files(d):
    return sorted(p for p in d.rglob("*") if p.is_file())


def _input_bytes(d):
    return {str(p.relative_to(d)): p.stat().st_size for p in _input_files(d)}


def _tree_digest(d):
    h = hashlib.sha256()
    for p in _input_files(d):
        h.update(str(p.relative_to(d)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# outputs


def _aggregate_args(w, d, out_dir):
    args = ["aggregate", "--manifest", d / "data" / "manifest.json", "--method", "sds",
            "--out", out_dir / "post.csv"]
    if w.em_iterations is not None:
        args += ["--config", d / "config.json"]
    return args


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digests(out_dir):
    """Fingerprints of one aggregate's outputs.  The trace's ``millis``
    column is wall time, so only its ``q`` column counts."""
    with open(out_dir / "post.trace.csv", newline="", encoding="utf-8") as fh:
        q_column = "\n".join(row["q"] for row in csv.DictReader(fh))
    return {
        "posterior": _sha256(out_dir / "post.csv"),
        "model": _sha256(out_dir / "post.model.json"),
        "trace_q": hashlib.sha256(q_column.encode()).hexdigest(),
    }


def check_outputs(w, d, out_dir, online_out, ledger):
    """Reload and check one aggregate's outputs and one online pass's;
    return the quality metrics."""
    import numpy as np

    from softds.baselines import ensemble_average
    from softds.data import PredictionSet, load_ground_truth, load_posterior, load_predictions
    from softds.metrics import accuracy, ece, nll
    from softds.sds import FitTrace, e_step_raw, load_model

    post = load_posterior(out_dir / "post.csv")
    model = load_model(out_dir / "post.model.json")
    trace = FitTrace.load_csv(out_dir / "post.trace.csv")
    truth = load_ground_truth(d / "data" / "truth.csv")
    rows = post.rows
    ledger.check("posterior rows finite and sum to 1 within 1e-9",
                 bool(np.all(np.isfinite(rows)))
                 and float(np.max(np.abs(rows.sum(axis=1) - 1.0))) <= 1e-9)
    ledger.check("posterior item ids match the truth", list(post.item_ids) == truth.item_ids)
    ledger.check("model shape", model.pi.pi.shape == (w.n_members, w.n_classes, w.n_classes))
    expected_iters = w.em_iterations if w.em_iterations is not None else 100
    ledger.check("trace length", len(trace) == expected_iters,
                 f"{len(trace)} != {expected_iters}")
    if w.beats_ensemble_average:
        ea = accuracy(ensemble_average(load_predictions(d / "data" / "manifest.json")), truth)
        ledger.check("sds accuracy >= ensemble-average accuracy",
                     accuracy(post, truth) >= ea, f"{accuracy(post, truth)} < {ea}")

    # online == batch: every online row equals its e_step_raw row, repr for repr
    with open(d / "stream.csv", newline="", encoding="utf-8") as fh:
        stream = list(csv.reader(fh))[1:]
    with open(online_out, newline="", encoding="utf-8") as fh:
        online = list(csv.reader(fh))[1:]
    ledger.check("online output has one row per input row", len(online) == len(stream),
                 f"{len(online)} != {len(stream)}")
    raw = np.array([[float(v) for v in row[1:]] for row in stream])
    batch_preds = PredictionSet.from_probs(
        raw.reshape(len(stream), ONLINE_MEMBERS, ONLINE_CLASSES), [row[0] for row in stream])
    batch = e_step_raw(batch_preds, load_model(d / "online.model.json")).rows
    mismatched = sum(
        got != [item] + [repr(float(v)) for v in want]
        for got, item, want in zip(online, batch_preds.item_ids, batch)
    )
    ledger.check("online rows equal their batch e_step_raw rows", mismatched == 0,
                 f"{mismatched} rows differ")

    true_pi = _true_model(w.n_members, w.n_classes).pi.pi
    fitted = model.pi.pi / model.pi.pi.sum(axis=2, keepdims=True)
    target = true_pi / true_pi.sum(axis=2, keepdims=True)
    return {"accuracy": accuracy(post, truth), "nll": nll(post, truth),
            "ece": ece(post, truth),
            "pi_tv_max": float(np.max(0.5 * np.abs(fitted - target).sum(axis=2)))}


# ---------------------------------------------------------------------------
# runs


def untraced_run(w, seed, seconds, d, ledger, record):
    log = d / "children.log"

    def simulate(argv):
        code = run_child(argv, log).code
        ledger.check("simulate exits 0", code == 0, f"exit {code}")

    inputs = d / "in"
    setup_times, trees = [], []
    for _ in range(w.setup_repeats):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        setup(w, seed, inputs, simulate)
        setup_times.append(time.perf_counter() - start)
        trees.append(_tree_digest(inputs))
    ledger.check("set-up repeats write identical inputs", len(set(trees)) == 1)
    record["input_bytes"] = _input_bytes(inputs)

    model, stream = inputs / "online.model.json", inputs / "stream.csv"
    aggregates, passes, digest_sets, online_digests = [], [], [], []
    start = time.perf_counter()
    while not aggregates or time.perf_counter() - start < seconds:
        out_dir = d / f"round{len(aggregates)}"
        out_dir.mkdir()
        agg = run_child(_aggregate_args(w, inputs, out_dir), log)
        ledger.check("aggregate exits 0", agg.code == 0, f"exit {agg.code}")
        aggregates.append(agg)
        digest_sets.append(digests(out_dir))
        online_out = out_dir / "online.csv"
        online = run_child(["online", "--model", model, "--input", stream, "--out", online_out],
                           log)
        ledger.check("online file pass exits 0", online.code == 0, f"exit {online.code}")
        passes.append(online)
        online_digests.append(_sha256(online_out))

    file_rows = online_out.read_bytes().splitlines(keepends=True)[1:]
    ledger.rows(ONLINE_ROWS, len(file_rows), "file pass")
    ledger.check("every aggregate writes identical outputs",
                 all(ds == digest_sets[0] for ds in digest_sets))
    ledger.check("every online pass writes identical output", len(set(online_digests)) == 1)
    quality = check_outputs(w, inputs, out_dir, online_out, ledger)
    record["digests"] = {**digest_sets[0], "online": online_digests[0]}
    record["aggregates"] = [vars(agg) for agg in aggregates]
    record["online_passes"] = [vars(online) for online in passes]
    record["setup_s"] = setup_times
    return {
        "setup_s": statistics.median(setup_times),
        "aggregate_s": statistics.median(agg.wall_s for agg in aggregates),
        "peak_rss_mb": max(c.peak_rss_mb for c in aggregates + passes),
        **quality,
    }


def _in_process(argv, log_path):
    """``softds.cli.main(argv)`` with its diagnostics sent to a log."""
    from softds import cli

    with open(log_path, "a", encoding="utf-8") as log, contextlib.redirect_stderr(log):
        return cli.main([str(a) for a in argv])


def traced_run(w, seed, d, ledger, record, tracer):
    from tracer import patched

    log = d / "children.log"

    def simulate(argv):
        code = _in_process(argv, log)
        ledger.check("simulate exits 0", code == 0, f"exit {code}")

    inputs = d / "in"
    with patched(tracer):
        tracer.run = "setup"
        setup(w, seed, inputs, simulate)
    record["input_bytes"] = _input_bytes(inputs)

    def aggregate_in_process(out_dir):
        out_dir.mkdir()
        start = time.perf_counter()
        code = _in_process(_aggregate_args(w, inputs, out_dir), log)
        wall = time.perf_counter() - start
        ledger.check("in-process aggregate exits 0", code == 0, f"exit {code}")
        return wall

    plain_s = aggregate_in_process(d / "plain")
    traced = d / "traced"
    with patched(tracer):
        tracer.run = "aggregate"
        traced_s = aggregate_in_process(traced)
        tracer.run = "online"
        code = _in_process(["online", "--model", inputs / "online.model.json",
                            "--input", inputs / "stream.csv", "--out", traced / "online.csv"], log)
        ledger.check("in-process online exits 0", code == 0, f"exit {code}")
    tracer.run = ""
    # right after the traced pass, so that both see the machine at one speed
    loop = ClosedLoop(inputs / "online.model.json", inputs / "stream.csv", log)
    loop.run(LOOP_S)
    code = loop.close()
    ledger.check("online closed loop exits 0", code == 0, f"exit {code}")
    loop.check((traced / "online.csv").read_bytes().splitlines(keepends=True)[1:], ledger)

    online = run_child(["online", "--model", inputs / "online.model.json", "--input",
                        inputs / "stream.csv", "--out", d / "online.csv"], log)
    ledger.check("online file pass exits 0", online.code == 0, f"exit {online.code}")
    ledger.check("online file pass equals the traced one",
                 _sha256(d / "online.csv") == _sha256(traced / "online.csv"))

    walls = {"online": online.wall_s}
    for label, extra in [("default", []), ("threads1", ["--threads", "1"])]:
        (d / label).mkdir()
        child = run_child(_aggregate_args(w, inputs, d / label) + extra, log)
        ledger.check(f"{label} aggregate exits 0", child.code == 0, f"exit {child.code}")
        walls[label] = child.wall_s
    posteriors = {label: _sha256(d / label / "post.csv")
                  for label in ["plain", "traced", "default", "threads1"]}
    ledger.check("--threads 1 posterior is byte-identical to the default one",
                 posteriors["threads1"] == posteriors["default"])
    ledger.check("traced and plain posteriors equal the child's",
                 len(set(posteriors.values())) == 1)

    check_outputs(w, inputs, traced, traced / "online.csv", ledger)
    record["digests"] = {**digests(traced), "online": _sha256(traced / "online.csv")}

    return layer_metrics(w, tracer, traced, d / "plain", plain_s, traced_s, walls, loop)


def layer_metrics(w, tracer, traced_dir, plain_dir, plain_s, traced_s, walls, loop):
    spans = tracer.spans
    agg = tracer.of_run("aggregate")

    def total(name, run_spans):
        return sum(spans[i].duration for i in run_spans if spans[i].name == name)

    from softds.sds import FitTrace

    n_iter = len(FitTrace.load_csv(traced_dir / "post.trace.csv"))
    millis = FitTrace.load_csv(plain_dir / "post.trace.csv").millis

    def in_em_loop(index):
        # under the fit, but not in its baselines initialisation
        above = tracer.ancestors(index)
        return "sds.fit" in above and not any(a.startswith("baselines.") for a in above)

    def per_iter(name):
        return sum(spans[i].name == name and in_em_loop(i) for i in agg) / n_iter

    fits = [i for i in agg if spans[i].name == "sds.fit"]
    online_us = [spans[i].duration * 1e6 for i in tracer.of_run("online")
                 if spans[i].name == "sds.online_infer"]
    e_calls = per_iter("sds.e_step_raw")
    terms = w.n_items * w.n_members * w.n_classes ** 2
    setup_spans = tracer.of_run("setup")
    metrics = {
        "cli.online.rows_per_s": ONLINE_ROWS / walls["online"],
        "cli.online.row_overhead_us": loop.percentile(50) - statistics.median(online_us),
        "cli.online.row_p50_us": loop.percentile(50),
        "cli.online.row_p99_us": loop.percentile(99),
        "cli.threads1_over_default": walls["threads1"] / walls["default"],
        "data.save_predictions.s": total("data.save_predictions", setup_spans),
        "synth.sample.s": total("synth.sample", setup_spans),
        "sds.fit.self_s": sum(tracer.self_time(i) for i in fits),
        "sds.fit.iter_ms": float(statistics.median(millis)),
        "sds.online_infer.us": statistics.median(online_us),
        "sds.e_step_raw.madds_per_iter_computed": terms * e_calls,
        "sds.e_step_raw.scratch_mb_per_iter_computed": terms * 8 / 2**20 * e_calls,
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    }
    metrics.update({f"{name}.s": total(name, agg) for name in TIMED})
    metrics.update({f"{name}.calls_per_iter": per_iter(name) for name in COUNTED})
    return metrics


# ---------------------------------------------------------------------------
# environment record


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _commit():
    """The checked-out commit, read from ``.git`` when the tree has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload, seed, trace):
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # the CLI's own default: SOFTDS_THREADS, else every core
        "threads": int(os.environ.get("SOFTDS_THREADS") or os.cpu_count() or 1),
        "commit": _commit(),
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure rounds until this many seconds have passed")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "softds" / "cli.py").is_file():
        print(f"error: no softds package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    d = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    ledger = Ledger()
    record = environment(w.name, args.seed, args.trace)
    tracer = None
    try:
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            metrics = traced_run(w, args.seed, d, ledger, record, tracer)
            units = PER_LAYER_UNITS
        else:
            metrics = untraced_run(w, args.seed, args.seconds, d, ledger, record)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(d, ignore_errors=True)
    record["failures"] = ledger.failures

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in tracer.to_records():
                fh.write(json.dumps(span) + "\n")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
