"""In-memory timing spans around the public functions of ``softds``.

The program itself carries no instrumentation.  :func:`patched` swaps
each traced function for a wrapper in every module namespace that binds
it (``softds.sds`` binds ``digamma`` at import time, so patching
``softds.mathutils.digamma`` alone would miss the calls made by the
fit).  Each wrapper records one :class:`Span` per call: name, run id,
parent span, thread, start and end.

Spans opened on a worker thread with nothing open on that thread take as
parent the span open on the tracing thread at that moment; this is the
span that handed the work to the pool (``softds.sds`` runs its item
chunks on a ``ThreadPoolExecutor``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass

# (span name, defining module, attribute path) of every traced function.
# Targets a later version of the program no longer has are skipped, and
# their spans read zero.
TARGETS = [
    ("sds.fit", "softds.sds", "fit"),
    ("sds.e_step_raw", "softds.sds", "e_step_raw"),
    ("sds.polyak_update", "softds.sds", "polyak_update"),
    ("sds.m_step_nu", "softds.sds", "m_step_nu"),
    ("sds.m_step_pi", "softds.sds", "m_step_pi"),
    ("sds.q_function", "softds.sds", "q_function"),
    ("sds.online_infer", "softds.sds", "online_infer"),
    ("sds.save_model", "softds.sds", "save_model"),
    ("sds.FitTrace.save_csv", "softds.sds", "FitTrace.save_csv"),
    ("baselines.ds_em", "softds.baselines", "ds_em"),
    ("baselines.ensemble_average", "softds.baselines", "ensemble_average"),
    ("mathutils.sorted_sum", "softds.mathutils", "sorted_sum"),
    ("mathutils.digamma", "softds.mathutils", "digamma"),
    ("mathutils.log_gamma", "softds.mathutils", "log_gamma"),
    ("optim.adamw_step", "softds.optim", "adamw_step"),
    ("data.load_predictions", "softds.data", "load_predictions"),
    ("data.save_posterior", "softds.data", "save_posterior"),
    ("data.save_predictions", "softds.data", "save_predictions"),
    ("synth.sample", "softds.synth", "sample"),
]


@dataclass
class Span:
    name: str
    run: str
    parent: int | None
    thread: int
    start: float
    end: float | None = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``run`` labels the spans opened next."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._home = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home)
                parent = home[-1] if home and tid != self._home else None
            with self._lock:
                index = len(self.spans)
                span = Span(name, self.run, parent, tid, time.perf_counter())
                self.spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def of_run(self, run):
        return [i for i, s in enumerate(self.spans) if s.run == run]

    def ancestors(self, index):
        names = []
        parent = self.spans[index].parent
        while parent is not None:
            names.append(self.spans[parent].name)
            parent = self.spans[parent].parent
        return names

    def self_time(self, index):
        """Duration of a span minus the part of it its child spans cover
        (children on several threads may overlap, so their union is
        taken)."""
        span = self.spans[index]
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.spans if c.parent == index and c.end is not None
        )
        covered, reach = 0.0, span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.duration - covered

    def to_records(self):
        return [{"index": i, "name": s.name, "run": s.run, "parent": s.parent,
                 "thread": s.thread, "start": s.start, "end": s.end}
                for i, s in enumerate(self.spans)]


def _resolve(module_name, path):
    """Return ``(owner, attribute, current value)``, or ``None`` when the
    program has no such name."""
    try:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return None
    original = vars(owner).get(attr)
    return None if original is None else (owner, attr, original)


@contextlib.contextmanager
def patched(tracer, targets=TARGETS):
    """Install the tracing wrappers for the duration of the block: a
    function is replaced in its class, or in every ``softds`` module that
    binds it."""
    importlib.import_module("softds.cli")
    modules = [m for name, m in sys.modules.items()
               if name == "softds" or name.startswith("softds.")]
    saved = []
    try:
        for span_name, module_name, path in targets:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            owners = [owner] if isinstance(owner, type) else \
                [m for m in modules if vars(m).get(attr) is original]
            wrapper = tracer.wrap(span_name, original)
            for each in owners:
                saved.append((each, attr, original))
                setattr(each, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
