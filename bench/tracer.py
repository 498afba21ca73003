"""Span tracer that times calls into regracut's public functions from outside.

Every module-level function of the package whose name has no leading
underscore is replaced, in every ``regracut.*`` namespace that binds it, by
a wrapper that records a span.  Cross-module calls resolve through the
caller's module globals, so rebinding the names brought in by
``from .density import ...`` makes calls from ``decomposition``, ``cli``,
``embedding`` and ``editdist`` visible too.  ``src/`` is not modified.

Spans are kept per job as ``(span_id, parent_id, name, start, end, self)``
and folded into per-function totals, overall and per job name, when the job
ends.  A job is wrapped in a root span named ``bench``: its self time is the
job's time spent in benchmark code, so the self times of all spans of a job
add up to the job's traced wall time, which the fold checks.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = (
    "graphs", "partitions", "density", "decomposition",
    "embedding", "typegraphs", "editdist", "cli",
)

# Outcome counters, keyed by span name: (tracer, result) -> None.
def _heuristic(tr, rep):
    tr.counts["density.irregularity_witness_heuristic.irregular"] += rep.verdict == "irregular"


def _regularize(tr, res):
    for stop in ("satisfied", "stalled", "cap_exceeded"):
        tr.counts[f"decomposition.regularize.stop_{stop}"] += bool(getattr(res, stop))


def _canonical_key(tr, key):
    tr.keys.add(key)


def _enumerate_types(tr, family):
    tr.counts["typegraphs.enumerate_types.kept"] += len(family.types)
    tr.counts["typegraphs.enumerate_types.candidates"] += len(tr.keys)


def _find_induced_copy(tr, image):
    tr.counts["editdist.find_induced_copy.hit"] += image is not None


HOOKS = {
    "density.irregularity_witness_heuristic": _heuristic,
    "decomposition.regularize": _regularize,
    "typegraphs.canonical_key": _canonical_key,
    "typegraphs.enumerate_types": _enumerate_types,
    "editdist.find_induced_copy": _find_induced_copy,
}


class TraceError(RuntimeError):
    """The spans of a job do not nest or do not add up to its wall time."""


class Tracer:
    def __init__(self, package):
        self.bindings = []  # (namespace dict, attribute, original, wrapper)
        wrappers = {}
        namespaces = [vars(package)] + [
            vars(importlib.import_module(f"{package.__name__}.{m}")) for m in MODULES
        ]
        for ns in namespaces:
            for attr, value in list(ns.items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith(package.__name__ + "."):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value)
                self.bindings.append((ns, attr, value, wrappers[value]))
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.jobs = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))  # job -> name -> [calls, self_s]
        self.keys = set()
        self._ids = itertools.count(1)
        self._stack = []
        self._spans = []

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1]
            frame = [next(tracer._ids), perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                span = end - frame[1]
                parent[2] += span
                tracer._spans.append((frame[0], parent[0], name, frame[1], end, span - frame[2]))
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every public function to its tracing wrapper."""
        for ns, attr, _, wrapper in self.bindings:
            ns[attr] = wrapper
        try:
            yield self
        finally:
            for ns, attr, original, _ in self.bindings:
                ns[attr] = original

    @contextmanager
    def job(self, name: str):
        """Root span of one job; folds the job's spans into the totals on exit."""
        root = [0, perf_counter(), 0.0]
        self._stack.append(root)
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            spans, self._spans = self._spans, []
            self._fold(name, root[1], end, root[2], spans)

    def _fold(self, job, start, end, covered, spans):
        wall = end - start
        spans.append((0, None, "bench", start, end, wall - covered))
        bounds = {sid: (s, e) for sid, _, _, s, e, _ in spans}
        per_name = defaultdict(lambda: [0, 0.0])
        total = 0.0
        for sid, parent, name, s, e, own in spans:
            if parent is not None:
                ps, pe = bounds[parent]
                if s < ps or e > pe:
                    raise TraceError(f"job {job}: span {name} leaves its parent's interval")
            entry = per_name[name]
            entry[0] += 1
            entry[1] += own
            total += own
        if abs(total - wall) > 1e-9 * max(1.0, len(spans)):
            raise TraceError(f"job {job}: self times add to {total!r}, wall time is {wall!r}")
        for name, (calls, own) in per_name.items():
            self.calls[name] += calls
            self.self_s[name] += own
            entry = self.jobs[job][name]
            entry[0] += calls
            entry[1] += own
        self.counts["typegraphs.canonical_key.unique"] += len(self.keys)
        self.keys.clear()

    def snapshot(self):
        """Copy of the totals, to subtract one phase from the next."""
        return dict(self.calls), dict(self.self_s), dict(self.counts)
