"""Outside-in tracing: wrap module attributes of the cubify package in timers.

Each binding in TIMED and COUNTED is a (layer, module, attribute path) triple.  A
timed binding records one span per call: layer name, start, end, index of
the enclosing span and the id of the matrix being reduced.  A counted
binding only counts calls.  Spans stay in memory until the run writes them
out.  A binding that no longer exists is skipped and its layer reported as
absent, so later refactors that remove a function do not break the run.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from collections import Counter

_MARK = "__perfbench_layer__"

#: timed bindings; a layer may be bound under several names (det is imported
#: into cubifier as well as used inside exact)
TIMED = (
    ("hyperplanar", "cubify.cubifier", "_hyperplanar"),
    ("hyperplanar.normal", "cubify.hyperplanar", "hyperplane_normal"),
    ("hyperplanar.solve", "cubify.hyperplanar", "solve_in_sublattice"),
    ("hyperplanar.sublattice_lagrange", "cubify.hyperplanar", "_lagrange"),
    ("directional.lagrange", "cubify.cubifier", "_lagrange"),
    ("directional.simplify", "cubify.cubifier", "_simplify"),
    ("exact.solve", "cubify.exact", "_solve_exact"),
    ("exact.det", "cubify.exact", "det"),
    ("exact.det", "cubify.cubifier", "det"),
    ("lll.gs_data", "cubify.lll", "_gs_data"),
)

#: call counters without spans, for functions called too often to time
COUNTED = (
    ("hyperplanar.screenings", "cubify.hyperplanar", "_shear_coeffs"),
    ("state.copies", "cubify._state", "BasisState.copy"),
    ("state.replaces", "cubify._state", "BasisState.replace"),
)


def _resolve(module, path):
    """(owner, attribute name, current value) or None when missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def installed_wrappers():
    """Names of TIMED/COUNTED bindings that currently hold a wrapper."""
    found = []
    for layer, module, path in TIMED + COUNTED:
        hit = _resolve(module, path)
        if hit is not None and hasattr(hit[2], _MARK):
            found.append("%s:%s" % (module, path))
    return found


class Tracer:
    """Installs the wrappers, collects spans and counts, restores on exit."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent index, matrix id]
        self.counts = Counter()
        self.missing = []       # "module:path" bindings that do not exist
        self.matrix = None
        self.accepted_counted = False
        self._stack = []
        self._saved = []

    # -- installation --

    def __enter__(self):
        for layer, module, path in TIMED:
            self._install(layer, module, path, self._timed)
        for layer, module, path in COUNTED:
            self._install(layer, module, path, self._counted)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _install(self, layer, module, path, make):
        hit = _resolve(module, path)
        if hit is None:
            self.missing.append("%s:%s" % (module, path))
            return
        owner, attr, original = hit
        wrapper = make(layer, original)
        setattr(wrapper, _MARK, layer)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- wrappers --

    def _timed(self, layer, fn):
        spans, stack = self.spans, self._stack
        # the accepted shears are counted through the pass's own trace list
        accepts_trace = (layer == "hyperplanar"
                         and "trace" in inspect.signature(fn).parameters)
        self.accepted_counted |= accepts_trace
        counts = self.counts

        def wrapper(*args, **kwargs):
            if accepts_trace and kwargs.get("trace") is None:
                kwargs["trace"] = accepted = []
            else:
                accepted = None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = [layer, t0, t1, parent, self.matrix]
                if accepted is not None:
                    counts["hyperplanar.accepted"] += len(accepted)
        return wrapper

    def _counted(self, layer, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    def root(self, name, matrix, fn, *args):
        """Call fn(*args) under a root span; returns (result, seconds)."""
        self.matrix = matrix
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args), time.perf_counter() - t0
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = [name, t0, t1, -1, matrix]

    # -- aggregation --

    def layer_totals(self):
        """{layer: (calls, seconds, self seconds)} over all recorded spans.

        Self time is a span's duration minus its direct children's; spans
        never overlap, because the reduction is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for k, (name, t0, t1, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (t1 - t0), own + (t1 - t0 - child[k]))
        return out

    def write(self, path):
        """Spans as gzipped JSON lines, one [name, start, end, parent, matrix]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
