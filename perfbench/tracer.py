"""Spans and counts recorded around calls into the resetqfi layers.

The tracer wraps public functions of the package modules from outside:
each wrapped call records a span (name, start, end, parent span,
operation id, whether it raised).  numpy's eigensolver entry points are
wrapped too, but only counted.  The wrappers are in place only between
`apply()` and `remove()`, so untraced calls run the program unchanged.
Spans stay in memory, in flat arrays, until the run ends; self time is
computed from them afterwards.
"""

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name); steady_state is named by its route.
LAYER_FUNCTIONS = (
    ("dynamics", "closed_form_steady_state", "dynamics.closed_form"),
    ("dynamics", "liouvillian_superoperator", "dynamics.superoperator"),
    ("dynamics", "steady_state", None),
    ("qlinalg", "hermitian_eig", "qlinalg.hermitian_eig"),
    ("qlinalg", "trace_norm", "qlinalg.trace_norm"),
    ("qlinalg", "partial_transpose", "qlinalg.partial_transpose"),
    ("metrology", "c_matrix", "metrology.c_matrix"),
    ("metrology", "optimal_direction", "metrology.optimal_direction"),
    ("metrology", "mean_qfi_max", "metrology.mean_qfi_max"),
    ("entanglement", "concurrence", "entanglement.concurrence"),
    ("entanglement", "negativity", "entanglement.negativity"),
    ("sweep", "evaluate_point", "sweep.evaluate_point"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
    ("sweep", "find_critical_point", "sweep.find_critical_point"),
    ("sweep", "emit", "sweep.emit"),
    ("cli", "main", "cli.main"),
)
LAYER_METHODS = (
    ("dynamics", "ModelParams", "__post_init__", "dynamics.model_params"),
    ("dynamics", "DensityMatrix", "__init__", "dynamics.density_matrix"),
)
EIGENSOLVERS = ("eigh", "eigvalsh", "eigvals")
MODULES = ("dynamics", "qlinalg", "metrology", "entanglement", "sweep", "cli")


class _CountingWriter:
    """Forwards writes to a stream and counts the characters written."""

    def __init__(self, inner):
        self.inner = inner
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return self.inner.write(text)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.failed = array("b")
        self.counts = Counter()
        self.active = False
        self.op_id = -1
        self.root_parent = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else self.root_parent)
        self.op.append(self.op_id)
        self.name.append(nid)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid, failed=False):
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[sid] = 1

    def call(self, nid, fn, args, kwargs):
        sid = self.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(sid, failed=True)
            raise
        self.close(sid)
        return result

    def wrap(self, name, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(nid, fn, args, kwargs)
        return traced

    def wrap_steady_state(self, fn):
        nids = {}

        @functools.wraps(fn)
        def traced(params, method="closed_form"):
            nid = nids.get(method)
            if nid is None:
                nid = nids[method] = self.name_id(f"dynamics.steady_state.{method}")
            return self.call(nid, fn, (params, method), {})
        return traced

    def wrap_emit(self, fn):
        nid = self.name_id("sweep.emit")

        @functools.wraps(fn)
        def traced(payload, fmt="csv", path=None):
            if path is not None:
                result = self.call(nid, fn, (payload, fmt, path), {})
                with open(path, "rb") as handle:
                    self.counts["sweep.emit.bytes"] += len(handle.read())
                return result
            writer = _CountingWriter(sys.stdout)
            sys.stdout = writer
            try:
                return self.call(nid, fn, (payload, fmt, path), {})
            finally:
                sys.stdout = writer.inner
                self.counts["sweep.emit.bytes"] += writer.chars  # the output is ASCII
        return traced

    def wrap_counted(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def prepare(self, package):
        """Build traced versions of the layer functions of a resetqfi package.

        Every module that imported a function by name gets the wrapper
        too, so calls between layers are traced as well.
        """
        import numpy.linalg

        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                               for m in MODULES]
        replaced = {}
        for mod_name, attr, span in LAYER_FUNCTIONS:
            original = getattr(vars(package)[mod_name], attr)
            if attr == "steady_state":
                replaced[id(original)] = self.wrap_steady_state(original)
            elif attr == "emit":
                replaced[id(original)] = self.wrap_emit(original)
            else:
                replaced[id(original)] = self.wrap(span, original)
        for mod in modules:
            for attr, value in vars(mod).items():
                if id(value) in replaced:
                    self._patches.append((mod, attr, value, replaced[id(value)]))
        for mod_name, cls, method, span in LAYER_METHODS:
            klass = getattr(vars(package)[mod_name], cls)
            original = vars(klass)[method]
            self._patches.append((klass, method, original, self.wrap(span, original)))
        for solver in EIGENSOLVERS:
            original = getattr(numpy.linalg, solver)
            self._patches.append((numpy.linalg, solver, original,
                                  self.wrap_counted("numpy.linalg.eigensolves", original)))

    def apply(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.active = True

    def remove(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.active = False

    def ingest(self, dump, parent_sid):
        """Append the spans and counts another process recorded under one span."""
        base = len(self.start)
        for parent, nid, start, end, failed in dump["spans"]:
            self.parent.append(parent_sid if parent < 0 else base + parent)
            self.op.append(self.op_id)
            self.name.append(self.name_id(dump["names"][nid]))
            self.failed.append(failed)
            self.start.append(start)
            self.end.append(end)
        self.counts.update(dump["counts"])

    def dump(self):
        spans = [[self.parent[i], self.name[i], self.start[i], self.end[i], self.failed[i]]
                 for i in range(len(self.start))]
        return {"names": self.names, "spans": spans, "counts": dict(self.counts)}

    def layer_totals(self):
        """Per span name: calls, failed calls, total, child and self time."""
        child = [0.0] * len(self.start)
        for sid in range(len(self.start)):
            parent = self.parent[sid]
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        totals = {}
        for sid in range(len(self.start)):
            row = totals.setdefault(self.names[self.name[sid]],
                                    {"calls": 0, "failed": 0, "total_s": 0.0, "child_s": 0.0})
            row["calls"] += 1
            row["failed"] += self.failed[sid]
            row["total_s"] += self.end[sid] - self.start[sid]
            row["child_s"] += child[sid]
        for row in totals.values():
            row["self_s"] = row["total_s"] - row["child_s"]
        return totals

    def calls_under(self, name, ancestor):
        """Spans named `name` that have a span named `ancestor` above them."""
        nid, aid = self._name_ids.get(name), self._name_ids.get(ancestor)
        count = 0
        for sid in range(len(self.start)):
            if self.name[sid] != nid:
                continue
            parent = self.parent[sid]
            while parent >= 0 and self.name[parent] != aid:
                parent = self.parent[parent]
            count += parent >= 0
        return count

    def write_spans(self, path):
        """One CSV line per span, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as handle:
            handle.write("span,parent,op,name,start_s,end_s,failed\n")
            for sid in range(len(self.start)):
                handle.write(f"{sid},{self.parent[sid]},{self.op[sid]},"
                             f"{self.names[self.name[sid]]},{self.start[sid] - t0:.9f},"
                             f"{self.end[sid] - t0:.9f},{self.failed[sid]}\n")


def format_table(totals):
    lines = [f"{'layer':<36}{'calls':>9}{'failed':>8}{'total_s':>12}{'child_s':>12}"
             f"{'self_s':>12}",
             "(self_s = total_s - child_s: time inside the span not covered by its child spans)"]
    for name in sorted(totals):
        row = totals[name]
        lines.append(f"{name:<36}{row['calls']:>9}{row['failed']:>8}{row['total_s']:>12.6f}"
                     f"{row['child_s']:>12.6f}{row['self_s']:>12.6f}")
    return "\n".join(lines)
