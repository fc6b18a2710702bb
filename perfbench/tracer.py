"""Spans around calls into the library, recorded from outside it.

Every function defined in a traced module is replaced, in every namespace
of the package that holds it, by a wrapper that records one span per call:
its name (defining module + function), its parent span on the same thread,
the pass it belongs to, a size taken from the arguments where one is
useful, and its start and end times.  Spans stay in memory until the run
ends.  Threads each keep their own parent stack, because
``convergence_sweep`` solves grids in a thread pool; a span opened on a
pool thread has no parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

# Sizes worth keeping per span: the grid size n of the call.  A call whose
# arguments do not fit (say, after a signature change) records size 0.
_SIZES = {
    "concordance._potential_from_masses": lambda a, k: a[0].shape[0],
    "mick_solver.sinkhorn_project": lambda a, k: len(a[0]),
    "mick_solver.inner_fixed_point": lambda a, k: (a[2] if len(a) > 2 else k["cfg"]).n,
    "mick_solver.solve_mick": lambda a, k: (a[0] if a else k["cfg"]).n,
}


class Tracer:
    def __init__(self, package: str, modules):
        self.package = package
        self.modules = list(modules)
        self.spans = []  # (id, parent id or None, name, pass, size, t0, t1)
        self.pass_index = 0
        self.paused = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        size = _SIZES.get(name)
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            try:
                n = size(args, kwargs) if size else 0
            except (IndexError, KeyError, AttributeError, TypeError):
                n = 0
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, self.pass_index, n, t0, t1))

        return wrapper

    def install(self):
        short = {m.__name__: m.__name__.rsplit(".", 1)[-1] for m in self.modules}
        wrapped = {}
        for mod in self.modules:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(f"{short[mod.__name__]}.{attr}", obj)
        namespaces = [
            m for key, m in list(sys.modules.items())
            if key == self.package or key.startswith(self.package + ".")
        ]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[obj])
        # Density validation runs in the dataclass __init__ via the class.
        core = sys.modules[f"{self.package}.copula_core"]
        cls = core.CheckerboardDensity
        self._restore.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = self._wrap(
            "copula_core.CheckerboardDensity.validate", cls.__post_init__
        )

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tpass\tsize\tt0\tt1\n")
            for s in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in s) + "\n")


class SpanStats:
    """Per-name totals over a set of spans, with self and descendant times."""

    def __init__(self, spans):
        self.spans = spans
        by_id = {s[0]: s for s in spans}
        child_time = self._child_time = defaultdict(float)
        for _, parent, _, _, _, t0, t1 in spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        for sid, _, name, _, _, t0, t1 in spans:
            self.calls[name] += 1
            self.total[name] += t1 - t0
            self.self_time[name] += t1 - t0 - child_time[sid]
        self._by_id = by_id

    def ancestor(self, span, name):
        """Nearest enclosing span called ``name`` on the same thread, or None."""
        parent = span[1]
        while parent is not None:
            p = self._by_id.get(parent)
            if p is None:
                return None
            if p[2] == name:
                return p
            parent = p[1]
        return None

    def self_time_under(self, name, keep):
        """Self time of every span inside a ``name`` span for which ``keep``
        holds, summed by function name."""
        out = defaultdict(float)
        child_time = self._child_time
        for s in self.spans:
            top = s if s[2] == name else self.ancestor(s, name)
            if top is not None and keep(top):
                out[s[2]] += s[6] - s[5] - child_time[s[0]]
        return out
