"""Spans around calls into each ineqcert module, for the traced run.

Wrappers are installed in every module that looks the name up: `prove`
binds `eval_series`, `tail_bound` and `theorem_coeff` with `from ...
import`, `series` does the same with `bernoulli`, and `cli` with the prove
entry points, so patching the defining module alone would miss those calls.

Each thread keeps its spans in flat arrays (name, start, end, parent) and
nothing is written until `dump`.  Recursive functions record only their
outermost call.  `_core.imul` is counted, never timed.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from array import array

# name -> [(module, attribute), ...]; the first entry holds the original.
TRACED = {
    "core.enclose": [("_core", "enclose")],
    "core.eval_plain": [("_core", "eval_plain")],
    "core.eval_taylor": [("_core", "eval_taylor")],
    "core.fn_range": [("_core", "fn_range")],
    "core.sincos_pt": [("_core", "_sincos_pt")],
    "core.sinhcosh_pt": [("_core", "_sinhcosh_pt")],
    "prove.verify_inequality": [("prove", "verify_inequality"),
                                ("cli", "verify_inequality")],
    "prove.bisect_positive": [("prove", "_bisect_positive")],
    "prove.grid_refute": [("prove", "_grid_refute")],
    "prove.registration_ok": [("prove", "_registration_ok")],
    "prove.near_zero_certificate": [("prove", "near_zero_certificate"),
                                    ("cli", "near_zero_certificate")],
    "prove.sequence_check": [("prove", "sequence_check"),
                             ("cli", "sequence_check")],
    "prove.identity_check": [("prove", "identity_check"),
                             ("cli", "identity_check")],
    "prove.limit_report": [("prove", "limit_report"), ("cli", "limit_report")],
    "series.eval_series": [("series", "eval_series"), ("prove", "eval_series")],
    "series.tail_bound": [("series", "tail_bound"), ("prove", "tail_bound")],
    "series.theorem_coeff": [("series", "theorem_coeff"),
                             ("prove", "theorem_coeff"),
                             ("cli", "theorem_coeff")],
    "exact.bernoulli": [("exact", "bernoulli"), ("series", "bernoulli"),
                        ("prove", "bernoulli"), ("cli", "bernoulli")],
    "lang.parse_corpus": [("lang", "parse_corpus"), ("cli", "parse_corpus")],
    "interval.get_ctx": [("interval", "get_ctx"), ("prove", "get_ctx"),
                         ("lang", "get_ctx")],
}
RECURSIVE = {"core.eval_plain", "core.eval_taylor", "core.fn_range",
             "series.theorem_coeff"}
POINT_SERIES = {"core.sincos_pt", "core.sinhcosh_pt"}   # also count cache hits
MAX_COUNTS = {"prove.max_depth", "exact.bernoulli.max_index"}
ROOT = "cli.run_command"


class _Thread:
    """One thread's spans and counters."""

    def __init__(self, n_names):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []                      # indices of open spans
        self.depth = [0] * n_names           # open calls per name
        self.counts = {}


class Tracer:
    def __init__(self):
        self.names = [ROOT, *TRACED]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._imul = itertools.count()
        self._installed = []

    def _state(self) -> _Thread:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _Thread(len(self.names))
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def call(self, name, fn, *args, on_exit=None, **kwargs):
        """Run fn inside a span; on_exit(state, args, result) adds counters."""
        nid = self._ids[name]
        st = self._state()
        if st.depth[nid] and name in RECURSIVE:
            return fn(*args, **kwargs)
        idx = len(st.name)
        st.name.append(nid)
        st.parent.append(st.stack[-1] if st.stack else -1)
        st.end.append(0.0)
        st.stack.append(idx)
        st.depth[nid] += 1
        st.start.append(time.perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            st.end[idx] = time.perf_counter()
            st.depth[nid] -= 1
            st.stack.pop()
        if on_exit is not None:
            on_exit(st, args, out)
        return out

    # --- installation -------------------------------------------------------

    def install(self, modules: dict):
        """Patch every binding listed in TRACED; `modules` maps short names
        (`_core`, `prove`, ...) to the imported modules."""
        for name, sites in TRACED.items():
            mod0, attr0 = sites[0]
            orig = getattr(modules[mod0], attr0)
            if name in POINT_SERIES:
                wrapper = self._point_wrapper(name, orig)
            else:
                wrapper = self._wrapper(name, orig, HOOKS.get(name))
            for mod, attr in sites:
                self._installed.append((modules[mod], attr, getattr(modules[mod], attr)))
                setattr(modules[mod], attr, wrapper)
        core = modules["_core"]
        imul, tick = core.imul, self._imul.__next__

        def counted_imul(ctx, a, b):
            tick()
            return imul(ctx, a, b)

        self._installed.append((core, "imul", imul))
        core.imul = counted_imul

    def uninstall(self):
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed.clear()

    def _wrapper(self, name, fn, hook):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(name, fn, *args, on_exit=hook, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _point_wrapper(self, name, fn):
        call = self.call

        def wrapper(ctx, m):
            before = len(ctx.cache)
            out = call(name, fn, ctx, m)
            st = self._state()
            key = "point_cache.miss" if len(ctx.cache) > before else "point_cache.hit"
            st.counts[key] = st.counts.get(key, 0) + 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # --- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, and the merged counters.

        Self time is a span's duration minus the part of it that its child
        spans cover.  Spans link to parents within their own thread; the
        outermost spans of worker threads (`--jobs` above 1) count as
        children of the root span, which the first thread opened.
        """
        n = len(self.names)
        calls, total, self_s = [0] * n, [0.0] * n, [0.0] * n
        counts = {"core.imul.calls": next(self._imul)}
        kids = [{} for _ in self._threads]       # per thread: parent -> spans
        for t, st in enumerate(self._threads):
            for i, p in enumerate(st.parent):
                owner = t
                if p < 0 and t > 0:
                    owner, p = 0, self._root_at(st.start[i])
                if p >= 0:
                    kids[owner].setdefault(p, []).append((st.start[i], st.end[i]))
        for t, st in enumerate(self._threads):
            for i, nid in enumerate(st.name):
                lo, hi = st.start[i], st.end[i]
                calls[nid] += 1
                total[nid] += hi - lo
                self_s[nid] += hi - lo - _covered(lo, hi, kids[t].get(i, []))
            for key, v in st.counts.items():
                merge = max if key in MAX_COUNTS else int.__add__
                counts[key] = merge(counts.get(key, 0), v)
        spans = {name: {"calls": calls[i], "s": total[i], "self_s": self_s[i]}
                 for i, name in enumerate(self.names)}
        return {"spans": spans, "counts": counts}

    def _root_at(self, when) -> int:
        """Index of the root span of the first thread open at `when`, or -1."""
        st = self._threads[0]
        for i, nid in enumerate(st.name):
            if nid == 0 and st.start[i] <= when <= st.end[i]:
                return i
        return -1

    def dump(self, path):
        """Write every span as [name, start, end, parent] rows, one list per
        thread, after the run."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "threads": [
                [list(r) for r in zip(st.name, st.start, st.end, st.parent)]
                for st in self._threads]}, fh)


def _covered(lo, hi, intervals) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _taylor_order(st, args, out):
    key = f"core.eval_taylor.k{args[3]}.calls"
    st.counts[key] = st.counts.get(key, 0) + 1


def _bisect_stats(st, args, res):
    st.counts["prove.leaves"] = st.counts.get("prove.leaves", 0) + res.leaves
    st.counts["prove.max_depth"] = max(st.counts.get("prove.max_depth", 0),
                                       res.max_depth)


def _bernoulli_index(st, args, out):
    st.counts["exact.bernoulli.max_index"] = max(
        st.counts.get("exact.bernoulli.max_index", 0), args[0])


HOOKS = {"core.eval_taylor": _taylor_order,
         "prove.bisect_positive": _bisect_stats,
         "exact.bernoulli": _bernoulli_index}
