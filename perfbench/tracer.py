"""Span tracer that wraps library functions from outside the library.

A span is recorded around each call of a wrapped function:
``(id, name, start, end, parent, thread)``.  The parent is the innermost
open span of the same thread, so self times are computed per thread.
Spans stay in memory until the run ends.

A function is wrapped by replacing its attribute on every ``bisampling``
module that holds that same function object, so callers that look the name
up at call time (``rngmod.substream``, module globals bound by
``from .x import f``) pass through the wrapper.  Functions that do not
exist are recorded as absent and skipped.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "bisampling"


def _count_merge(counts, args, kwargs, result):
    params = np.asarray(result[1])
    counts["dirichlet.merge_duplicates.cells"] += int(params.size)
    counts["dirichlet.merge_duplicates.gamma_calls"] += int(not np.all(params == 1.0))


def _count_evaluate(counts, args, kwargs, result):
    rows = args[2] if len(args) > 2 else kwargs["weight_rows"]
    counts["functionals.evaluate_rows.elements"] += int(np.size(rows))


# span name -> counter run on each call; the span name is "<module>.<function>"
SPANS = {
    "cli.main": None,
    "cli.read_observations": None,
    "pbox.make_extended_order_stats": None,
    "dirichlet.merge_duplicates": _count_merge,
    "bis.bis_run": None,
    "functionals.evaluate_rows": _count_evaluate,
    "bis.interval_estimate": None,
    "rng.substream": None,
    "baselines.coverage_experiment": None,
    "baselines.generate": None,
    "baselines.bootstrap_interval": None,
    "baselines.bayesian_bootstrap_interval": None,
}

COUNTS = (
    "dirichlet.merge_duplicates.cells",
    "dirichlet.merge_duplicates.gamma_calls",
    "functionals.evaluate_rows.elements",
)


class Tracer:
    """Installs span wrappers on the library and collects the spans."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = []
        self.counter_errors = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def install(self):
        """Wrap every span function that exists; record the missing ones."""
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, counter in SPANS.items():
            module_name, attr = name.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _wrap(self, name, fn, counter):
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, threading.get_ident()))
            if counter is not None:
                # pool threads update the same counters
                with self._lock:
                    try:
                        counter(self.counts, args, kwargs, result)
                    except (IndexError, KeyError, TypeError, ValueError):
                        # the function's signature or result changed shape
                        self.counter_errors[name] += 1
            return result

        return wrapper

    def summary(self, main_thread: int) -> dict:
        """Per-span self time, calls and the per-thread accounting.

        Self time is a span's duration minus the durations of its children,
        all of which run on the span's own thread.  The self times of the main
        thread's spans add up to the wall time of its root spans; spans on
        other threads (a worker pool) are reported as ``offthread_ms``.
        """
        child_time = defaultdict(float)
        for sid, name, start, end, parent, tid in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_ms = defaultdict(float)
        calls = Counter()
        main_self = offthread = 0.0
        for sid, name, start, end, parent, tid in self.spans:
            own = end - start - child_time[sid]
            self_ms[name] += own * 1e3
            calls[name] += 1
            if tid == main_thread:
                main_self += own
            else:
                offthread += own
        return {
            "self_ms": dict(self_ms),
            "calls": dict(calls),
            "counts": {k: self.counts[k] for k in COUNTS},
            "main_self_ms": main_self * 1e3,
            "offthread_ms": offthread * 1e3,
            "absent": list(self.absent),
            "counter_errors": dict(self.counter_errors),
        }

    def write(self, path: str):
        """Write the recorded spans as JSON lines, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, tid in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "thread": tid}) + "\n")
