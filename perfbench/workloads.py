"""Benchmark workloads: inputs made from a seed, the timed calls of one round
and the checks on their outputs.

Each workload is a closed loop in one process: a call starts when the one
before it returns, with at most ``nproc`` threads.  The library is called
through module attributes looked up at call time, so the tracer's wrappers
see every call.  Why each workload exists:

- resample-heavy: 2 MB blocks stay in cache and the weight draw plus
  ``evaluate_rows`` do nearly all the work, so kernel changes show here and
  sorting or tie merging do not.
- large-n: 10^5 observations make each block temporary about 205 MB, so
  peak memory, bounded-memory blocking and the thread pool show here.
- cli-atoms: parsing a 10^6-line file, sorting and merging its ties (about
  480 distinct values, 850 cells) dominate; the weights take the gamma
  path.  A kernel gain should move nothing here.
- coverage: thousands of small calls, where per-call overhead and the
  reference methods dominate; it also checks the paper's coverage claim.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

# family label of each functional kind in metric names
FAMILY = {"mean": "mean", "quantile": "quantile", "trunc_mean": "truncmean", "cvar": "cvar"}

# coverage trials per method and round; at bis's 0.988 hit rate on table4
# (1000 trials), fewer than 0.95 of 200 trials hit with probability about 2e-5
COVERAGE_TRIALS = 200
COVERAGE_METHODS = ("bis", "bootstrap", "bayesian_bootstrap")


@dataclass
class Op:
    """One timed call into the library and the check on what it returns."""

    label: str                  # functional family or coverage method
    call: Callable[[], object]
    check: Callable[[object], tuple[tuple, list[str]]]  # -> (output values, failures)
    intervals: int              # credible intervals one call produces


@dataclass
class Workload:
    ops: list[Op]
    label_metric: str           # per-label end-to-end metric: "interval_ms.p50" or "trials_per_s"
    inputs: dict                # shape of the inputs, recorded with every result
    notes: dict = field(default_factory=dict)  # how the harness adapted to the library's API


def _optional_kwargs(fn, **wanted) -> dict:
    """The keyword arguments of ``wanted`` that ``fn`` accepts."""
    params = inspect.signature(fn).parameters
    return {k: v for k, v in wanted.items() if k in params}


def _inputs(lib, x_sorted, n_resample, **extra) -> dict:
    points = np.concatenate(([0.0], x_sorted, [math.inf]))
    # tie merging keeps each value at most twice
    _, counts = np.unique(points, return_counts=True)
    cells = int(np.minimum(counts, 2).sum()) - 1
    # rows per weight block; a private constant, read only to record the block size
    block_rows = getattr(lib.bis, "_BLOCK", None)
    return {
        "n": int(x_sorted.size),
        "distinct_values": int(np.unique(x_sorted).size),
        "cells": cells,
        "n_resample": n_resample,
        # one block of weights, computed from shapes, not measured
        "block_bytes_computed": None if block_rows is None else min(block_rows, n_resample) * cells * 8,
        **extra,
    }


def _interval_check(kind, p, x_sorted, credibility, n_resample, endpoints):
    """Check on one interval; the exact quantile law is built on first use."""
    cached = []

    def check(output):
        lo, hi = endpoints(output)
        bands = None
        if kind == "quantile":
            if not cached:
                points = np.concatenate(([0.0], x_sorted, [math.inf]))
                cached.append(checks.quantile_bands(points, p, credibility, n_resample))
            bands = cached[0]
        return (lo, hi), checks.interval_failures(lo, hi, kind, p, x_sorted, bands)

    return check


def _bis_workload(lib, data, functionals, credibility, n_resample, seed, workers):
    interval = lib.BoundingInterval(0.0, math.inf)
    x_sorted = np.sort(data)
    extra = _optional_kwargs(lib.bis_run, workers=workers)
    ops = []
    for text in functionals:
        f = lib.Functional.parse(text)
        cfg = lib.BisConfig(functional=f, credibility=credibility, n_resample=n_resample, seed=seed)

        def call(cfg=cfg):
            qs = lib.bis_run(data, interval, cfg, **extra)
            return lib.interval_estimate(qs, credibility)

        check = _interval_check(f.kind, f.p, x_sorted, credibility, n_resample,
                                lambda est: (est.lo, est.hi))
        ops.append(Op(FAMILY[f.kind], call, check, 1))
    notes = {"bis_run_workers": extra.get("workers", "not accepted")}
    return Workload(ops, "interval_ms.p50",
                    _inputs(lib, x_sorted, n_resample, credibility=credibility), notes)


def _cli_workload(lib, rng, seed, workdir):
    tenths = np.rint(np.exp(rng.normal(0.0, 1.0, 10**6)) * 10.0)
    values = tenths / 10.0
    path = os.path.join(workdir, "atoms.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(repr, values.tolist())) + "\n")
    x_sorted = np.sort(values)
    credibility = 0.9
    n_resample = 1000  # the CLI default at c=0.9: 100/(1-c)
    ops = []
    for text in ("median", "trunc-mean:0.9", "mean"):
        f = lib.Functional.parse(text)
        argv = ["infer", path, "--param", text, "--bounds", "0", "inf", "--seed", str(seed)]

        def call(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = lib.cli.main(argv)
            return code, out.getvalue()

        def endpoints(output):
            code, text_out = output
            if code != 0:
                raise RuntimeError(f"bis infer exited with code {code}")
            result = json.loads(text_out)
            if result["n_resample"] != n_resample:
                raise RuntimeError(f"bis infer drew {result['n_resample']} resamples, not {n_resample}")
            # infinities arrive as the strings "inf" / "-inf"
            return float(result["interval"]["lo"]), float(result["interval"]["hi"])

        ops.append(Op(FAMILY[f.kind], call,
                      _interval_check(f.kind, f.p, x_sorted, credibility, n_resample, endpoints), 1))
    return Workload(ops, "interval_ms.p50",
                    _inputs(lib, x_sorted, n_resample, credibility=credibility))


def _coverage_workload(lib, seed):
    cfg = lib.baselines.preset("table4")
    extra = _optional_kwargs(lib.coverage_experiment, workers=1)
    ops = []
    for method in COVERAGE_METHODS:

        def call(method=method):
            return lib.coverage_experiment(
                gen=cfg["gen"], true_q=cfg["true_q"], method=method, f=cfg["functional"],
                n_sample=cfg["n_sample"], credibility=cfg["credibility"],
                n_trials=COVERAGE_TRIALS, n_resample=cfg["n_resample"],
                interval=cfg["interval"], seed=seed, **extra)

        def check(report, method=method):
            failures = []
            if report.n_trials != COVERAGE_TRIALS:
                failures.append(f"{method}: {report.n_trials} trials, asked {COVERAGE_TRIALS}")
            if not report.median_lo <= report.median_hi:
                failures.append(f"{method}: median lo {report.median_lo!r} > hi {report.median_hi!r}")
            if method == "bis" and report.hit_rate < report.credibility:
                failures.append(f"bis hit rate {report.hit_rate} below credibility {report.credibility}")
            return (report.hit_rate, report.median_lo, report.median_hi), failures

        ops.append(Op(method, call, check, COVERAGE_TRIALS))
    interval = cfg["interval"]
    inputs = {
        "preset": "table4",
        "n": cfg["n_sample"],
        "cells_at_most": cfg["n_sample"] + 1,
        "n_resample": cfg["n_resample"],
        "credibility": cfg["credibility"],
        "bounds": [interval.lo, interval.hi],
        "trials_per_method": COVERAGE_TRIALS,
    }
    notes = {"coverage_workers": extra.get("workers", "not accepted")}
    return Workload(ops, "trials_per_s", inputs, notes)


def build(name: str, seed: int, workdir: str, lib, nproc: int) -> Workload:
    """Make the inputs of workload ``name`` from ``seed``."""
    rng = np.random.default_rng(seed)
    if name == "resample-heavy":
        data = np.exp(rng.normal(0.0, 1.0, 1000))
        return _bis_workload(lib, data, ("quantile:0.99", "trunc-mean:0.99", "mean", "cvar:0.9"),
                             0.99, 10_000, seed, workers=1)
    if name == "large-n":
        data = np.exp(rng.normal(0.0, 1.0, 10**5))
        return _bis_workload(lib, data, ("median", "trunc-mean:0.9"), 0.9, 1000, seed,
                             workers=min(2, nproc))
    if name == "cli-atoms":
        return _cli_workload(lib, rng, seed, workdir)
    if name == "coverage":
        return _coverage_workload(lib, seed)
    raise ValueError(f"unknown workload {name!r}")
