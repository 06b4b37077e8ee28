"""Run one workload in a fresh interpreter and print its measurements.

Started by ``run.py``.  Prints the line ``READY`` when set-up (imports and
input generation) ends, then, unless ``--setup-only``, runs timed rounds
for ``--seconds`` and prints one JSON line with the results.

A round calls every operation of the workload once, each after a timed
calibration loop.  Untraced runs time rounds with no wrappers installed.
Traced runs alternate untraced and traced rounds, so the gap between the
two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import traceback
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import bisampling  # noqa: E402
import bisampling.baselines  # noqa: E402,F401
import bisampling.cli  # noqa: E402,F401

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

READY = "READY"
MAX_FAILURES_KEPT = 20

# A fixed pure-Python loop, timed before every operation.  On a shared host
# the speed of a core drifts by a third over minutes.  Interpreter-bound
# calls slow with this loop, so a round's time over the loop time of the
# same round cancels most of the drift (NumPy-bound calls slow less, so
# there it cancels in part).  CAL_REF_MS, the loop's median time on the
# reference host (see README.md), only turns that ratio into ms.
CAL_LOOP = 250_000
CAL_REF_MS = 16.0


def calibrate() -> float:
    """Wall time of the calibration loop in ms."""
    start = perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i
    return (perf_counter() - start) * 1e3


def _read(*parts: str) -> str:
    with open(os.path.join(*parts), encoding="utf-8") as fh:
        return fh.read().strip()


def _cache_sizes() -> dict:
    """Data and unified cache sizes of cpu0 by level, as Linux reports them."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            if _read(base, entry, "type") != "Instruction":
                sizes["L" + _read(base, entry, "level")] = _read(base, entry, "size")
    except OSError:
        pass
    return sizes


def _cpu_model() -> str:
    try:
        for line in _read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def machine() -> dict:
    return {
        "nproc": _nproc(),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_round(wl, failures: list) -> tuple[list, list, list, set]:
    """Call every operation once, each after a calibration loop.

    Returns (label, ms) pairs, calibration times in ms, outputs and failed op indices.
    """
    times, cals, outputs, bad = [], [], [], set()
    for i, op in enumerate(wl.ops):
        cals.append(calibrate())
        start = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed call is counted and the run goes on
            times.append((op.label, (perf_counter() - start) * 1e3))
            outputs.append((op.label, "raised", type(exc).__name__))
            failures.append(f"{op.label}: {traceback.format_exc(limit=3)}")
            bad.add(i)
            continue
        times.append((op.label, (perf_counter() - start) * 1e3))
        try:
            values, problems = op.check(result)
        except Exception as exc:  # an unreadable output fails its check
            values, problems = ("unreadable",), [f"{type(exc).__name__}: {exc}"]
        outputs.append((op.label,) + tuple(v.hex() if isinstance(v, float) else v for v in values))
        if problems:
            failures.extend(f"{op.label}: {msg}" for msg in problems)
            bad.add(i)
    return times, cals, outputs, bad


def measure(wl, seconds: float, traced: bool, tracer) -> dict:
    failures: list = []
    rounds = {False: [], True: []}   # traced? -> list of per-round (label, ms) lists
    cals = {False: [], True: []}     # traced? -> list of per-round calibration times
    reference = None
    attempted = failed = 0
    deadline = perf_counter() + seconds
    plan = [False, True] if traced else [False]
    while True:
        for with_trace in plan:
            if with_trace:
                tracer.install()
            try:
                times, cal_ms, outputs, bad = run_round(wl, failures)
            finally:
                if with_trace:
                    tracer.uninstall()
            if reference is None:
                reference = outputs
            # a seeded round must reproduce the first round's outputs exactly
            for i, (got, want) in enumerate(zip(outputs, reference)):
                if got != want:
                    bad.add(i)
                    failures.append(f"{got[0]}: output {got[1:]} differs from first round {want[1:]}")
            attempted += len(wl.ops)
            failed += len(bad)
            rounds[with_trace].append(times)
            cals[with_trace].append(cal_ms)
        if perf_counter() >= deadline:
            break
    digest = hashlib.sha256(repr(reference).encode()).hexdigest()[:16]
    return {
        "rounds": rounds,
        "cals": cals,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_FAILURES_KEPT],
        "digest": digest,
        "outputs": reference,
    }


def metric(value, unit, n):
    return {"value": value, "unit": unit, "n": n}


def round_totals(rounds) -> list:
    """Wall time of each round in ms."""
    return [sum(ms for _, ms in r) for r in rounds]


def normalised(round_ms, cals) -> list:
    """Each round's time scaled to the reference host's speed by its own calibration."""
    return [ms * CAL_REF_MS / statistics.fmean(cal) for ms, cal in zip(round_ms, cals)]


def end_to_end(wl, rounds, cals) -> dict:
    round_ms = round_totals(rounds)
    cal_ms = [ms for cal in cals for ms in cal]
    out = {
        "round_ms.norm.p50": metric(statistics.median(normalised(round_ms, cals)), "ms",
                                    len(round_ms)),
        "round_ms.p50": metric(statistics.median(round_ms), "ms", len(round_ms)),
        "cal_ms.p50": metric(statistics.median(cal_ms), "ms", len(cal_ms)),
    }
    per_label: dict = {}
    for r in rounds:
        for label, ms in r:
            per_label.setdefault(label, []).append(ms)
    trials = {op.label: op.intervals for op in wl.ops}
    for label, samples in per_label.items():
        if wl.label_metric == "trials_per_s":
            n = trials[label] * len(samples)
            out[f"{label}.trials_per_s"] = metric(n / (sum(samples) / 1e3), "1/s", n)
            continue
        out[f"{label}.interval_ms.p50"] = metric(statistics.median(samples), "ms", len(samples))
        if len(samples) >= 100:  # a tail percentile needs ten samples beyond it
            cut = statistics.quantiles(samples, n=10)[-1]
            out[f"{label}.interval_ms.p90"] = metric(cut, "ms", len(samples))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = metric(rss_kb / 1024.0, "MB", 1)
    return out


def per_layer(rounds, cals, summary) -> dict:
    n = len(rounds[True])
    out = {}
    for name in tracing.SPANS:
        out[f"{name}.self_ms"] = metric(summary["self_ms"].get(name, 0.0) / n, "ms", n)
        out[f"{name}.calls"] = metric(summary["calls"].get(name, 0) / n, "count", n)
    for name, total in summary["counts"].items():
        out[name] = metric(total / n, "count", n)
    traced_ms = round_totals(rounds[True])
    plain_ms = round_totals(rounds[False])
    out["trace.overhead_frac"] = metric(
        statistics.median(normalised(traced_ms, cals[True]))
        / statistics.median(normalised(plain_ms, cals[False])) - 1.0, "fraction", n)
    # self times of the timing thread's spans against the wall time of the timed calls
    out["trace.accounted_frac"] = metric(summary["main_self_ms"] / sum(traced_ms), "fraction", n)
    out["trace.offthread_ms"] = metric(summary["offthread_ms"] / n, "ms", n)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for scratch inputs and spans")
    args = parser.parse_args(argv)

    library = os.path.abspath(bisampling.__file__)
    if not library.startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"bisampling imported from {library}, not from this checkout", file=sys.stderr)
        return 2
    info = machine()
    workdir = os.path.join(args.out, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.build(args.workload, args.seed, workdir, bisampling, info["nproc"])
        print(READY, flush=True)
        if args.setup_only:
            return 0
        tracer = tracing.Tracer() if args.trace else None
        result = measure(wl, args.seconds, bool(args.trace), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = result.pop("rounds")
    cals = result.pop("cals")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": info,
        "inputs": wl.inputs,
        "notes": wl.notes,
        **result,
    }
    if args.trace:
        summary = tracer.summary(threading.get_ident())
        report["metrics"] = per_layer(rounds, cals, summary)
        report["notes"]["absent_spans"] = summary["absent"]
        report["notes"]["counter_errors"] = summary["counter_errors"]
        spans_path = os.path.join(args.out, f"{args.workload}-seed{args.seed}-spans.jsonl")
        tracer.write(spans_path)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        report["metrics"] = end_to_end(wl, rounds[False], cals[False])
    report["round_ms"] = {"untraced": round_totals(rounds[False]),
                          "traced": round_totals(rounds[True])}
    report["cal_ms"] = {"untraced": cals[False], "traced": cals[True]}
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
