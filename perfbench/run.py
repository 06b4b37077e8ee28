"""Benchmark of the bisampling library: one workload per run.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each run starts the workload in fresh
interpreters (``worker.py``): a few set-up-only starts, whose median is
``setup_s``, then one that measures for ``--seconds``.  With ``--trace 0``
the measured run is untraced and gives the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and gives the
per-layer metrics and the tracing overhead.

Prints a report with every metric, its unit and sample count, writes the
full result to ``perfbench/out/``, and prints as the last line one JSON
object with the metrics that ``BENCHMARK.json`` lists for the mode.
Exits 1 if the workload could not be run, 2 if the library is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from time import monotonic, perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(BENCH_DIR, "out")
NAMES = ("resample-heavy", "large-n", "cli-atoms", "coverage")
# fresh-interpreter set-ups per run; setup_s is their median
SETUPS = 3
# every run, all set-ups included, ends within this many seconds
RUN_LIMIT_S = 170.0


class RunError(Exception):
    """The workload could not be run to the end."""


def _spawn(args: list, deadline: float) -> tuple[float, list]:
    """Run one worker; return its set-up seconds and its stdout lines."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--out", OUT] + args
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - monotonic(), 0.0), proc.kill)
    watchdog.start()
    setup_s, lines = None, []
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = perf_counter() - start
            else:
                lines.append(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        # a killed worker leaves its scratch inputs behind
        shutil.rmtree(os.path.join(OUT, f"work-{proc.pid}"), ignore_errors=True)
    if proc.returncode != 0 or setup_s is None:
        raise RunError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return setup_s, lines


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = monotonic() + RUN_LIMIT_S
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    # set-up is only reported by untraced runs
    probes = 0 if trace else SETUPS - 1
    setups = [_spawn(args + ["--setup-only"], deadline)[0] for _ in range(probes)]
    setup_s, lines = _spawn(args, deadline)
    setups.append(setup_s)
    if not lines:
        raise RunError(f"worker for {name} printed no result")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                                        "n": len(setups)}
    result["setup_runs_s"] = setups
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict) -> None:
    m = result["machine"]
    print(f"# workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print(f"# machine: nproc {m['nproc']}, {m['cpu']}, caches {m['caches']}, "
          f"python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}")
    print(f"# inputs: {json.dumps(result['inputs'])}")
    print(f"# api: {json.dumps(result['notes'])}")
    for name, entry in sorted(result["metrics"].items()):
        print(f"{name:48s} {_fmt(entry['value']):>14s} {entry['unit']:8s} (n={entry['n']})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'failed_frac':48s} {_fmt(failed / attempted):>14s} {'fraction':8s} "
          f"({failed}/{attempted} operations)")
    print(f"# output digest {result['digest']}")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")


def contract_line(result: dict, trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for item in wanted:
        entry = result["metrics"].get(item["name"])
        if entry is None:
            raise RunError(f"metric {item['name']} was not measured")
        metrics[item["name"]] = {"value": entry["value"], "unit": entry["unit"]}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "bisampling", "__init__.py")):
        print(f"error: no bisampling sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = NAMES if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            line = contract_line(result, args.trace)
        except (RunError, json.JSONDecodeError, KeyError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(result)
        path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        lines.append(line)
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
