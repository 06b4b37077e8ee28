"""Command-line front end.

Commands: ``infer`` (credible interval as JSON), ``pbox`` (expected
probability box as CSV), ``compare`` (coverage experiment report as CSV)
and ``udp-sample`` (unit Dirichlet process realisations as CSV).  Outputs
embed a manifest of the run so results are reproducible from the file
alone.  Exit codes: 0 success, 1 numeric failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from . import __version__
from . import rng as rngmod
from .baselines import METHODS, coverage_experiment, preset
from .bis import (
    BisConfig,
    bis_run,
    default_n_resample,
    interval_estimate,
    sample_realization,
)
from .dirichlet import merge_duplicates, sample_unit_dp_grid, sample_unit_dp_stick
from .errors import BisamplingError, IndeterminateSumError
from .functionals import Functional
from .pbox import BoundingInterval, expected_pbox, make_extended_order_stats


def _parse_bound(token: str) -> float:
    value = float(token)
    if math.isnan(value):
        raise argparse.ArgumentTypeError("interval bound must not be NaN")
    return value


def _encode(value):
    """JSON-safe scalar: infinities become the tokens 'inf' / '-inf'."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _fmt(value: float) -> str:
    """Shortest round-trip text for a float; infinities as 'inf' tokens."""
    return repr(float(value))


# file name endings that loadtxt, given a path name, decompresses
_COMPRESSED = (".bz2", ".gz", ".xz", ".lzma")


def _parse_numbers(lines, comments: str | None) -> np.ndarray:
    """Parse one number per line in one C pass, as loadtxt does.

    Each field is converted by CPython's correctly rounded string-to-double
    routine, so values are bit-identical to ``float()``.  Blank and comment
    lines give no value and empty input gives empty data; a line holding
    more than one field raises BisamplingError.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(lines, comments=comments, ndmin=2, encoding="utf-8")
    if table.shape[1] > 1:
        raise BisamplingError(f"expected one number per line, found {table.shape[1]}")
    return table[:, 0]


def read_observations(path: str, column: str | None = None) -> np.ndarray:
    r"""Read one observation per line, or a named CSV column.

    Plain mode: each line holds one number in Python's float syntax without
    underscores (an ASCII decimal, ``inf`` or ``nan``), optionally padded
    with whitespace; ``#`` starts a comment, blank lines are skipped, and
    ``\n``, ``\r\n`` and ``\r`` end lines.  CSV mode looks the column up by
    header and skips empty cells; every other cell must hold one number in
    the same syntax.  Anything else raises ValueError: BisamplingError, or
    UnicodeDecodeError for a file that is not UTF-8.
    """
    with open(path, "r", encoding="utf-8") as fh:
        if column is None:
            # loadtxt reads a path name in large chunks, twice as fast as an
            # open file, but would try compressed siblings and URLs of a
            # missing name and decompress a name ending in _COMPRESSED; so a
            # missing file raises in open() above and such a name is read as
            # the text file it is
            compressed = os.path.splitext(path)[1] in _COMPRESSED
            return _parse_numbers(fh if compressed else path, comments="#")
        # csv reads rows from one string faster than from the file's lines
        text = fh.read()
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or column not in header:
        raise BisamplingError(f"column {column!r} not found in {path}")
    # as in csv.DictReader, a repeated header name means its last column
    at = len(header) - 1 - header[::-1].index(column)
    values = [row[at] for row in reader if len(row) > at and row[at] != ""]
    data = _parse_numbers(values, comments=None)
    if data.size != len(values):
        # loadtxt skips a whitespace-only cell, which holds no number
        raise BisamplingError(f"column {column!r} has a cell with no number")
    return data


def _manifest(command: str, args, functional: str | None, credibility, n_resample, seed):
    bounds = getattr(args, "bounds", None)
    return {
        "command": command,
        "input": getattr(args, "input", None),
        "bounds": [_encode(b) for b in bounds] if bounds is not None else None,
        "functional": functional,
        "credibility": credibility,
        "n_resample": n_resample,
        "seed": seed,
        "version": __version__,
    }


def _write_text(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(manifest: dict, header: list[str], rows) -> str:
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def cmd_infer(args) -> int:
    data = read_observations(args.input, args.column)
    interval = BoundingInterval(args.bounds[0], args.bounds[1])
    functional = Functional.parse(args.param)
    n_resample = args.resamples
    if n_resample is None:
        n_resample = default_n_resample(args.credibility)
    cfg = BisConfig(
        functional=functional,
        credibility=args.credibility,
        n_resample=n_resample,
        seed=args.seed,
    )
    qs = bis_run(data, interval, cfg)
    est = interval_estimate(qs, args.credibility)
    manifest = _manifest("infer", args, args.param, args.credibility, n_resample, args.seed)
    result = {
        "interval": {"lo": _encode(est.lo), "hi": _encode(est.hi)},
        "credibility": args.credibility,
        "unbounded_below": est.unbounded_below,
        "unbounded_above": est.unbounded_above,
        "n_resample": n_resample,
        "seed": args.seed,
        "manifest": manifest,
    }
    _write_text(json.dumps(result, sort_keys=True, indent=2) + "\n", args.out)
    if args.qbox is not None:
        grid = np.unique(np.concatenate([qs.q_min, qs.q_max]))
        n = qs.q_min.size
        ecdf_min = np.searchsorted(np.sort(qs.q_min), grid, side="right") / n
        ecdf_max = np.searchsorted(np.sort(qs.q_max), grid, side="right") / n
        rows = [
            (float(x), float(flo), float(fhi))
            for x, flo, fhi in zip(grid, ecdf_max, ecdf_min)
        ]
        _write_text(
            _csv_text(manifest, ["value", "F_lower", "F_upper"], rows), args.qbox
        )
    return 0


def cmd_pbox(args) -> int:
    if args.realisations < 0:
        raise BisamplingError("--realisations must not be negative")
    data = read_observations(args.input, args.column)
    interval = BoundingInterval(args.bounds[0], args.bounds[1])
    stats = make_extended_order_stats(data, interval)
    box = expected_pbox(stats)
    grid = np.union1d(box.lower.supports, box.upper.supports)
    header = ["x", "F_lower", "F_upper"]
    columns = [grid, box.lower.cdf(grid), box.upper.cdf(grid)]
    if args.realisations:
        reduced, params = merge_duplicates(stats)
        for i in range(args.realisations):
            real = sample_realization(reduced, params, rngmod.substream(args.seed, i))
            header += [f"r{i + 1}_lower", f"r{i + 1}_upper"]
            columns += [real.lower.cdf(grid), real.upper.cdf(grid)]
    manifest = _manifest("pbox", args, None, None, None, args.seed)
    rows = [tuple(float(col[j]) for col in columns) for j in range(grid.size)]
    _write_text(_csv_text(manifest, header, rows), args.out)
    return 0


def cmd_compare(args) -> int:
    config = preset(args.preset)
    methods = args.methods or list(config["methods"])
    n_resample = config["n_resample"] if args.resamples is None else args.resamples
    credibility = config["credibility"] if args.credibility is None else args.credibility
    n_sample = config["n_sample"] if args.n_sample is None else args.n_sample
    true_q = config["true_q"] if args.true_q is None else args.true_q
    manifest = _manifest(
        "compare", args, config["functional"].kind, credibility, n_resample, args.seed
    )
    manifest["preset"] = args.preset
    manifest["n_trials"] = args.trials
    manifest["true_q"] = true_q
    rows = []
    for method in methods:
        report = coverage_experiment(
            gen=config["gen"],
            true_q=true_q,
            method=method,
            f=config["functional"],
            n_sample=n_sample,
            credibility=credibility,
            n_trials=args.trials,
            n_resample=n_resample,
            interval=config["interval"],
            seed=args.seed,
        )
        rows.append(
            (
                report.method,
                report.credibility,
                report.n_trials,
                report.hit_rate,
                report.median_lo,
                report.median_hi,
            )
        )
    header = ["method", "credibility", "n_trials", "hit_rate", "median_lo", "median_hi"]
    _write_text(_csv_text(manifest, header, rows), args.out)
    return 0


def cmd_udp_sample(args) -> int:
    if args.cells < 1:
        raise BisamplingError("--cells must be at least 1")
    if args.count < 1:
        raise BisamplingError("--count must be at least 1")
    if args.method == "grid" and args.alpha > 0 and args.alpha / args.cells == 0:
        raise BisamplingError(
            f"--alpha {args.alpha!r} / --cells {args.cells} underflows to 0: "
            "each grid cell's Dirichlet parameter is alpha / cells"
        )
    grid = np.arange(1, args.cells + 1) / args.cells
    header = ["x"] + [f"cdf_{i + 1}" for i in range(args.count)]
    columns = [grid]
    for i in range(args.count):
        stream = rngmod.substream(args.seed, i)
        if args.method == "grid":
            real = sample_unit_dp_grid(args.alpha, args.cells, stream)
        else:
            real = sample_unit_dp_stick(args.alpha, args.terms, stream)
        columns.append(real.cdf(grid))
    manifest = _manifest("udp-sample", args, None, None, None, args.seed)
    manifest["alpha"] = args.alpha
    manifest["cells"] = args.cells
    manifest["method"] = args.method
    rows = [tuple(float(col[j]) for col in columns) for j in range(grid.size)]
    _write_text(_csv_text(manifest, header, rows), args.out)
    return 0


# lets "-inf" and negative scientific notation pass as values, not flags
_NEGATIVE_VALUE = re.compile(r"^-(\d+\.?\d*([eE][-+]?\d+)?|\.\d+|inf)$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bis",
        description="Robust nonparametric credible intervals from bounded observations",
    )
    parser._negative_number_matcher = _NEGATIVE_VALUE
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    infer = sub.add_parser("infer", help="credible interval for a population parameter")
    infer.add_argument("input", help="data file, one observation per line")
    infer.add_argument("--column", help="read this column of a CSV file instead")
    infer.add_argument(
        "--param",
        required=True,
        help="mean | median | quantile:p | trunc-mean:p | cvar:p",
    )
    infer.add_argument("--credibility", type=float, default=0.9)
    infer.add_argument(
        "--bounds",
        nargs=2,
        type=_parse_bound,
        required=True,
        metavar=("LO", "HI"),
        help="bounding interval; accepts inf and -inf",
    )
    infer.add_argument("--resamples", type=int, default=None)
    infer.add_argument("--seed", type=int, default=0)
    infer.add_argument("--out", default=None)
    infer.add_argument("--qbox", default=None, help="also write the q-box ECDFs as CSV")
    infer.set_defaults(func=cmd_infer)

    pbox = sub.add_parser("pbox", help="expected probability box as CSV")
    pbox.add_argument("input")
    pbox.add_argument("--column")
    pbox.add_argument(
        "--bounds", nargs=2, type=_parse_bound, required=True, metavar=("LO", "HI")
    )
    pbox.add_argument("--realisations", type=int, default=0)
    pbox.add_argument("--seed", type=int, default=0)
    pbox.add_argument("--out", default=None)
    pbox.set_defaults(func=cmd_pbox)

    compare = sub.add_parser("compare", help="coverage comparison of interval methods")
    compare.add_argument("--preset", choices=("table3", "table4"), required=True)
    compare.add_argument("--trials", type=int, required=True)
    compare.add_argument("--methods", nargs="+", choices=METHODS, default=None)
    compare.add_argument("--resamples", type=int, default=None)
    compare.add_argument("--credibility", type=float, default=None)
    compare.add_argument("--n-sample", type=int, default=None)
    compare.add_argument("--true-q", type=float, default=None)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--out", default=None)
    compare.set_defaults(func=cmd_compare)

    udp = sub.add_parser("udp-sample", help="unit Dirichlet process realisations")
    udp.add_argument("--alpha", type=float, required=True)
    udp.add_argument("--cells", type=int, default=200)
    udp.add_argument("--count", type=int, default=1)
    udp.add_argument("--method", choices=("grid", "stick"), default="grid")
    udp.add_argument("--terms", type=int, default=100)
    udp.add_argument("--seed", type=int, default=0)
    udp.add_argument("--out", default=None)
    udp.set_defaults(func=cmd_udp_sample)

    for command in sub.choices.values():
        command._negative_number_matcher = _NEGATIVE_VALUE
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IndeterminateSumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BisamplingError, OSError, ValueError, MemoryError) as exc:
        # a MemoryError is a request too large to allocate, such as
        # --resamples 10**15, so an input error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
