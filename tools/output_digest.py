"""Digest the library's seeded outputs over a fixed grid, one sha1 per family.

Families:

- ``bis_run``: q-samples (q_min then q_max) of every functional below, for
  seeds 1-3, n = 15, 200, 200 with its first 120 values -0.0 and 0.0 in
  turn (zeros), 1000, 1000 rounded to 0.1 (ties) and 10^5, on [0, 60],
  [0, inf), (-inf, 60] and (-inf, inf); N = 2000, or 200 at 10^5.
- ``bayesian_bootstrap`` and ``bootstrap``: the interval endpoints of the
  same functionals on the same data, n <= 1000, N = 2000, credibility 0.9;
  then on the same data with its three largest values set to +inf, and with
  its three smallest set to -inf (cases ending ``+inf`` and ``-inf``), so
  that resamples of the percentile bootstrap skip some infinite atoms.
- ``evaluate``: ``Functional.evaluate`` of every functional on the upper
  and the lower bound (columns 0 and 1) of the ``cell_box`` of each of 200
  fixed Dirichlet rows over the cells of the same data and intervals,
  n <= 1000.
- ``cli``: the bytes that seven fixed ``bis`` command lines (``CLI_RUNS``:
  three of ``infer``, two of ``pbox``, one of ``compare`` and one of
  ``udp-sample``) write to stdout and to every ``--out`` and ``--qbox``
  file, run on the n = 200 data of seed 1, or, for ``infer --column y``, on
  the CSV file whose column ``x`` holds those data and ``y`` their squares.

The functionals are mean, median, quantile:0.99, and trunc-mean and cvar at
0.5, 0.9 and 0.99.  Two checkouts that print the same line for a family
produce the same bytes for every case of it.  To see which cases moved and
by how many ulps (a ``cli`` case is text, so it reports none), save the
outputs of one checkout with that checkout's own copy of this tool, which
calls the library by its own signatures, then compare the other:

    git worktree add ../parent HEAD
    python ../parent/tools/output_digest.py --save parent.npz
    python tools/output_digest.py --against parent.npz

The tool digests the library of its own checkout.  ``--against`` also
reports the cases only one side has, as when the grids differ: a case
missing from this run counts as moved, and a case new to it is listed
without counting.  It exits 1 when any case moved and 0 when none did, so
it can gate a change that claims to keep its bytes.

The bytes also depend on the host: the BLAS build rounds the products of
the mean and the split means of ``bis_run``, the Bayesian bootstrap and
``evaluate`` (the percentile bootstrap sums each resample's drawn values
row by row and takes no product), and the kernel NumPy dispatches
float64 ``log`` to decides how unit Dirichlet weights are drawn (by inversion on
an AVX-512 kernel, by the ziggurat elsewhere) and, with inversion, their
last bits.  Medians, quantiles, every case of the percentile bootstrap
(which sums a split resample's sides in sorted position order, whatever
kernel sorts them) and the given rows of ``evaluate`` keep their bytes
across the dispatch (the inputs are drawn so that they do too).
``--save`` records the NumPy version, the BLAS name and version, the CPU features NumPy
dispatches to, and that ``log`` kernel and the unit draw as the library
reads them (``dirichlet._log_kernel`` and ``dirichlet.UNIT_DRAW``), and
``--against`` prints each of them that differs before the cases that
moved, so a digest taken on another host reads as such: ``host unit_draw
differs: inversion -> ziggurat`` names the fact that moves the bytes of
the mean and the split means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

FUNCTIONALS = ("mean", "median", "quantile:0.99", "trunc-mean:0.5", "trunc-mean:0.9",
               "trunc-mean:0.99", "cvar:0.5", "cvar:0.9", "cvar:0.99")
SEEDS = (1, 2, 3)
SIZES = ("15", "200", "200-zeros", "1000", "1000-ties", "100000")
INTERVALS = ((0.0, 60.0), (0.0, np.inf), (-np.inf, 60.0), (-np.inf, np.inf))
FAMILIES = ("bis_run", "bayesian_bootstrap", "bootstrap", "evaluate", "cli")
# (name, argv) of each ``bis`` command line of the ``cli`` family, run on
# obs.txt or on the two columns of xy.csv
CLI_RUNS = (
    ("infer", ["infer", "obs.txt", "--param", "mean", "--bounds", "0", "inf", "--seed", "1"]),
    ("infer-qbox", ["infer", "obs.txt", "--param", "cvar:0.9", "--bounds", "-inf", "60",
                    "--credibility", "0.8", "--seed", "2", "--out", "infer.json",
                    "--qbox", "qbox.csv"]),
    ("infer-column", ["infer", "xy.csv", "--column", "y", "--param", "trunc-mean:0.9",
                      "--bounds", "0", "inf", "--seed", "6"]),
    ("pbox", ["pbox", "obs.txt", "--bounds", "0", "inf"]),
    ("pbox-realisations", ["pbox", "obs.txt", "--bounds", "0", "60", "--realisations", "3",
                           "--seed", "3", "--out", "pbox.csv"]),
    ("compare", ["compare", "--preset", "table4", "--trials", "3", "--resamples", "200",
                 "--seed", "4", "--methods", "student_t", "bootstrap", "bayesian_bootstrap",
                 "bis"]),
    ("udp-grid", ["udp-sample", "--alpha", "5", "--cells", "50", "--count", "2", "--seed", "5",
                  "--out", "udp.csv"]),
)
HOST = "host|"  # prefix of the saved host facts, apart from the cases


def data(size: str, seed: int) -> np.ndarray:
    """Unit lognormal observations capped at 59, inside every interval;
    ``-ties`` rounds them to 0.1, and ``-zeros`` sets the first 120 to -0.0
    and 0.0 in turn, so medians and half-sample means read a tie of signed
    zeros (on the lower bound of [0, 60] and [0, inf)).

    The generator's own lognormal takes libm's ``exp``, not NumPy's
    dispatched one, so the inputs are the same bytes on every CPU feature
    set and only the library's outputs can move with it.
    """
    n = int(size.split("-")[0])
    x = np.minimum(np.random.default_rng(seed).lognormal(0.0, 1.0, n), 59.0)
    if size.endswith("zeros"):
        x[:120:2], x[1:120:2] = -0.0, 0.0
    return np.round(x, 1) if size.endswith("ties") else x


def infinite_ends(x: np.ndarray, sign: int) -> np.ndarray:
    """``x`` with its three largest values set to +inf (``sign`` 1) or its
    three smallest set to -inf (``sign`` -1)."""
    order = np.argsort(x, kind="stable")
    y = x.copy()
    y[order[-3:] if sign > 0 else order[:3]] = sign * np.inf
    return y


def outputs(bis):
    """Yield ``(family, case, array)`` over the grid, in a fixed order."""
    from bisampling.pbox import cell_box

    fs = [(name, bis.Functional.parse(name)) for name in FUNCTIONALS]
    for size in SIZES:
        n_resample = 200 if size == "100000" else 2000
        for seed in SEEDS:
            x = data(size, seed)
            for lo, hi in INTERVALS:
                interval = bis.BoundingInterval(lo, hi)
                for name, f in fs:
                    cfg = bis.BisConfig(f, 0.9, n_resample, seed)
                    qs = bis.bis_run(x, interval, cfg)
                    yield "bis_run", (name, size, seed, lo, hi), np.concatenate((qs.q_min, qs.q_max))
            if size == "100000":
                continue
            for family, method in (("bayesian_bootstrap", bis.bayesian_bootstrap_interval),
                                   ("bootstrap", bis.bootstrap_interval)):
                for end, y in (((), x), (("+inf",), infinite_ends(x, 1)),
                               (("-inf",), infinite_ends(x, -1))):
                    for name, f in fs:
                        est = method(y, f, 0.9, n_resample, np.random.default_rng(seed))
                        yield family, (name, size, seed) + end, np.array([est.lo, est.hi])
            for lo, hi in INTERVALS:
                reduced, _ = bis.merge_duplicates(x, bis.BoundingInterval(lo, hi))
                rows = np.random.default_rng(seed).dirichlet(np.ones(reduced.size - 1), size=200)
                boxes = [cell_box(reduced, row) for row in rows]
                for name, f in fs:
                    yield "evaluate", (name, size, seed, lo, hi), np.array(
                        [[f.evaluate(box.upper), f.evaluate(box.lower)] for box in boxes])
    from bisampling import cli

    yield from cli_outputs(cli)


def cli_outputs(cli) -> list:
    """``("cli", (name, output), bytes)`` of each command line of ``CLI_RUNS``,
    run through ``cli.main`` in a fresh directory holding the n = 200 data of
    seed 1 as obs.txt, and as column ``x`` of xy.csv beside their squares as
    column ``y``: its stdout, then each file it names after ``--out`` or
    ``--qbox``, the bytes as a uint8 array.  The manifest records the input
    path as given, so the path is relative and the bytes do not depend on the
    directory."""
    found, here = [], os.getcwd()
    x = data("200", 1).tolist()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("obs.txt").write_text("".join(f"{v!r}\n" for v in x))
            Path("xy.csv").write_text("x,y\n" + "".join(f"{v!r},{v * v!r}\n" for v in x))
            for name, argv in CLI_RUNS:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"bis {' '.join(argv)} failed")
                found.append(("cli", (name, "stdout"), stdout.getvalue().encode()))
                found += [("cli", (name, path), Path(path).read_bytes())
                          for flag, path in zip(argv, argv[1:]) if flag in ("--out", "--qbox")]
        finally:
            os.chdir(here)
    return [(family, case, np.frombuffer(text, np.uint8)) for family, case, text in found]


def host() -> dict:
    """The NumPy version, its BLAS build, the CPU features it dispatches to,
    and, as the library reads them, the kernel of its float64 ``log`` and
    the unit draw that kernel picks."""
    from bisampling import dirichlet

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as umath
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu": " ".join(f for f in umath.__cpu_dispatch__
                            if umath.__cpu_features__.get(f)),
            "log": dirichlet._log_kernel() or "not reported",
            "unit_draw": dirichlet.UNIT_DRAW}


def compare_host(saved, current: dict) -> None:
    """Print each host fact that differs from the saved run's."""
    for name, now in current.items():
        key = HOST + name
        was = str(saved[key]) if key in saved else "not recorded"
        if was != now:
            print(f"host {name} differs: {was} -> {now}")


def _ordered(x: np.ndarray) -> np.ndarray:
    """Float64 bits as integers that count ulps monotonically across zero,
    -0.0 one below +0.0."""
    i = x.astype(np.float64).view(np.int64)
    return np.where(i < 0, np.iinfo(np.int64).min - i - 1, i)


def _ulps(got: np.ndarray, want: np.ndarray):
    """How far a moved case moved: its worst ulps, or why it has none."""
    if got.dtype == np.uint8:
        return "text differs"  # command output: an ulp of a character means nothing
    if not np.array_equal(np.isinf(got), np.isinf(want)):
        return "infinities differ"
    return int(np.abs(_ordered(got) - _ordered(want)).max())


def _group(key: str) -> tuple:
    """A case's family and functional (command line for ``cli``)."""
    return tuple(key.split("|")[:2])


def compare(saved, current) -> int:
    """Print, per family and functional (command line for ``cli``), the
    cases that moved and their worst ulps, then the cases missing from
    ``current`` and those new to it; return how many moved or went missing.
    A case moves when any of its bytes do."""
    was = [key for key in saved if not key.startswith(HOST)]
    cases, saved_cases = Counter(map(_group, current)), Counter(map(_group, was))
    missing = Counter(_group(key) for key in was if key not in current)
    new = Counter(_group(key) for key in current if key not in saved)
    moved = {}
    for key, got in current.items():
        if key in saved and got.tobytes() != saved[key].tobytes():
            moved.setdefault(_group(key), []).append(_ulps(got, saved[key]))
    for (family, name), ulps in moved.items():
        why = [u for u in ulps if isinstance(u, str)]
        spread = why[0] if why else f"worst {max(ulps)} ulps"
        print(f"moved {family} {name}: {len(ulps)} of {cases[family, name]} cases, {spread}")
    for (family, name), k in missing.items():
        print(f"missing {family} {name}: {k} of {saved_cases[family, name]} cases")
    for (family, name), k in new.items():
        print(f"new {family} {name}: {k} of {cases[family, name]} cases")
    return sum(map(len, moved.values())) + sum(missing.values())


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--save", type=Path, help="write every output to this .npz file")
    parser.add_argument("--against", type=Path, help="compare with a file written by --save")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import bisampling as bis

    sha = {family: hashlib.sha1() for family in FAMILIES}
    every = {}
    with warnings.catch_warnings():
        # N = 200 at n = 10^5 is below the resample rule of thumb on purpose
        warnings.simplefilter("ignore", UserWarning)
        for family, case, out in outputs(bis):
            out = np.ascontiguousarray(out, dtype=np.uint8 if family == "cli" else np.float64)
            sha[family].update(repr(case).encode())
            sha[family].update(out.tobytes())
            every["|".join(map(str, (family,) + case))] = out
    for family in FAMILIES:
        print(f"{family} {sha[family].hexdigest()}")
    facts = host()
    if args.save:
        np.savez(args.save, **every, **{HOST + k: np.array(v) for k, v in facts.items()})
    if args.against:
        with np.load(args.against) as saved:
            compare_host(saved, facts)
            sys.exit(1 if compare(saved, every) else 0)


if __name__ == "__main__":
    main()
