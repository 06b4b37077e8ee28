"""Dirichlet weight sampling, tie merging and unit Dirichlet process realisations.

One draw, ``_fill_rows``, makes every Dirichlet weight: ``weight_chunks``
streams its rows unnormalised in chunks of one reused buffer for the
resampling engine and the Bayesian bootstrap, and ``sample_dirichlet``
normalises one such row (for one realisation and the unit-DP grid).
``sample_split_index`` draws the cell where the cumulative weight first
reaches a level without drawing weights: with integer parameters that
cell holds a Binomial(A - 1, p) count of unit cells (Pyke 1965).  The
unit Dirichlet process (sometimes called the identity Dirichlet process)
is a random distortion of the uniform CDF on [0, 1] with concentration
``alpha``; ``sample_unit_dp_grid`` draws it on a fixed grid of cells, where
its CDF at each grid point i/n_cells follows the exact law of the process,
Beta(alpha * i/n_cells, alpha * (1 - i/n_cells)) (Ferguson 1973).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import _check_n_resample, _check_open_unit
from .pbox import BoundingInterval, WeightedStepCdf, make_extended_order_stats


def _positive_params(params) -> np.ndarray:
    a = np.asarray(params, dtype=float).reshape(-1)
    if a.size == 0 or not ((a > 0) & (a < math.inf)).all():
        raise ValueError("Dirichlet parameters must be positive and finite")
    return a


def _unit_draw(log_kernel: str) -> str:
    """How all-ones parameters draw their unit exponentials, given the
    kernel NumPy dispatches float64 ``log`` to.

    Inversion is one uniform and one ``log`` a weight; it beats NumPy's
    ziggurat only where that ``log`` is an AVX-512 kernel (about 1 ns a
    value, against 8 ns for the X86_V3 one, which makes inversion about
    1.5 times slower than the ziggurat).  Elsewhere the ziggurat stays.
    """
    avx512 = log_kernel == "X86_V4" or log_kernel.startswith("AVX512")
    return "inversion" if avx512 else "ziggurat"


def _log_kernel() -> str:
    """The kernel NumPy dispatches float64 ``log`` to ('' if unreported)."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # NumPy 1.x reports no dispatch
        return ""
    return opt_func_info("^log$", "float64").get("log", {}).get("dd", {}).get("current", "")


# "inversion" or "ziggurat", fixed for the process by this host's ``log``
UNIT_DRAW = _unit_draw(_log_kernel())


def _fill_rows(a: np.ndarray, exponential: bool, rng: np.random.Generator, out):
    """Fill the rows of ``out`` with unnormalised Dirichlet(a) weights.

    All-ones parameters draw unit exponentials, by ``UNIT_DRAW``: either
    NumPy's ziggurat or inversion, -log(1 - U) (Devroye 1986, II.2).  In
    the inversion U lies on the 2**-53 grid of [0, 1), so 1 - U is exact
    and never 0, no weight exceeds 53 ln 2, and a weight is zero (-0.0)
    only where U == 0.  Other parameters draw gammas.

    A row whose draws are all zero (every gamma underflowed, or every unit
    draw was 0) becomes a random vertex, the limit law of such a row.
    Such a row starts with a zero, so only those rows are scanned.
    """
    if not exponential:
        rng.standard_gamma(a, out=out)
    elif UNIT_DRAW == "inversion":
        rng.random(out=out)
        np.subtract(1.0, out, out=out)
        np.log(out, out=out)
        np.negative(out, out=out)
    else:
        rng.standard_exponential(out=out)
    maybe = np.flatnonzero(out[:, 0] <= 0.0)
    dead = maybe[~out[maybe].any(axis=1)]
    if dead.size:
        out[dead, rng.integers(a.size, size=dead.size)] = 1.0


def sample_dirichlet(params, rng: np.random.Generator) -> np.ndarray:
    """Draw one weight vector from Dirichlet(params).

    ``params`` is a sequence of positive, finite concentration parameters.
    The vector is the one row of ``weight_chunks`` divided by its total.
    """
    ((w,),) = weight_chunks(params, rng, 1, 1)
    return w / w.sum()


def weight_chunks(params, rng: np.random.Generator, size: int, chunk_rows: int):
    """Draw ``size`` unnormalised Dirichlet weight rows, ``chunk_rows`` at a time.

    Yields views of one reused ``(chunk_rows, len(params))`` buffer, each
    overwritten by the next chunk; the last may hold fewer rows.  Rows are
    filled in order from ``rng`` and a generator fills sequentially, so the
    rows drawn do not depend on ``chunk_rows``.  A row is proportional to a
    Dirichlet draw; its total is left as drawn.
    """
    a = _positive_params(params)
    exponential = bool(np.all(a == 1.0))
    buf = np.empty((min(chunk_rows, size), a.size))
    for first in range(0, size, chunk_rows):
        out = buf[: min(chunk_rows, size - first)]
        _fill_rows(a, exponential, rng, out)
        yield out


def sample_split_index(
    params, p: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw the first cell where Dirichlet cumulative weight reaches ``p``.

    With integer parameters summing to A, Dirichlet(params) is the
    aggregation of A unit cells under Dirichlet(1, ..., 1), whose
    cumulative weights are the order statistics of A - 1 uniforms (Pyke
    1965).  The unit cell where the cumulative weight reaches p is the
    number of those uniforms below p, a Binomial(A - 1, p) count
    (``_unit_split``), and the cell holding it is the first whose
    cumulative parameter exceeds it.  No weight vector is ever formed.
    """
    return _unit_split(params, p, rng, size)[2]


def _unit_split(params, p: float, rng: np.random.Generator, size: int) -> tuple:
    """Check integer ``params`` and ``p``; return, for each of ``size``
    Binomial(A - 1, p) unit-cell split indices (A the parameters' sum), the
    cumulative parameter of its cell, the index, and that cell: the first
    whose cumulative parameter exceeds the index.  Of the cumulative
    parameters only the split cells' are kept, so no n-sized array outlives
    the call.

    Non-integer parameters are rejected: the binomial law holds only for
    a sum of unit cells.
    """
    a = _positive_params(params)
    if (a != np.floor(a)).any():
        raise ValueError("the split index law needs integer Dirichlet parameters")
    _check_open_unit(p, "p")
    head = np.cumsum(a)
    units = rng.binomial(int(head[-1]) - 1, p, size)
    cell = np.searchsorted(head, units, side="right")
    return head[cell], units, cell


def merge_duplicates(data, interval: BoundingInterval) -> tuple[np.ndarray, np.ndarray]:
    """Collapse runs of tied points into degenerate cells with merged weight.

    The points are the extended order statistics of ``data`` in
    ``interval``, from ``make_extended_order_stats``, so they are sorted
    and read -0.0 as 0.0 whatever was passed; between consecutive points
    lie unit cells, each Dirichlet(1).  Only the first and last point of
    each run of ties are kept, and by Dirichlet aggregation the unit cells
    between consecutive kept points form one cell whose parameter is their
    number: 1 between runs and ``run_length - 1`` inside a run.  Returns
    ``(reduced_points, params)``, where every value appears at most twice
    in ``reduced_points``.  With all points distinct this is the identity:
    the extended order statistics and a vector of ones.  Ties are exact
    float equality.
    """
    points = make_extended_order_stats(data, interval)
    step = _run_steps(points)
    ends = np.flatnonzero(step[:-1] | step[1:])  # the first and last point of each run
    reduced, params = points[ends], np.subtract(ends[1:], ends[:-1], dtype=float)
    reduced.setflags(write=False)
    params.setflags(write=False)
    return reduced, params


def _run_steps(points: np.ndarray) -> np.ndarray:
    """For sorted ``points``, a bool array of size n + 1, true where a run
    of tied points starts and at n, the end of the last run."""
    return np.concatenate(([True], points[1:] != points[:-1], [True]))


def sample_unit_dp_grid(
    alpha: float, n_cells: int, rng: np.random.Generator
) -> WeightedStepCdf:
    """Discretized unit-DP realisation on ``n_cells`` equal cells of [0, 1].

    Cell weights follow Dir[alpha/n_cells, ..., alpha/n_cells] and sit at
    the cell right endpoints i/n_cells, where by aggregation the CDF has the
    unit DP's exact law, Beta(alpha * i/n_cells, alpha * (1 - i/n_cells)).
    """
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    _check_n_resample(n_cells, name="n_cells")
    if alpha / n_cells == 0:
        raise ValueError(f"alpha / n_cells = {alpha!r} / {n_cells} underflows to 0")
    w = sample_dirichlet(np.full(n_cells, alpha / n_cells), rng)
    x = np.arange(1, n_cells + 1) / n_cells
    return WeightedStepCdf(x, w)
