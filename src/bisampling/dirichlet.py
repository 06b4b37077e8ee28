"""Dirichlet weight sampling, tie merging and unit Dirichlet process realisations.

One draw, ``_fill_rows``, makes every Dirichlet weight: ``weight_chunks``
streams its rows unnormalised in chunks of one reused buffer for the
resampling engine and the Bayesian bootstrap, optionally with a run of
cells drawn as their one Gamma total, and ``sample_dirichlet`` normalises
one such row (for one realisation and the unit-DP grid).
``sample_split_index`` draws the cell where the cumulative weight first
reaches a level from its exact law, without drawing weights, and
``split_window`` gives the few cells that law can select.  The unit
Dirichlet process (sometimes called the identity Dirichlet process) is a
random distortion of the uniform CDF on [0, 1] with concentration
``alpha``; two samplers are provided, one on a fixed grid of cells and one
by truncated stick breaking.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np
from scipy.special import betaincc

from .errors import _check_open_unit
from .pbox import ExtendedOrderStats, WeightedStepCdf


def _positive_params(params) -> np.ndarray:
    a = np.asarray(params, dtype=float).reshape(-1)
    if a.size == 0 or not ((a > 0) & (a < math.inf)).all():
        raise ValueError("Dirichlet parameters must be positive and finite")
    return a


def _fill_rows(a: np.ndarray, exponential: bool, rng: np.random.Generator, out,
               lump=None):
    """Fill the rows of ``out`` with unnormalised Dirichlet(a) weights.

    ``lump``, a pair ``(column, totals)``, then overwrites that column with
    totals drawn beforehand.  A row whose draws are all zero (every gamma
    underflowed, or one cell drew an exact zero) becomes a random vertex,
    the limit law of such a row.  Such a row starts with a zero, so only
    those rows are scanned.
    """
    if exponential:
        rng.standard_exponential(out=out)
    else:
        rng.standard_gamma(a, out=out)
    if lump is not None:
        out[:, lump[0]] = lump[1]
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


def weight_chunks(params, rng: np.random.Generator, size: int, chunk_rows: int,
                  lump=None):
    """Draw ``size`` unnormalised Dirichlet weight rows, ``chunk_rows`` at a time.

    Yields views of one reused ``(chunk_rows, width)`` buffer, each
    overwritten by the next chunk; the last may hold fewer rows.  Rows are
    filled in order from ``rng`` and a generator fills sequentially, so the
    rows drawn do not depend on ``chunk_rows``.  A row is proportional to a
    Dirichlet draw; its total is left as drawn.

    ``lump``, a pair ``(start, stop)``, draws the cells ``start..stop-1`` as
    one column at ``start``: their summed weight, which by Dirichlet
    aggregation is one Gamma(sum of their parameters) variate independent
    of the other cells.  All ``size`` totals are drawn first, in one call;
    the rows, ``len(params) - (stop - start) + 1`` wide, are then filled
    chunk by chunk with a placeholder draw at ``start`` that the total
    overwrites, so every fill stays one contiguous call.  Without ``lump``
    a row has one column per cell.
    """
    a = _positive_params(params)
    if lump is not None:
        start, stop = lump
        totals = rng.standard_gamma(a[start:stop].sum(), size=size)
        a = np.concatenate((a[:start], [1.0], a[stop:]))
    exponential = bool(np.all(a == 1.0))
    buf = np.empty((min(chunk_rows, size), a.size))
    for first in range(0, size, chunk_rows):
        out = buf[: min(chunk_rows, size - first)]
        chunk_lump = None if lump is None else (start, totals[first : first + out.shape[0]])
        _fill_rows(a, exponential, rng, out, chunk_lump)
        yield out


def sample_split_index(
    params, p: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw the first cell where Dirichlet cumulative weight reaches ``p``.

    By the aggregation property the weight of cells 0..j follows
    Beta(A_j, A - A_j), with A_j the sum of their parameters and A the sum
    of all, so P(index <= j) = P(Beta(A_j, A - A_j) >= p), which is 1 at
    the last cell.  The law is inverted at ``size`` uniforms drawn from
    (0, 1], so no weight vector is ever formed.  It is evaluated only on
    the cells of ``split_window``, the ones a uniform can select; the
    indices drawn equal those of the law evaluated on every cell.
    """
    head, rest, lo, hi = _split_law(params, p)
    cdf = np.append(betaincc(head[lo:hi], rest[lo:hi], p), 1.0)
    np.maximum.accumulate(cdf, out=cdf)
    return lo + np.searchsorted(cdf, 1.0 - rng.random(size), side="left")


def split_window(params, p: float) -> tuple[int, int]:
    """Cells ``lo..hi`` that hold the split index of all but a fraction of
    about 2**-53 of Dirichlet(params) draws.

    The split index is the first cell where the cumulative weight reaches
    ``p``.  ``sample_split_index`` evaluates its law only on these cells,
    and the resampling engine looks for the split of its weight rows only
    there (``bis._resample`` evaluates a row that splits elsewhere again)
    and draws the cells on one side of them as one total (``weight_chunks``'
    ``lump``).  See ``_law_window``.
    """
    return _split_law(params, p)[2:]


def _split_law(params, p: float) -> tuple:
    """Check ``params`` and ``p`` once; return A_j and A - A_j for every
    cell j but the last, then the window ``lo, hi`` of ``_law_window``.

    The rest is summed from the right, so it stays positive where
    A - A_j would round to 0.
    """
    a = _positive_params(params)
    _check_open_unit(p, "p")
    head, rest = np.cumsum(a)[:-1], np.cumsum(a[::-1])[::-1][1:]
    return head, rest, *_law_window(head, rest, p)


# the smallest level 1 - U for U from ``Generator.random``, whose values are
# multiples of 2**-53 below 1
_MIN_LEVEL = 2.0**-53


def _law_window(head, rest, p: float) -> tuple[int, int]:
    """Cells ``lo..hi`` that hold every index a uniform level can select.

    The law P(index <= j) is betaincc(head[j], rest[j], p) for j below
    ``head.size`` and 1 at the last cell.  No level in [2**-53, 1] selects a
    cell before one whose law reads below 2**-53, nor one after a cell whose
    law reads exactly 1; so a Dirichlet draw splits before ``lo`` with
    probability below 2**-53, and after ``hi`` with a probability that
    rounds to 0 next to 1.  The law is monotone, so two bisections find
    ``lo``, the last cell whose law reads below 2**-53 (or the first cell),
    and ``hi``, the first cell whose law reads 1 (or the last cell).
    """
    k = head.size

    def law(j):
        return betaincc(head[j], rest[j], p)

    lo = max(bisect_left(range(k), _MIN_LEVEL, key=law) - 1, 0)
    return lo, bisect_left(range(k), 1.0, key=law)


def merge_duplicates(stats: ExtendedOrderStats) -> tuple[np.ndarray, np.ndarray]:
    """Collapse runs of tied points into degenerate cells with merged weight.

    Returns ``(reduced_points, params)`` where every value appears at most
    twice in ``reduced_points`` and ``params`` holds one Dirichlet parameter
    per cell between consecutive reduced points: 1 for ordinary cells and
    ``run_length - 1`` for the degenerate cell kept at a tied value.  With
    all points distinct this is the identity: the original points and a
    vector of ones.  Ties are exact float equality.

    Relies on ``stats.points`` being sorted, as ``make_extended_order_stats``
    leaves them: runs are found in one linear pass, without a second sort.
    """
    points = stats.points
    starts = np.flatnonzero(np.concatenate(([True], points[1:] != points[:-1])))
    counts = np.diff(starts, append=points.size)
    values = points[starts]
    z = int(np.searchsorted(values, 0.0))
    if z < values.size and values[z] == 0:
        signs = np.signbit(points[starts[z] : starts[z] + counts[z]])
        if signs.any() and not signs.all():
            # a tie of -0.0 and 0.0 keeps the zero np.unique keeps, the one
            # a fresh sort puts first, so seeded outputs keep their bytes
            values[z] = np.sort(points)[starts[z]]
    kept = np.minimum(counts, 2)
    reduced = np.repeat(values, kept)
    left_counts = np.repeat(counts, kept)[:-1]
    degenerate = reduced[:-1] == reduced[1:]
    params = np.where(degenerate, left_counts - 1.0, 1.0)
    reduced.setflags(write=False)
    params.setflags(write=False)
    return reduced, params


def sample_unit_dp_grid(
    alpha: float, n_cells: int, rng: np.random.Generator
) -> WeightedStepCdf:
    """Discretized unit-DP realisation on ``n_cells`` equal cells of [0, 1].

    Cell weights follow Dir[alpha/n_cells, ..., alpha/n_cells] and sit at
    the cell right endpoints i/n_cells.
    """
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if n_cells < 1:
        raise ValueError("n_cells must be at least 1")
    if alpha / n_cells == 0:
        raise ValueError(f"alpha / n_cells = {alpha!r} / {n_cells} underflows to 0")
    w = sample_dirichlet(np.full(n_cells, alpha / n_cells), rng)
    x = np.arange(1, n_cells + 1) / n_cells
    return WeightedStepCdf(x, w)


def sample_unit_dp_stick(
    alpha: float, n_terms: int, rng: np.random.Generator
) -> WeightedStepCdf:
    """Unit-DP realisation by stick breaking, truncated after ``n_terms``.

    Atom locations are iid uniform on [0, 1] and stick fractions follow
    Beta(1, alpha).  The mass left after ``n_terms`` breaks is closed into
    one extra atom at a fresh uniform location (no renormalization), so the
    result carries exactly unit mass.
    """
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    locations = rng.random(n_terms + 1)
    b = rng.beta(1.0, alpha, size=n_terms)
    leftover = np.cumprod(1.0 - b)
    prefix = np.concatenate(([1.0], leftover[:-1]))
    weights = np.empty(n_terms + 1)
    weights[:-1] = b * prefix
    weights[-1] = max(1.0 - float(weights[:-1].sum()), 0.0)
    return WeightedStepCdf(locations, weights)
