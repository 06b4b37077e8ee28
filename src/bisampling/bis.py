"""Interval resampling engine and the point laws it induces.

``bis_run`` draws imprecise realisations of the posterior over step
distributions and records the extremes of a monotonic functional on each;
``interval_estimate`` turns those extremes into a credible interval.  The
Bayesian bootstrap of ``baselines`` is the same draw, ``_dirichlet_resample``,
with unit parameters.  Its one chunk loop hands every block of weight rows
straight to the mean and split-mean kernels of ``functionals``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .dirichlet import _run_steps, _unit_split, merge_duplicates, sample_dirichlet, weight_chunks
from .errors import (
    AtObservationError,
    EmptySamplesError,
    OutOfBoundsError,
    _check_n_resample,
    _check_open_unit,
)
from .functionals import Functional, _cut_mean, _mean_rows, prepare_supports
from .pbox import (
    BoundingInterval,
    IntervalEstimate,
    ProbabilityBox,
    cell_box,
    cell_endpoints,
    make_extended_order_stats,
)

# bytes of weights per chunk of realisations, so that a chunk and its
# temporaries stay in a 2 MiB L2 cache.  Each chunk holds at least one
# row, so the working set is O(n), whatever the number of resamples.  The
# rows come in order from one stream, so this size does not change the
# weights drawn.
_CHUNK_BYTES = 1024 * 1024


def _chunk_rows(row_bytes: int) -> int:
    """Rows per chunk when each row takes ``row_bytes`` of the chunk's arrays."""
    return max(1, _CHUNK_BYTES // row_bytes)


@dataclass(frozen=True)
class BisConfig:
    """Configuration of one resampling run."""

    functional: Functional
    credibility: float
    n_resample: int
    seed: int

    def __post_init__(self):
        _check_open_unit(self.credibility, "credibility")
        _check_n_resample(self.n_resample)


@dataclass(frozen=True, eq=False)
class QSamples:
    """Paired samples of the functional's per-realisation extremes."""

    q_min: np.ndarray
    q_max: np.ndarray

    def __post_init__(self):
        if self.q_min.shape != self.q_max.shape:
            raise ValueError("q_min and q_max must have equal length")
        if (self.q_min > self.q_max).any():
            raise ValueError("q_min must not exceed q_max")


@dataclass(frozen=True)
class BetaParams:
    """Parameters of a beta law; a or b may be zero (degenerate cases)."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a >= 0 and self.b >= 0 and self.a + self.b > 0):
            raise ValueError(f"invalid beta parameters ({self.a}, {self.b})")


def default_n_resample(credibility: float) -> int:
    """Resample count ensuring about 100 draws in each interval tail."""
    _check_open_unit(credibility, "credibility")
    return _ceil(100.0 / (1.0 - credibility))


def _ceil(x: float) -> int:
    """ceil(x) with float fuzz absorbed: 100/(1-0.9) gives 1000, not 1001,
    and 2000 * (1-0.95)/2 gives 50, not 51."""
    return int(math.ceil(x * (1.0 - 1e-12)))


def sample_realization(reduced_points, params, rng: np.random.Generator) -> ProbabilityBox:
    """Draw one imprecise realisation, a probability box, from merged points
    and cell parameters: the ``cell_box`` of one Dirichlet weight vector,
    which both bounds share.
    """
    return cell_box(reduced_points, sample_dirichlet(params, rng))


def bis_run(data, interval: BoundingInterval, cfg: BisConfig) -> QSamples:
    """Run the interval resampling algorithm.

    For each of ``cfg.n_resample`` realisations: draw a weight vector over
    the cells between merged order statistics, form the lower/upper step
    CDFs sharing those weights, and evaluate the functional on both.  All
    draws come from the one stream of ``cfg.seed``, through
    ``_dirichlet_resample`` on the cells' endpoints (``cell_endpoints``),
    which draws a quantile's split cell from its exact law and no weights,
    and otherwise streams unnormalised weight rows in chunks; memory is
    O(n) beyond the q-samples.
    """
    reduced, params = merge_duplicates(data, interval)
    if cfg.n_resample < default_n_resample(cfg.credibility):
        warnings.warn(
            "n_resample is below the 100/(1-c) rule of thumb; "
            "interval tails may be poorly resolved",
            UserWarning,
            stacklevel=2,
        )
    return _dirichlet_resample(cfg.functional, params, cell_endpoints(reduced),
                               rngmod.stream(cfg.seed), cfg.n_resample)


def _dirichlet_resample(f: Functional, params, values, rng, n_resample: int) -> QSamples:
    """Q-samples of ``f`` under ``n_resample`` Dirichlet(params) weight rows on
    ``values``, a ``(k, m)`` array of sorted support columns, one row per
    integer parameter: the draw of ``bis_run`` (the cells' endpoints) and
    of the Bayesian bootstrap (the sorted data).  Column 0 gives ``q_min``
    and the last column ``q_max``.  Callers check ``n_resample >= 1`` first.

    Every functional but the mean draws its split once, first: the unit
    cell K ~ Binomial(A - 1, p) of the A unit cells behind the parameters,
    and the cell c holding it, where the cumulative weight reaches p (the
    law of ``sample_split_index``).  A quantile depends on a row only
    through c, so it is the atoms of c and no weights are drawn.  The mean
    takes whole rows.  Given K the K uniforms below p are i.i.d. U(0, p)
    (Pyke 1965), so the truncated mean is the Dirichlet mean of cells 0..c
    with the split cell's share of shape K - head[c-1] + 1, head being the
    cumulative parameters, and CVaR that of cells c..k-1 with a share of
    shape head[c] - K; ``_unit_split`` returns head[c], and head[c-1] is
    head[c] less the cell's own parameter.  All splits, then all shares,
    come first, each in one call, then the rows over the span the splits
    fix, 0..max c or min c..k-1 (all cells for the mean), so the chunk size
    changes no draw.  The span's atoms alone are prepared, and each chunk
    goes straight to its kernel on them, ``_mean_rows`` or ``_cut_mean``.
    """
    first, stop = 0, params.size
    tail = f.kind == "cvar"
    if f.kind != "mean":
        head, units, cell = _unit_split(params, f.p, rng, n_resample)
        if f.kind == "quantile":
            return QSamples(q_min=values[cell, 0], q_max=values[cell, -1])
        shares = rng.standard_gamma(
            head - units if tail else units - head + params[cell] + 1.0)
        if tail:
            first = int(cell.min())
        else:
            stop = int(cell.max()) + 1
    span = prepare_supports(values[first:stop])
    q = np.empty((values.shape[1], n_resample))
    start = 0
    for w in weight_chunks(params[first:stop], rng, n_resample, _chunk_rows(8 * (stop - first))):
        rows = slice(start, start + w.shape[0])
        if f.kind == "mean":
            q[:, rows] = _mean_rows(span, w).T
        else:
            q[:, rows] = _cut_mean(span, w, cell[rows] - first, tail, shares[rows]).T
        start = rows.stop
    return QSamples(q_min=q[0], q_max=q[-1])


def interval_estimate(qs: QSamples, credibility: float) -> IntervalEstimate:
    """Credible interval spanning both empirical extreme distributions.

    The lower endpoint is the (1-c)/2 generalized inverse of the empirical
    CDF of the per-realisation minima; the upper endpoint the (1+c)/2
    generalized inverse for the maxima.  Of N samples, the generalized
    inverse at level a is the order statistic of rank k = ceil(a N),
    clamped to 1..N, with a N rounded as in ``default_n_resample``.  A
    precise method passes its one sample array as both extremes.  Infinite
    samples are legitimate and an infinite endpoint marks an unbounded
    interval.
    """
    _check_open_unit(credibility, "credibility")
    if qs.q_min.size == 0:
        raise EmptySamplesError("no resampled values to invert")
    lo = _order_statistic(qs.q_min, (1.0 - credibility) / 2.0)
    hi = _order_statistic(qs.q_max, (1.0 + credibility) / 2.0)
    return IntervalEstimate(lo=lo, hi=hi, credibility=credibility)


def _order_statistic(values: np.ndarray, level: float) -> float:
    """The sample value of rank ceil(level * N), clamped to 1..N."""
    n = values.size
    k = min(max(_ceil(level * n), 1), n)
    return float(np.partition(values, k - 1)[k - 1])


def point_condition_betas(
    data, interval: BoundingInterval, x: float
) -> tuple[BetaParams, BetaParams]:
    """Beta laws of the lower/upper CDF values at a fixed off-data point.

    Counting ``n_below`` observations under ``x`` and ``n_above`` over it,
    the lower bound value follows Beta(n_below, n_above + 1) and the upper
    bound value Beta(n_below + 1, n_above).
    """
    arr = make_extended_order_stats(data, interval)[1:-1]
    if not interval.lo < x < interval.hi:
        raise OutOfBoundsError(f"x must lie strictly inside the interval, got {x!r}")
    if (arr == x).any():
        raise AtObservationError(f"x={x!r} coincides with an observation")
    n_below = float((arr < x).sum())
    n_above = float((arr > x).sum())
    return BetaParams(n_below, n_above + 1.0), BetaParams(n_below + 1.0, n_above)


def probabilistic_projection_params(
    data, interval: BoundingInterval
) -> tuple[np.ndarray, np.ndarray]:
    """Atoms and Dirichlet parameters of the precise (imprecision-free) law.

    Each interval endpoint carries half of the interval's unit
    pseudo-observation next to the unit weights of the observations;
    sampling Dir[params] over these atoms yields a precise random CDF whose
    value at an off-data point x follows Beta(n_below + 1/2, n_above + 1/2),
    the Jeffreys-prior posterior.
    """
    points = make_extended_order_stats(data, interval)
    # the points are sorted, so each run of ties is counted from its start
    starts = np.flatnonzero(_run_steps(points))
    points, params = points[starts[:-1]], np.subtract(starts[1:], starts[:-1], dtype=float)
    # each endpoint's run holds half of the interval's unit pseudo-observation
    # (Jeffreys) in place of a unit weight
    params[[0, -1]] -= 0.5
    points.setflags(write=False)
    params.setflags(write=False)
    return points, params
