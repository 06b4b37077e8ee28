"""Interval resampling engine and the point laws it induces.

``bis_run`` draws imprecise realisations of the posterior over step
distributions and records the extremes of a monotonic functional on each;
``interval_estimate`` turns those extremes into a credible interval.  Its
chunk loop ``_resample`` also runs both bootstraps of ``baselines``.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .dirichlet import (
    merge_duplicates,
    sample_dirichlet,
    sample_split_index,
    split_window,
    weight_chunks,
)
from .errors import (
    AtObservationError,
    EmptySamplesError,
    OutOfBoundsError,
    _check_open_unit,
)
from .functionals import (
    Functional,
    _lumped,
    cell_supports,
    evaluate_rows,
    quantile_bounds,
)
from .pbox import (
    BoundingInterval,
    IntervalEstimate,
    WeightedStepCdf,
    make_extended_order_stats,
)

# pseudo-observation weight carried by the bounding interval itself
PRIOR_WEIGHT = 1.0

# bytes of weights per chunk of realisations.  A split is searched for
# only in its window of cells, so a chunk's temporaries are window-sized
# and the chunk with them stays in a 2 MiB L2 cache.  Each chunk holds at
# least one row, so the working set is O(n), whatever the number of
# resamples.  The rows come in order from one stream, so this size does
# not change the weights drawn.
_CHUNK_BYTES = 1024 * 1024


def _chunk_rows(row_bytes: int) -> int:
    """Rows per chunk when each row takes ``row_bytes`` of the chunk's arrays."""
    return max(1, _CHUNK_BYTES // row_bytes)


def _check_n_resample(n, least: int = 1) -> None:
    """Reject a resample count that is not an integer of at least ``least``."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        raise ValueError(f"n_resample must be an integer of at least {least}, got {n!r}")


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


@dataclass(frozen=True, eq=False)
class ImpreciseRealization:
    """One draw: shared cell weights and the step CDF pair they induce."""

    weights: np.ndarray
    lower: WeightedStepCdf
    upper: WeightedStepCdf


@dataclass(frozen=True)
class BetaParams:
    """Parameters of a beta law; a or b may be zero (degenerate cases)."""

    a: float
    b: float

    def __post_init__(self):
        if self.a < 0 or self.b < 0 or self.a + self.b <= 0:
            raise ValueError(f"invalid beta parameters ({self.a}, {self.b})")


def default_n_resample(credibility: float) -> int:
    """Resample count ensuring about 100 draws in each interval tail."""
    _check_open_unit(credibility, "credibility")
    return _ceil(100.0 / (1.0 - credibility))


def _ceil(x: float) -> int:
    """ceil(x) with float fuzz absorbed: 100/(1-0.9) gives 1000, not 1001,
    and 2000 * (1-0.95)/2 gives 50, not 51."""
    return int(math.ceil(x * (1.0 - 1e-12)))


def sample_realization(
    reduced_points, params, rng: np.random.Generator
) -> ImpreciseRealization:
    """Draw one imprecise realisation from merged points and cell parameters.

    A single weight vector is shared by both bounds: the lower CDF puts the
    weights on cell right endpoints, the upper CDF on cell left endpoints,
    so the bounds touch at every distinct interior point.
    """
    pts = np.asarray(reduced_points, dtype=float).reshape(-1)
    pr = np.asarray(params, dtype=float).reshape(-1)
    if pr.size + 1 != pts.size:
        raise ValueError("need one more point than parameters")
    w = sample_dirichlet(pr, rng)
    lower = WeightedStepCdf(pts[1:], w)
    upper = WeightedStepCdf(pts[:-1], w)
    return ImpreciseRealization(weights=w, lower=lower, upper=upper)


def bis_run(data, interval: BoundingInterval, cfg: BisConfig) -> QSamples:
    """Run the interval resampling algorithm.

    For each of ``cfg.n_resample`` realisations: draw a weight vector over
    the cells between merged order statistics, form the lower/upper step
    CDFs sharing those weights, and evaluate the functional on both.  All
    draws come from the one stream of ``cfg.seed``.  A quantile depends on
    the weights only through the cell where their cumulative sum reaches
    p, so for quantiles that cell is drawn from its exact law and no
    weights are drawn.  Other functionals take the weights unnormalised
    (every functional is scale invariant), in chunks of about
    ``_CHUNK_BYTES`` from one reused buffer; memory is O(n) beyond the
    q-samples.  The cell supports are prepared once per run.  For the
    truncated mean and CVaR, each split is searched for only in the window
    of cells it can reach (``split_window``), and the cells the functional
    reads only through their total are drawn as that total (see
    ``_dirichlet_resample``).
    """
    stats = make_extended_order_stats(data, interval)
    reduced, params = merge_duplicates(stats)
    if cfg.n_resample < default_n_resample(cfg.credibility):
        warnings.warn(
            "n_resample is below the 100/(1-c) rule of thumb; "
            "interval tails may be poorly resolved",
            UserWarning,
            stacklevel=2,
        )
    n = cfg.n_resample
    f = cfg.functional
    rng = rngmod.stream(cfg.seed)
    if f.kind == "quantile":
        idx = sample_split_index(params, f.p, rng, n)
        q_min, q_max = quantile_bounds(idx, reduced)
        return QSamples(q_min=q_min, q_max=q_max)
    return _dirichlet_resample(f, params, cell_supports(reduced), rng, n)


def _dirichlet_resample(f: Functional, params, supports, rng, n_resample: int) -> QSamples:
    """Q-samples of ``f`` on ``n_resample`` Dirichlet(params) weight rows over
    the prepared ``supports``, one atom per parameter: the draw of
    ``bis_run`` (the cells) and of the Bayesian bootstrap (the sorted data).

    The mean and a quantile take whole rows.  A truncated mean or CVaR
    looks for each row's split only in the cells lo..hi of ``split_window``
    and reads the cells on one side of them only through their total: CVaR
    the cells before lo, the truncated mean those after hi.  Those cells
    are drawn as one Gamma total per row (``weight_chunks``' ``lump``, by
    Dirichlet aggregation), which takes the slot of cell lo-1 or hi+1 in a
    row slice of ``supports`` (``functionals._lumped``), so every q-sample
    keeps its law.  A row whose split lands inside the total, which has
    probability about 2**-53, comes back NaN; its lumped cells are redrawn
    from their exact law given the total (the total times a Dirichlet
    vector of their parameters), in row order from a substream spawned
    from ``rng``, and the row is evaluated over every cell.
    """
    k = params.size
    chunk_rows = _chunk_rows(8 * k)
    window = None if f.kind in ("mean", "quantile") else split_window(params, f.p)
    if window is not None:
        lo, hi = window
        start, stop = (0, lo) if f.kind == "cvar" else (hi + 1, k)
    if window is None or start == stop:
        chunks = weight_chunks(params, rng, n_resample, chunk_rows)
        return _resample(f, supports, chunks, n_resample, window)
    sub = None

    def unlump(rows):
        nonlocal sub
        sub = sub or rng.spawn(1)[0]
        full = np.empty((rows.shape[0], k))
        full[:, :start] = rows[:, :start]
        full[:, stop:] = rows[:, start + 1 :]
        for row, drawn in zip(full, rows):
            row[start:stop] = drawn[start] * sample_dirichlet(params[start:stop], sub)
        return evaluate_rows(f, supports, full, window)

    atoms = slice(lo - 1, k) if f.kind == "cvar" else slice(0, hi + 2)
    chunks = weight_chunks(params, rng, n_resample, chunk_rows, (start, stop))
    return _resample(f, _lumped(supports, atoms, start), chunks, n_resample,
                     (lo - atoms.start, hi - atoms.start), unlump)


def _resample(f: Functional, supports, chunks, n_resample: int, window=None,
              unlump=None) -> QSamples:
    """Q-samples of ``f`` on the ``n_resample`` weight rows that ``chunks`` yields
    in blocks over the prepared ``supports``, each block evaluated as it comes.
    The first supports column gives ``q_min`` and the last ``q_max``.  Rows
    that come back NaN (a split inside a lumped atom) take the results of
    ``unlump`` on their weights, while the block still holds them.  The
    count is checked before ``chunks``, a generator, draws anything."""
    _check_n_resample(n_resample, least=0)
    q = np.empty((supports.values.shape[1], n_resample))
    start = 0
    for w in chunks:
        stop = start + w.shape[0]
        block = q[:, start:stop]
        block[...] = evaluate_rows(f, supports, w, window).T
        if unlump is not None:
            (missed,) = np.isnan(block[0]).nonzero()
            if missed.size:
                block[:, missed] = unlump(w[missed]).T
        start = stop
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
    arr = make_extended_order_stats(data, interval).points[1:-1]
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

    Each interval endpoint carries half the prior weight next to the unit
    weights of the observations; sampling Dir[params] over these atoms
    yields a precise random CDF whose value at an off-data point x follows
    Beta(n_below + 1/2, n_above + 1/2), the Jeffreys-prior posterior.
    """
    stats = make_extended_order_stats(data, interval)
    raw = np.concatenate(
        ([PRIOR_WEIGHT / 2.0], np.ones(stats.n_obs), [PRIOR_WEIGHT / 2.0])
    )
    points, inverse = np.unique(stats.points, return_inverse=True)
    params = np.bincount(inverse.reshape(-1), weights=raw)
    points.setflags(write=False)
    params.setflags(write=False)
    return points, params
