"""Output checks computed in benchmark code, independent of the library.

The exact law of a quantile interval comes from Dirichlet aggregation: with
uniform weights on the n+1 cells between the extended order statistics
``points = [lo, x_(1), ..., x_(n), hi]``, the weight of the first i+1 cells
is Beta(i+1, n-i).  The functional's split index on both step CDFs is the
first i whose cumulative weight reaches p, so P(index <= i) = P(Beta(i+1,
n-i) >= p).  The minimum sits at ``points[index]`` and the maximum at
``points[index + 1]``.  Tied observations are zero-width cells, which the
aggregation law covers without merging them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import beta

# half-width of the Monte Carlo rank band, in binomial standard deviations
Z = 5.0


def plug_in(kind: str, p: float | None, x_sorted: np.ndarray) -> float:
    """The functional of the empirical distribution (weight 1/n per value)."""
    n = x_sorted.size
    if kind == "mean":
        return float(x_sorted.mean())
    # generalized inverse: first k with (k + 1) / n >= p
    k = min(max(math.ceil(n * p) - 1, 0), n - 1)
    if kind == "quantile":
        return float(x_sorted[k])
    truncated = (x_sorted[:k].sum() / n + (p - k / n) * x_sorted[k]) / p
    if kind == "trunc_mean":
        return float(truncated)
    return float((x_sorted.mean() - p * truncated) / (1.0 - p))


def quantile_bands(points: np.ndarray, p: float, credibility: float, n_resample: int):
    """Value ranges the Monte Carlo endpoints may take, (lo band, hi band).

    The empirical a-quantile of N draws is an order statistic of rank about
    N*a; its rank stays within z*sqrt(N*a*(1-a)) of that, so the endpoint
    lies between the exact quantiles at levels a -/+ z*sqrt(a(1-a)/N).
    """
    n = points.size - 2
    i = np.arange(n)
    cdf = np.append(beta.sf(p, i + 1, n - i), 1.0)  # P(split index <= i)

    def index_at(level):
        return int(np.searchsorted(cdf, min(max(level, 0.0), 1.0), side="left"))

    bands = []
    for a, shift in (((1.0 - credibility) / 2.0, 0), ((1.0 + credibility) / 2.0, 1)):
        d = Z * math.sqrt(a * (1.0 - a) / n_resample)
        bands.append((float(points[index_at(a - d) + shift]),
                      float(points[index_at(a + d) + shift])))
    return tuple(bands)


def interval_failures(lo: float, hi: float, kind: str, p, x_sorted, bands=None) -> list[str]:
    """Reasons an interval on [0, inf) is wrong; empty when every check passes."""
    failures = []
    if not lo <= hi:
        failures.append(f"lo {lo!r} > hi {hi!r}")
    estimate = plug_in(kind, p, x_sorted)
    if not lo <= estimate <= hi:
        failures.append(f"plug-in {estimate!r} outside [{lo!r}, {hi!r}]")
    if kind == "mean" and hi != math.inf:
        failures.append(f"mean on an unbounded interval reports hi={hi!r}, not inf")
    if bands is not None:
        (lo_min, lo_max), (hi_min, hi_max) = bands
        if not lo_min <= lo <= lo_max:
            failures.append(f"quantile lo {lo!r} outside exact band [{lo_min!r}, {lo_max!r}]")
        if not hi_min <= hi <= hi_max:
            failures.append(f"quantile hi {hi!r} outside exact band [{hi_min!r}, {hi_max!r}]")
    return failures
