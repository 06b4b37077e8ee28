"""Step-distribution primitives: weighted step CDFs and probability boxes.

Points live on the extended real line; plain floats are used throughout,
with ``math.inf`` standing in for unbounded interval endpoints.  All types
are immutable after construction and every operation is a pure function.
Every box over the cells between sorted points, the expected box and each
posterior draw, is made by ``cell_box``, and ``cell_endpoints`` is the one
place that pairs each bound with a cell endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadIntervalError,
    InvalidProbabilityError,
    NonFiniteError,
    OutOfBoundsError,
    _check_open_unit,
)

# tolerance on total probability mass of a step CDF
WEIGHT_TOL = 1e-12
# slack when comparing float partial sums of the two bounds of a box
_DOMINANCE_TOL = 1e-9


@dataclass(frozen=True)
class BoundingInterval:
    """Closed interval [lo, hi] assumed to contain all probability mass.

    Either endpoint may be infinite; ``lo < hi`` is required.
    """

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise NonFiniteError("interval endpoints must not be NaN")
        if not self.lo < self.hi:
            raise BadIntervalError(
                f"interval endpoints must satisfy lo < hi, got [{self.lo}, {self.hi}]"
            )

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def make_extended_order_stats(data, interval: BoundingInterval) -> np.ndarray:
    """The extended order statistics lo = x_(0) <= x_(1) <= ... <= x_(n+1) = hi.

    The one maker of the extended sample: every public entry that reads it
    (``bis_run``, ``merge_duplicates``, ``expected_pbox`` and the point
    laws) takes ``(data, interval)`` and calls this.  Returns a read-only
    array of ``n + 2`` points: the interval's lower endpoint, the sorted
    observations with -0.0 read as 0.0, then the upper endpoint.

    Raises NonFiniteError for NaN or infinite observations and
    OutOfBoundsError for observations outside the interval.  Empty data is
    allowed and yields the two endpoints alone.
    """
    arr = np.asarray(data, dtype=float).reshape(-1)
    points = np.empty(arr.size + 2)
    points[0], points[-1] = interval.lo, interval.hi
    inner = points[1:-1]
    inner[:] = arr
    inner.sort()
    # the sorted ends are checked alone: NaN sorts last and -inf first
    if arr.size and not (math.isfinite(inner[0]) and math.isfinite(inner[-1])):
        raise NonFiniteError("observations must be finite")
    if arr.size and (inner[0] < interval.lo or inner[-1] > interval.hi):
        raise OutOfBoundsError(
            f"observations must lie within [{interval.lo}, {interval.hi}]"
        )
    points += 0.0  # -0.0 reads as 0.0, so tied zeros are equal bits in any sort
    points.setflags(write=False)
    return points


class WeightedStepCdf:
    """Right-continuous step CDF with atoms on the extended real line.

    Construction canonicalises the atom list: supports are sorted, equal
    supports are merged by summing their weights, and zero-weight atoms are
    dropped (so ``0 * inf`` never arises downstream).  Weights must be
    nonnegative and sum to 1 within ``WEIGHT_TOL``.
    """

    __slots__ = ("supports", "weights", "_cum")

    def __init__(self, supports, weights):
        s = np.array(supports, dtype=float).reshape(-1)
        w = np.array(weights, dtype=float).reshape(-1)
        if s.size == 0 or s.shape != w.shape:
            raise ValueError("supports and weights must be equal-length and nonempty")
        if np.isnan(s).any():
            raise NonFiniteError("support points must not be NaN")
        if np.isnan(w).any() or (w < 0).any():
            raise ValueError("weights must be nonnegative numbers")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        s += 0.0  # -0.0 reads as 0.0, so tied zeros merge to equal bits
        if not (s[1:] > s[:-1]).all():
            # sorts and merges tied supports in one pass; safe for repeated infs
            s, inverse = np.unique(s, return_inverse=True)
            w = np.bincount(inverse.reshape(-1), weights=w)
        keep = w > 0
        if not keep.all():
            s, w = s[keep], w[keep]
        cum = np.cumsum(w)
        for a in (s, w, cum):
            a.setflags(write=False)
        self.supports = s
        self.weights = w
        self._cum = cum

    @property
    def n_atoms(self) -> int:
        return self.supports.size

    def cdf(self, x):
        """P(X <= x); right-continuous. Accepts scalars or arrays."""
        return self._mass_below(x, "right")

    def cdf_left(self, x):
        """Left limit P(X < x). Accepts scalars or arrays."""
        return self._mass_below(x, "left")

    def _mass_below(self, x, side: str):
        """Mass of the atoms at or below ``x`` (``side="right"``) or strictly
        below it (``side="left"``), the ``searchsorted`` sides."""
        xs = np.asarray(x, dtype=float)
        if np.isnan(xs).any():
            raise NonFiniteError("cannot evaluate the CDF at NaN")
        idx = np.searchsorted(self.supports, xs, side=side)
        padded = np.concatenate(([0.0], self._cum))
        out = padded[idx]
        return float(out) if np.isscalar(x) or xs.ndim == 0 else out

    def quantile(self, p: float) -> float:
        """Generalized inverse inf{x : cdf(x) >= p} for p in (0, 1]."""
        if not 0.0 < p <= 1.0:
            raise InvalidProbabilityError(f"p must be in (0, 1], got {p!r}")
        idx = int(np.searchsorted(self._cum, p, side="left"))
        # cumulative mass can fall a few ulp short of 1 at the top
        idx = min(idx, self.supports.size - 1)
        return float(self.supports[idx])

    def __repr__(self):
        return f"WeightedStepCdf({self.n_atoms} atoms on [{self.supports[0]}, {self.supports[-1]}])"


@dataclass(frozen=True, eq=False)
class ProbabilityBox:
    """Pair of step CDFs with ``lower.cdf(x) <= upper.cdf(x)`` everywhere.

    Checked at the lower bound's own atoms alone: between them the lower
    CDF is flat while the upper one can only rise.
    """

    lower: WeightedStepCdf
    upper: WeightedStepCdf

    def __post_init__(self):
        hi = self.upper.cdf(self.lower.supports)
        if (self.lower._cum > hi + _DOMINANCE_TOL).any():
            raise ValueError("lower CDF exceeds upper CDF; not a probability box")


@dataclass(frozen=True)
class IntervalEstimate:
    """Credible interval [lo, hi] at credibility level ``credibility``."""

    lo: float
    hi: float
    credibility: float

    def __post_init__(self):
        _check_open_unit(self.credibility, "credibility")
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise BadIntervalError(f"malformed interval [{self.lo}, {self.hi}]")

    @property
    def unbounded_below(self) -> bool:
        return math.isinf(self.lo) and self.lo < 0

    @property
    def unbounded_above(self) -> bool:
        return math.isinf(self.hi) and self.hi > 0


def interval_probability(box: ProbabilityBox, a: float, b: float) -> tuple[float, float]:
    """Lower/upper probability bounds for the event ``a < X <= b``.

    Returns ``(lowerP, upperP)`` with ``0 <= lowerP <= upperP <= 1``.
    """
    if not a < b:
        raise BadIntervalError(f"need a < b, got a={a!r}, b={b!r}")
    upper_p = box.upper.cdf(b) - box.lower.cdf(a)
    lower_p = max(box.lower.cdf(b) - box.upper.cdf(a), 0.0)
    upper_p = min(max(upper_p, 0.0), 1.0)
    lower_p = min(lower_p, 1.0)
    return lower_p, upper_p


def cell_endpoints(points) -> np.ndarray:
    """The cells between consecutive points as a ``(k, 2)`` view, no copy.

    A monotonic functional is smallest on the upper bound CDF and largest
    on the lower one.  Column 0, the left endpoints, carries the upper
    bound's atoms and gives ``q_min``; column 1, the right endpoints,
    carries the lower bound's atoms and gives ``q_max``.
    """
    pts = np.asarray(points, dtype=float).reshape(-1)
    return np.lib.stride_tricks.sliding_window_view(pts, 2)


def cell_box(points, weights) -> ProbabilityBox:
    """The box that puts ``weights[i]`` on the cell between ``points[i]``
    and ``points[i + 1]``: the lower bound at its right endpoint, the upper
    bound at its left one, read from ``cell_endpoints``.  The bounds touch
    at every distinct interior point.

    Raises ValueError unless there is one more point than weights and the
    points are sorted.
    """
    pts = np.asarray(points, dtype=float).reshape(-1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size + 1 != pts.size:
        raise ValueError("need one more point than weights")
    if (pts[1:] < pts[:-1]).any():
        raise ValueError("points must be sorted")
    cells = cell_endpoints(pts)
    return ProbabilityBox(lower=WeightedStepCdf(cells[:, 1], w),
                          upper=WeightedStepCdf(cells[:, 0], w))


def expected_pbox(data, interval: BoundingInterval) -> ProbabilityBox:
    """Expected probability box spanned by the extended order statistics.

    The ``cell_box`` of the ``n + 1`` cells between them, each weighing
    ``1/(n + 1)``.  With no observations this is the vacuous box (unit
    steps at the two interval endpoints).
    """
    points = make_extended_order_stats(data, interval)
    k = points.size - 1
    return cell_box(points, np.full(k, 1.0 / k))
