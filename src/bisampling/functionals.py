"""Population-parameter functionals on weighted step distributions.

All functionals implemented here are monotonic with respect to first-order
stochastic dominance, so their extremes over a probability box are attained
at the box's own bounds; ``bounds_for_monotonic`` is the one place that
pairs each extreme with its bound.  Functionals are total on finite-support
distributions and return signed infinities where a result is unbounded
rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndeterminateSumError, InvalidProbabilityError
from .pbox import WeightedStepCdf

_KINDS = ("mean", "quantile", "trunc_mean", "cvar")


@dataclass(frozen=True)
class Functional:
    """A population parameter: mean, quantile(p), trunc_mean(p) or cvar(p).

    The median is quantile(0.5).  ``p`` must lie strictly inside (0, 1)
    for the parametrised kinds and must be None for the mean.
    """

    kind: str
    p: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if self.kind == "mean":
            if self.p is not None:
                raise ValueError("mean takes no probability parameter")
        else:
            if self.p is None or not 0.0 < self.p < 1.0:
                raise InvalidProbabilityError(
                    f"{self.kind} needs p in (0, 1), got {self.p!r}"
                )

    @classmethod
    def parse(cls, text: str) -> "Functional":
        """Parse 'mean', 'median', 'quantile:p', 'trunc-mean:p' or 'cvar:p'."""
        name, _, arg = text.strip().partition(":")
        name = name.lower()
        if name == "mean":
            return cls("mean")
        if name == "median":
            return cls("quantile", 0.5)
        table = {"quantile": "quantile", "trunc-mean": "trunc_mean", "cvar": "cvar"}
        if name not in table or not arg:
            raise ValueError(f"cannot parse functional {text!r}")
        return cls(table[name], float(arg))

    def evaluate(self, dist: WeightedStepCdf) -> float:
        if self.kind == "mean":
            return q_mean(dist)
        if self.kind == "quantile":
            return q_quantile(dist, self.p)
        if self.kind == "trunc_mean":
            return q_truncated_mean(dist, self.p)
        return q_cvar(dist, self.p)


def _first_index_at_least(cum: np.ndarray, p: float) -> np.ndarray:
    """Per row, the first column where the cumulative weight reaches p."""
    ge = cum >= p
    idx = ge.argmax(axis=1)
    missing = ~ge.any(axis=1)
    if missing.any():
        # cumulative mass may fall a few ulp short of 1; clamp to the last atom
        idx = np.where(missing, cum.shape[1] - 1, idx)
    return idx


def _mean_rows(s: np.ndarray, w: np.ndarray) -> np.ndarray:
    finite = np.isfinite(s)
    if finite.all():
        return w @ s
    out = w @ np.where(finite, s, 0.0)
    pos = w @ (s == np.inf) > 0
    neg = w @ (s == -np.inf) > 0
    if (pos & neg).any():
        raise IndeterminateSumError("positive weight at both -inf and +inf")
    out = np.where(pos, np.inf, out)
    out = np.where(neg, -np.inf, out)
    return out


def _split_mean_rows(s, w, cum, idx, p: float, tail: bool) -> np.ndarray:
    """Atom-split mean of the mass below p, or of the mass above it (tail).

    ``cum`` and ``idx`` are the cumulative weights and the split atom per
    row; every column of ``s`` shares them.  Only the part of the split
    atom's mass on the chosen side of p contributes.
    """
    rows = np.arange(w.shape[0])
    cols = np.arange(s.shape[0])
    s_fin = np.where(np.isfinite(s), s, 0.0)
    if tail:
        strict = np.where(cols > idx[:, None], w, 0.0) @ s_fin
        mass_at = np.maximum(cum[rows, idx] - p, 0.0)
        extreme, scale = np.inf, 1.0 - p
    else:
        strict = np.where(cols < idx[:, None], w, 0.0) @ s_fin
        cum_prev = np.where(idx > 0, cum[rows, idx - 1], 0.0)
        mass_at = np.maximum(p - cum_prev, 0.0)
        extreme, scale = -np.inf, p
    mass_at = mass_at[:, None]
    with np.errstate(invalid="ignore"):
        at_term = np.where(mass_at > 0, mass_at * s[idx], 0.0)
    out = (strict + at_term) / scale
    at_extreme = s == extreme
    n_extreme = at_extreme.sum(axis=0)
    if n_extreme.any():
        # an infinite atom wholly on the chosen side drives the sum to it
        if tail:
            inside = idx[:, None] < s.shape[0] - n_extreme
        else:
            inside = idx[:, None] >= n_extreme
        forced = inside & (w @ at_extreme > 0)
        out = np.where(forced, extreme, out)
    return out


def evaluate_rows(f: Functional, supports, weight_rows) -> np.ndarray:
    """Apply ``f`` to each row of ``weight_rows`` as weights on ``supports``.

    ``supports`` is one sorted vector, or an ``(n, m)`` matrix of m sorted
    columns sharing the weights (ties allowed; tied atoms behave as one
    merged atom).  Returns ``(k,)`` for a vector and ``(k, m)`` for a
    matrix, k being the number of weight rows.  This is the vectorized
    backend shared by the scalar functionals and the resampling engine.
    """
    s = np.asarray(supports, dtype=float)
    matrix = s.ndim == 2
    if not matrix:
        s = s.reshape(-1, 1)
    w = np.atleast_2d(np.asarray(weight_rows, dtype=float))
    if w.shape[1] != s.shape[0]:
        raise ValueError("weight rows must match the number of supports")
    if f.kind == "mean":
        out = _mean_rows(s, w)
    else:
        cum = np.cumsum(w, axis=1)
        idx = _first_index_at_least(cum, f.p)
        if f.kind == "quantile":
            out = s[idx]
        else:
            out = _split_mean_rows(s, w, cum, idx, f.p, tail=f.kind == "cvar")
    return out if matrix else out[:, 0]


def q_mean(dist: WeightedStepCdf) -> float:
    """Mean of a step distribution; +/-inf when an extreme atom has mass."""
    return float(evaluate_rows(Functional("mean"), dist.supports, dist.weights)[0])


def q_quantile(dist: WeightedStepCdf, p: float) -> float:
    """p-quantile (value at risk) under the generalized-inverse convention."""
    if not 0.0 < p < 1.0:
        raise InvalidProbabilityError(f"p must be in (0, 1), got {p!r}")
    return dist.quantile(p)


def q_truncated_mean(dist: WeightedStepCdf, p: float) -> float:
    """Mean of the lowest-p conditional part of the distribution.

    The atom at the p-quantile is split: only the mass needed to reach
    exactly p contributes.  This makes the decomposition
    ``mean = p * trunc_mean + (1 - p) * cvar`` exact.  ``Functional``
    rejects a p outside (0, 1).
    """
    f = Functional("trunc_mean", p)
    return float(evaluate_rows(f, dist.supports, dist.weights)[0])


def q_cvar(dist: WeightedStepCdf, p: float) -> float:
    """Mean of the upper (1-p) tail with the same atom-splitting rule."""
    return float(evaluate_rows(Functional("cvar", p), dist.supports, dist.weights)[0])


def bounds_for_monotonic(weights, reduced_points, f: Functional) -> tuple:
    """Extremes of a monotonic functional over imprecise realisations.

    ``weights`` are cell weights for the cells between consecutive
    ``reduced_points``: one vector, or a block with one realisation per
    row.  The minimum is attained on the upper bound CDF (weights at cell
    left endpoints) and the maximum on the lower bound CDF (weights at cell
    right endpoints).  Returns ``(q_min, q_max)`` as floats for one vector
    and as arrays for a block.
    """
    w = np.asarray(weights, dtype=float)
    rows = np.atleast_2d(w)
    pts = np.asarray(reduced_points, dtype=float).reshape(-1)
    if rows.shape[1] + 1 != pts.size:
        raise ValueError("need one more point than weights")
    q = evaluate_rows(f, np.column_stack((pts[:-1], pts[1:])), rows)
    if w.ndim < 2:
        return float(q[0, 0]), float(q[0, 1])
    return q[:, 0], q[:, 1]
