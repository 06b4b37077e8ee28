"""Population-parameter functionals on weighted step distributions.

All functionals implemented here are monotonic with respect to first-order
stochastic dominance, so their extremes over a probability box are attained
at the box's own bounds; ``_cell_endpoints`` is the one place that pairs
each extreme with its bound, for ``cell_supports`` and
``quantile_bounds``.  Functionals are total on finite-support
distributions and return signed infinities where a result is unbounded
rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import IndeterminateSumError, _check_open_unit
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
            _check_open_unit(self.p, f"{self.kind} p")

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
        """The functional of one step distribution.

        A quantile is the CDF's own generalized inverse, so it agrees with
        ``dist.cdf`` where p sits on a cumulative weight; the other kinds
        are ``evaluate_rows`` of the one weight row.
        """
        if self.kind == "quantile":
            return dist.quantile(self.p)
        return float(evaluate_rows(self, dist.supports, dist.weights)[0])


@dataclass(frozen=True, eq=False)
class Supports:
    """Sorted support columns with the arrays every weight row reuses.

    Made once by ``prepare_supports`` and passed to ``evaluate_rows`` for
    each block of weight rows.  ``terms`` holds the m columns of supports
    with infinities zeroed, then a ones column that sums the weight in the
    same product, then m indicator columns of the +inf atoms (at ``pos``)
    and m of the -inf atoms (at ``neg``) when any column has such atoms.
    ``terms`` is column-major, so the rows of the atoms outside a split
    window are a contiguous piece of every column.  ``lump``, set only by
    ``_lumped``, is an atom whose weight stands for several atoms' total.
    """

    values: np.ndarray  # (n, m) sorted columns
    terms: np.ndarray  # (n, width), column-major
    n_pos: np.ndarray  # (m,) +inf atoms per column
    n_neg: np.ndarray  # (m,) -inf atoms per column
    pos: slice | None
    neg: slice | None
    vector: bool  # made from one vector: results are (k,), not (k, 1)
    lump: int | None = None


def prepare_supports(supports) -> Supports:
    """Prepare one sorted support vector, or an ``(n, m)`` matrix of columns."""
    s = np.asarray(supports, dtype=float)
    vector = s.ndim < 2
    if vector:
        s = s.reshape(-1, 1)
    n, m = s.shape
    extremes = [s == np.inf, s == -np.inf]
    present = [at.any() for at in extremes]
    terms = np.empty((n, m * (1 + sum(present)) + 1), order="F")
    terms[:, :m] = np.where(np.isfinite(s), s, 0.0)
    terms[:, m] = 1.0
    width = m + 1
    slices = []
    for at, any_at in zip(extremes, present):
        if any_at:
            terms[:, width : width + m] = at
            slices.append(slice(width, width + m))
            width += m
        else:
            slices.append(None)
    return Supports(s, terms, *(at.sum(axis=0) for at in extremes), *slices, vector)


def _lumped(sup: Supports, atoms: slice, lump: int) -> Supports:
    """The atoms ``atoms`` of ``sup`` (a row slice, no copy) for weight rows
    whose atom ``lump`` of the slice, its first or last, carries the summed
    weight of that atom and of every atom of ``sup`` beyond it.

    A truncated mean, CVaR or quantile reads such a total only as weight on
    the side of the split it lies on, so the lump's own values enter no
    result unless a row splits inside it.  Such a row has no result from
    these atoms: ``evaluate_rows`` gives it NaN, for the caller to redraw
    the lumped atoms.
    """
    values = sup.values[atoms]
    return replace(sup, values=values, terms=sup.terms[atoms],
                   n_pos=np.isposinf(values).sum(axis=0),
                   n_neg=np.isneginf(values).sum(axis=0), lump=lump)


def _has_weight(sums: np.ndarray, cols: slice | None):
    """Where a row puts weight on the atoms indicated at ``cols`` of terms."""
    return False if cols is None else sums[:, cols] > 0


def _mean_rows(sup: Supports, w: np.ndarray) -> np.ndarray:
    m = sup.values.shape[1]
    sums = w @ sup.terms
    out = sums[:, :m] / sums[:, m : m + 1]
    pos, neg = _has_weight(sums, sup.pos), _has_weight(sums, sup.neg)
    if np.any(pos & neg):
        raise IndeterminateSumError("positive weight at both -inf and +inf")
    out = np.where(pos, np.inf, out)
    return np.where(neg, -np.inf, out)


def _split_rows(sup: Supports, w: np.ndarray, f: Functional, lo: int, hi: int) -> np.ndarray:
    """A quantile, or the atom-split mean of the mass below p (truncated
    mean) or above it (CVaR), of each row.

    A row splits at its first atom where the cumulative weight reaches p of
    the row's total; every column of supports shares that split atom.  It
    is searched for only among the atoms ``lo..hi``: the weight before and
    after them comes from row sums, and the strict-side sums over the atoms
    outside them from one product on a row slice of ``terms``.  A row whose
    split atom lies outside ``lo..hi`` is recomputed with every atom in the
    window, where the slices outside are empty, so the results do not
    depend on the window.  On rows laid out by the engine's lumped draw
    (``_lumped``) the atom just outside the window on one side is the
    total of every cell beyond it, so the weight on that side, ``before``
    for CVaR and ``after`` for the truncated mean, is that one column; a
    row whose split falls on it is NaN.

    For a split mean the atoms strictly on the chosen side contribute their
    whole weight and the split atom the rest of that side's mass (p of the
    total below, 1 - p of it above).  The sum is divided by the mass
    actually summed, so each result is a convex combination of its atoms.
    That mass is summed from the side's own atoms because a difference of
    cumulative sums near the total loses the small tail masses of p near 1.
    """
    s, p = sup.values, f.p
    n_atoms, m = s.shape
    tail = f.kind == "cvar"
    win, terms = w[:, lo : hi + 1], sup.terms
    if f.kind == "trunc_mean":
        sums = w[:, :lo] @ terms[:lo]
        before, after = sums[:, m], w[:, hi + 1 :].sum(axis=1)
    elif tail:
        sums = w[:, hi + 1 :] @ terms[hi + 1 :]
        before, after = w[:, :lo].sum(axis=1), sums[:, m]
    else:
        before, after = w[:, :lo].sum(axis=1), w[:, hi + 1 :].sum(axis=1)
    cum = np.cumsum(win, axis=1)
    cum += before[:, None]
    total = cum[:, -1] + after
    reached = cum >= p * total[:, None]
    idx = lo + reached.argmax(axis=1)
    if f.kind == "quantile":
        out = s[idx]
    else:
        if tail:
            # the atoms after the split atom follow an atom that has reached p
            sums += np.where(reached[:, :-1], win[:, 1:], 0.0) @ terms[lo + 1 : hi + 1]
        else:
            # the atoms before the split atom have not reached p
            sums += np.where(reached, 0.0, win) @ terms[lo : hi + 1]
        strict, mass = sums[:, :m], sums[:, m : m + 1]
        share = (1.0 - p) if tail else p
        mass_at = np.maximum(share * total[:, None] - mass, 0.0)
        at = s[idx]
        with np.errstate(invalid="ignore"):
            at_term = np.where(mass_at > 0, mass_at * at, 0.0)
        out = (strict + at_term) / (mass + mass_at)
        # rounding can leave the ratio an ulp outside the range of its atoms
        out = np.clip(out, at, s[-1]) if tail else np.clip(out, s[0], at)
        # an infinite atom wholly on the chosen side drives the sum to it;
        # the side then holds all of that atom's weight
        if tail:
            inside = idx[:, None] < n_atoms - sup.n_pos
            forced = inside & _has_weight(sums, sup.pos)
        else:
            inside = idx[:, None] >= sup.n_neg
            forced = inside & _has_weight(sums, sup.neg)
        out = np.where(forced, np.inf if tail else -np.inf, out)
    if sup.lump is not None:
        out[idx == sup.lump] = np.nan
    if lo > 0 or hi < n_atoms - 1:
        missed = (before >= p * total) | ~reached[:, -1]
        if missed.any():
            out[missed] = _split_rows(sup, w[missed], f, 0, n_atoms - 1)
    return out


def evaluate_rows(f: Functional, supports, weight_rows, window=None) -> np.ndarray:
    """Apply ``f`` to each row of ``weight_rows`` as weights on ``supports``.

    ``supports`` is one sorted vector, or an ``(n, m)`` matrix of m sorted
    columns sharing the weights (ties allowed; tied atoms behave as one
    merged atom), or either of them made once by ``prepare_supports``.
    Returns ``(k,)`` for a vector and ``(k, m)`` for a matrix, k being the
    number of weight rows.  A row need not sum to 1: every functional is
    taken of the row divided by its total.  This is the one vectorized
    backend, shared by the scalar functionals, the resampling engine and
    both bootstraps.

    ``window``, a pair ``(lo, hi)`` of atom indices, is where the split
    atom of a quantile, truncated mean or CVaR is looked for first
    (``dirichlet.split_window`` gives it for Dirichlet rows); rows that
    split elsewhere are recomputed over every atom, so the window changes
    the cost, not the results.  None means every atom; the mean ignores it.
    On supports made by ``_lumped`` a row that splits on the lumped atom
    has no result here and is NaN; the resampling engine redraws it.
    """
    sup = supports if isinstance(supports, Supports) else prepare_supports(supports)
    w = np.atleast_2d(np.asarray(weight_rows, dtype=float))
    n_atoms = sup.values.shape[0]
    if w.shape[1] != n_atoms:
        raise ValueError("weight rows must match the number of supports")
    if f.kind == "mean":
        out = _mean_rows(sup, w)
    else:
        lo, hi = (0, n_atoms - 1) if window is None else window
        if not 0 <= lo <= hi < n_atoms:
            raise ValueError(f"window {window!r} is not within the {n_atoms} atoms")
        out = _split_rows(sup, w, f, lo, hi)
    return out[:, 0] if sup.vector else out


def q_mean(dist: WeightedStepCdf) -> float:
    """Mean of a step distribution; +/-inf when an extreme atom has mass."""
    return Functional("mean").evaluate(dist)


def q_quantile(dist: WeightedStepCdf, p: float) -> float:
    """p-quantile (value at risk) under the generalized-inverse convention."""
    return Functional("quantile", p).evaluate(dist)


def q_truncated_mean(dist: WeightedStepCdf, p: float) -> float:
    """Mean of the lowest-p conditional part of the distribution.

    The atom at the p-quantile is split: only the mass needed to reach
    exactly p contributes.  This makes the decomposition
    ``mean = p * trunc_mean + (1 - p) * cvar`` exact.
    """
    return Functional("trunc_mean", p).evaluate(dist)


def q_cvar(dist: WeightedStepCdf, p: float) -> float:
    """Mean of the upper (1-p) tail with the same atom-splitting rule."""
    return Functional("cvar", p).evaluate(dist)


def _cell_endpoints(reduced_points) -> tuple[np.ndarray, np.ndarray]:
    """Left and right endpoints of the cells between consecutive points.

    A monotonic functional is smallest on the upper bound CDF, whose
    weights sit on cell left endpoints, and largest on the lower bound CDF,
    whose weights sit on cell right endpoints: the left endpoints give
    ``q_min`` and the right ones ``q_max``.
    """
    pts = np.asarray(reduced_points, dtype=float).reshape(-1)
    return pts[:-1], pts[1:]


def cell_supports(reduced_points) -> Supports:
    """The cells' left endpoints (column 0) and right endpoints (column 1),
    prepared for ``evaluate_rows``: column 0 gives ``q_min``, column 1
    ``q_max`` (see ``_cell_endpoints``)."""
    return prepare_supports(np.column_stack(_cell_endpoints(reduced_points)))


def quantile_bounds(split_index, reduced_points) -> tuple[np.ndarray, np.ndarray]:
    """Extremes of a quantile over realisations, from their split cells.

    Both bound CDFs of a realisation share its cell weights, so a quantile
    reaches its level in the same cell ``split_index`` on both, and the
    extremes are that cell's endpoints.  Returns ``(q_min, q_max)`` arrays.
    """
    left, right = _cell_endpoints(reduced_points)
    return left[split_index], right[split_index]
