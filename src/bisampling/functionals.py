"""Population-parameter functionals on weighted step distributions.

All functionals implemented here are monotonic with respect to first-order
stochastic dominance, so their extremes over a probability box are attained
at the box's own bounds; ``pbox.cell_endpoints`` is the one place that
pairs each extreme with its bound.  Functionals are total on finite-support
distributions and return signed infinities where a result is unbounded
rather than raising; only a sum that weighs both -inf and +inf raises
``IndeterminateSumError``, in ``_place_infinities``.

Every kernel that reads a functional is here, so every method reads it by
the same rules: ``Functional.evaluate`` for one step CDF, ``_mean_rows``
and ``_cut_mean`` for it and for the Dirichlet rows of ``bis`` and the
Bayesian bootstrap, and ``_resample_values`` for the positions the
percentile bootstrap draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndeterminateSumError, _check_open_unit
from .pbox import WeightedStepCdf

_KINDS = ("mean", "quantile", "trunc_mean", "cvar")


@dataclass(frozen=True)
class Functional:
    """A population parameter: mean, quantile(p), trunc_mean(p) or cvar(p).

    The median is quantile(0.5), the p-quantile (value at risk) under the
    generalized-inverse convention.  The truncated mean is the mean of the
    lowest p of the mass and CVaR that of the upper 1 - p, the atom at the
    p-quantile being split so that only the mass needed to reach exactly p
    counts on either side; so ``mean = p * trunc_mean + (1 - p) * cvar``
    holds exactly.  ``p`` must lie strictly inside (0, 1) for the
    parametrised kinds and must be None for the mean.
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
        name, colon, arg = text.strip().partition(":")
        name = name.lower()
        if name in ("mean", "median") and not colon:
            return cls("mean") if name == "mean" else cls("quantile", 0.5)
        table = {"quantile": "quantile", "trunc-mean": "trunc_mean", "cvar": "cvar"}
        try:
            kind, p = table[name], float(arg)
        except (KeyError, ValueError):
            raise ValueError(f"cannot parse functional {text!r}") from None
        return cls(kind, p)

    def evaluate(self, dist: WeightedStepCdf) -> float:
        """The functional of one step distribution, read from its CDF.

        A quantile is the CDF's own generalized inverse, so it agrees with
        ``dist.cdf`` where p sits on a cumulative weight.  A truncated mean
        or CVaR splits at the first atom c whose cumulative weight reaches
        p of the total, and c takes the rest of the side's mass: p of the
        total less the weight strictly below c, or 1 - p of it less the
        weight strictly above.  That strict weight is summed from the
        side's own atoms, masked over the whole row, because a difference
        of cumulative sums near the total loses the small tail masses of p
        near 1.  The mean, and the mean of the row cut at c, are
        ``_mean_rows`` and ``_cut_mean`` of the one weight row.
        """
        if self.kind == "quantile":
            return dist.quantile(self.p)
        sup, w = prepare_supports(dist.supports), dist.weights[None]
        if self.kind == "mean":
            return float(_mean_rows(sup, w)[0, 0])
        p, cum, n = self.p, dist._cum, dist.n_atoms
        total = cum[-1]
        c = np.searchsorted(cum, p * total, "left")
        tail = self.kind == "cvar"
        if tail:
            share = (1.0 - p) * total - np.where(np.arange(1, n) > c, w[:, 1:], 0.0).sum(axis=1)
        else:
            share = p * total - np.where(np.arange(n) < c, w, 0.0).sum(axis=1)
        return float(_cut_mean(sup, w.copy(), c[None], tail, np.maximum(share, 0.0))[0, 0])


@dataclass(frozen=True, eq=False)
class Supports:
    """Sorted support columns with the arrays every weight row reuses.

    Made once by ``prepare_supports`` and passed to the row kernels for
    each block of weight rows.  ``terms`` holds the m columns of supports
    with infinities zeroed, then a ones column that sums the weight in the
    same product, whatever the supports hold.  ``terms`` is column-major,
    so a run of atoms (``atoms``) is a contiguous piece of every column:
    the split means of ``_cut_mean`` read only the atoms their cut rows
    reach.  The kernels return ``(k, m)``, one result per row and column.
    """

    values: np.ndarray  # (n, m) sorted columns
    terms: np.ndarray  # (n, m + 1), column-major

    def atoms(self, start: int, stop: int) -> "Supports":
        """The atoms ``start..stop-1``, a row slice with no copy."""
        return Supports(self.values[start:stop], self.terms[start:stop])


def prepare_supports(supports) -> Supports:
    """Prepare one sorted support vector, as one column, or an ``(n, m)``
    matrix of columns.

    Supports the kernels cannot read raise ValueError: no atoms, a NaN, or
    a column out of order (its infinite atoms would be misplaced).
    """
    s = np.asarray(supports, dtype=float)
    if s.ndim < 2:
        s = s.reshape(-1, 1)
    n, m = s.shape
    if n == 0:
        raise ValueError("supports must hold at least one atom")
    # every elementwise pass reads the columns: across the rows of the
    # engine's overlapping view of the cell endpoints it is twenty times slower
    cols = s.T
    if np.isnan(cols).any():
        raise ValueError("supports must not hold NaN")
    if (cols[:, 1:] < cols[:, :-1]).any():
        raise ValueError("every support column must be sorted")
    terms = np.empty((n, m + 1), order="F")
    terms.T[:m] = cols
    for col in terms.T[:m]:
        if col[0] == -np.inf or col[-1] == np.inf:
            neg, pos = _infinite_runs(col)
            col[:neg] = 0.0
            col[pos:] = 0.0
    terms[:, m] = 1.0
    return Supports(s, terms)


def _infinite_runs(col: np.ndarray) -> tuple[int, int]:
    """The end of a sorted column's run of -inf atoms, which sort first,
    and the start of its run of +inf atoms, which sort last."""
    return np.searchsorted(col, -np.inf, "right"), np.searchsorted(col, np.inf, "left")


def _mean_rows(sup: Supports, w: np.ndarray, low=None, high=None) -> np.ndarray:
    """The mean of each row of ``w`` on each column of ``sup``, ``(k, m)``.

    Every weighted sum of a block becomes a mean here.  A column's finite
    sums come from one product with ``terms``.  A sorted column holds its
    -inf atoms first and its +inf atoms last, so only a column with an
    infinite end is searched for them; where a row weighs its -inf (+inf)
    atoms the mean is -inf (+inf), and weight on both raises
    ``IndeterminateSumError``.  A ratio of rounded sums can land an ulp
    outside the atoms it averages, so each result is clipped to
    ``[low, high]``: by default the column's first and last atoms, for a
    split mean its side's bounds.  A sum that is not finite overflowed
    (``terms`` zeroes infinities): its weights, over their total, are summed again.
    """
    s, m = sup.values, sup.values.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        sums = w @ sup.terms
    total = sums[:, m].copy()  # contiguous: a pass over the strided column is slower
    if not (0 < total.min() and total.max() < np.inf):  # a NaN fails both
        raise ValueError("every weight row must have a positive, finite total")
    if not np.isfinite(sums).all():
        big = ~np.isfinite(sums).all(axis=1)
        sums[big] = (w[big] / total[big, None]) @ sup.terms
    out = sums[:, :m] / sums[:, m:]
    for j in range(m):
        col = s[:, j]
        if col[0] == -np.inf or col[-1] == np.inf:
            neg, pos = _infinite_runs(col)
            _place_infinities(out[:, j], w[:, :neg].any(axis=1), w[:, pos:].any(axis=1))
    return np.clip(out, s[:1] if low is None else low, s[-1:] if high is None else high, out=out)


def _place_infinities(out: np.ndarray, neg: np.ndarray, pos: np.ndarray) -> None:
    """Set ``out`` to -inf where a row weighs -inf atoms (``neg``) and to
    +inf where it weighs +inf atoms (``pos``); a row weighing both has no
    mean and raises ``IndeterminateSumError``."""
    if np.any(neg & pos):
        raise IndeterminateSumError("positive weight at both -inf and +inf")
    out[neg], out[pos] = -np.inf, np.inf


def _cut_mean(sup: Supports, w: np.ndarray, c: np.ndarray, tail: bool,
              share: np.ndarray) -> np.ndarray:
    """The mean of each row of ``w`` cut at its split atom ``c``: the
    truncated mean, or CVaR if ``tail``, given the split.  ``w`` is cut in
    place.

    A row's split atom takes ``share`` and the far side of it is zeroed, in
    the columns between the smallest and the largest split only; the mean
    is taken on the row slice of the supports that the cut rows reach, so
    the columns beyond are never read.  ``_mean_rows`` takes it and keeps
    each result inside its side, [s_0, s_c] or [s_c, s_last]; infinite
    atoms and a side weighing both of them are its rules too.
    """
    n = w.shape[1]
    w[np.arange(w.shape[0]), c] = share
    lo, hi = int(c.min()), int(c.max())
    if tail:
        band = w[:, lo:hi]
        band[np.arange(lo, hi) < c[:, None]] = 0.0
        start, stop = lo, n
    else:
        band = w[:, lo + 1 : hi + 1]
        band[np.arange(lo + 1, hi + 1) > c[:, None]] = 0.0
        start, stop = 0, hi + 1
    s = sup.values
    low, high = (s[c], s[-1]) if tail else (s[0], s[c])
    return _mean_rows(sup.atoms(start, stop), w[:, start:stop], low, high)


def _resample_values(f: Functional, sup: Supports, pos: np.ndarray) -> np.ndarray:
    """``f`` of each resample, a row of ``pos`` (positions in the sorted
    data, the one column of ``sup``), by the rules of weight rows on that
    column; ``pos`` is reordered in place unless ``f`` is the mean.

    A row of n positions splits at its r-th smallest position c, r being
    the first count that reaches p n (``cum >= p * total``); a quantile is
    x_c, found for every row by one partition.  A truncated mean (CVaR)
    weighs the r - 1 smallest (n - r largest) drawn values by one and x_c
    by the rest of the side's mass, p n ((1 - p) n), each row sorted so
    that its side sums in position order, which no CPU dispatch changes as
    it would a partition's; a mean weighs every drawn value by one.  Each
    row is summed on its own, from ``terms``, so a value does not depend on
    the rows beside it.  A zero share weighs nothing; infinite atoms, the
    clip to the side and the second sum of an overflowed row (values over
    the side's mass) follow ``_mean_rows``.
    """
    x, finite, n = sup.values[:, 0], sup.terms[:, 0], pos.shape[1]
    c, share = None, 0.0
    if f.kind == "mean":
        side, low, high = pos, x[0], x[-1]
    else:
        r = math.ceil(f.p * n)
        if f.kind == "quantile":
            pos.partition(r - 1, axis=1)
            return x[pos[:, r - 1]]
        pos.sort(axis=1)
        c = pos[:, r - 1]
        if f.kind == "cvar":
            side, share, low, high = pos[:, r:], (1.0 - f.p) * n - (n - r), x[c], x[-1]
        else:
            side, share, low, high = pos[:, : r - 1], f.p * n - (r - 1), x[0], x[c]
        share = max(share, 0.0)
    mass = side.shape[1] + share
    with np.errstate(over="ignore", invalid="ignore"):
        out = finite[side].sum(axis=1)
        if share:
            out += share * finite[c]
    out /= mass
    if not np.isfinite(out).all():
        big = ~np.isfinite(out)
        out[big] = (finite[side[big]] / mass).sum(axis=1)
        if share:
            out[big] += share / mass * finite[c[big]]
    if x[0] == -np.inf or x[-1] == np.inf:
        # the initial values lie past the data's ends, so an empty side reaches no atom
        first, last = side.min(axis=1, initial=x.size), side.max(axis=1, initial=-1)
        if share:
            first, last = np.minimum(first, c), np.maximum(last, c)
        neg_end, pos_start = _infinite_runs(x)
        _place_infinities(out, first < neg_end, last >= pos_start)
    return np.clip(out, low, high, out=out)
