"""Dirichlet weight sampling, tie merging and unit Dirichlet process realisations.

``sample_dirichlet`` is the one weight sampler: single vectors and blocks
of rows, uniform-simplex and general parameters.  ``sample_split_index``
draws the cell where the cumulative weight first reaches a level from its
exact law, without drawing weights.  The unit Dirichlet process (sometimes
called the identity Dirichlet process) is a random distortion of the
uniform CDF on [0, 1] with concentration ``alpha``; two samplers are
provided, one on a fixed grid of cells and one by truncated stick breaking.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betaincc

from .errors import InvalidProbabilityError
from .pbox import ExtendedOrderStats, WeightedStepCdf


def _positive_params(params) -> np.ndarray:
    a = np.asarray(params, dtype=float).reshape(-1)
    if a.size == 0 or not (a > 0).all():
        raise ValueError("Dirichlet parameters must be positive")
    return a


def sample_dirichlet(
    params, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Draw weight vectors from a Dirichlet distribution.

    ``params`` is a sequence of positive concentration parameters.  With
    ``size`` None one vector is returned, otherwise a ``(size, len(params))``
    block of rows drawn in order from ``rng``.  All-ones parameters (the
    uniform simplex) normalise unit exponentials, generated as -log(U) with
    U drawn from (0, 1] so the log never sees zero; other parameters
    normalise gamma variates.
    """
    a = _positive_params(params)
    shape = a.shape if size is None else (size, a.size)
    if np.all(a == 1.0):
        g = -np.log1p(-rng.random(shape))
    else:
        g = rng.gamma(a, size=shape)
    rows = g.reshape(-1, a.size)
    total = rows.sum(axis=1, keepdims=True)
    dead = total[:, 0] <= 0.0
    if dead.any():
        # all gammas underflowed (tiny shapes); the limit law is a random vertex
        rows[dead, rng.integers(a.size, size=int(dead.sum()))] = 1.0
        total[dead] = 1.0
    return (rows / total).reshape(shape)


def sample_split_index(
    params, p: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw the first cell where Dirichlet cumulative weight reaches ``p``.

    By the aggregation property the weight of cells 0..j follows
    Beta(A_j, A - A_j), with A_j the sum of their parameters and A the sum
    of all, so P(index <= j) = P(Beta(A_j, A - A_j) >= p), which is 1 at
    the last cell.  This law is computed once in O(len(params)) and
    inverted at ``size`` uniforms drawn from (0, 1], so no weight vector is
    ever formed.
    """
    a = _positive_params(params)
    if not 0.0 < p < 1.0:
        raise InvalidProbabilityError(f"p must be in (0, 1), got {p!r}")
    head = np.cumsum(a)[:-1]
    # the rest summed from the right stays positive where A - A_j would round to 0
    rest = np.cumsum(a[::-1])[::-1][1:]
    cdf = np.append(betaincc(head, rest, p), 1.0)
    np.maximum.accumulate(cdf, out=cdf)
    return np.searchsorted(cdf, 1.0 - rng.random(size), side="left")


def merge_duplicates(stats: ExtendedOrderStats) -> tuple[np.ndarray, np.ndarray]:
    """Collapse runs of tied points into degenerate cells with merged weight.

    Returns ``(reduced_points, params)`` where every value appears at most
    twice in ``reduced_points`` and ``params`` holds one Dirichlet parameter
    per cell between consecutive reduced points: 1 for ordinary cells and
    ``run_length - 1`` for the degenerate cell kept at a tied value.  With
    all points distinct this is the identity: the original points and a
    vector of ones.  Ties are exact float equality.
    """
    values, counts = np.unique(stats.points, return_counts=True)
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
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if n_cells < 1:
        raise ValueError("n_cells must be at least 1")
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
    if not alpha > 0:
        raise ValueError("alpha must be positive")
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
