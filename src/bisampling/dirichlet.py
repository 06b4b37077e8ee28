"""Dirichlet weight sampling, tie merging and unit Dirichlet process realisations.

``sample_dirichlet`` is the one weight sampler: single vectors and blocks
of rows, uniform-simplex and general parameters.  The unit Dirichlet
process (sometimes called the identity Dirichlet process) is a random
distortion of the uniform CDF on [0, 1] with concentration ``alpha``; two
samplers are provided, one on a fixed grid of cells and one by truncated
stick breaking.
"""

from __future__ import annotations

import numpy as np

from .pbox import ExtendedOrderStats, WeightedStepCdf


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
    a = np.asarray(params, dtype=float).reshape(-1)
    if a.size == 0 or not (a > 0).all():
        raise ValueError("Dirichlet parameters must be positive")
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
