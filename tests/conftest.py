"""Shared test data, independent oracles and the environment of a fresh
interpreter."""

import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bisampling.functionals import _cut_mean, _mean_rows, prepare_supports

# 15 observations drawn from a unit lognormal; fixed reference sample used
# across the suite
SMALL_SAMPLE = (
    1.435, 0.276, 3.603, 0.211, 2.996,
    7.289, 0.426, 0.124, 1.523, 4.603,
    1.696, 0.620, 0.338, 6.351, 1.026,
)


@pytest.fixture(scope="session")
def small_sample():
    return np.array(SMALL_SAMPLE)


def child_env(**extra):
    """Environment for a fresh interpreter that imports this checkout's
    library: this process's variables with ``extra`` set and this
    checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


def whole_rows(f, supports, rows):
    """``f`` of each weight row on ``supports``, every row searched whole for
    its split: the reference that the engine's split-first draw, the
    bootstraps and ``Functional.evaluate`` are checked against.

    ``supports`` is one sorted vector (results ``(k,)``) or an ``(n, m)``
    matrix of sorted columns sharing the rows (results ``(k, m)``); tied
    atoms act as one merged atom and a row need not sum to 1.  A row splits
    at its first atom whose cumulative weight reaches p of its total.  A
    truncated mean (CVaR) is ``_cut_mean`` of the row cut there, the split
    atom taking p (1 - p) of the total less the weight strictly below
    (above) it, that strict weight summed from the side's own atoms with
    the far ones masked; the mean is ``_mean_rows`` of the whole row.
    """
    sup = prepare_supports(supports)
    w = np.atleast_2d(np.asarray(rows, dtype=float))
    if f.kind == "mean":
        out = _mean_rows(sup, w)
    else:
        p = f.p
        cum = np.cumsum(w, axis=1)
        total = cum[:, -1]
        reached = cum >= p * total[:, None]
        c = reached.argmax(axis=1)
        if f.kind == "quantile":
            out = sup.values[c]
        else:
            tail = f.kind == "cvar"
            if tail:
                # the atoms after the split atom follow an atom that has reached p
                share = (1.0 - p) * total - np.where(reached[:, :-1], w[:, 1:], 0.0).sum(axis=1)
            else:
                # the atoms before the split atom have not reached p
                share = p * total - np.where(reached, 0.0, w).sum(axis=1)
            out = _cut_mean(sup, w.copy(), c, tail, np.maximum(share, 0.0))
    return out[:, 0] if np.ndim(supports) < 2 else out


def oracle_split_mean(supports, weights, p, tail):
    """Exact atom-split conditional mean via Fraction arithmetic.

    ``supports`` must be strictly increasing; ``weights`` and ``p`` are
    Fractions with the weights summing to exactly 1.  With ``tail`` False
    this is the mean of the lowest-p part, else of the upper (1-p) tail.
    The atom at the split quantile contributes only the mass needed to hit
    p exactly.
    """
    cum = []
    running = Fraction(0)
    for w in weights:
        running += w
        cum.append(running)
    assert running == 1
    k = next(i for i, c in enumerate(cum) if c >= p)
    if not tail:
        below = sum(w * s for s, w in zip(supports[:k], weights[:k]))
        prev = cum[k - 1] if k > 0 else Fraction(0)
        return (below + (p - prev) * supports[k]) / p
    above = sum(w * s for s, w in zip(supports[k + 1 :], weights[k + 1 :]))
    return ((cum[k] - p) * supports[k] + above) / (1 - p)


def random_fraction_instance(rng, max_atoms=5):
    """Random small step distribution with exact rational weights."""
    n = int(rng.integers(1, max_atoms + 1))
    raw = rng.integers(1, 20, size=n)
    total = int(raw.sum())
    weights = [Fraction(int(r), total) for r in raw]
    supports = sorted(rng.choice(np.arange(-50, 51), size=n, replace=False))
    supports = [Fraction(int(s), 4) for s in supports]
    denom = int(rng.integers(2, 64))
    p = Fraction(int(rng.integers(1, denom)), denom)
    return supports, weights, p
