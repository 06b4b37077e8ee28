"""Reference interval methods, synthetic generators and the coverage harness.

Each bootstrap resample is a row of weights over the sorted data (integer
counts, or the engine's Dirichlet rows for the Bayesian bootstrap),
streamed in chunks through the engine's loop ``bis._resample``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from . import rng as rngmod
from .bis import (
    BisConfig,
    _chunk_rows,
    _dirichlet_resample,
    _resample,
    bis_run,
    interval_estimate,
)
from .errors import TooFewSamplesError
from .functionals import Functional, prepare_supports
from .pbox import BoundingInterval, IntervalEstimate

# mean of the unit lognormal truncated to [0, 50]; equals
# exp(1/2) * Phi(ln 50 - 1) / Phi(ln 50), confirmed by a 1e7-draw simulation
TRUNC_LOGNORMAL_MEAN = 1.6458363416578858


@dataclass(frozen=True)
class TruncatedLognormal:
    """exp(Normal(mu, sigma)) rejection-sampled into [lo, hi]."""

    mu: float
    sigma: float
    lo: float
    hi: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")


@dataclass(frozen=True)
class ExtremeMixture:
    """With probability ``atom_prob`` emit ``atom``, else draw from ``base``."""

    base: "Generator"
    atom: float
    atom_prob: float

    def __post_init__(self):
        if not 0.0 <= self.atom_prob <= 1.0:
            raise ValueError("atom_prob must be in [0, 1]")


Generator = TruncatedLognormal | ExtremeMixture


def generate(gen: Generator, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` observations from a synthetic generator."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if isinstance(gen, TruncatedLognormal):
        out = np.empty(n)
        filled = 0
        while filled < n:
            draws = np.exp(rng.normal(gen.mu, gen.sigma, size=n - filled))
            kept = draws[(draws >= gen.lo) & (draws <= gen.hi)]
            out[filled : filled + kept.size] = kept
            filled += kept.size
        return out
    if isinstance(gen, ExtremeMixture):
        base = generate(gen.base, n, rng)
        hits = rng.random(n) < gen.atom_prob
        return np.where(hits, gen.atom, base)
    raise TypeError(f"unknown generator {gen!r}")


def student_t_interval(data, credibility: float) -> IntervalEstimate:
    """Classic mean interval from Student's t with n-1 degrees of freedom."""
    arr = np.asarray(data, dtype=float).reshape(-1)
    if arr.size < 2:
        raise TooFewSamplesError("need at least two observations")
    m = float(arr.mean())
    s = float(arr.std(ddof=1))
    tcrit = float(sps.t.ppf((1.0 + credibility) / 2.0, arr.size - 1))
    half = tcrit * s / math.sqrt(arr.size)
    return IntervalEstimate(lo=m - half, hi=m + half, credibility=credibility)


def _count_chunks(ranks, rng: np.random.Generator, size: int, chunk_rows: int):
    """Resamples with replacement as rows counting each sorted value (``ranks``
    maps observations to sorted positions), ``chunk_rows`` at a time in one
    reused buffer.  The stream fills in order, so the draws equal one ``(size,
    n)`` draw; one bincount over the ranks offset by row * n counts a chunk."""
    n = ranks.size
    buf = np.empty((min(chunk_rows, size), n))
    offsets = n * np.arange(buf.shape[0])[:, None]
    for start in range(0, size, chunk_rows):
        rows = min(chunk_rows, size - start)
        drawn = ranks[rng.integers(0, n, size=(rows, n))]
        drawn += offsets[:rows]
        out = buf[:rows]
        out[...] = np.bincount(drawn.ravel(), minlength=rows * n).reshape(rows, n)
        yield out


def bootstrap_interval(
    data, f: Functional, credibility: float, n_resample: int, rng: np.random.Generator
) -> IntervalEstimate:
    """Percentile bootstrap: resamples with replacement as integer count rows."""
    arr = np.asarray(data, dtype=float).reshape(-1)
    n = arr.size
    if n < 1:
        raise TooFewSamplesError("need at least one observation")
    order = np.argsort(arr, kind="stable")
    # a chunk's draws, ranks, counts and rows are four (rows, n) arrays of 8 bytes
    chunks = _count_chunks(np.argsort(order), rng, n_resample, _chunk_rows(32 * n))
    qs = _resample(f, prepare_supports(arr[order]), chunks, n_resample)
    return interval_estimate(qs, credibility)


def bayesian_bootstrap_interval(
    data, f: Functional, credibility: float, n_resample: int, rng: np.random.Generator
) -> IntervalEstimate:
    """Bayesian bootstrap: uniform Dirichlet weights on the sorted observations.

    The rows come from the draw of ``bis_run``, ``bis._dirichlet_resample``,
    with all-ones parameters, so a truncated mean or CVaR searches its
    split window and draws the observations it reads only through their
    total as that one total.
    """
    arr = np.asarray(data, dtype=float).reshape(-1)
    if arr.size < 1:
        raise TooFewSamplesError("need at least one observation")
    qs = _dirichlet_resample(f, np.ones(arr.size), prepare_supports(np.sort(arr)), rng,
                             n_resample)
    return interval_estimate(qs, credibility)


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of a coverage experiment for one method."""

    method: str
    credibility: float
    n_trials: int
    hit_rate: float
    median_lo: float
    median_hi: float

    def __post_init__(self):
        if not 0.0 <= self.hit_rate <= 1.0:
            raise ValueError("hit_rate must be a fraction")


METHODS = ("student_t", "bootstrap", "bayesian_bootstrap", "bis")


def coverage_experiment(
    gen: Generator,
    true_q: float,
    method: str,
    f: Functional,
    n_sample: int,
    credibility: float,
    n_trials: int,
    n_resample: int,
    interval: BoundingInterval,
    seed: int,
) -> CoverageReport:
    """Repeatedly draw datasets and record how often the interval hits true_q.

    The per-trial data stream depends only on (seed, trial), so different
    methods see identical datasets for the same seed.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if math.isnan(true_q):
        raise ValueError("true_q must not be NaN")

    def run_trial(t):
        data = generate(gen, n_sample, rngmod.substream(seed, t, 0))
        if method == "student_t":
            est = student_t_interval(data, credibility)
        elif method == "bootstrap":
            est = bootstrap_interval(
                data, f, credibility, n_resample, rngmod.substream(seed, t, 1)
            )
        elif method == "bayesian_bootstrap":
            est = bayesian_bootstrap_interval(
                data, f, credibility, n_resample, rngmod.substream(seed, t, 1)
            )
        else:
            cfg = BisConfig(
                functional=f,
                credibility=credibility,
                n_resample=n_resample,
                seed=rngmod.derive_seed(seed, t, 1),
            )
            est = interval_estimate(bis_run(data, interval, cfg), credibility)
        return est.lo, est.hi

    pairs = [run_trial(t) for t in range(n_trials)]
    lows = np.array([p[0] for p in pairs])
    highs = np.array([p[1] for p in pairs])
    hits = (lows <= true_q) & (true_q <= highs)
    return CoverageReport(
        method=method,
        credibility=credibility,
        n_trials=n_trials,
        hit_rate=float(hits.mean()),
        median_lo=float(np.median(lows)),
        median_hi=float(np.median(highs)),
    )


def preset(name: str) -> dict:
    """Canned coverage-experiment configurations for the comparison tables."""
    base = TruncatedLognormal(mu=0.0, sigma=1.0, lo=0.0, hi=50.0)
    common = dict(
        functional=Functional("mean"),
        n_sample=50,
        credibility=0.95,
        n_resample=2000,
        interval=BoundingInterval(0.0, 50.0),
        methods=("student_t", "bootstrap", "bis"),
    )
    if name == "table3":
        return dict(gen=base, true_q=TRUNC_LOGNORMAL_MEAN, **common)
    if name == "table4":
        gen = ExtremeMixture(base=base, atom=50.0, atom_prob=0.01)
        true_q = 0.99 * TRUNC_LOGNORMAL_MEAN + 0.01 * 50.0
        return dict(gen=gen, true_q=true_q, **common)
    raise ValueError(f"unknown preset {name!r}")
