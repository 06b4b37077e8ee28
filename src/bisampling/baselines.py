"""Reference interval methods, synthetic generators and the coverage harness.

A percentile bootstrap resample is a row of n positions drawn in the sorted
data, a chunk of rows at a time, and each functional is read from the drawn
values of its row by ``functionals._resample_values``.  The Bayesian
bootstrap is the engine's own Dirichlet draw with unit parameters
(``bis._dirichlet_resample``).  Both only draw: ``functionals`` reads every
functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .bis import (
    BisConfig,
    QSamples,
    _chunk_rows,
    _dirichlet_resample,
    bis_run,
    interval_estimate,
)
from .errors import (
    NonFiniteError,
    TooFewSamplesError,
    _check_n_resample,
    _check_open_unit,
)
from .functionals import Functional, _resample_values, prepare_supports
from .pbox import BoundingInterval, IntervalEstimate

# mean of the unit lognormal truncated to [0, 50]; equals
# exp(1/2) * Phi(ln 50 - 1) / Phi(ln 50), confirmed by a 1e7-draw simulation
TRUNC_LOGNORMAL_MEAN = 1.6458363416578858


@dataclass(frozen=True)
class TruncatedLognormal:
    """``Generator.lognormal(mu, sigma)`` (libm's ``exp``) rejection-sampled into [lo, hi]."""

    mu: float
    sigma: float
    lo: float
    hi: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if self.hi <= 0:
            raise ValueError("need hi > 0: no draw of exp(Normal) lands at or below 0")
        # the mass of [lo, hi], from the upper tail where it starts at or
        # above the median so that a tail mass keeps its precision
        a = (math.log(self.lo) - self.mu) / self.sigma if self.lo > 0 else -math.inf
        b, r = (math.log(self.hi) - self.mu) / self.sigma, math.sqrt(0.5)
        mass = 0.5 * (math.erfc(a * r) - math.erfc(b * r) if a >= 0
                      else math.erfc(-b * r) - math.erfc(-a * r))
        if not mass >= 1e-6:
            raise ValueError(f"[lo, hi] holds {mass:.3g} of the law's mass, below 1e-6: "
                             "generate would draw about 1/mass normals per observation")


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
    _check_n_resample(n, name="n")
    if isinstance(gen, TruncatedLognormal):
        out = np.empty(n)
        filled = 0
        while filled < n:
            draws = rng.lognormal(gen.mu, gen.sigma, size=n - filled)
            kept = draws[(draws >= gen.lo) & (draws <= gen.hi)]
            out[filled : filled + kept.size] = kept
            filled += kept.size
        return out
    if isinstance(gen, ExtremeMixture):
        base = generate(gen.base, n, rng)
        hits = rng.random(n) < gen.atom_prob
        return np.where(hits, gen.atom, base)
    raise TypeError(f"unknown generator {gen!r}")


def _observations(data, least: int, finite: bool = False) -> np.ndarray:
    """``data`` as a flat float array of at least ``least`` observations, none
    NaN, and none infinite when ``finite`` (the bootstraps take infinities);
    a copy with -0.0 read as 0.0, so tied zeros sort to equal bits."""
    arr = np.asarray(data, dtype=float).reshape(-1) + 0.0
    if arr.size < least:
        raise TooFewSamplesError(f"need at least {least} observation(s), got {arr.size}")
    bad = ~np.isfinite(arr) if finite else np.isnan(arr)
    if bad.any():
        raise NonFiniteError(f"observations must not be {arr[bad][0]}")
    return arr


def student_t_interval(data, credibility: float) -> IntervalEstimate:
    """Classic mean interval from Student's t with n-1 degrees of freedom.

    The mean and deviation are taken on the data over a power of two past
    their largest magnitude and scaled back: the scaling is exact, so the
    interval scales with the data, and neither a sum or square near the
    float range overflows nor a square of tiny data underflows.
    """
    # scipy.stats.t.ppf's own routine, imported on first use without scipy.stats
    from scipy.special import stdtrit

    arr = _observations(data, 2, finite=True)
    tcrit = float(stdtrit(arr.size - 1, (1.0 + credibility) / 2.0))
    e = math.frexp(float(np.abs(arr).max()))[1]
    scaled = np.ldexp(arr, -e)
    m = float(scaled.mean())
    half = tcrit * float(scaled.std(ddof=1)) / math.sqrt(arr.size)
    with np.errstate(over="ignore"):
        lo, hi = (float(np.ldexp(b, e)) for b in (m - half, m + half))
    return IntervalEstimate(lo=lo, hi=hi, credibility=credibility)


def bootstrap_interval(
    data, f: Functional, credibility: float, n_resample: int, rng: np.random.Generator
) -> IntervalEstimate:
    """Percentile bootstrap: each resample is n positions drawn with
    replacement in the sorted data.

    A resample is exchangeable, so positions are drawn in the sorted data
    directly, in chunks filled in order from ``rng``: the draws equal one
    ``(n_resample, n)`` draw.  The sorted data are prepared once, and each
    functional is read from a chunk's positions by
    ``functionals._resample_values``.
    """
    arr = _observations(data, 1)
    _check_n_resample(n_resample)
    _check_open_unit(credibility, "credibility")
    arr.sort()
    sup = prepare_supports(arr)
    n = arr.size
    # a chunk's positions and their drawn values are two (rows, n) arrays of 8 bytes
    chunk_rows = _chunk_rows(16 * n)
    q = np.empty(n_resample)
    for start in range(0, n_resample, chunk_rows):
        rows = min(chunk_rows, n_resample - start)
        q[start : start + rows] = _resample_values(f, sup, rng.integers(0, n, size=(rows, n)))
    return interval_estimate(QSamples(q, q), credibility)


def bayesian_bootstrap_interval(
    data, f: Functional, credibility: float, n_resample: int, rng: np.random.Generator
) -> IntervalEstimate:
    """Bayesian bootstrap: uniform Dirichlet weights on the sorted observations.

    The resamples come from the draw of ``bis_run``,
    ``bis._dirichlet_resample``, with all-ones parameters over one column
    of sorted data: a quantile is the observation at a split index drawn
    from its exact Binomial(n - 1, p) law, with no weights drawn, and a
    truncated mean or CVaR is the mean of the observations up to or from
    that split, drawn given it (Pyke 1965).
    """
    arr = _observations(data, 1)
    _check_n_resample(n_resample)
    _check_open_unit(credibility, "credibility")
    arr.sort()
    qs = _dirichlet_resample(f, np.ones(arr.size), arr[:, None], rng, n_resample)
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
    if method == "student_t" and f.kind != "mean":
        raise ValueError(f"student_t gives an interval for the mean, not the {f.kind}")
    _check_n_resample(n_trials, name="n_trials")
    if math.isnan(true_q):
        raise ValueError("true_q must not be NaN")

    def run_trial(t):
        data = generate(gen, n_sample, rngmod.substream(seed, t, 0))
        if method == "student_t":
            est = student_t_interval(data, credibility)
        elif method in ("bootstrap", "bayesian_bootstrap"):
            bootstrap = bootstrap_interval if method == "bootstrap" else bayesian_bootstrap_interval
            est = bootstrap(data, f, credibility, n_resample, rngmod.substream(seed, t, 1))
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
