"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS line on success (visible with ``pytest -v``
through the test outcome, and with ``-s`` through stdout).  Heavy criteria
run at the scales given in their descriptions; the whole module completes
in a few minutes.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from conftest import SMALL_SAMPLE, oracle_split_mean, random_fraction_instance

from bisampling.baselines import coverage_experiment, preset
from bisampling.bis import BisConfig, bis_run, interval_estimate, sample_realization
from bisampling.dirichlet import merge_duplicates, sample_dirichlet
from bisampling.functionals import (
    Functional,
    evaluate_rows,
    q_cvar,
    q_mean,
    q_truncated_mean,
)
from bisampling.pbox import BoundingInterval, make_extended_order_stats
from bisampling.rng import derive_seed, stream, substream

INF = float("inf")
POSITIVE = BoundingInterval(0.0, INF)


def test_criterion_1_reference_sample_median_and_mean():
    """Fixed 15-point sample at c=0.9, n=1000, over 20 seeds, under 1 s."""
    t0 = time.perf_counter()
    med_lo, med_hi, mean_lo = [], [], []
    for seed in range(20):
        qs = bis_run(SMALL_SAMPLE, POSITIVE,
                     BisConfig(Functional.parse("median"), 0.9, 1000, seed))
        est = interval_estimate(qs, 0.9)
        med_lo.append(est.lo)
        med_hi.append(est.hi)
        qs = bis_run(SMALL_SAMPLE, POSITIVE,
                     BisConfig(Functional("mean"), 0.9, 1000, seed))
        est = interval_estimate(qs, 0.9)
        mean_lo.append(est.lo)
        assert est.hi == INF and est.unbounded_above
    elapsed = time.perf_counter() - t0
    # endpoints sit on data atoms, so individual seeds can hop one atom over;
    # the seed-median is the resampling-noise-free summary
    assert np.median(med_lo) == pytest.approx(0.34, abs=0.15)
    assert np.median(med_hi) == pytest.approx(3.60, abs=0.15)
    assert np.median(mean_lo) == pytest.approx(1.21, abs=0.10)
    assert elapsed < 1.0
    print(f"PASS criterion 1: median [{np.median(med_lo):.3f}, {np.median(med_hi):.3f}], "
          f"mean lo {np.median(mean_lo):.3f} hi inf, {elapsed:.2f}s")


def test_criterion_2_large_sample_quantile_and_truncated_mean():
    """1000 lognormal draws, c=0.99, n=10000: containment in 99+ of 100 reps."""
    z99 = float(sps.norm.ppf(0.99))
    q_true = math.exp(z99)
    tm_true = math.exp(0.5) * float(sps.norm.cdf(z99 - 1.0)) / 0.99
    hits_q = hits_tm = 0
    reps = 100
    for rep in range(reps):
        data = np.exp(substream(42, rep).normal(0.0, 1.0, 1000))
        cfg = BisConfig(Functional("quantile", 0.99), 0.99, 10_000,
                        derive_seed(42, rep, 1))
        est = interval_estimate(bis_run(data, POSITIVE, cfg), 0.99)
        hits_q += est.lo <= q_true <= est.hi
        cfg = BisConfig(Functional("trunc_mean", 0.99), 0.99, 10_000,
                        derive_seed(42, rep, 2))
        est = interval_estimate(bis_run(data, POSITIVE, cfg), 0.99)
        hits_tm += est.lo <= tm_true <= est.hi
    assert hits_q >= 99
    assert hits_tm >= 99
    print(f"PASS criterion 2: quantile hits {hits_q}/100, trunc-mean hits {hits_tm}/100")


def _run_comparison(name, targets, tol, seed):
    config = preset(name)
    rates = {}
    for method, target in targets.items():
        report = coverage_experiment(
            gen=config["gen"], true_q=config["true_q"], method=method,
            f=config["functional"], n_sample=config["n_sample"],
            credibility=config["credibility"], n_trials=1_000,
            n_resample=config["n_resample"], interval=config["interval"],
            seed=seed,
        )
        rates[method] = report.hit_rate
        assert report.hit_rate == pytest.approx(target, abs=tol), method
    assert rates["bis"] >= 0.95
    return rates


def test_criterion_3_truncated_lognormal_coverage():
    """1000-trial coverage: targets (0.903, 0.901, 0.987) within 0.03."""
    targets = {"student_t": 0.903, "bootstrap": 0.901, "bis": 0.987}
    rates = _run_comparison("table3", targets, 0.03, seed=1)
    print("PASS criterion 3: " +
          ", ".join(f"{m}={r:.3f}" for m, r in rates.items()))


def test_criterion_4_extreme_event_coverage():
    """1000-trial coverage with a 1% atom: (0.689, 0.700, 0.988) within 0.04."""
    targets = {"student_t": 0.689, "bootstrap": 0.700, "bis": 0.988}
    rates = _run_comparison("table4", targets, 0.04, seed=1)
    print("PASS criterion 4: " +
          ", ".join(f"{m}={r:.3f}" for m, r in rates.items()))


def test_criterion_5_point_law_beta_marginals():
    """Realisation CDF values at x=1.0 follow Beta(6,10) / Beta(7,9)."""
    stats = make_extended_order_stats(SMALL_SAMPLE, POSITIVE)
    reduced, params = merge_duplicates(stats)
    rng = stream(7)
    lo = np.empty(10_000)
    hi = np.empty(10_000)
    for i in range(lo.size):
        real = sample_realization(reduced, params, rng)
        lo[i] = real.lower.cdf(1.0)
        hi[i] = real.upper.cdf(1.0)
    p_lo = sps.kstest(lo, "beta", args=(6, 10)).pvalue
    p_hi = sps.kstest(hi, "beta", args=(7, 9)).pvalue
    assert p_lo > 0.01
    assert p_hi > 0.01
    print(f"PASS criterion 5: KS p-values {p_lo:.3f} (lower), {p_hi:.3f} (upper)")


def test_criterion_6_property_suite():
    """Bundle of distribution-free invariants."""
    # simplex sampler: normalization and Beta(1, 15) first marginal
    rng = stream(3)
    draws = np.array([sample_dirichlet(np.ones(16), rng) for _ in range(20_000)])
    assert (draws >= 0).all()
    assert np.abs(draws.sum(axis=1) - 1.0).max() <= 1e-12
    assert sps.kstest(draws[:, 0], "beta", args=(1, 15)).pvalue > 0.01

    # duplicate merging leaves the resampled law unchanged (KS on q_mean)
    data = [1.0, 1.0, 2.0, 3.0, 3.0, 3.0]
    interval = BoundingInterval(0.0, 10.0)
    stats = make_extended_order_stats(data, interval)
    merged = bis_run(data, interval,
                     BisConfig(Functional("mean"), 0.5, 10_000, 21))
    rng = stream(22)
    full = np.empty(10_000)
    for i in range(full.size):
        w = sample_dirichlet(np.ones(len(data) + 1), rng)
        full[i] = evaluate_rows(Functional("mean"), stats.points[1:], w[None])[0]
    ks_p = sps.ks_2samp(merged.q_max, full).pvalue
    assert ks_p > 0.01

    # monotonicity under first-order stochastic dominance, 1000 random pairs
    rng = np.random.default_rng(36)
    functionals = [Functional("mean"), Functional("quantile", 0.3),
                   Functional("quantile", 0.5), Functional("trunc_mean", 0.8),
                   Functional("cvar", 0.8)]
    for _ in range(1_000):
        n = int(rng.integers(2, 8))
        s = np.sort(rng.normal(size=n) * 4)
        cum_a = np.sort(rng.uniform(size=n - 1))
        cum_b = np.sort(rng.uniform(size=n - 1))
        w_y = np.diff(np.concatenate(([0.0], np.minimum(cum_a, cum_b), [1.0])))
        w_z = np.diff(np.concatenate(([0.0], np.maximum(cum_a, cum_b), [1.0])))
        for f in functionals:
            y = evaluate_rows(f, s, w_y[None])[0]
            z = evaluate_rows(f, s, w_z[None])[0]
            assert y >= z - 1e-12

    # per-realisation ordering on a real run
    qs = bis_run(SMALL_SAMPLE, POSITIVE,
                 BisConfig(Functional("cvar", 0.8), 0.5, 2_000, 5))
    assert (qs.q_min <= qs.q_max).all()

    # truncated-mean / cvar decomposition within 1e-10
    rng = np.random.default_rng(33)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        s = np.sort(rng.normal(size=n) * 10)
        w = rng.dirichlet(np.ones(n))
        from bisampling.pbox import WeightedStepCdf

        d = WeightedStepCdf(s, w)
        p = float(rng.uniform(0.05, 0.95))
        lhs = p * q_truncated_mean(d, p) + (1 - p) * q_cvar(d, p)
        assert abs(lhs - q_mean(d)) <= 1e-10

    # interval nesting in credibility
    qs = bis_run(SMALL_SAMPLE, POSITIVE,
                 BisConfig(Functional.parse("median"), 0.9, 1000, 9))
    prev = interval_estimate(qs, 0.05)
    for c in (0.2, 0.5, 0.8, 0.95):
        cur = interval_estimate(qs, c)
        assert cur.lo <= prev.lo and cur.hi >= prev.hi
        prev = cur

    # byte determinism under a fixed seed
    cfg = BisConfig(Functional.parse("median"), 0.9, 1000, 11)
    a = bis_run(SMALL_SAMPLE, POSITIVE, cfg)
    b = bis_run(SMALL_SAMPLE, POSITIVE, cfg)
    assert a.q_min.tobytes() == b.q_min.tobytes()
    assert a.q_max.tobytes() == b.q_max.tobytes()

    print(f"PASS criterion 6: property suite (merge KS p={ks_p:.3f})")


def test_criterion_7_oracle_equivalence():
    """Atom-split functionals match the exact-rational oracle on 1e4 cases."""
    rng = np.random.default_rng(1234)
    from bisampling.pbox import WeightedStepCdf

    checked = 0
    for _ in range(10_000):
        supports, weights, p = random_fraction_instance(rng)
        d = WeightedStepCdf([float(s) for s in supports], [float(w) for w in weights])
        tm = q_truncated_mean(d, float(p))
        cv = q_cvar(d, float(p))
        want_tm = float(oracle_split_mean(supports, weights, p, tail=False))
        want_cv = float(oracle_split_mean(supports, weights, p, tail=True))
        assert abs(tm - want_tm) <= 1e-12
        assert abs(cv - want_cv) <= 1e-12
        checked += 1
    assert checked == 10_000
    print(f"PASS criterion 7: {checked} oracle instances matched to 1e-12")
