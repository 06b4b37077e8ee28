import math

import numpy as np
import pytest
from scipy import stats as sps

from bisampling.bis import (
    BisConfig,
    bis_run,
    default_n_resample,
    interval_estimate,
    point_condition_betas,
    probabilistic_projection_params,
    sample_realization,
    QSamples,
)
from bisampling.dirichlet import merge_duplicates, sample_dirichlet
from bisampling.errors import (
    AtObservationError,
    EmptySamplesError,
    InvalidProbabilityError,
    NonFiniteError,
    OutOfBoundsError,
)
from bisampling.functionals import Functional
from bisampling.pbox import BoundingInterval, make_extended_order_stats
from bisampling.rng import stream, substream

INF = float("inf")
POSITIVE = BoundingInterval(0.0, INF)


def reduced_for(data, interval):
    return merge_duplicates(make_extended_order_stats(data, interval))


class TestDefaultNResample:
    @pytest.mark.parametrize("c,n", [(0.9, 1000), (0.99, 10_000), (0.5, 200)])
    def test_rule_of_thumb(self, c, n):
        assert default_n_resample(c) == n

    def test_domain(self):
        with pytest.raises(InvalidProbabilityError):
            default_n_resample(1.0)


class TestSampleRealization:
    def test_shared_weights_and_shapes(self, small_sample):
        reduced, params = reduced_for(small_sample, POSITIVE)
        real = sample_realization(reduced, params, stream(1))
        assert real.weights.size == 16
        assert abs(real.weights.sum() - 1.0) <= 1e-12
        assert real.lower.supports[-1] == INF
        assert real.upper.supports[0] == 0.0

    def test_vacuous_prior_is_degenerate(self):
        reduced, params = reduced_for([], BoundingInterval(0.0, 1.0))
        for seed in range(5):
            real = sample_realization(reduced, params, stream(seed))
            assert real.lower.supports.tolist() == [1.0]
            assert real.upper.supports.tolist() == [0.0]

    def test_bounds_touch_at_observations(self, small_sample):
        reduced, params = reduced_for(small_sample, POSITIVE)
        rng = stream(2)
        interior = np.sort(small_sample)
        for _ in range(20):
            real = sample_realization(reduced, params, rng)
            touch = real.upper.cdf_left(interior) - real.lower.cdf(interior)
            assert np.abs(touch).max() <= 1e-12

    def test_lower_below_upper_everywhere(self, small_sample):
        reduced, params = reduced_for(small_sample, POSITIVE)
        rng = stream(3)
        grid = np.linspace(0.0, 10.0, 300)
        for _ in range(20):
            real = sample_realization(reduced, params, rng)
            assert (real.lower.cdf(grid) <= real.upper.cdf(grid) + 1e-12).all()

    def test_marginal_beta_laws_at_point(self, small_sample):
        # lower/upper CDF values at x=1.0 follow Beta(6,10) and Beta(7,9)
        reduced, params = reduced_for(small_sample, POSITIVE)
        rng = stream(7)
        lo = np.empty(10_000)
        hi = np.empty(10_000)
        for i in range(lo.size):
            real = sample_realization(reduced, params, rng)
            lo[i] = real.lower.cdf(1.0)
            hi[i] = real.upper.cdf(1.0)
        assert sps.kstest(lo, "beta", args=(6, 10)).pvalue > 0.01
        assert sps.kstest(hi, "beta", args=(7, 9)).pvalue > 0.01


class TestBisRun:
    def test_mean_upper_bound_always_infinite(self, small_sample):
        cfg = BisConfig(Functional("mean"), 0.9, 1000, 0)
        qs = bis_run(small_sample, POSITIVE, cfg)
        assert (qs.q_max == INF).all()
        assert np.isfinite(qs.q_min).all()

    def test_median_sample_ranges(self, small_sample):
        cfg = BisConfig(Functional.parse("median"), 0.9, 1000, 1)
        qs = bis_run(small_sample, POSITIVE, cfg)
        finite_max = qs.q_max[np.isfinite(qs.q_max)]
        assert ((qs.q_min >= 0.0) & (qs.q_min <= 7.289)).all()
        assert ((finite_max >= 0.124) & (finite_max <= 7.289)).all()

    def test_single_resample(self, small_sample):
        cfg = BisConfig(Functional.parse("median"), 0.9, 1, 0)
        with pytest.warns(UserWarning):
            qs = bis_run(small_sample, POSITIVE, cfg)
        assert qs.q_min.size == 1

    def test_pairwise_ordering(self, small_sample):
        for f in ("median", "quantile:0.9", "trunc-mean:0.8", "cvar:0.8", "mean"):
            cfg = BisConfig(Functional.parse(f), 0.5, 400, 3)
            qs = bis_run(small_sample, POSITIVE, cfg)
            assert (qs.q_min <= qs.q_max).all()

    def test_warns_below_rule_of_thumb(self, small_sample):
        cfg = BisConfig(Functional("mean"), 0.99, 100, 0)
        with pytest.warns(UserWarning, match="rule of thumb"):
            bis_run(small_sample, POSITIVE, cfg)

    def test_deterministic_and_parallel_identical(self, small_sample):
        cfg = BisConfig(Functional.parse("median"), 0.9, 1000, 11)
        a = bis_run(small_sample, POSITIVE, cfg)
        b = bis_run(small_sample, POSITIVE, cfg)
        assert np.array_equal(a.q_min, b.q_min)
        assert np.array_equal(a.q_max, b.q_max)

    def test_merged_and_unmerged_distributions_agree(self):
        # resampling with merged tied cells matches the full simplex draw
        data = [1.0, 1.0, 2.0, 3.0, 3.0, 3.0]
        interval = BoundingInterval(0.0, 10.0)
        stats = make_extended_order_stats(data, interval)
        reduced, params = merge_duplicates(stats)
        f = Functional("mean")
        cfg = BisConfig(f, 0.5, 10_000, 21)
        merged = bis_run(data, interval, cfg)
        rng = stream(22)
        full = np.empty(10_000)
        from bisampling.functionals import evaluate_rows

        for i in range(full.size):
            w = sample_dirichlet(np.ones(len(data) + 1), rng)
            full[i] = evaluate_rows(f, stats.points[1:], w[None])[0]
        assert sps.ks_2samp(merged.q_max, full).pvalue > 0.01


class TestIntervalEstimate:
    def test_hand_example(self):
        qs = QSamples(
            q_min=np.array([1.0, 2.0, 3.0, 4.0]), q_max=np.array([2.0, 3.0, 4.0, 5.0])
        )
        est = interval_estimate(qs, 0.5)
        assert (est.lo, est.hi) == (1.0, 4.0)

    def test_reference_median_interval(self, small_sample):
        cfg = BisConfig(Functional.parse("median"), 0.9, 1000, 7)
        est = interval_estimate(bis_run(small_sample, POSITIVE, cfg), 0.9)
        assert est.lo == pytest.approx(0.34, abs=0.15)
        assert est.hi == pytest.approx(3.60, abs=0.15)

    def test_reference_mean_interval_unbounded(self, small_sample):
        cfg = BisConfig(Functional("mean"), 0.9, 1000, 7)
        est = interval_estimate(bis_run(small_sample, POSITIVE, cfg), 0.9)
        assert est.lo == pytest.approx(1.21, abs=0.10)
        assert est.hi == INF and est.unbounded_above

    def test_nesting_in_credibility(self, small_sample):
        cfg = BisConfig(Functional.parse("median"), 0.9, 1000, 9)
        qs = bis_run(small_sample, POSITIVE, cfg)
        prev = interval_estimate(qs, 0.1)
        for c in (0.3, 0.5, 0.7, 0.9, 0.99):
            cur = interval_estimate(qs, c)
            assert cur.lo <= prev.lo and cur.hi >= prev.hi
            prev = cur

    def test_empty_rejected(self):
        qs = QSamples(q_min=np.array([]), q_max=np.array([]))
        with pytest.raises(EmptySamplesError):
            interval_estimate(qs, 0.5)

    def test_vacuous_prior_gives_full_interval(self):
        cfg = BisConfig(Functional("quantile", 0.3), 0.9, 1000, 0)
        qs = bis_run([], BoundingInterval(0.0, 1.0), cfg)
        est = interval_estimate(qs, 0.9)
        assert (est.lo, est.hi) == (0.0, 1.0)


class TestCoverageGuarantee:
    def test_median_coverage_on_uniform_data(self):
        # known generating distribution: uniform(0, 1), true median 0.5
        c = 0.8
        trials = 300
        hits = 0
        f = Functional.parse("median")
        for t in range(trials):
            data = substream(1234, t).random(10)
            cfg = BisConfig(f, c, 500, t)
            est = interval_estimate(
                bis_run(data, BoundingInterval(0.0, 1.0), cfg), c
            )
            hits += est.lo <= 0.5 <= est.hi
        se = math.sqrt(c * (1 - c) / trials)
        assert hits / trials >= c - 3 * se


class TestPointConditionBetas:
    def test_reference_counts(self, small_sample):
        lo, hi = point_condition_betas(small_sample, POSITIVE, 1.0)
        assert (lo.a, lo.b) == (6.0, 10.0)
        assert (hi.a, hi.b) == (7.0, 9.0)

    def test_below_all_data(self, small_sample):
        lo, hi = point_condition_betas(small_sample, POSITIVE, 0.01)
        assert (lo.a, lo.b) == (0.0, 16.0)
        assert (hi.a, hi.b) == (1.0, 15.0)

    def test_no_data(self):
        lo, hi = point_condition_betas([], BoundingInterval(0.0, 1.0), 0.5)
        assert (lo.a, lo.b) == (0.0, 1.0)
        assert (hi.a, hi.b) == (1.0, 0.0)

    def test_at_observation_rejected(self, small_sample):
        with pytest.raises(AtObservationError):
            point_condition_betas(small_sample, POSITIVE, 1.435)

    def test_outside_interval_rejected(self, small_sample):
        with pytest.raises(OutOfBoundsError):
            point_condition_betas(small_sample, POSITIVE, 0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda data, iv: point_condition_betas(data, iv, 0.5),
        lambda data, iv: probabilistic_projection_params(data, iv),
    ],
    ids=["point_condition_betas", "probabilistic_projection_params"],
)
class TestDataValidation:
    UNIT = BoundingInterval(0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, INF, -INF])
    def test_non_finite_observation(self, call, bad):
        with pytest.raises(NonFiniteError):
            call([0.2, bad, 0.7], self.UNIT)

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_observation_outside_interval(self, call, bad):
        with pytest.raises(OutOfBoundsError):
            call([0.2, bad, 0.7], self.UNIT)


class TestProbabilisticProjection:
    def test_no_data_is_jeffreys(self):
        points, params = probabilistic_projection_params([], BoundingInterval(0.0, 1.0))
        assert points.tolist() == [0.0, 1.0]
        assert params.tolist() == [0.5, 0.5]

    def test_mass_conservation(self, small_sample):
        _, params = probabilistic_projection_params(small_sample, POSITIVE)
        assert params.sum() == pytest.approx(16.0, abs=1e-12)

    def test_point_law(self, small_sample):
        points, params = probabilistic_projection_params(small_sample, POSITIVE)
        rng = stream(41)
        mask = points <= 1.0
        vals = np.empty(10_000)
        for i in range(vals.size):
            vals[i] = sample_dirichlet(params, rng)[mask].sum()
        assert sps.kstest(vals, "beta", args=(6.5, 9.5)).pvalue > 0.01
        assert vals.mean() == pytest.approx(6.5 / 16, abs=0.005)

    def test_duplicate_data_coalesced(self):
        points, params = probabilistic_projection_params(
            [0.0, 0.5, 0.5], BoundingInterval(0.0, 1.0)
        )
        assert points.tolist() == [0.0, 0.5, 1.0]
        assert params.tolist() == [1.5, 2.0, 0.5]
