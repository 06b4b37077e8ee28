import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from conftest import whole_rows

from bisampling import bis
from bisampling.baselines import bayesian_bootstrap_interval
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
from bisampling.dirichlet import (
    _unit_split,
    merge_duplicates,
    sample_dirichlet,
    weight_chunks,
)
from bisampling.errors import (
    AtObservationError,
    EmptySamplesError,
    InvalidProbabilityError,
    NonFiniteError,
    OutOfBoundsError,
)
from bisampling.functionals import Functional
from bisampling.pbox import BoundingInterval, cell_endpoints, make_extended_order_stats
from bisampling.rng import stream, substream

INF = float("inf")
POSITIVE = BoundingInterval(0.0, INF)


class TestDefaultNResample:
    @pytest.mark.parametrize("c,n", [(0.9, 1000), (0.99, 10_000), (0.5, 200)])
    def test_rule_of_thumb(self, c, n):
        assert default_n_resample(c) == n

    def test_domain(self):
        for bad in (1.0, "0.9"):
            with pytest.raises(InvalidProbabilityError):
                default_n_resample(bad)
        with pytest.raises(InvalidProbabilityError):
            BisConfig(Functional("mean"), "0.9", 1000, 0)


class TestSampleRealization:
    def test_shared_weights_and_shapes(self, small_sample):
        reduced, params = merge_duplicates(small_sample, POSITIVE)
        real = sample_realization(reduced, params, stream(1))
        assert real.lower.weights.tobytes() == real.upper.weights.tobytes()
        assert real.lower.weights.size == 16
        assert abs(real.lower.weights.sum() - 1.0) <= 1e-12
        assert real.lower.supports[-1] == INF
        assert real.upper.supports[0] == 0.0

    def test_vacuous_prior_is_degenerate(self):
        reduced, params = merge_duplicates([], BoundingInterval(0.0, 1.0))
        for seed in range(5):
            real = sample_realization(reduced, params, stream(seed))
            assert real.lower.supports.tolist() == [1.0]
            assert real.upper.supports.tolist() == [0.0]

    def test_bounds_touch_at_observations(self, small_sample):
        reduced, params = merge_duplicates(small_sample, POSITIVE)
        rng = stream(2)
        interior = np.sort(small_sample)
        for _ in range(20):
            real = sample_realization(reduced, params, rng)
            touch = real.upper.cdf_left(interior) - real.lower.cdf(interior)
            assert np.abs(touch).max() <= 1e-12

    def test_lower_below_upper_everywhere(self, small_sample):
        reduced, params = merge_duplicates(small_sample, POSITIVE)
        rng = stream(3)
        grid = np.linspace(0.0, 10.0, 300)
        for _ in range(20):
            real = sample_realization(reduced, params, rng)
            assert (real.lower.cdf(grid) <= real.upper.cdf(grid) + 1e-12).all()


class TestBisConfig:
    @pytest.mark.parametrize("n", [0, -1, 2.5, True], ids=["0", "-1", "2.5", "True"])
    def test_rejects_bad_n_resample(self, n):
        with pytest.raises(ValueError, match="n_resample"):
            BisConfig(Functional("mean"), 0.9, n, 0)

    def test_accepts_numpy_integer(self):
        assert BisConfig(Functional("mean"), 0.9, np.int64(5), 0).n_resample == 5


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

    @pytest.mark.parametrize("seed", [1.5, 1.9, True, "1"], ids=["1.5", "1.9", "True", "str"])
    def test_rejects_a_seed_that_is_not_an_integer(self, small_sample, seed):
        # int() would run seed 1 for each of these while the caller records
        # the value given
        cfg = BisConfig(Functional("mean"), 0.9, 1000, seed)
        with pytest.raises(ValueError, match="seed"):
            bis_run(small_sample, POSITIVE, cfg)

    def test_numpy_integer_seed_is_that_seed(self, small_sample):
        a = bis_run(small_sample, POSITIVE, BisConfig(Functional("mean"), 0.9, 1000, 1))
        b = bis_run(small_sample, POSITIVE, BisConfig(Functional("mean"), 0.9, 1000, np.int64(1)))
        assert np.array_equal(a.q_min, b.q_min)

    @pytest.mark.parametrize("f", ["mean", "trunc-mean:0.5", "trunc-mean:0.9",
                                   "cvar:0.5", "cvar:0.9"])
    @pytest.mark.parametrize("n", [15, 200, 1000])
    def test_each_bound_ignores_the_far_end_of_the_interval(self, f, n):
        # q_min reads only the cells' left endpoints and q_max only their
        # right ones, so opening the interval at the other end keeps the
        # bytes of each, whatever the product that sums them
        x = np.exp(stream(n).normal(size=n))
        top = math.ceil(x.max()) + 1.0
        for seed in (1, 2, 3):
            cfg = BisConfig(Functional.parse(f), 0.9, 2000, seed)
            closed = bis_run(x, BoundingInterval(0.0, top), cfg)
            assert np.isfinite(closed.q_min).all() and np.isfinite(closed.q_max).all()
            assert bis_run(x, POSITIVE, cfg).q_min.tobytes() == closed.q_min.tobytes()
            below = bis_run(x, BoundingInterval(-INF, top), cfg)
            assert below.q_max.tobytes() == closed.q_max.tobytes()

    def test_warns_below_rule_of_thumb(self, small_sample):
        cfg = BisConfig(Functional("mean"), 0.99, 100, 0)
        with pytest.warns(UserWarning, match="rule of thumb"):
            bis_run(small_sample, POSITIVE, cfg)

    # the median takes the exact split-index path, the truncated mean the blocks
    @pytest.mark.parametrize("f", ["median", "trunc-mean:0.8"])
    def test_deterministic_given_seed(self, small_sample, f):
        cfg = BisConfig(Functional.parse(f), 0.9, 1000, 11)
        a = bis_run(small_sample, POSITIVE, cfg)
        b = bis_run(small_sample, POSITIVE, cfg)
        assert np.array_equal(a.q_min, b.q_min)
        assert np.array_equal(a.q_max, b.q_max)

    @pytest.mark.parametrize("p", [1e-12, 0.9, 0.99999, 0.9999999999999, 1 - 1e-12])
    @pytest.mark.parametrize("kind", ["cvar", "trunc-mean"])
    def test_split_means_stay_in_bounds_at_extreme_p(self, kind, p):
        # atom-split means are convex combinations of their atoms
        cfg = BisConfig(Functional.parse(f"{kind}:{p}"), 0.9, 2000, 1)
        qs = bis_run([1.0, 2.0, 3.0], BoundingInterval(0.0, 5.0), cfg)
        for q in (qs.q_min, qs.q_max):
            assert ((q >= 0.0) & (q <= 5.0)).all()
        if kind == "cvar" and p > 0.9:
            # the upper 1-p tail of the upper CDF lies on its last atom, 3,
            # unless that atom's weight falls below 1-p (about 3(1-p) a draw)
            assert (qs.q_min >= 3.0).all()

    def test_merged_and_unmerged_distributions_agree(self):
        # resampling with merged tied cells matches the full simplex draw
        data = [1.0, 1.0, 2.0, 3.0, 3.0, 3.0]
        interval = BoundingInterval(0.0, 10.0)
        points = make_extended_order_stats(data, interval)
        f = Functional("mean")
        cfg = BisConfig(f, 0.5, 10_000, 21)
        merged = bis_run(data, interval, cfg)
        rng = stream(22)
        full = np.empty(10_000)
        for i in range(full.size):
            w = sample_dirichlet(np.ones(len(data) + 1), rng)
            full[i] = whole_rows(f, points[1:], w)[0]
        assert sps.ks_2samp(merged.q_max, full).pvalue > 0.01


# data with ties, on the bounds, and bounds with infinite ends
CHUNK_CASES = [
    ([0.0, 0.0, 1.0, 2.0, 2.0, 2.0, 3.5, 6.0, 6.0], BoundingInterval(0.0, 6.0)),
    ([0.0, 0.5, 0.5, 1.0, 2.5, 4.0, 4.0], POSITIVE),
    ([1.0, 1.0, 2.0, 3.5, 3.5, 7.0], BoundingInterval(-INF, INF)),
]
CHUNK_FUNCTIONALS = ["mean", "trunc-mean:0.7", "cvar:0.7", "median"]


@pytest.mark.filterwarnings("ignore:n_resample is below")
class TestChunkedPath:
    @pytest.mark.parametrize("n_resample", [1, 50])
    @pytest.mark.parametrize("case", range(len(CHUNK_CASES)))
    def test_results_do_not_depend_on_chunk_size(self, monkeypatch, case, n_resample):
        data, interval = CHUNK_CASES[case]
        n_cells = merge_duplicates(data, interval)[1].size
        runs = []
        # one-row chunks, 7-row chunks (7 does not divide 50), the default
        for chunk_bytes in (1, 7 * 8 * n_cells, bis._CHUNK_BYTES):
            monkeypatch.setattr(bis, "_CHUNK_BYTES", chunk_bytes)
            runs.append([bis_run(data, interval, BisConfig(Functional.parse(f), 0.5,
                                                           n_resample, 5))
                         for f in CHUNK_FUNCTIONALS])
        seen_inf = seen_finite = False
        for run in runs[:-1]:
            for f, got, want in zip(CHUNK_FUNCTIONALS, run, runs[-1]):
                for a, b in ((got.q_min, want.q_min), (got.q_max, want.q_max)):
                    assert not np.isnan(a).any()
                    assert np.array_equal(np.isinf(a), np.isinf(b))
                    if f == "median":
                        assert np.array_equal(a, b)
                    else:
                        # a matrix product may round differently for other row counts
                        np.testing.assert_allclose(a, b, rtol=1e-13)
                    seen_inf |= np.isinf(a).any()
                    seen_finite |= np.isfinite(a).any()
        assert seen_finite
        assert seen_inf == (interval.hi == INF)

    @pytest.mark.parametrize("f", ["trunc-mean:0.9", "cvar:0.9", "mean"])
    def test_memory_bounded_at_large_n(self, f):
        # the weights of all 64 resamples would take 51 MB; chunks take one row
        data = np.exp(stream(3).normal(0.0, 1.0, 10**5))
        cfg = BisConfig(Functional.parse(f), 0.9, 64, 1)
        tracemalloc.start()
        try:
            qs = bis_run(data, POSITIVE, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert (qs.q_min <= qs.q_max).all()

    def test_million_observations(self):
        data = np.exp(stream(4).normal(0.0, 1.0, 10**6))
        qs = bis_run(data, POSITIVE, BisConfig(Functional.parse("trunc-mean:0.9"), 0.9, 8, 2))
        assert np.isfinite(qs.q_min).all() and (qs.q_min <= qs.q_max).all()


def full_rows(f, params, supports, rng, n_resample):
    """The q-samples of ``f`` on whole Dirichlet rows, every split searched
    for in every cell."""
    (w,) = weight_chunks(params, rng, n_resample, n_resample)
    return whole_rows(f, supports, w).reshape(n_resample, -1)


def split_span(params, f, rng, n_resample):
    """Cells the engine's rows of truncated means or CVaR span: 0..max c or
    min c..k-1 over the splits, drawn first from ``rng``."""
    cell = _unit_split(params, f.p, rng, n_resample)[2]
    return params.size - cell.min() if f.kind == "cvar" else cell.max() + 1


@pytest.mark.filterwarnings("ignore:n_resample is below")
class TestConditionalSplit:
    """Truncated means and CVaR are drawn given their binomial split cell."""

    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    @pytest.mark.parametrize("f", ["trunc-mean:0.5", "trunc-mean:0.99", "cvar:0.5",
                                   "cvar:0.99", "median", "quantile:0.99"])
    def test_chunk_size_changes_no_row(self, monkeypatch, f, tied):
        data = np.exp(stream(3).normal(0.0, 1.0, 300))
        if tied:
            data = np.round(data, 1)
        functional, n_resample, seed = Functional.parse(f), 50, 5
        draws = [
            (merge_duplicates(data, POSITIVE)[1], lambda: bis_run(
                data, POSITIVE, BisConfig(functional, 0.5, n_resample, seed))),
            # the Bayesian bootstrap's q-samples, of the engine's draw
            (np.ones(data.size), lambda: bis._dirichlet_resample(
                functional, np.ones(data.size), np.sort(data)[:, None], stream(seed),
                n_resample)),
        ]
        runs = []
        # one-row chunks, three-row chunks (3 does not divide 50), the default
        for rows in (1, 3, None):
            run = []
            for params, draw in draws:
                if rows is not None:
                    cells = params.size
                    if functional.kind != "quantile":
                        # the rows span only these cells
                        cells = split_span(params, functional, stream(seed), n_resample)
                    monkeypatch.setattr(bis, "_CHUNK_BYTES", rows * 8 * int(cells))
                qs = draw()
                run += [qs.q_min, qs.q_max]
            est = bayesian_bootstrap_interval(data, functional, 0.5, n_resample, stream(seed))
            runs.append(run + [[est.lo, est.hi]])
            monkeypatch.undo()
        for run in runs[:-1]:
            for a, b in zip(run, runs[-1]):
                if functional.kind == "quantile":
                    assert np.array_equal(a, b)
                else:
                    # a matrix product may round differently for other row counts
                    assert np.array_equal(np.isinf(a), np.isinf(b))
                    np.testing.assert_allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize("f", ["trunc-mean:0.5", "trunc-mean:0.99", "cvar:0.5", "cvar:0.99"])
    def test_unit_parameters_draw_splits_then_shares_then_rows(self, monkeypatch, f):
        # every split, then every split cell's share (Gamma(1) for unit
        # parameters), then the rows over the span the splits fix
        functional, n_resample = Functional.parse(f), 200
        data = np.sort(np.exp(stream(3).normal(0.0, 1.0, 300)))
        ones = np.ones(data.size)
        # one chunk holds every row
        monkeypatch.setattr(bis, "_CHUNK_BYTES", 8 * data.size * n_resample)
        got = bis._dirichlet_resample(functional, ones, data[:, None], stream(5), n_resample)
        rng = stream(5)
        cell = _unit_split(ones, functional.p, rng, n_resample)[2]
        shares = rng.standard_gamma(np.ones(n_resample))
        tail = functional.kind == "cvar"
        first, stop = (cell.min(), data.size) if tail else (0, cell.max() + 1)
        (w,) = weight_chunks(ones[first:stop], rng, n_resample, n_resample)
        w[np.arange(n_resample), cell - first] = shares
        span = np.arange(first, stop)
        w[span < cell[:, None] if tail else span > cell[:, None]] = 0.0
        want = whole_rows(Functional("mean"), data[first:stop], w)
        want = np.clip(want, data[cell], data[-1]) if tail else np.clip(want, data[0], data[cell])
        assert np.array_equal(got.q_min, want) and np.array_equal(got.q_max, want)

    @pytest.mark.parametrize("f", ["trunc-mean:0.3", "trunc-mean:0.99", "cvar:0.3", "cvar:0.99"])
    def test_all_tied_data_gives_the_tied_value(self, f):
        # a Dirichlet mean of one value rounds off it; the clip keeps it
        functional = Functional.parse(f)
        for value in (0.1, 2.0 / 3.0, -7.3):
            qs = bis._dirichlet_resample(functional, np.ones(500), np.full((500, 1), value),
                                         stream(6), 2000)
            assert (qs.q_min == value).all()
            est = bayesian_bootstrap_interval([value] * 500, functional, 0.9, 2000, stream(6))
            assert est.lo == est.hi == value


@pytest.mark.filterwarnings("ignore:n_resample is below")
class TestEdgeInputs:
    """Inputs at the edges through the weight-chunk path."""

    BLOCK_PATH = ["mean", "trunc-mean:0.3", "cvar:0.3"]

    @pytest.mark.parametrize("f", BLOCK_PATH + ["median"])
    def test_all_tied_data(self, f):
        qs = bis_run([2.0] * 50, BoundingInterval(0.0, 5.0),
                     BisConfig(Functional.parse(f), 0.9, 200, 3))
        # the upper bound CDF sits at or below 2, the lower one at or above
        assert ((qs.q_min >= 0.0) & (qs.q_min <= 2.0)).all()
        assert ((qs.q_max >= 2.0) & (qs.q_max <= 5.0)).all()

    @pytest.mark.parametrize("f", BLOCK_PATH + ["median"])
    def test_data_on_the_bounds(self, f):
        qs = bis_run([0.0, 0.0, 3.0, 5.0, 5.0], BoundingInterval(0.0, 5.0),
                     BisConfig(Functional.parse(f), 0.9, 200, 3))
        for q in (qs.q_min, qs.q_max):
            assert ((q >= 0.0) & (q <= 5.0)).all()

    @pytest.mark.parametrize("hi", [50.0, 0.1, 3.3, 123.456])
    @pytest.mark.parametrize("f", ["mean", "trunc-mean:0.5", "cvar:0.5"])
    def test_data_all_on_the_upper_bound(self, f, hi):
        # every q-sample is a weighted mean of cell endpoints in [0, hi]; a
        # ratio of rounded sums of hi can land an ulp above it, unclipped
        for seed in range(1, 6):
            qs = bis_run([hi] * 12, BoundingInterval(0.0, hi),
                         BisConfig(Functional.parse(f), 0.9, 1000, seed))
            assert (qs.q_min >= 0.0).all() and (qs.q_max <= hi).all()

    def test_unbounded_both_sides(self):
        # each bound CDF has mass at one infinity only, so no sum is indeterminate
        interval = BoundingInterval(-INF, INF)
        mean = bis_run([1.0, 2.0, 3.0], interval, BisConfig(Functional("mean"), 0.9, 200, 3))
        assert (mean.q_min == -INF).all() and (mean.q_max == INF).all()
        cvar = bis_run([1.0, 2.0, 3.0], interval,
                       BisConfig(Functional.parse("cvar:0.5"), 0.9, 200, 3))
        assert (cvar.q_max == INF).all()
        # -inf only where the cell at -inf holds the split atom
        assert (np.isfinite(cvar.q_min) | (cvar.q_min == -INF)).all()
        assert np.isfinite(cvar.q_min).mean() > 0.5

    @pytest.mark.parametrize("c", [1e-12, 1 - 1e-12])
    def test_extreme_credibility(self, c):
        qs = bis_run([1.0, 2.0, 3.0], BoundingInterval(0.0, 5.0),
                     BisConfig(Functional.parse("trunc-mean:0.5"), c, 200, 3))
        est = interval_estimate(qs, c)
        assert 0.0 <= est.lo <= est.hi <= 5.0

    @pytest.mark.parametrize("f", BLOCK_PATH)
    def test_empty_data_gives_the_bounds(self, f):
        qs = bis_run([], BoundingInterval(0.0, 1.0), BisConfig(Functional.parse(f), 0.9, 50, 3))
        assert (qs.q_min == 0.0).all() and (qs.q_max == 1.0).all()


def exact_split_cdf(points, p):
    """P(split index <= i), i = 0..n, over the n+1 unmerged cells of ``points``.

    Under uniform weights the first i+1 cells weigh Beta(i+1, n-i); tied
    points are zero-width cells, which the law covers without merging.
    """
    n = points.size - 2
    i = np.arange(n)
    return np.append(sps.beta.sf(p, i + 1, n - i), 1.0)


# tied data on bounded, half-bounded and unbounded intervals
SPLIT_DATA = st.lists(st.integers(0, 6).map(float), max_size=8)
SPLIT_INTERVALS = st.sampled_from([BoundingInterval(0.0, 6.0), POSITIVE,
                                   BoundingInterval(-INF, INF)])


class TestExactSplitLaw:
    """The quantile path against Monte Carlo blocks and the Beta oracle, and
    the split means drawn given their split against whole rows."""

    N = 20_000
    Z = 5.0

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        data=SPLIT_DATA,
        interval=SPLIT_INTERVALS,
        p=st.floats(0.001, 0.999),
        c=st.floats(0.5, 0.95),
        seed=st.integers(0, 2**32),
    )
    def test_quantile_path_matches_exact_law(self, data, interval, p, c, seed):
        n_draws, z = self.N, self.Z
        f = Functional("quantile", p)
        qs = bis_run(data, interval, BisConfig(f, c, n_draws, seed))
        reduced, params = merge_duplicates(data, interval)
        # unnormalised rows: every functional is scale invariant
        (w,) = weight_chunks(params, substream(seed, 1), n_draws, n_draws)
        mc_min, mc_max = whole_rows(f, cell_endpoints(reduced), w).T
        points = make_extended_order_stats(data, interval)
        cdf = exact_split_cdf(points, p)
        # P(q_min <= v) and P(q_max <= v) at every distinct point v
        for ends, samples in ((points[:-1], (qs.q_min, mc_min)),
                              (points[1:], (qs.q_max, mc_max))):
            for v in np.unique(points):
                below = np.searchsorted(ends, v, side="right")
                exact = cdf[below - 1] if below else 0.0
                # a variance floor of one draw, where the normal approximation
                # of the count fails (cells too rare to be drawn at all)
                var = max(exact * (1.0 - exact), 1.0 / n_draws)
                tol = z * math.sqrt(var / n_draws)
                for q in samples:
                    assert abs(np.mean(q <= v) - exact) <= tol
        # each endpoint within a z-sigma rank band of the exact endpoint
        est = interval_estimate(qs, c)
        for got, a, shift in ((est.lo, (1.0 - c) / 2.0, 0),
                              (est.hi, (1.0 + c) / 2.0, 1)):
            d = z * math.sqrt(a * (1.0 - a) / n_draws)
            band = [points[np.searchsorted(cdf, level, side="left") + shift]
                    for level in (max(a - d, 0.0), min(a + d, 1.0))]
            assert band[0] <= got <= band[1]

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        data=SPLIT_DATA,
        # repeated ties keep the cells few but their parameters large, so the
        # split cell's share has a shape other than its parameter
        copies=st.integers(1, 300),
        interval=SPLIT_INTERVALS,
        kind=st.sampled_from(["cvar", "trunc_mean"]),
        p=st.floats(0.001, 0.999),
        seed=st.integers(0, 2**32),
    )
    def test_split_means_match_whole_rows(self, data, copies, interval, kind, p,
                                                 seed):
        f = Functional(kind, p)
        qs = bis_run(data * copies, interval, BisConfig(f, 0.5, self.N, seed))
        reduced, params = merge_duplicates(data * copies, interval)
        want = full_rows(f, params, cell_endpoints(reduced), substream(seed, 1), self.N)
        # a two-sample KS test at the two-sided level of z = 5
        for got, ref in ((qs.q_min, want[:, 0]), (qs.q_max, want[:, 1])):
            assert not np.isnan(got).any()
            assert sps.ks_2samp(got, ref).pvalue > 2.0 * sps.norm.sf(self.Z)


class TestExactQuantileCoverage:
    """bis's quantile interval covers with probability at least c, exactly.

    Its split cell follows the law ``exact_split_cdf`` gives, Binomial(n, p),
    so the interval is [x_(i_lo), x_(i_hi + 1)] with i_lo and i_hi the first
    ranks whose law reaches (1 - c)/2 and (1 + c)/2.  For the p-quantile of
    a continuous law, [x_(s), x_(t)] covers it with probability
    P(s <= B <= t - 1), B ~ Binomial(n, p).
    """

    GRID = [(n, p, c) for n in range(5, 201) for p in (0.1, 0.25, 0.5, 0.75, 0.9)
            for c in (0.9, 0.95)]

    @staticmethod
    def ranks(law, c):
        return np.searchsorted(law, [(1.0 - c) / 2.0, (1.0 + c) / 2.0], side="left")

    @staticmethod
    def coverage(n, p, s, t):
        """P(s <= B <= t - 1) for B ~ Binomial(n, p)."""
        return sps.binom.cdf(t - 1, n, p) - sps.binom.cdf(s - 1, n, p)

    def test_bis_covers_at_least_c(self):
        worst = min(
            (self.coverage(n, p, i_lo, i_hi + 1) - c, n, p, c)
            for n, p, c in self.GRID
            for i_lo, i_hi in [self.ranks(exact_split_cdf(np.zeros(n + 2), p), c)]
        )
        assert len(self.GRID) == 1960 and worst[0] >= 0.0, worst

    def test_the_bayesian_bootstrap_index_law_falls_short(self):
        # the same check fails the Bayesian bootstrap: its index into the
        # sorted data follows Binomial(n - 1, p), so its interval is
        # [x_(j_lo + 1), x_(j_hi + 1)]
        short = [
            (n, p, c) for n, p, c in self.GRID
            for j_lo, j_hi in [self.ranks(sps.binom.cdf(np.arange(n), n - 1, p), c)]
            if self.coverage(n, p, j_lo + 1, j_hi + 1) < c
        ]
        assert len(short) == 1318


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

    @pytest.mark.parametrize(
        "c,n,lo,hi",
        [(0.95, 2000, 49, 1949), (0.99, 10_000, 49, 9949),
         (0.999, 10**5, 49, 99949), (0.8, 500, 49, 449), (0.5, 1, 0, 0)],
    )
    def test_integer_rank_rule(self, c, n, lo, hi):
        # the sample of 0-based rank r is r: rank ceil(a N) is index ceil(a N) - 1
        values = stream(1).permutation(n).astype(float)
        est = interval_estimate(QSamples(values, values), c)
        assert (est.lo, est.hi) == (lo, hi)

    def test_rank_rule_with_ties_and_infinities(self):
        ranked = np.floor(np.arange(2000) / 7.0)
        ranked[:3] = -INF
        ranked[-60:] = INF
        q_min = stream(2).permutation(ranked)
        qs = QSamples(q_min, q_min + 0.5)
        est = interval_estimate(qs, 0.95)
        assert (est.lo, est.hi) == (7.0, INF)
        est = interval_estimate(qs, 0.9)
        assert (est.lo, est.hi) == (14.0, 271.5)
        est = interval_estimate(qs, 0.999)
        assert (est.lo, est.hi) == (-INF, INF)

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


@pytest.mark.parametrize("make, word", [
    (lambda: QSamples(q_min=np.zeros(2), q_max=np.zeros(3)), "equal length"),
    (lambda: QSamples(q_min=np.ones(2), q_max=np.zeros(2)), "exceed"),
    (lambda: bis.BetaParams(-1.0, 1.0), "beta"),
    (lambda: bis.BetaParams(float("nan"), 1.0), "beta"),
    (lambda: bis.BetaParams(1.0, float("nan")), "beta"),
    (lambda: sample_realization([0.0, 1.0, 2.0], [1.0], stream(1)), "one more point"),
    (lambda: sample_realization([0.0, 2.0, 1.0, 3.0], [1.0] * 3, stream(1)), "sorted"),
], ids=["unequal-qsamples", "crossed-qsamples", "beta", "beta-nan-a", "beta-nan-b",
        "realization", "realization-unsorted"])
def test_invalid_arguments_raise(make, word):
    with pytest.raises(ValueError, match=word):
        make()
