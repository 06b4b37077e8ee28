import math
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from conftest import child_env, oracle_split_mean, whole_rows

from bisampling import baselines, bis
from bisampling.baselines import (
    ExtremeMixture,
    TruncatedLognormal,
    TRUNC_LOGNORMAL_MEAN,
    bayesian_bootstrap_interval,
    bootstrap_interval,
    coverage_experiment,
    generate,
    preset,
    student_t_interval,
)
from bisampling.bis import QSamples, interval_estimate
from bisampling.dirichlet import sample_split_index, weight_chunks
from bisampling.errors import (
    EmptySamplesError,
    IndeterminateSumError,
    InvalidProbabilityError,
    NonFiniteError,
    TooFewSamplesError,
)
from bisampling.functionals import Functional
from bisampling.pbox import BoundingInterval
from bisampling.rng import stream

MEAN = Functional("mean")
BOOTSTRAPS = [bootstrap_interval, bayesian_bootstrap_interval]


def _exact_resample_value(f, resample):
    """``f`` of one resample, in exact Fraction arithmetic."""
    counts = Counter(resample)
    supports = [Fraction(x) for x in sorted(counts)]
    weights = [Fraction(counts[x], len(resample)) for x in sorted(counts)]
    if f.kind == "mean":
        return sum(s * w for s, w in zip(supports, weights))
    p = Fraction(f.p)
    if f.kind == "quantile":
        cum = Fraction(0)
        for s, w in zip(supports, weights):
            cum += w
            if cum >= p:
                return s
    return oracle_split_mean(supports, weights, p, tail=f.kind == "cvar")


class TestGenerate:
    @pytest.mark.parametrize("n", [True, 2.5, 0, "3"], ids=["True", "2.5", "0", "str"])
    def test_rejects_a_count_that_is_not_a_positive_integer(self, n):
        base = TruncatedLognormal(0.0, 1.0, 0.5, 3.0)
        for gen in (base, ExtremeMixture(base, 50.0, 0.1)):
            rng = stream(1)
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match="n must be an integer of at least 1"):
                generate(gen, n, rng)
            assert rng.bit_generator.state == state

    @pytest.mark.parametrize("mu, sigma, lo, hi", [
        (math.nan, 1.0, 0.0, 50.0), (math.inf, 1.0, 0.0, 50.0), (-math.inf, 1.0, 0.0, 50.0),
        (0.0, math.nan, 0.0, 50.0), (0.0, math.inf, 0.0, 50.0), (0.0, 0.0, 0.0, 50.0),
        (0.0, 1.0, -2.0, -1.0), (0.0, 1.0, -1.0, 0.0), (0.0, 1.0, 3.0, 3.0),
        (0.0, 1.0, 1e6, 1e7), (0.0, 1.0, 3.0, 3.0 + 1e-12),
    ])
    def test_rejects_a_law_no_draw_can_land_in(self, mu, sigma, lo, hi):
        # generate would draw forever
        with pytest.raises(ValueError):
            TruncatedLognormal(mu, sigma, lo, hi)

    def test_truncation_respected(self):
        gen = TruncatedLognormal(0.0, 1.0, 0.5, 3.0)
        d = generate(gen, 5_000, stream(1))
        assert d.min() >= 0.5 and d.max() <= 3.0

    def test_truncated_lognormal_mean(self):
        gen = TruncatedLognormal(0.0, 1.0, 0.0, 50.0)
        d = generate(gen, 1_000_000, stream(2))
        # population mean about 1.65; se of the sample mean about 0.002
        assert d.mean() == pytest.approx(TRUNC_LOGNORMAL_MEAN, abs=0.01)

    def test_lognormal_median(self):
        gen = TruncatedLognormal(0.0, 1.0, 0.0, np.inf)
        d = generate(gen, 200_000, stream(3))
        assert np.median(d) == pytest.approx(1.0, abs=0.01)

    def test_mixture_atom_frequency(self):
        gen = ExtremeMixture(TruncatedLognormal(0.0, 1.0, 0.0, 50.0), 50.0, 0.01)
        d = generate(gen, 1_000_000, stream(4))
        frac = (d == 50.0).mean()
        se = np.sqrt(0.01 * 0.99 / d.size)
        assert abs(frac - 0.01) < 3 * se


class TestStudentT:
    def test_degenerate_data(self):
        est = student_t_interval([2.0, 2.0, 2.0], 0.95)
        assert est.lo == est.hi == 2.0

    def test_symmetry(self):
        data = [-2.0, -1.0, 1.0, 2.0]
        est = student_t_interval(data, 0.9)
        assert est.lo == pytest.approx(-est.hi)

    def test_too_few(self):
        with pytest.raises(TooFewSamplesError):
            student_t_interval([1.0], 0.9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_observation_rejected(self, bad):
        with pytest.raises(NonFiniteError):
            student_t_interval([1.0, bad, 3.0, 4.0], 0.9)

    def test_package_import_leaves_scipy_stats_unloaded(self):
        # a fresh interpreter: neither importing the package and its command
        # line nor the first t interval loads scipy.stats, and that interval
        # is the one this process gives
        code = ("import sys, bisampling, bisampling.cli\n"
                "print('scipy.stats' in sys.modules)\n"
                "est = bisampling.student_t_interval([1.0, 2.5, 3.0, 7.0], 0.9)\n"
                "print('scipy.stats' in sys.modules, repr(est.lo), repr(est.hi))\n")
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                             text=True, check=True, timeout=120).stdout.split("\n")
        est = student_t_interval([1.0, 2.5, 3.0, 7.0], 0.9)
        assert out[:2] == ["False", f"False {est.lo!r} {est.hi!r}"]

    @pytest.mark.parametrize("credibility", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
    def test_bits_of_scipy_stats_t_ppf(self, credibility):
        # mean -+ t.ppf((1 + c)/2, n - 1) * s / sqrt(n), bit for bit
        for n in range(2, 201):
            data = stream(n).lognormal(0.0, 1.0, n)
            m, s = float(data.mean()), float(data.std(ddof=1))
            half = float(sps.t.ppf((1.0 + credibility) / 2.0, n - 1)) * s / math.sqrt(n)
            est = student_t_interval(data, credibility)
            assert (est.lo, est.hi) == (m - half, m + half)

    def test_median_endpoints_in_reference_setting(self):
        # 50 draws from the truncated lognormal at 95%: endpoint medians
        # approach (1.08, 2.12); 2000 trials keeps the check fast
        gen = TruncatedLognormal(0.0, 1.0, 0.0, 50.0)
        r = coverage_experiment(
            gen, TRUNC_LOGNORMAL_MEAN, "student_t", MEAN, 50, 0.95, 2_000, 0,
            BoundingInterval(0.0, 50.0), seed=5,
        )
        assert r.median_lo == pytest.approx(1.08, abs=0.05)
        assert r.median_hi == pytest.approx(2.12, abs=0.08)


class TestBootstrap:
    def test_single_repeated_datum(self):
        est = bootstrap_interval([3.0, 3.0, 3.0], MEAN, 0.9, 200, stream(6))
        assert est.lo == est.hi == 3.0

    def test_mean_endpoints_within_data_range(self):
        rng = stream(7)
        data = rng.normal(size=40)
        est = bootstrap_interval(data, MEAN, 0.95, 500, rng)
        assert data.min() <= est.lo <= est.hi <= data.max()

    def test_median_endpoints_in_reference_setting(self):
        gen = TruncatedLognormal(0.0, 1.0, 0.0, 50.0)
        r = coverage_experiment(
            gen, TRUNC_LOGNORMAL_MEAN, "bootstrap", MEAN, 50, 0.95, 2_000, 2_000,
            BoundingInterval(0.0, 50.0), seed=8,
        )
        assert r.median_lo == pytest.approx(1.15, abs=0.05)
        assert r.median_hi == pytest.approx(2.14, abs=0.08)

    def test_nonmean_functionals_match_scalar_evaluation(self):
        # exact oracle: redraw the resamples as positions in the sorted data,
        # merge each into Fraction weights over its distinct values, evaluate
        # f exactly and take the order statistic of rank ceil(a N).  p = 0.3 and 0.7 are doubles just below
        # the decimal and 0.5 is exact, so p n never rounds onto an integer
        # it exceeds and the library's float test cum >= p n picks the exact
        # split atom.
        functionals = [MEAN] + [
            Functional(kind, p)
            for kind in ("quantile", "trunc_mean", "cvar") for p in (0.3, 0.5, 0.7)
        ]
        datasets = [
            [2.5],
            [1.0, -3.0],
            [4.0, 4.0],
            [2.0, -1.0, 2.0, 0.0, 2.0, -1.0, 7.0],
            stream(9).normal(size=30).tolist(),
        ]
        for data in datasets:
            n, ordered = len(data), sorted(data)
            scale = max(abs(x) for x in data)
            for credibility, n_resample in ((0.8, 64), (0.9, 101)):
                draws = stream(10).integers(0, n, size=(n_resample, n))
                for f in functionals:
                    exact = sorted(
                        _exact_resample_value(f, [ordered[i] for i in row]) for row in draws
                    )
                    est = bootstrap_interval(data, f, credibility, n_resample, stream(10))
                    levels = ((1 - credibility) / 2, (1 + credibility) / 2)
                    for got, level in zip((est.lo, est.hi), levels):
                        want = float(exact[math.ceil(Fraction(level) * n_resample) - 1])
                        if f.kind == "quantile":
                            assert got == want, (data, f, level)
                        else:
                            assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)

    def test_infinite_observations_follow_the_engine(self):
        # count rows meet the same infinity rules as the engine's weights
        inf = float("inf")
        est = bootstrap_interval([1.0, inf], Functional("cvar", 0.5), 0.9, 200, stream(1))
        assert (est.lo, est.hi) == (1.0, inf)
        est = bootstrap_interval([-inf, 1.0, 2.0], Functional("cvar", 0.5), 0.9, 200, stream(1))
        assert (est.lo, est.hi) == (-inf, 2.0)
        with pytest.raises(IndeterminateSumError):
            bootstrap_interval([-inf, 1.0, inf], MEAN, 0.9, 200, stream(1))

    @pytest.mark.parametrize("data, names", [
        (stream(9).lognormal(size=40).tolist(), ("mean", "median", "trunc-mean:0.3", "cvar:0.9")),
        (np.floor(stream(9).uniform(1.0, 6.0, size=30)).tolist(),  # tied
         ("mean", "quantile:0.7", "trunc-mean:0.5", "cvar:0.5")),
        ([-math.inf, -math.inf, 1.0, 2.0, 2.0, 5.0], ("mean", "trunc-mean:0.9", "cvar:0.5")),
        ([1.0, 3.0, 3.0, 4.0, math.inf, math.inf], ("quantile:0.9", "trunc-mean:0.5", "cvar:0.1")),
        # (1 - p) n and p n are integral: a zero share of the split atom
        # weighs nothing, even where that atom is infinite
        ([-math.inf, 1.0, 2.0], ("cvar:0.3333333333333333",)),
        ([1.0, 2.0, math.inf], ("trunc-mean:0.6666666666666666",)),
        ([-math.inf, 1.0, 2.0, 4.0], ("cvar:0.5",)),
        ([1.0, 2.0, 4.0, math.inf], ("trunc-mean:0.5",)),
        # some resamples weigh both infinities
        ([-math.inf, 1.0, math.inf], ("mean", "trunc-mean:0.9", "cvar:0.1")),
    ])
    def test_endpoints_match_count_rows_of_the_same_draws(self, data, names):
        # oracle: count the same positions into rows over the sorted data and
        # evaluate them as whole rows, at levels reading the middle ranks
        n, n_resample = len(data), 301
        draws = stream(10).integers(0, n, size=(n_resample, n))
        counts = np.stack([np.bincount(row, minlength=n) for row in draws])
        for f in map(Functional.parse, names):
            try:
                q = whole_rows(f, np.sort(data), counts)
            except IndeterminateSumError:
                with pytest.raises(IndeterminateSumError):
                    bootstrap_interval(data, f, 0.9, n_resample, stream(10))
                continue
            assert not np.isnan(q).any()
            for credibility in (0.1, 0.3, 0.5, 0.7, 0.9, 0.98):
                want = interval_estimate(QSamples(q, q), credibility)
                got = bootstrap_interval(data, f, credibility, n_resample, stream(10))
                if f.kind == "quantile":
                    assert (got.lo, got.hi) == (want.lo, want.hi), (f, credibility)
                else:
                    assert (got.lo, got.hi) == pytest.approx((want.lo, want.hi), rel=1e-12)

    @pytest.mark.parametrize("n", [7, 50, 1000])
    def test_chunked_draws_equal_one_shot_draw(self, n):
        # the bootstrap draws its indices chunk by chunk from one stream
        want = stream(19).integers(0, n, size=(2000, n))
        for rows in (1, 700, 2000):
            rng = stream(19)
            got = [rng.integers(0, n, size=(min(rows, 2000 - s), n))
                   for s in range(0, 2000, rows)]
            assert np.array_equal(np.concatenate(got), want), rows

    def test_endpoints_do_not_depend_on_chunk_size(self, monkeypatch):
        functionals = [MEAN] + [
            Functional(kind, p)
            for kind in ("quantile", "trunc_mean", "cvar") for p in (0.3, 0.7)
        ]
        datasets = [
            [2.0, -1.0, 2.0, 0.0, 2.0, -1.0, 7.0],
            stream(9).lognormal(size=50).tolist(),
        ]
        for data in datasets:
            row_bytes = 16 * len(data)  # two (rows, n) arrays of 8 bytes
            for f in functionals:
                runs = []
                # one-row chunks, 3-row chunks (3 does not divide 101), the default
                for chunk_bytes in (row_bytes, 3 * row_bytes, bis._CHUNK_BYTES):
                    monkeypatch.setattr(bis, "_CHUNK_BYTES", chunk_bytes)
                    est = bootstrap_interval(data, f, 0.9, 101, stream(10))
                    runs.append((est.lo, est.hi))
                monkeypatch.undo()
                # each row is summed on its own, so every functional keeps its bytes
                assert runs[0] == runs[1] == runs[2], (data, f)


class TestBayesianBootstrap:
    def test_single_datum(self):
        est = bayesian_bootstrap_interval([4.0], MEAN, 0.9, 100, stream(11))
        assert est.lo == est.hi == 4.0

    def test_mean_within_range(self):
        rng = stream(12)
        data = rng.normal(size=25)
        est = bayesian_bootstrap_interval(data, MEAN, 0.95, 500, rng)
        assert data.min() <= est.lo <= est.hi <= data.max()

    def test_is_the_engine_loop_over_sorted_data(self):
        # Dirichlet(1, ..., 1) rows from the engine's draw, column j on the
        # j-th sorted value, evaluated as whole rows
        data = stream(20).lognormal(size=40)
        n, ones = data.size, np.ones(data.size)
        rows = bis._chunk_rows(8 * n)
        w = np.concatenate([chunk.copy() for chunk in weight_chunks(ones, stream(21), 999, rows)])
        q = whole_rows(MEAN, np.sort(data), w)
        want = interval_estimate(QSamples(q, q), 0.9)
        assert bayesian_bootstrap_interval(data, MEAN, 0.9, 999, stream(21)) == want
        # a quantile is the sorted value at the split index, drawn from its law
        f = Functional("quantile", 0.5)
        values = np.sort(data)[sample_split_index(ones, f.p, stream(21), 999)]
        want = interval_estimate(QSamples(values, values), 0.9)
        assert bayesian_bootstrap_interval(data, f, 0.9, 999, stream(21)) == want

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [200, 1000])
    def test_quantile_keeps_the_law_of_weight_rows(self, n, p):
        # the split index drawn from its law against whole weight rows
        # searched over every sorted value, by a two-sample KS test
        data = np.sort(stream(24).lognormal(size=n))
        f, n_resample = Functional("quantile", p), 4000
        got = bis._dirichlet_resample(f, np.ones(n), data[:, None], stream(25), n_resample)
        chunks = weight_chunks(np.ones(n), stream(26), n_resample, bis._chunk_rows(8 * n))
        w = np.concatenate([chunk.copy() for chunk in chunks])
        want = whole_rows(f, data, w)
        assert np.array_equal(got.q_min, got.q_max)
        assert sps.ks_2samp(got.q_min, want).pvalue > 0.01

    def test_agrees_with_bootstrap_for_large_n(self):
        rng = stream(13)
        data = rng.normal(loc=5.0, size=500)
        a = bootstrap_interval(data, MEAN, 0.9, 4_000, stream(14))
        b = bayesian_bootstrap_interval(data, MEAN, 0.9, 4_000, stream(15))
        assert a.lo == pytest.approx(b.lo, abs=0.02)
        assert a.hi == pytest.approx(b.hi, abs=0.02)


def bayesian_index_cdf(n, p):
    """P(index <= j), j = 0..n-1, of the sorted observation that is the
    Bayesian bootstrap's p-quantile: the index is Binomial(n - 1, p)."""
    return sps.binom.cdf(np.arange(n), n - 1, p)


def percentile_index_cdf(n, p):
    """P(index <= j), j = 0..n-1, of the sorted observation that is the
    percentile bootstrap's p-quantile: the r-th smallest of n uniform
    positions, r = ceil(p n), is at or below j when at least r of the
    positions are, a Binomial(n, (j + 1) / n) count."""
    return sps.binom.sf(math.ceil(p * n) - 1, n, np.arange(1, n + 1) / n)


class TestBootstrapsShared:
    @pytest.mark.parametrize("method, index_cdf", [
        (bayesian_bootstrap_interval, bayesian_index_cdf),
        (bootstrap_interval, percentile_index_cdf),
    ], ids=["bayesian_bootstrap", "bootstrap"])
    @pytest.mark.parametrize("n, p, c", [(20, 0.5, 0.9), (37, 0.9, 0.95), (12, 0.25, 0.8)])
    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_quantile_endpoints_follow_the_exact_index_law(self, method, index_cdf, n, p, c,
                                                           tied):
        n_draws, z = 20_000, 5.0
        x = np.arange(n, dtype=float)
        if tied:
            x = np.floor(x / 3.0)  # runs of three tied observations
        data = stream(n).permutation(x)
        cdf = index_cdf(n, p)
        for seed in (1, 2, 3):
            est = method(data, Functional("quantile", p), c, n_draws, stream(seed))
            # each endpoint within a z-sigma rank band of the exact endpoint
            for got, a in ((est.lo, (1.0 - c) / 2.0), (est.hi, (1.0 + c) / 2.0)):
                d = z * math.sqrt(a * (1.0 - a) / n_draws)
                band = [x[np.searchsorted(cdf, level, side="left")]
                        for level in (max(a - d, 0.0), min(a + d, 1.0))]
                assert band[0] <= got <= band[1]

    @pytest.mark.parametrize("method", BOOTSTRAPS)
    def test_mean_of_one_repeated_value_is_that_value(self, method):
        # the sums of ten 0.1s round, so their ratio lands an ulp off 0.1
        # unless the mean is clipped to its supports
        est = method(np.full(10, 0.1), MEAN, 0.9, 2000, stream(5))
        assert est.lo == est.hi == 0.1

    @pytest.mark.parametrize("method", BOOTSTRAPS)
    @pytest.mark.parametrize("n_resample", [2.5, True, -3])
    def test_bad_resample_count_fails_before_drawing(self, method, n_resample):
        for f in (MEAN, Functional("quantile", 0.5)):
            rng = stream(22)
            state = rng.bit_generator.state
            with pytest.raises(ValueError, match="n_resample must be an integer"):
                method([1.0, 2.0, 3.0], f, 0.9, n_resample, rng)
            assert rng.bit_generator.state == state

    @pytest.mark.parametrize("method", BOOTSTRAPS)
    def test_nan_observation_fails_before_drawing(self, method):
        # a NaN once counted as 0: the mean of [1, nan, 3, 4] came out (0.75, 3.25)
        for f in (MEAN, Functional("quantile", 0.5), Functional("cvar", 0.5)):
            rng = stream(22)
            state = rng.bit_generator.state
            with pytest.raises(NonFiniteError):
                method([1.0, math.nan, 3.0, 4.0], f, 0.9, 1000, rng)
            assert rng.bit_generator.state == state

    @pytest.mark.parametrize("method", BOOTSTRAPS)
    @pytest.mark.parametrize("credibility", [0.0, 1.0, 1.5, math.nan])
    def test_bad_credibility_fails_before_drawing(self, method, credibility):
        # it once drew all N resamples before the inverter raised
        for f in (MEAN, Functional("quantile", 0.5), Functional("cvar", 0.5)):
            rng = stream(22)
            state = rng.bit_generator.state
            with pytest.raises(InvalidProbabilityError):
                method([1.0, 2.0, 3.0, 4.0], f, credibility, 1000, rng)
            assert rng.bit_generator.state == state

    @pytest.mark.parametrize("method", BOOTSTRAPS)
    def test_zero_resamples_leave_nothing_to_invert(self, method):
        for f in (MEAN, Functional("quantile", 0.5), Functional("trunc_mean", 0.5),
                  Functional("cvar", 0.5)):
            with pytest.raises(EmptySamplesError):
                method([1.0, 2.0, 3.0], f, 0.9, 0, stream(22))

    @pytest.mark.parametrize("method", BOOTSTRAPS)
    @pytest.mark.parametrize("f", ["trunc-mean:0.9", "cvar:0.9", "mean"])
    def test_memory_bounded_at_large_n(self, method, f):
        # the rows of all 64 resamples would take 51 MB; chunks take one row
        data = np.exp(stream(3).normal(0.0, 1.0, 10**5))
        tracemalloc.start()
        try:
            est = method(data, Functional.parse(f), 0.9, 64, stream(23))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert data.min() <= est.lo <= est.hi <= data.max()


class TestCoverageExperiment:
    def test_single_trial_hit_rate_binary(self):
        gen = TruncatedLognormal(0.0, 1.0, 0.0, 50.0)
        r = coverage_experiment(
            gen, TRUNC_LOGNORMAL_MEAN, "student_t", MEAN, 20, 0.9, 1, 0,
            BoundingInterval(0.0, 50.0), seed=16,
        )
        assert r.hit_rate in (0.0, 1.0)

    @pytest.mark.parametrize("n_trials", [True, 2.5, 0, -1, "3"],
                             ids=["True", "2.5", "0", "-1", "str"])
    def test_rejects_a_trial_count_that_is_not_a_positive_integer(self, monkeypatch, n_trials):
        # True once ran one trial and reported n_trials=True
        def no_draw(*args):
            raise AssertionError("drew data")

        monkeypatch.setattr(baselines, "generate", no_draw)
        gen = TruncatedLognormal(0.0, 1.0, 0.0, 50.0)
        with pytest.raises(ValueError, match="n_trials must be an integer of at least 1"):
            coverage_experiment(
                gen, TRUNC_LOGNORMAL_MEAN, "student_t", MEAN, 20, 0.9, n_trials, 0,
                BoundingInterval(0.0, 50.0), seed=16,
            )

    def test_rejects_nan_true_q(self):
        gen = TruncatedLognormal(0.0, 1.0, 0.0, 50.0)
        with pytest.raises(ValueError, match="true_q"):
            coverage_experiment(
                gen, float("nan"), "student_t", MEAN, 20, 0.9, 1, 0,
                BoundingInterval(0.0, 50.0), seed=16,
            )

    @pytest.mark.parametrize("method", ["bis", "bootstrap"])
    @pytest.mark.parametrize("seed", [1.5, True, "1"], ids=["1.5", "True", "str"])
    def test_rejects_a_seed_that_is_not_an_integer(self, method, seed):
        gen = TruncatedLognormal(0.0, 1.0, 0.0, 50.0)
        with pytest.raises(ValueError, match="seed"):
            coverage_experiment(
                gen, TRUNC_LOGNORMAL_MEAN, method, MEAN, 20, 0.9, 1, 1000,
                BoundingInterval(0.0, 50.0), seed=seed,
            )

    def test_deterministic_given_seed(self):
        gen = TruncatedLognormal(0.0, 1.0, 0.0, 50.0)
        kwargs = dict(
            gen=gen, true_q=TRUNC_LOGNORMAL_MEAN, method="bis", f=MEAN,
            n_sample=20, credibility=0.9, n_trials=20, n_resample=500,
            interval=BoundingInterval(0.0, 50.0), seed=17,
        )
        # 500 resamples are below the rule of thumb at c = 0.9
        with pytest.warns(UserWarning, match="rule of thumb"):
            a = coverage_experiment(**kwargs)
        with pytest.warns(UserWarning, match="rule of thumb"):
            b = coverage_experiment(**kwargs)
        assert a == b

    def test_calibration_sanity_small_credibility(self):
        # near-normal data (tiny sigma) keeps the t interval calibrated, so a
        # tiny credibility produces a hit rate near that credibility
        gen = TruncatedLognormal(0.0, 0.05, 0.0, np.inf)
        true_mean = float(np.exp(0.5 * 0.05**2))
        r = coverage_experiment(
            gen, true_mean, "student_t", MEAN, 200, 0.05, 400, 0,
            BoundingInterval(0.0, np.inf), seed=18,
        )
        assert abs(r.hit_rate - 0.05) < 0.05

    def test_presets_expose_reference_settings(self):
        p3 = preset("table3")
        assert p3["n_sample"] == 50 and p3["credibility"] == 0.95
        assert p3["n_resample"] == 2000
        p4 = preset("table4")
        assert isinstance(p4["gen"], ExtremeMixture)
        assert p4["true_q"] == pytest.approx(0.99 * TRUNC_LOGNORMAL_MEAN + 0.5)
        with pytest.raises(ValueError):
            preset("table9")


BASE = TruncatedLognormal(0.0, 1.0, 0.0, 50.0)


@pytest.mark.parametrize("make, error, word", [
    (lambda: ExtremeMixture(BASE, 50.0, 1.5), ValueError, "atom_prob"),
    (lambda: generate("lognormal", 3, stream(1)), TypeError, "unknown generator"),
    (lambda: baselines.CoverageReport("bis", 0.9, 10, 1.5, 0.0, 1.0), ValueError, "fraction"),
    (lambda: coverage_experiment(BASE, 1.0, "jackknife", MEAN, 15, 0.9, 1, 200,
                                 BoundingInterval(0.0, 50.0), 1), ValueError, "unknown method"),
    (lambda: coverage_experiment(BASE, 1.0, "student_t", Functional("quantile", 0.5), 15, 0.9,
                                 1, 200, BoundingInterval(0.0, 50.0), 1), ValueError, "mean"),
], ids=["atom_prob", "generator", "hit_rate", "method", "student_t-median"])
def test_invalid_arguments_raise(make, error, word):
    with pytest.raises(error, match=word):
        make()
