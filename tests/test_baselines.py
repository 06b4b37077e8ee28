import numpy as np
import pytest

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
from bisampling.errors import TooFewSamplesError
from bisampling.functionals import Functional
from bisampling.pbox import BoundingInterval
from bisampling.rng import stream

MEAN = Functional("mean")


class TestGenerate:
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
        rng = stream(9)
        data = rng.normal(size=30)
        for f in (Functional("quantile", 0.3), Functional("trunc_mean", 0.7),
                  Functional("cvar", 0.7)):
            est = bootstrap_interval(data, f, 0.8, 64, stream(10))
            assert est.lo <= est.hi


class TestBayesianBootstrap:
    def test_single_datum(self):
        est = bayesian_bootstrap_interval([4.0], MEAN, 0.9, 100, stream(11))
        assert est.lo == est.hi == 4.0

    def test_mean_within_range(self):
        rng = stream(12)
        data = rng.normal(size=25)
        est = bayesian_bootstrap_interval(data, MEAN, 0.95, 500, rng)
        assert data.min() <= est.lo <= est.hi <= data.max()

    def test_agrees_with_bootstrap_for_large_n(self):
        rng = stream(13)
        data = rng.normal(loc=5.0, size=500)
        a = bootstrap_interval(data, MEAN, 0.9, 4_000, stream(14))
        b = bayesian_bootstrap_interval(data, MEAN, 0.9, 4_000, stream(15))
        assert a.lo == pytest.approx(b.lo, abs=0.02)
        assert a.hi == pytest.approx(b.hi, abs=0.02)


class TestCoverageExperiment:
    def test_single_trial_hit_rate_binary(self):
        gen = TruncatedLognormal(0.0, 1.0, 0.0, 50.0)
        r = coverage_experiment(
            gen, TRUNC_LOGNORMAL_MEAN, "student_t", MEAN, 20, 0.9, 1, 0,
            BoundingInterval(0.0, 50.0), seed=16,
        )
        assert r.hit_rate in (0.0, 1.0)

    def test_rejects_nan_true_q(self):
        gen = TruncatedLognormal(0.0, 1.0, 0.0, 50.0)
        with pytest.raises(ValueError, match="true_q"):
            coverage_experiment(
                gen, float("nan"), "student_t", MEAN, 20, 0.9, 1, 0,
                BoundingInterval(0.0, 50.0), seed=16,
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
