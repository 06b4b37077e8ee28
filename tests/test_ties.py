"""Tied observations: one tie rule for signed zeros, and an exact oracle on
data made of two tied values.

Every place that sorts or merges values reads -0.0 as 0.0, so tied zeros
are equal bits whatever order a sort leaves them in, and no output depends
on the sort NumPy dispatches to.  On k ones and n - k zeros every cell
endpoint is 0 or 1, so the mean's q-samples have exact Beta laws and its
interval is Clopper-Pearson, and the truncated mean, CVaR and quantile are
nondecreasing functions of those Beta variables.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from conftest import child_env

from bisampling import dirichlet
from bisampling.baselines import (
    bayesian_bootstrap_interval,
    bootstrap_interval,
    generate,
    preset,
)
from bisampling.bis import (
    BisConfig,
    bis_run,
    interval_estimate,
    probabilistic_projection_params,
)
from bisampling.dirichlet import merge_duplicates
from bisampling.functionals import Functional
from bisampling.pbox import BoundingInterval, WeightedStepCdf, make_extended_order_stats

INF = float("inf")
BOOTSTRAPS = {"bootstrap": bootstrap_interval, "bayesian_bootstrap": bayesian_bootstrap_interval}


def positive_zero_bytes(*arrays) -> bool:
    """Whether no zero in ``arrays`` carries a sign bit."""
    return not any(np.signbit(a[a == 0]).any() for a in map(np.asarray, arrays))


def signed_zero_digests() -> dict:
    """One sha1 per output family over seeded data drawn from signed zeros
    and a few other values on [-5, 5], and over the synthetic data of the
    table3 and table4 coverage studies."""
    interval = BoundingInterval(-5.0, 5.0)
    pool = np.array([-0.0, 0.0, -1.0, 1.5, 2.5, 3.0])
    sha = {}

    def update(family, *arrays):
        sha.setdefault(family, hashlib.sha1()).update(
            b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays))

    for seed in range(5):
        for n in (40, 300):
            x = np.random.default_rng(seed).choice(pool, n)
            update("merge_duplicates", *merge_duplicates(x, interval))
            update("projection", *probabilistic_projection_params(x, interval))
            update("step_cdf", WeightedStepCdf(x, np.full(n, 1.0 / n)).supports)
            for name in ("median", "quantile:0.3"):
                f = Functional.parse(name)
                qs = bis_run(x, interval, BisConfig(f, 0.5, 200, seed))
                update(f"bis_run {name}", qs.q_min, qs.q_max)
                for method, run in BOOTSTRAPS.items():
                    est = run(x, f, 0.5, 200, np.random.default_rng(seed))
                    update(f"{method} {name}", [est.lo, est.hi])
            # the percentile bootstrap's mean sums each resample's values in
            # draw order, and its split means each side in position order, and
            # it draws no unit weights, so it keeps its bytes too; lognormal
            # factors that keep each zero's sign make the sums round
            y = x * np.random.default_rng(seed).lognormal(0.0, 1.0, n)
            for name in ("mean", "trunc-mean:0.5", "cvar:0.9"):
                est = bootstrap_interval(y, Functional.parse(name), 0.5, 200,
                                         np.random.default_rng(seed))
                update(f"bootstrap {name}", [est.lo, est.hi])
        for table in ("table3", "table4"):
            update("generate", generate(preset(table)["gen"], 50, np.random.default_rng(seed)))
    return {family: h.hexdigest() for family, h in sha.items()}


class TestSignedZeros:
    @pytest.mark.parametrize("interval", [(-0.0, 1.0), (-1.0, -0.0), (-0.0, INF), (-INF, 0.0)])
    def test_extended_order_stats_hold_no_negative_zero(self, interval):
        lo, hi = interval
        data = [x for x in (-0.0, 0.0, -0.0, -1.0, 0.5, 0.0) if lo <= x <= hi]
        points = make_extended_order_stats(data, BoundingInterval(lo, hi))
        assert (points == 0).sum() == 5  # four observations and one bound
        assert positive_zero_bytes(points)

    def test_a_signed_zero_tie_merges_to_positive_zero(self):
        interval = BoundingInterval(-0.0, 1.0)
        reduced, params = merge_duplicates([0.0, -0.0, -0.0, 1.0], interval)
        assert reduced.tolist() == [0.0, 0.0, 1.0, 1.0] and positive_zero_bytes(reduced)
        assert params.tolist() == [3.0, 1.0, 1.0]
        points, params = probabilistic_projection_params([-0.0, 0.0, 1.0], interval)
        assert points.tolist() == [0.0, 1.0] and positive_zero_bytes(points)
        assert params.tolist() == [2.5, 1.5]
        for supports in ([-0.0, 0.0, 1.0], [0.0, -0.0, 1.0], [-0.0]):
            cdf = WeightedStepCdf(supports, np.full(len(supports), 1.0 / len(supports)))
            assert cdf.supports[0] == 0.0 and positive_zero_bytes(cdf.supports)

    @pytest.mark.parametrize("f", ["median", "quantile:0.3", "mean"])
    def test_negative_zeros_give_what_positive_zeros_give(self, f):
        functional = Functional.parse(f)
        x = np.random.default_rng(3).choice([-0.0, 0.0, -1.0, 1.5, 2.5], 60)
        kept = x.copy()
        interval = BoundingInterval(-5.0, 5.0)
        cfg = BisConfig(functional, 0.5, 200, 3)
        got, want = bis_run(x, interval, cfg), bis_run(x + 0.0, interval, cfg)
        assert got.q_min.tobytes() == want.q_min.tobytes()
        assert got.q_max.tobytes() == want.q_max.tobytes()
        for run in BOOTSTRAPS.values():
            got = run(x, functional, 0.5, 200, np.random.default_rng(3))
            want = run(x + 0.0, functional, 0.5, 200, np.random.default_rng(3))
            assert np.array([got.lo, got.hi]).tobytes() == np.array([want.lo, want.hi]).tobytes()
        # the caller's array keeps its signs
        assert x.tobytes() == kept.tobytes()

    @pytest.mark.skipif(dirichlet._log_kernel() != "X86_V4",
                        reason="float64 log does not dispatch to X86_V4 here")
    def test_outputs_do_not_depend_on_the_dispatch(self):
        # a fresh interpreter whose NumPy may not dispatch to AVX-512 sorts
        # with another kernel, which orders tied -0.0 and 0.0 its own way
        code = (f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                "import json, test_ties\nprint(json.dumps(test_ties.signed_zero_digests()))\n")
        env = child_env(NPY_DISABLE_CPU_FEATURES="X86_V4")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert json.loads(out) == signed_zero_digests()


class TestTwoPointOracle:
    """k ones and n - k zeros on [0, 1].  The mean's q_min is the weight W
    of the k cells whose left endpoint is 1, and q_max that of the k + 1
    cells whose right endpoint is 1: Beta(k, n - k + 1) and
    Beta(k + 1, n - k), so the mean interval is the Clopper-Pearson interval
    (Clopper & Pearson 1934).  Every other functional is h(W) for an h
    that does not decrease (``h``)."""

    N = 40_000
    Z = 5.0
    UNIT = BoundingInterval(0.0, 1.0)
    SPLITS = ("trunc-mean:0.5", "trunc-mean:0.9", "cvar:0.5", "cvar:0.9",
              "quantile:0.5", "quantile:0.8")

    def q_samples(self, n, k, c=0.9, seed=5, name="mean"):
        data = np.r_[np.ones(k), np.zeros(n - k)]
        return bis_run(data, self.UNIT, BisConfig(Functional.parse(name), c, self.N, seed))

    @staticmethod
    def h(f, w):
        """The functional of the law with mass w on 1 and 1 - w on 0."""
        w, p = np.asarray(w, dtype=float), f.p
        if f.kind == "trunc_mean":
            return np.maximum(w - (1.0 - p), 0.0) / p
        if f.kind == "cvar":
            return np.minimum(w, 1.0 - p) / (1.0 - p)
        return (w > 1.0 - p).astype(float)

    @pytest.mark.parametrize("n, k", [(10, 3), (30, 7), (200, 150)])
    def test_q_samples_follow_their_beta_laws(self, n, k):
        qs = self.q_samples(n, k)
        assert sps.kstest(qs.q_min, "beta", args=(k, n - k + 1)).pvalue > 1e-3
        assert sps.kstest(qs.q_max, "beta", args=(k + 1, n - k)).pvalue > 1e-3

    def test_no_ones_or_all_ones_pin_one_bound(self):
        none, every = self.q_samples(10, 0), self.q_samples(10, 10)
        assert (none.q_min == 0.0).all() and (every.q_max == 1.0).all()
        # the other bound keeps its law: one cell, or all but one, on 1
        assert sps.kstest(none.q_max, "beta", args=(1, 10)).pvalue > 1e-3
        assert sps.kstest(every.q_min, "beta", args=(10, 1)).pvalue > 1e-3

    THETA = np.arange(1, 1000) / 1000

    @classmethod
    def coverage(cls, n, c):
        """Exact coverage of the endpoints pinned above for Bernoulli(theta)
        data, on THETA: sum over k of Binom(n, theta)(k) 1{lo_k <= theta <= hi_k}."""
        k = np.arange(n + 1)
        lo, hi = np.zeros(n + 1), np.ones(n + 1)
        lo[1:] = sps.beta.ppf((1.0 - c) / 2.0, k[1:], n - k[1:] + 1)
        hi[:-1] = sps.beta.ppf((1.0 + c) / 2.0, k[:-1] + 1, n - k[:-1])
        inside = (lo[:, None] <= cls.THETA) & (cls.THETA <= hi[:, None])
        return (sps.binom.pmf(k[:, None], n, cls.THETA) * inside).sum(axis=0)

    @pytest.mark.parametrize("c", [0.9, 0.95])
    @pytest.mark.parametrize("n", [5, 10, 20, 50, 100])
    def test_clopper_pearson_covers_every_theta(self, n, c):
        coverage = self.coverage(n, c)
        assert coverage.min() >= c, self.THETA[coverage.argmin()]

    @pytest.mark.parametrize("c", [0.9, 0.95])
    def test_clopper_pearson_is_tight_somewhere(self, c):
        # conservative, but not by a wide margin somewhere on the grid
        worst = min(self.coverage(n, c).min() for n in (5, 10, 20, 50, 100))
        assert c <= worst < c + 0.001

    @pytest.mark.parametrize("c", [0.8, 0.95])
    @pytest.mark.parametrize("n, k", [(10, 3), (30, 7), (200, 150)])
    def test_interval_is_clopper_pearson(self, n, k, c):
        est = interval_estimate(self.q_samples(n, k, c), c)
        # each endpoint within the z-sigma rank band of its exact quantile
        for got, a, law in ((est.lo, (1.0 - c) / 2.0, (k, n - k + 1)),
                            (est.hi, (1.0 + c) / 2.0, (k + 1, n - k))):
            d = self.Z * np.sqrt(a * (1.0 - a) / self.N)
            band = sps.beta.ppf([a - d, a + d], *law)
            assert band[0] <= got <= band[1]

    @pytest.mark.parametrize("name", SPLITS)
    @pytest.mark.parametrize("n, k", [(10, 3), (30, 20), (200, 150)])
    def test_split_q_samples_are_h_of_their_beta_laws(self, n, k, name):
        f = Functional.parse(name)
        qs = self.q_samples(n, k, name=name)
        for q, law in ((qs.q_min, sps.beta(k, n - k + 1)), (qs.q_max, sps.beta(k + 1, n - k))):
            # h is flat on one side of W = 1 - p: an atom of known mass
            cut = law.cdf(1.0 - f.p)
            atom, mass = (0.0, cut) if f.kind == "trunc_mean" else (1.0, 1.0 - cut)
            assert abs((q == atom).mean() - mass) <= self.Z * np.sqrt(mass * (1 - mass) / self.N)
            rest = q[q != atom]
            if f.kind == "quantile":
                assert (rest == 0.0).all()
            elif rest.size:
                # h is one to one off the atom: W given that side of the cut
                if f.kind == "trunc_mean":
                    pit = (law.cdf(1.0 - f.p + f.p * rest) - cut) / (1.0 - cut)
                else:
                    pit = law.cdf((1.0 - f.p) * rest) / cut
                assert sps.kstest(pit, "uniform").pvalue > 1e-3

    @pytest.mark.parametrize("c", [0.8, 0.95])
    @pytest.mark.parametrize("name", SPLITS)
    @pytest.mark.parametrize("n, k", [(10, 3), (30, 20), (200, 150)])
    def test_split_interval_is_h_of_the_beta_band(self, n, k, name, c):
        est = interval_estimate(self.q_samples(n, k, c, name=name), c)
        # h does not decrease, so ranks of h(W) are h of the ranks of W
        for got, a, law in ((est.lo, (1.0 - c) / 2.0, (k, n - k + 1)),
                            (est.hi, (1.0 + c) / 2.0, (k + 1, n - k))):
            d = self.Z * np.sqrt(a * (1.0 - a) / self.N)
            band = self.h(Functional.parse(name), sps.beta.ppf([a - d, a + d], *law))
            assert band[0] <= got <= band[1]
