import functools
from fractions import Fraction

import numpy as np
import pytest

from conftest import oracle_split_mean, random_fraction_instance, whole_rows

from bisampling.baselines import bayesian_bootstrap_interval, bootstrap_interval
from bisampling.bis import BisConfig, bis_run, interval_estimate
from bisampling.dirichlet import merge_duplicates, weight_chunks
from bisampling.errors import IndeterminateSumError, InvalidProbabilityError
from bisampling.functionals import (
    Functional,
    _cut_mean,
    _mean_rows,
    _resample_values,
    prepare_supports,
)
from bisampling.pbox import (
    BoundingInterval,
    WeightedStepCdf,
    cell_box,
    cell_endpoints,
    make_extended_order_stats,
)
from bisampling.rng import stream

INF = float("inf")


def step(supports, weights):
    return WeightedStepCdf(supports, weights)


class TestFunctionalParsing:
    @pytest.mark.parametrize(
        "text,kind,p",
        [
            ("mean", "mean", None),
            ("median", "quantile", 0.5),
            ("quantile:0.99", "quantile", 0.99),
            ("trunc-mean:0.9", "trunc_mean", 0.9),
            ("cvar:0.95", "cvar", 0.95),
        ],
    )
    def test_grammar(self, text, kind, p):
        f = Functional.parse(text)
        assert f.kind == kind and f.p == p

    def test_rejects_garbage(self):
        for bad in ("moment:2", "quantile", "cvar:", "quantile:1.5",
                    "median:0.3", "median:", "mean:0.5", "mean:"):
            with pytest.raises((ValueError, InvalidProbabilityError)):
                Functional.parse(bad)

    @pytest.mark.parametrize("bad", ["quantile:abc", "quantile:0.5:3", "cvar:"])
    def test_a_p_that_is_no_number_names_the_text(self, bad):
        with pytest.raises(ValueError, match=f"^cannot parse functional '{bad}'$"):
            Functional.parse(bad)

    def test_a_p_out_of_range_keeps_its_error(self):
        with pytest.raises(InvalidProbabilityError, match=r"p must be in \(0, 1\), got inf"):
            Functional.parse("trunc-mean:1e400")


class TestMean:
    def test_hand_value(self):
        assert Functional("mean").evaluate(step([1, 2, 3], [0.5, 0.3, 0.2])) == pytest.approx(1.7)

    def test_single_atom(self):
        assert Functional("mean").evaluate(step([5.0], [1.0])) == 5.0

    def test_mass_at_infinity(self):
        assert Functional("mean").evaluate(step([1.0, INF], [0.9, 0.1])) == INF
        assert Functional("mean").evaluate(step([-INF, 1.0], [0.1, 0.9])) == -INF

    def test_both_infinities_is_indeterminate(self):
        with pytest.raises(IndeterminateSumError):
            Functional("mean").evaluate(step([-INF, 0.0, INF], [0.1, 0.8, 0.1]))

    def test_one_repeated_atom_is_its_own_mean(self):
        # a ratio of rounded sums of 0.1s lands an ulp off 0.1, unclipped
        rows = np.random.default_rng(32).random((500, 7))
        assert (_mean_rows(prepare_supports(np.full(7, 0.1)), rows) == 0.1).all()

    @pytest.mark.parametrize("n, tied, n_resample", [
        (15, False, 2000), (1000, False, 2000), (10**5, False, 20), (12, True, 2000),
    ], ids=["15", "1000", "1e5", "twelve-at-the-bound"])
    def test_the_clip_absorbs_rounding_alone(self, n, tied, n_resample):
        # against the unclipped ratio of the same sums, the clip to a
        # column's first and last atoms moves no mean by more than 1 ulp
        if tied:
            # one cell of parameter 12, drawn by gammas, between two 50s
            data, interval = np.full(n, 50.0), BoundingInterval(0.0, 50.0)
        else:
            data = np.minimum(stream(n).lognormal(0.0, 1.0, n), 59.0)
            interval = BoundingInterval(0.0, 60.0)
        reduced, params = merge_duplicates(data, interval)
        sup = prepare_supports(cell_endpoints(reduced))
        (w,) = weight_chunks(params, stream(9), n_resample, n_resample)
        sums = w @ sup.terms
        ratio = sums[:, :2] / sums[:, 2:]
        # nonnegative floats order as their bits
        ulps = np.abs(_mean_rows(sup, w).view(np.int64) - ratio.view(np.int64))
        assert ulps.max() <= 1

    def test_within_support_range(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            s = np.sort(rng.normal(size=n) * 5)
            d = step(s, rng.dirichlet(np.ones(n)))
            m = Functional("mean").evaluate(d)
            assert s[0] - 1e-12 <= m <= s[-1] + 1e-12


class TestQuantile:
    def test_hand_values(self):
        d = step([1, 2, 3], [0.5, 0.3, 0.2])
        assert Functional("quantile", 0.6).evaluate(d) == 2.0

    def test_inf_convention_at_half(self):
        d = step([0.0, 1.0], [0.5, 0.5])
        assert Functional("quantile", 0.5).evaluate(d) == 0.0

    def test_monotone_in_p(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            d = step(np.sort(rng.normal(size=n)), rng.dirichlet(np.ones(n)))
            ps = np.sort(rng.uniform(0.01, 0.99, size=6))
            qs = [Functional("quantile", p).evaluate(d) for p in ps]
            assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_domain(self):
        d = step([1.0], [1.0])
        with pytest.raises(InvalidProbabilityError):
            Functional("quantile", 1.0).evaluate(d)
        with pytest.raises(InvalidProbabilityError):
            Functional("quantile", "0.5")


class TestTruncatedMeanAndCvar:
    def test_hand_split(self):
        d = step([1, 2, 3], [0.5, 0.3, 0.2])
        want = (0.5 * 1 + 0.3 * 2) / 0.8
        assert Functional("trunc_mean", 0.8).evaluate(d) == pytest.approx(want)
        assert Functional("cvar", 0.8).evaluate(d) == pytest.approx(3.0)

    def test_single_atom(self):
        d = step([4.0], [1.0])
        assert Functional("trunc_mean", 0.3).evaluate(d) == 4.0
        assert Functional("cvar", 0.3).evaluate(d) == 4.0

    def test_decomposition_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            d = step(np.sort(rng.normal(size=n) * 10), rng.dirichlet(np.ones(n)))
            p = float(rng.uniform(0.05, 0.95))
            tm, cv = Functional("trunc_mean", p).evaluate(d), Functional("cvar", p).evaluate(d)
            lhs = p * tm + (1 - p) * cv
            assert lhs == pytest.approx(Functional("mean").evaluate(d), abs=1e-10)

    def test_cvar_with_tail_at_infinity(self):
        d = step([1.0, INF], [0.95, 0.05])
        assert Functional("cvar", 0.9).evaluate(d) == INF
        assert Functional("trunc_mean", 0.9).evaluate(d) == pytest.approx(1.0)

    def test_trunc_mean_with_mass_at_minus_infinity(self):
        d = step([-INF, 1.0], [0.05, 0.95])
        assert Functional("trunc_mean", 0.5).evaluate(d) == -INF
        assert Functional("cvar", 0.5).evaluate(d) == pytest.approx(1.0)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(34)
        for _ in range(2_000):
            supports, weights, p = random_fraction_instance(rng)
            d = step([float(s) for s in supports], [float(w) for w in weights])
            got_tm = Functional("trunc_mean", float(p)).evaluate(d)
            got_cv = Functional("cvar", float(p)).evaluate(d)
            want_tm = float(oracle_split_mean(supports, weights, p, tail=False))
            want_cv = float(oracle_split_mean(supports, weights, p, tail=True))
            assert got_tm == pytest.approx(want_tm, abs=1e-12)
            assert got_cv == pytest.approx(want_cv, abs=1e-12)


def extremes(f, points, weights):
    """``(q_min, q_max)``: ``f`` of the upper and of the lower bound of the
    ``cell_box`` that puts ``weights`` on the cells between ``points``."""
    box = cell_box(points, weights)
    return f.evaluate(box.upper), f.evaluate(box.lower)


class TestBoundsForMonotonic:
    """Extremes of a monotonic functional: ``Functional.evaluate`` of the
    bounds of a cell box."""

    def test_hand_mean(self):
        q_min, q_max = extremes(Functional("mean"), [0, 1, 2, 3], [0.5, 0.3, 0.2])
        assert (q_min, q_max) == (pytest.approx(0.7), pytest.approx(1.7))

    def test_hand_quantile(self):
        q_min, q_max = extremes(Functional("quantile", 0.6), [0, 1, 2, 3], [0.5, 0.3, 0.2])
        assert (q_min, q_max) == (1.0, 2.0)

    def test_infinite_endpoint(self):
        q_min, q_max = extremes(Functional("mean"), [0.0, 1.0, INF], [0.5, 0.5])
        assert q_max == INF and q_min == pytest.approx(0.5)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            extremes(Functional("mean"), [0.0, 1.0], [0.5, 0.5])

    def test_block_matches_single_rows(self):
        # the row kernels read a block of rows on the cell endpoints as
        # they read each row alone
        rng = np.random.default_rng(37)
        pts = np.array([0.0, 0.5, 0.5, 2.0, 3.5, INF])
        block = rng.dirichlet(np.ones(5), size=40)
        for f in (Functional("mean"), Functional("quantile", 0.4), Functional("cvar", 0.6)):
            q_min, q_max = whole_rows(f, cell_endpoints(pts), block).T
            assert q_min.shape == q_max.shape == (40,)
            singles = np.array([whole_rows(f, cell_endpoints(pts), w)[0] for w in block])
            # a block's mean is one matrix product, so it may differ in the last bits
            np.testing.assert_allclose(q_min, singles[:, 0], rtol=1e-13)
            np.testing.assert_allclose(q_max, singles[:, 1], rtol=1e-13)

    def test_ordering_over_random_instances(self):
        rng = np.random.default_rng(35)
        functionals = [
            Functional("mean"),
            Functional("quantile", 0.25),
            Functional("trunc_mean", 0.9),
            Functional("cvar", 0.75),
        ]
        for _ in range(300):
            n = int(rng.integers(1, 8))
            pts = np.sort(rng.normal(size=n + 1) * 5)
            w = rng.dirichlet(np.ones(n))
            for f in functionals:
                q_min, q_max = extremes(f, pts, w)
                assert q_min <= q_max


class TestMonotonicityUnderDominance:
    def test_all_functionals_respect_dominance(self):
        # F_Y <= F_Z pointwise implies q[F_Y] >= q[F_Z]
        rng = np.random.default_rng(36)
        functionals = [
            Functional("mean"),
            Functional("quantile", 0.3),
            Functional("quantile", 0.5),
            Functional("trunc_mean", 0.8),
            Functional("cvar", 0.8),
        ]
        for _ in range(1_000):
            n = int(rng.integers(2, 8))
            s = np.sort(rng.normal(size=n) * 4)
            cum_a = np.sort(rng.uniform(size=n - 1))
            cum_b = np.sort(rng.uniform(size=n - 1))
            low = np.minimum(cum_a, cum_b)
            high = np.maximum(cum_a, cum_b)
            w_y = np.diff(np.concatenate(([0.0], low, [1.0])))
            w_z = np.diff(np.concatenate(([0.0], high, [1.0])))
            d_y = step(s, w_y)
            d_z = step(s, w_z)
            for f in functionals:
                assert f.evaluate(d_y) >= f.evaluate(d_z) - 1e-12


def pinned_cases(n_cases):
    """Seeded step CDFs with tied atoms, an end at -inf or +inf in some, and
    Dirichlet(0.05) weights, so most of the mass sits on a few atoms."""
    rng = np.random.default_rng(61)
    for _ in range(n_cases):
        n = int(rng.integers(1, 60))
        s = np.sort(np.round(rng.normal(size=n) * 3))
        s[0] = -INF if rng.random() < 0.3 else s[0]
        s[-1] = INF if rng.random() < 0.3 else s[-1]
        yield step(s, rng.dirichlet(np.full(n, 0.05)))


@pytest.mark.parametrize("f", [Functional("mean")] + [
    Functional(kind, p) for kind in ("trunc_mean", "cvar") for p in (0.01, 0.5, 0.99)],
    ids=lambda f: f"{f.kind}-{f.p}")
def test_evaluate_keeps_the_bytes_of_the_whole_row_search(f):
    # the split read from the CDF's own cumulative weights gives what the
    # search of the whole row gives, bit for bit, raises included
    seen = set()
    for d in pinned_cases(400):
        try:
            want = whole_rows(f, d.supports, d.weights)[0]
        except IndeterminateSumError:
            with pytest.raises(IndeterminateSumError):
                f.evaluate(d)
            seen.add("raises")
            continue
        got = f.evaluate(d)
        assert np.float64(got).tobytes() == want.tobytes(), (d, got, want)
        seen.add("finite" if np.isfinite(got) else "infinite")
    assert seen == {"raises", "finite", "infinite"}


class TestWeightRows:
    """The row kernels on given weight rows: ``whole_rows`` searches each
    row for its split, then takes ``_mean_rows`` or ``_cut_mean``."""

    def test_matches_scalar_path(self):
        rng = np.random.default_rng(37)
        fs = [
            Functional("mean"),
            Functional("quantile", 0.7),
            Functional("trunc_mean", 0.6),
            Functional("cvar", 0.6),
        ]
        s = np.sort(rng.normal(size=5))
        w = rng.dirichlet(np.ones(5), size=50)
        for f in fs:
            rows = whole_rows(f, s, w)
            for i in range(50):
                d = step(s, w[i])
                assert rows[i] == pytest.approx(f.evaluate(d), abs=1e-12)

    @pytest.mark.parametrize("p", [1e-13, 1e-5, 0.5, 0.9, 0.99999, 1 - 1e-13])
    def test_split_means_within_their_atoms(self, p):
        # a convex combination of atoms stays inside their range
        rng = np.random.default_rng(43)
        grid = [0.1, 1 / 3, 0.7, 2.0, 3.0, 5.0, 7.7, 1e3]
        for _ in range(200):
            s = np.sort(rng.choice(grid, size=int(rng.integers(1, 8)), replace=False))
            w = rng.dirichlet(np.ones(s.size), size=32)
            for f in (Functional("trunc_mean", p), Functional("cvar", p)):
                out = whole_rows(f, s, w)
                assert ((out >= s[0]) & (out <= s[-1])).all()

    def test_duplicate_supports_behave_as_merged(self):
        s = np.array([1.0, 1.0, 2.0])
        w = np.array([[0.25, 0.25, 0.5]])
        merged = step([1.0, 2.0], [0.5, 0.5])
        for f in (Functional("mean"), Functional("quantile", 0.5),
                  Functional("trunc_mean", 0.75), Functional("cvar", 0.75)):
            assert whole_rows(f, s, w)[0] == pytest.approx(
                f.evaluate(merged), abs=1e-12
            )

    @pytest.mark.parametrize(
        "left,right",
        [
            ([1.0, 1.0, 2.0, 3.0, 3.0], [1.0, 2.0, 2.0, 3.0, 4.0]),
            ([-INF, 1.0, 2.0, 2.0, 4.0], [1.0, 2.0, 2.0, 4.0, 5.0]),
            ([0.0, 1.0, 1.0, 3.0, 4.0], [1.0, 1.0, 3.0, 4.0, INF]),
            ([-INF, 1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0, INF]),
            ([-INF, -INF, 1.0, 2.0, 4.0], [-INF, 1.0, 2.0, 4.0, 5.0]),
            ([0.0, 1.0, 2.0, INF, INF], [1.0, 2.0, 3.0, 4.0, INF]),
        ],
        ids=["ties", "neg-inf-first", "pos-inf-last", "both-sides",
             "neg-inf-counts", "pos-inf-counts"],
    )
    def test_support_matrix_matches_single_columns(self, left, right):
        rng = np.random.default_rng(41)
        w = rng.dirichlet(np.ones(5), size=40)
        # rows without mass on an extreme atom, and rows whose split atom
        # is the first or the last one
        w[10:20, 0] = 0.0
        w[20:30, -1] = 0.0
        w[30:35] = [0.7, 0.1, 0.1, 0.05, 0.05]
        w[35:] = [0.05, 0.05, 0.1, 0.1, 0.7]
        w /= w.sum(axis=1, keepdims=True)
        s = np.column_stack((left, right))
        seen_inf = seen_finite = False
        for f in (Functional("mean"), Functional("quantile", 0.5),
                  Functional("trunc_mean", 0.6), Functional("cvar", 0.4)):
            got = whole_rows(f, s, w)
            assert got.shape == (40, 2)
            for j in range(2):
                want = whole_rows(f, s[:, j], w)
                if f.kind == "quantile":
                    assert np.array_equal(got[:, j], want)
                else:
                    np.testing.assert_allclose(got[:, j], want, rtol=1e-13)
                    if np.isinf(s[:, j]).any():
                        seen_inf |= np.isinf(want).any()
                        seen_finite |= np.isfinite(want).any()
        # with an infinite atom, forced and finite results both occur
        assert seen_inf == seen_finite == (not np.isfinite(s).all())

    def test_rows_need_not_sum_to_one(self):
        # every functional is taken of the row divided by its total
        rng = np.random.default_rng(47)
        s = np.column_stack(([-INF, 1.0, 2.0, 2.0, 4.0], [1.0, 2.0, 2.0, 4.0, INF]))
        w = rng.dirichlet(np.ones(5), size=60)
        w[:20, 0] = w[20:40, -1] = 0.0
        w /= w.sum(axis=1, keepdims=True)
        scaled = w * np.geomspace(1e-6, 1e6, 60)[:, None]
        for f in (Functional("mean"), Functional("quantile", 0.3),
                  Functional("trunc_mean", 0.3), Functional("cvar", 0.3),
                  Functional("trunc_mean", 1 - 1e-12), Functional("cvar", 1 - 1e-12)):
            want = whole_rows(f, s, w)
            got = whole_rows(f, s, scaled)
            assert np.array_equal(np.isinf(got), np.isinf(want))
            np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_cvar_keeps_small_tail_masses_near_one(self):
        # the atoms after the split carry 1e-11 to 1e-9 of the mass and p
        # lies within about 1e-9 of 1: a tail mass taken as the total less a
        # cumulative sum would be off by 1e-6 of the support scale
        rng = np.random.default_rng(59)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            n_tail = int(rng.integers(1, n))
            s = np.sort(rng.choice(np.arange(-400, 401), size=n, replace=False)) / 4
            tail = 10.0 ** rng.uniform(-11, -9, n_tail)
            w = np.concatenate((rng.dirichlet(np.ones(n - n_tail)) * (1 - tail.sum()), tail))
            p = 1.0 - tail.sum() - 10.0 ** rng.uniform(-12, -10)
            exact = [Fraction(x) for x in w]
            want = oracle_split_mean([Fraction(x) for x in s], [x / sum(exact) for x in exact],
                                     Fraction(p), tail=True)
            got = Functional("cvar", p).evaluate(step(s, w))
            assert abs(got - float(want)) <= 1e-12 * np.abs(s).max()

    @pytest.mark.parametrize("total", [0.0, -1.0, np.nan,
                                       pytest.param(np.inf, id="an-infinite-weight")])
    def test_rows_without_a_positive_total_raise(self, total):
        # a zero row once gave NaN with a RuntimeWarning, a negative total
        # gave a number and an infinite weight gave NaN
        s = np.array([1.0, 2.0, 4.0])
        bad = [0.0, 0.0, 0.0] if total == 0.0 else [1.0, 0.5, total - 1.5]
        rows = np.array([[0.2, 0.3, 0.5], bad])
        for supports in (s, np.column_stack((s, s + 1))):
            sup = prepare_supports(supports)
            _mean_rows(sup, rows[:1])
            with pytest.raises(ValueError, match="positive, finite total"):
                _mean_rows(sup, rows)

    @pytest.mark.parametrize("supports", [
        pytest.param([], id="no-atoms"),
        pytest.param([INF, 1.0, 2.0], id="inf-first"),
        pytest.param(np.column_stack(([1.0, 2.0, INF], [INF, 1.0, 2.0])), id="unsorted-column"),
        pytest.param([1.0, np.nan, 2.0], id="nan"),
    ])
    def test_supports_the_kernels_cannot_read_raise(self, supports):
        # no atoms once raised a bare IndexError (the mean returned []), an
        # unsorted column misplaced its infinite atoms (the mean of inf, 1, 2
        # under 0, 1/2, 1/2 gave 2) and a NaN read as 0 was clipped away
        with pytest.raises(ValueError, match="atom|NaN|sorted"):
            prepare_supports(supports)

    def test_support_matrix_indeterminate_column(self):
        s = np.column_stack(([-INF, 1.0, 2.0, INF], [1.0, 2.0, 3.0, 4.0]))
        w = np.full((3, 4), 0.25)
        assert np.isfinite(_mean_rows(prepare_supports(s[:, 1]), w)).all()
        with pytest.raises(IndeterminateSumError):
            _mean_rows(prepare_supports(s), w)
        with pytest.raises(IndeterminateSumError):
            _mean_rows(prepare_supports(s[:, 0]), w)


WINDOW_CASES = {
    "ties": ([2.0, 2.0, 2.0, 3.0, 3.0, 5.0], BoundingInterval(0.0, 6.0)),
    "on-bounds": ([0.0, 0.0, 3.0, 6.0, 6.0], BoundingInterval(0.0, 6.0)),
    "both-infinite": ([-1.0, 0.5, 2.0, 3.0], BoundingInterval(-INF, INF)),
    "empty": ([], BoundingInterval(0.0, 1.0)),
    "lognormal": (np.exp(stream(5).normal(0.0, 1.0, 40)).tolist(), BoundingInterval(0.0, INF)),
}


def cut_at_split(w, p, tail):
    """Each row of ``w`` cut at its split atom, the first where its
    cumulative weight reaches p of its total, and that split atom.  The
    far side of the split is zeroed and the split atom keeps the rest of
    the side's mass: p of the total below it, or 1 - p of it above (tail)."""
    k = w.shape[1]
    cum = np.cumsum(w, axis=1)
    total = cum[:, -1]
    split = (cum >= p * total[:, None]).argmax(axis=1)
    near = (np.arange(k) > split[:, None]) if tail else (np.arange(k) < split[:, None])
    cut = np.where(near, w, 0.0)
    share = ((1.0 - p) if tail else p) * total - cut.sum(axis=1)
    cut[np.arange(len(w)), split] = np.maximum(share, 0.0)
    return cut, split


class TestSplitWindow:
    """The mean of rows with no weight outside a window of atoms is the mean
    on that window, a row slice of the supports; a truncated mean or CVaR
    is the mean of its row cut at the split, on the window the cut keeps,
    clipped to the split atom.  The engine draws its split means so."""

    @pytest.mark.parametrize("p", [1e-12, 0.001, 0.5, 0.99, 1 - 1e-12])
    @pytest.mark.parametrize("case", list(WINDOW_CASES))
    def test_any_window_matches_full_path(self, case, p):
        data, interval = WINDOW_CASES[case]
        reduced, params = merge_duplicates(data, interval)
        sup = prepare_supports(cell_endpoints(reduced))
        s, k = sup.values, params.size
        (w,) = weight_chunks(params, stream(9), 300, 300)
        if k > 1:
            # rows with no weight on the first or the last cell
            w[:30, 0] = 0.0
            w[30:60, -1] = 0.0
        scale = np.abs(reduced[np.isfinite(reduced)]).max(initial=1.0)

        def assert_same(got, want):
            assert np.array_equal(np.isinf(got), np.isinf(want))
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * scale)

        # one-cell windows at the first, a middle and the last cell, an
        # inner one and all the cells
        inner = (min(1, k - 1), max(k - 2, min(1, k - 1)))
        for lo, hi in {(0, 0), (k // 2, k // 2), (k - 1, k - 1), inner, (0, k - 1)}:
            rows = w[w[:, lo : hi + 1].any(axis=1)]
            inside = np.zeros_like(rows)
            inside[:, lo : hi + 1] = rows[:, lo : hi + 1]
            assert_same(_mean_rows(sup.atoms(lo, hi + 1), rows[:, lo : hi + 1]),
                        _mean_rows(sup, inside))
        for kind in ("trunc_mean", "cvar"):
            tail = kind == "cvar"
            cut, split = cut_at_split(w, p, tail)
            got = np.empty((len(w), s.shape[1]))
            for c in np.unique(split):
                rows = split == c
                lo, hi = (c, k - 1) if tail else (0, c)
                block = _mean_rows(sup.atoms(lo, hi + 1), cut[rows, lo : hi + 1])
                got[rows] = np.clip(block, s[c], s[-1]) if tail else np.clip(block, s[0], s[c])
            share = cut[np.arange(len(w)), split]
            assert_same(got, _cut_mean(sup, w.copy(), split, tail, share))


def limit_oracle(column, row, f):
    """``f`` of the integer weight ``row`` on ``column`` in exact arithmetic,
    an infinite atom taken as the limit of a finite one running off to it.

    The i-th of ``n`` -inf atoms sits at -(n - i) * a and the i-th +inf atom
    at (i + 1) * b.  The split depends on the weights alone, so the result
    is affine in a and b and its coefficients say which way it goes as both
    grow.  Returns a float, +-inf, or None where it goes both ways.
    """
    n_neg = sum(x == -INF for x in column)
    first_pos = len(column) - sum(x == INF for x in column)

    def value(a, b):
        xs = [-(n_neg - i) * a if i < n_neg else (i - first_pos + 1) * b if i >= first_pos
              else Fraction(x) for i, x in enumerate(column)]
        total = sum(row)
        if f.kind == "mean":
            return sum(w * x for w, x in zip(row, xs)) / total
        weights = [Fraction(int(w), int(total)) for w in row]
        return oracle_split_mean(xs, weights, Fraction(f.p), f.kind == "cvar")

    big = Fraction(10**6)
    base = value(big, big)
    down, up = value(2 * big, big) < base, value(big, 2 * big) > base
    if down and up:
        return None
    return -INF if down else INF if up else float(base)


def resampled(f, column, row):
    """``f`` of the integer weight ``row`` on ``column`` read as one resample
    by the percentile bootstrap's kernel: ``row[i]`` draws of position i."""
    pos = np.repeat(np.arange(len(row)), row)[None]
    return _resample_values(f, prepare_supports(column), pos)[0]


INFINITE_RUN_CASES = [
    # knots on infinite atoms: the cumulative weight reaches p exactly there
    ([[-INF, -INF, 1.0, 2.0]], [[1, 1, 0, 2], [2, 1, 0, 1], [0, 2, 0, 2], [1, 1, 2, 0]], 0.5),
    ([[1.0, INF, INF]], [[1, 1, 2], [2, 0, 2], [1, 1, 0]], 0.5),
    ([[-INF, 0.5, INF]], [[1, 2, 1], [1, 3, 0], [0, 1, 3]], 0.25),
]


def infinite_run_cases(n_cases):
    """Random columns with -inf runs first and +inf runs last, sharing
    integer count rows with zeros, and a dyadic p, so knots are exact."""
    yield from INFINITE_RUN_CASES
    rng = np.random.default_rng(53)
    for _ in range(n_cases):
        k = int(rng.integers(1, 8))
        columns = []
        for _ in range(2):
            n_neg = int(rng.integers(0, k + 1))
            n_pos = int(rng.integers(0, k - n_neg + 1))
            finite = np.sort(rng.choice(np.arange(-20, 21), k - n_neg - n_pos, replace=False)) / 4
            columns.append([-INF] * n_neg + finite.tolist() + [INF] * n_pos)
        rows = rng.integers(0, 4, size=(8, k))
        rows[rows.sum(axis=1) == 0, -1] = 1
        yield columns, rows.tolist(), int(rng.integers(1, 8)) / 8


class TestInfiniteAtoms:
    """Infinite atoms are placed by their counts alone: -inf atoms first,
    +inf atoms last, each weighed by a row when that row's weights on them
    are not all zero."""

    def test_atom_slices_count_their_own_infinities(self):
        # the mean of a row slice of the supports is that of the whole row
        # with no weight outside the slice
        for columns, rows, _ in infinite_run_cases(100):
            s = np.column_stack(columns)
            sup, k = prepare_supports(s), s.shape[0]
            for start in range(k):
                for stop in range(start + 1, k + 1):
                    part = sup.atoms(start, stop)
                    assert part.values.shape[0] == stop - start
                    for row in np.array(rows, dtype=float)[:, None]:
                        whole = np.zeros((1, k))
                        whole[:, start:stop] = row[:, start:stop]
                        if not whole.any():
                            continue
                        try:
                            want = _mean_rows(sup, whole)
                        except IndeterminateSumError:
                            with pytest.raises(IndeterminateSumError):
                                _mean_rows(part, row[:, start:stop])
                            continue
                        assert np.array_equal(_mean_rows(part, row[:, start:stop]), want)

    @pytest.mark.parametrize("f", ["trunc-mean:0.5", "cvar:0.5"])
    def test_a_side_weighing_both_infinities_raises(self, f):
        # the truncated mean's side holds the -inf atom and the split +inf
        # atom; CVaR's the split -inf atom and the +inf atom
        f = Functional.parse(f)
        counts = [1.0, 0.0, 3.0] if f.kind == "trunc_mean" else [3.0, 0.0, 1.0]
        supports = [-INF, 1.0, INF]
        with pytest.raises(IndeterminateSumError):
            whole_rows(f, supports, counts)
        with pytest.raises(IndeterminateSumError):
            f.evaluate(step(supports, np.array(counts) / 4.0))
        data = [x for x, c in zip(supports, counts) for _ in range(int(c))]
        for method in (bootstrap_interval, bayesian_bootstrap_interval):
            with pytest.raises(IndeterminateSumError):
                method(data, f, 0.9, 200, stream(1))

    def test_mean_matches_the_limit_oracle(self):
        mean = Functional("mean")
        seen = set()
        for columns, rows, _ in infinite_run_cases(300):
            for column in columns:
                for row in rows:
                    want = limit_oracle(column, row, mean)
                    seen.add(repr(want) if want in (None, INF, -INF) else "finite")
                    sup, weights = prepare_supports(column), np.array([row], dtype=float)
                    if want is None:
                        with pytest.raises(IndeterminateSumError):
                            _mean_rows(sup, weights)
                        with pytest.raises(IndeterminateSumError):
                            resampled(mean, column, row)
                        continue
                    got = _mean_rows(sup, weights)[0, 0]
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
                    got = resampled(mean, column, row)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert seen == {"None", "inf", "-inf", "finite"}

    @pytest.mark.parametrize("kind", ["trunc_mean", "cvar"])
    def test_split_means_match_the_limit_oracle(self, kind):
        seen = set()
        for columns, rows, p in infinite_run_cases(300):
            f = Functional(kind, p)
            s = np.column_stack(columns)
            w = np.array(rows, dtype=float)
            want = np.array([[limit_oracle(c, row, f) for c in columns] for row in rows],
                            dtype=object)
            for i, row in enumerate(w):
                # each column on its own as one resample of the percentile bootstrap
                for c, column in enumerate(columns):
                    if want[i, c] is None:
                        with pytest.raises(IndeterminateSumError):
                            resampled(f, column, rows[i])
                    else:
                        got = resampled(f, column, rows[i])
                        assert got == pytest.approx(want[i, c], rel=1e-12, abs=1e-12)
                if None in want[i]:
                    # both ways at once: the side sums -inf and +inf
                    with pytest.raises(IndeterminateSumError):
                        whole_rows(f, s, row)
                    for c, column in enumerate(columns):
                        if want[i, c] is not None:
                            got = whole_rows(f, column, row)[0]
                            assert got == pytest.approx(want[i, c], rel=1e-12, abs=1e-12)
                    seen.add("None")
                    continue
                got = whole_rows(f, s, row)[0]
                for c, expect in enumerate(want[i]):
                    assert got[c] == pytest.approx(expect, rel=1e-12, abs=1e-12)
                    seen.add(repr(expect) if expect in (INF, -INF) else "finite")
        assert seen == {"None", "inf", "-inf", "finite"}


METHODS = {"bootstrap": bootstrap_interval, "bayesian_bootstrap": bayesian_bootstrap_interval}


@functools.cache
def scaled_interval(method, name, k):
    """The 0.9 interval of ``method`` for ``name`` on 1000 unit lognormal
    draws capped at 50 on [0, 60], both times 2**k, N = 1000, seed 9."""
    x = np.minimum(np.random.default_rng(9).lognormal(0.0, 1.0, 1000), 50.0) * 2.0**k
    f = Functional.parse(name)
    if method == "bis":
        qs = bis_run(x, BoundingInterval(0.0, 60.0 * 2.0**k), BisConfig(f, 0.9, 1000, 9))
        est = interval_estimate(qs, 0.9)
    else:
        est = METHODS[method](x, f, 0.9, 1000, stream(9))
    return est.lo, est.hi


class TestScaleOracle:
    """Every method and functional commutes with a power-of-two scale: the
    run on (2**k x, 2**k I) is 2**k times the run on (x, I).  Bit for bit
    where no sum overflows, and to a few ulps past it, where an overflowed
    row is summed again over its total; an overflow once ran into the clip
    and read as an end of the bounding interval."""

    @pytest.mark.parametrize("method", ["bis", *METHODS])
    @pytest.mark.parametrize("name", ["mean", "median", "trunc-mean:0.5", "trunc-mean:0.9",
                                      "cvar:0.9"])
    @pytest.mark.parametrize("k, ulps", [(-40, 0), (20, 0), (1000, 0), (1012, 0), (1017, 15)])
    def test_scaling_the_data_and_bounds_scales_the_interval(self, method, name, k, ulps):
        got = scaled_interval(method, name, k)
        for g, want in zip(got, scaled_interval(method, name, 0)):
            want *= 2.0**k
            assert abs(g - want) <= ulps * np.spacing(want), (g, want)


@pytest.mark.parametrize("kind, p, word", [("median", None, "unknown"),
                                           ("mean", 0.5, "probability")])
def test_invalid_functionals_raise(kind, p, word):
    with pytest.raises(ValueError, match=word):
        Functional(kind, p)


def test_star_import_binds_every_public_name_and_no_q_alias():
    # a stale __all__ entry breaks ``import *``; no q_* name respells
    # Functional(kind, p).evaluate
    import bisampling

    namespace = {}
    exec("from bisampling import *", namespace)
    assert set(bisampling.__all__) <= namespace.keys()
    assert [name for name in namespace if name.startswith("q_")] == []
