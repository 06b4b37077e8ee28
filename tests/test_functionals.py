import numpy as np
import pytest

from conftest import oracle_split_mean, random_fraction_instance

from bisampling.dirichlet import merge_duplicates, split_window, weight_chunks
from bisampling.errors import IndeterminateSumError, InvalidProbabilityError
from bisampling.functionals import (
    Functional,
    cell_supports,
    evaluate_rows,
    q_cvar,
    q_mean,
    q_quantile,
    q_truncated_mean,
)
from bisampling.pbox import BoundingInterval, WeightedStepCdf, make_extended_order_stats
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
        for bad in ("moment:2", "quantile", "cvar:", "quantile:1.5"):
            with pytest.raises((ValueError, InvalidProbabilityError)):
                Functional.parse(bad)


class TestMean:
    def test_hand_value(self):
        assert q_mean(step([1, 2, 3], [0.5, 0.3, 0.2])) == pytest.approx(1.7)

    def test_single_atom(self):
        assert q_mean(step([5.0], [1.0])) == 5.0

    def test_mass_at_infinity(self):
        assert q_mean(step([1.0, INF], [0.9, 0.1])) == INF
        assert q_mean(step([-INF, 1.0], [0.1, 0.9])) == -INF

    def test_both_infinities_is_indeterminate(self):
        with pytest.raises(IndeterminateSumError):
            q_mean(step([-INF, 0.0, INF], [0.1, 0.8, 0.1]))

    def test_within_support_range(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            s = np.sort(rng.normal(size=n) * 5)
            d = step(s, rng.dirichlet(np.ones(n)))
            m = q_mean(d)
            assert s[0] - 1e-12 <= m <= s[-1] + 1e-12


class TestQuantile:
    def test_hand_values(self):
        d = step([1, 2, 3], [0.5, 0.3, 0.2])
        assert q_quantile(d, 0.6) == 2.0

    def test_inf_convention_at_half(self):
        d = step([0.0, 1.0], [0.5, 0.5])
        assert q_quantile(d, 0.5) == 0.0

    def test_monotone_in_p(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            d = step(np.sort(rng.normal(size=n)), rng.dirichlet(np.ones(n)))
            ps = np.sort(rng.uniform(0.01, 0.99, size=6))
            qs = [q_quantile(d, p) for p in ps]
            assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_domain(self):
        d = step([1.0], [1.0])
        with pytest.raises(InvalidProbabilityError):
            q_quantile(d, 1.0)


class TestTruncatedMeanAndCvar:
    def test_hand_split(self):
        d = step([1, 2, 3], [0.5, 0.3, 0.2])
        assert q_truncated_mean(d, 0.8) == pytest.approx((0.5 * 1 + 0.3 * 2) / 0.8)
        assert q_cvar(d, 0.8) == pytest.approx(3.0)

    def test_single_atom(self):
        d = step([4.0], [1.0])
        assert q_truncated_mean(d, 0.3) == 4.0
        assert q_cvar(d, 0.3) == 4.0

    def test_decomposition_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            d = step(np.sort(rng.normal(size=n) * 10), rng.dirichlet(np.ones(n)))
            p = float(rng.uniform(0.05, 0.95))
            lhs = p * q_truncated_mean(d, p) + (1 - p) * q_cvar(d, p)
            assert lhs == pytest.approx(q_mean(d), abs=1e-10)

    def test_cvar_with_tail_at_infinity(self):
        d = step([1.0, INF], [0.95, 0.05])
        assert q_cvar(d, 0.9) == INF
        assert q_truncated_mean(d, 0.9) == pytest.approx(1.0)

    def test_trunc_mean_with_mass_at_minus_infinity(self):
        d = step([-INF, 1.0], [0.05, 0.95])
        assert q_truncated_mean(d, 0.5) == -INF
        assert q_cvar(d, 0.5) == pytest.approx(1.0)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(34)
        for _ in range(2_000):
            supports, weights, p = random_fraction_instance(rng)
            d = step([float(s) for s in supports], [float(w) for w in weights])
            got_tm = q_truncated_mean(d, float(p))
            got_cv = q_cvar(d, float(p))
            want_tm = float(oracle_split_mean(supports, weights, p, tail=False))
            want_cv = float(oracle_split_mean(supports, weights, p, tail=True))
            assert got_tm == pytest.approx(want_tm, abs=1e-12)
            assert got_cv == pytest.approx(want_cv, abs=1e-12)


class TestBoundsForMonotonic:
    """Extremes of a monotonic functional: ``evaluate_rows`` on cell supports."""

    def test_hand_mean(self):
        ((q_min, q_max),) = evaluate_rows(
            Functional("mean"), cell_supports([0, 1, 2, 3]), [0.5, 0.3, 0.2]
        )
        assert (q_min, q_max) == (pytest.approx(0.7), pytest.approx(1.7))

    def test_hand_quantile(self):
        ((q_min, q_max),) = evaluate_rows(
            Functional("quantile", 0.6), cell_supports([0, 1, 2, 3]), [0.5, 0.3, 0.2]
        )
        assert (q_min, q_max) == (1.0, 2.0)

    def test_infinite_endpoint(self):
        ((q_min, q_max),) = evaluate_rows(
            Functional("mean"), cell_supports([0.0, 1.0, INF]), [0.5, 0.5]
        )
        assert q_max == INF and q_min == pytest.approx(0.5)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_rows(Functional("mean"), cell_supports([0.0, 1.0]), [0.5, 0.5])

    def test_block_matches_single_rows(self):
        rng = np.random.default_rng(37)
        pts = np.array([0.0, 0.5, 0.5, 2.0, 3.5, INF])
        block = rng.dirichlet(np.ones(5), size=40)
        for f in (Functional("mean"), Functional("quantile", 0.4), Functional("cvar", 0.6)):
            q_min, q_max = evaluate_rows(f, cell_supports(pts), block).T
            assert q_min.shape == q_max.shape == (40,)
            singles = np.array([evaluate_rows(f, cell_supports(pts), w)[0] for w in block])
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
                ((q_min, q_max),) = evaluate_rows(f, cell_supports(pts), w)
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


class TestEvaluateRows:
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
            rows = evaluate_rows(f, s, w)
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
                out = evaluate_rows(f, s, w)
                assert ((out >= s[0]) & (out <= s[-1])).all()

    def test_duplicate_supports_behave_as_merged(self):
        s = np.array([1.0, 1.0, 2.0])
        w = np.array([[0.25, 0.25, 0.5]])
        merged = step([1.0, 2.0], [0.5, 0.5])
        for f in (Functional("mean"), Functional("quantile", 0.5),
                  Functional("trunc_mean", 0.75), Functional("cvar", 0.75)):
            assert evaluate_rows(f, s, w)[0] == pytest.approx(
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
            got = evaluate_rows(f, s, w)
            assert got.shape == (40, 2)
            for j in range(2):
                want = evaluate_rows(f, s[:, j], w)
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
            want = evaluate_rows(f, s, w)
            got = evaluate_rows(f, s, scaled)
            assert np.array_equal(np.isinf(got), np.isinf(want))
            np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_support_matrix_indeterminate_column(self):
        s = np.column_stack(([-INF, 1.0, 2.0, INF], [1.0, 2.0, 3.0, 4.0]))
        w = np.full((3, 4), 0.25)
        mean = Functional("mean")
        assert np.isfinite(evaluate_rows(mean, s[:, 1], w)).all()
        with pytest.raises(IndeterminateSumError):
            evaluate_rows(mean, s, w)
        with pytest.raises(IndeterminateSumError):
            evaluate_rows(mean, s[:, 0], w)


WINDOW_CASES = {
    "ties": ([2.0, 2.0, 2.0, 3.0, 3.0, 5.0], BoundingInterval(0.0, 6.0)),
    "on-bounds": ([0.0, 0.0, 3.0, 6.0, 6.0], BoundingInterval(0.0, 6.0)),
    "both-infinite": ([-1.0, 0.5, 2.0, 3.0], BoundingInterval(-INF, INF)),
    "empty": ([], BoundingInterval(0.0, 1.0)),
    "lognormal": (np.exp(stream(5).normal(0.0, 1.0, 40)).tolist(), BoundingInterval(0.0, INF)),
}


class TestSplitWindow:
    """A split window changes what is computed, never the result."""

    @pytest.mark.parametrize("p", [1e-12, 0.001, 0.5, 0.99, 1 - 1e-12])
    @pytest.mark.parametrize("case", list(WINDOW_CASES))
    def test_any_window_matches_full_path(self, case, p):
        data, interval = WINDOW_CASES[case]
        reduced, params = merge_duplicates(make_extended_order_stats(data, interval))
        sup = cell_supports(reduced)
        k = params.size
        (w,) = weight_chunks(params, stream(9), 300, 300)
        if k > 1:
            # rows with no weight on the first or the last cell
            w[:30, 0] = 0.0
            w[30:60, -1] = 0.0
        scale = np.abs(reduced[np.isfinite(reduced)]).max(initial=1.0)
        # one-cell windows at the first, a middle and the last cell send most
        # rows to the full path; the law's window and an inner one keep them
        inner = (min(1, k - 1), max(k - 2, min(1, k - 1)))
        windows = {(0, 0), (k // 2, k // 2), (k - 1, k - 1), inner, split_window(params, p)}
        for kind in ("quantile", "trunc_mean", "cvar"):
            f = Functional(kind, p)
            want = evaluate_rows(f, sup, w)
            for window in windows:
                got = evaluate_rows(f, sup, w, window)
                assert not np.isnan(got).any()
                assert np.array_equal(np.isinf(got), np.isinf(want))
                if kind == "quantile":
                    assert np.array_equal(got, want)
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * scale)

    def test_window_outside_the_atoms_rejected(self):
        w = np.full((2, 3), 1.0)
        for window in ((-1, 1), (2, 1), (0, 3)):
            with pytest.raises(ValueError):
                evaluate_rows(Functional("cvar", 0.5), [1.0, 2.0, 3.0], w, window)
