import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import betaincc

from bisampling.dirichlet import (
    merge_duplicates,
    sample_dirichlet,
    sample_split_index,
    sample_unit_dp_grid,
    sample_unit_dp_stick,
    split_window,
    weight_chunks,
)
from bisampling.errors import InvalidProbabilityError
from bisampling.pbox import BoundingInterval, make_extended_order_stats
from bisampling.rng import stream, substream

INF = float("inf")


class TestUniformSimplex:
    def test_single_component_is_one(self):
        rng = stream(1)
        for _ in range(10):
            assert sample_dirichlet(np.ones(1), rng).tolist() == [1.0]

    def test_normalization_and_nonnegativity(self):
        rng = stream(2)
        for n in (2, 3, 16, 100):
            w = sample_dirichlet(np.ones(n), rng)
            assert (w >= 0).all()
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_component_means_and_beta_marginal(self):
        # for 16 components each W_i has mean 1/16 and marginal Beta(1, 15)
        # 100 000 rows of one draw, normalised as sample_dirichlet normalises one
        (rows,) = weight_chunks(np.ones(16), stream(3), 100_000, 100_000)
        draws = rows / rows.sum(axis=1, keepdims=True)
        var = (1 / 16) * (15 / 16) / 17
        se = np.sqrt(var / draws.shape[0])
        assert (np.abs(draws.mean(axis=0) - 1 / 16) < 4 * se).all()
        assert sps.kstest(draws[:, 0], "beta", args=(1, 15)).pvalue > 0.01

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            sample_dirichlet(np.ones(0), stream(0))


class TestSampleDirichlet:
    @pytest.mark.parametrize(
        "params", [np.ones(300), np.linspace(0.2, 3.0, 300)], ids=["ones", "mixed"]
    )
    def test_block_equals_single_draws(self, params):
        (rows,) = weight_chunks(params, stream(4), 5, 5)
        block = rows / rows.sum(axis=1, keepdims=True)
        rng = stream(4)
        singles = np.array([sample_dirichlet(params, rng) for _ in range(5)])
        assert block.shape == (5, params.size)
        assert np.array_equal(block, singles)

    def test_underflowing_shapes_give_vertices(self):
        # every gamma of shape 1e-300 underflows to zero; each draw is a vertex
        rng = stream(13)
        block = np.array([sample_dirichlet(np.full(7, 1e-300), rng) for _ in range(50)])
        assert not np.isnan(block).any()
        assert ((block == 1.0).sum(axis=1) == 1).all()
        assert ((block == 0.0).sum(axis=1) == 6).all()

    def test_two_parameter_beta_marginal(self):
        a, b = 2.5, 4.0
        (rows,) = weight_chunks([a, b], stream(5), 100_000, 100_000)
        draws = rows[:, 0] / rows.sum(axis=1)
        assert sps.kstest(draws, "beta", args=(a, b)).pvalue > 0.01

    def test_single_parameter(self):
        assert sample_dirichlet([5.0], stream(6)).tolist() == [1.0]

    def test_rejects_nonpositive_params(self):
        for params in ([1.0, 0.0], [1.0, -2.0], [1.0, float("nan")], [1.0, INF]):
            with pytest.raises(ValueError):
                sample_dirichlet(params, stream(0))

    def test_determinism(self):
        a = sample_dirichlet([1.0, 2.0, 0.5], stream(9))
        b = sample_dirichlet([1.0, 2.0, 0.5], stream(9))
        assert np.array_equal(a, b)


class TestWeightChunks:
    @pytest.mark.parametrize(
        "params", [np.ones(30), np.linspace(0.2, 3.0, 30)], ids=["ones", "mixed"]
    )
    @pytest.mark.parametrize("chunk_rows", [1, 3, 10, 64])
    def test_rows_do_not_depend_on_chunk_size(self, params, chunk_rows):
        chunks = [c.copy() for c in weight_chunks(params, stream(4), 10, chunk_rows)]
        assert [c.shape[0] for c in chunks] == [
            min(chunk_rows, 10 - start) for start in range(0, 10, chunk_rows)
        ]
        rows = np.concatenate(chunks)
        # the same rows, normalised, are consecutive sample_dirichlet draws
        rng = stream(4)
        assert np.array_equal(rows / rows.sum(axis=1, keepdims=True),
                              [sample_dirichlet(params, rng) for _ in range(10)])

    def test_underflowing_shapes_give_vertices(self):
        (rows,) = weight_chunks(np.full(7, 1e-300), stream(13), 50, 50)
        assert ((rows == 1.0).sum(axis=1) == 1).all()
        assert ((rows == 0.0).sum(axis=1) == 6).all()


class _FixedUniforms:
    """Stands in for a generator whose ``random`` returns given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, size):
        assert size == self.uniforms.size
        return self.uniforms


def full_split_law(params, p):
    """P(split index <= j) evaluated on every cell, made monotone."""
    head = np.cumsum(params)[:-1]
    rest = np.cumsum(params[::-1])[::-1][1:]
    cdf = np.append(betaincc(head, rest, p), 1.0)
    return np.maximum.accumulate(cdf)


class TestSampleSplitIndex:
    @pytest.mark.parametrize("p", [1e-9, 0.001, 0.5, 0.999, 1 - 1e-9])
    @pytest.mark.parametrize("n", [1, 10, 10**5])
    @pytest.mark.parametrize("ties", [False, True], ids=["ones", "merged-ties"])
    def test_window_matches_full_law(self, ties, n, p):
        params = np.ones(n + 1)
        if ties:
            # merged runs of tied points carry parameters above 1
            params[::3] = 4.0
        cdf = full_split_law(params, p)
        # U from Generator.random is a multiple of 2**-53 in [0, 1): take the
        # grid values next to every value the law takes, and both extremes
        grid = 2.0**53
        m = np.floor((1.0 - cdf) * grid)
        u = np.unique(np.clip(np.concatenate((m - 1, m, m + 1, [0, grid - 1])), 0, grid - 1))
        uniforms = u / grid
        want = np.searchsorted(cdf, 1.0 - uniforms, side="left")
        got = sample_split_index(params, p, _FixedUniforms(uniforms), uniforms.size)
        assert np.array_equal(got, want)
        # and on random uniforms from a seeded stream
        assert np.array_equal(
            sample_split_index(params, p, stream(8), 1000),
            np.searchsorted(cdf, 1.0 - stream(8).random(1000), side="left"),
        )

    @pytest.mark.parametrize("p", [1e-9, 0.001, 0.5, 0.999, 1 - 1e-9])
    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_draws_from_the_split_window(self, n, p):
        params = np.ones(n + 1)
        params[::3] = 4.0
        lo, hi = split_window(params, p)
        cdf = full_split_law(params, p)
        # no uniform level selects a cell at or before lo, or one after hi
        assert lo == 0 or cdf[lo] < 2.0**-53
        assert cdf[hi] == 1.0
        levels = 1.0 - stream(8).random(2000)
        want = lo + np.searchsorted(np.append(cdf[lo:hi], 1.0), levels, side="left")
        got = sample_split_index(params, p, stream(8), 2000)
        assert np.array_equal(got, want)
        assert np.array_equal(got, np.searchsorted(cdf, levels, side="left"))

    def test_matches_weight_blocks(self):
        # general (non-integer) parameters, against cumulative Dirichlet weights
        params, p, n = np.array([0.5, 2.0, 1.5, 0.2, 3.0]), 0.4, 20_000
        idx = sample_split_index(params, p, stream(5), n)
        (w,) = weight_chunks(params, stream(6), n, n)
        cum = np.cumsum(w, axis=1)
        mc = (cum >= p * cum[:, -1:]).argmax(axis=1)
        for j in range(params.size):
            a, b = np.mean(idx <= j), np.mean(mc <= j)
            f = (a + b) / 2.0
            assert abs(a - b) <= 5.0 * np.sqrt(2.0 * f * (1.0 - f) / n)

    def test_single_cell(self):
        assert sample_split_index([3.0], 0.5, stream(7), 10).tolist() == [0] * 10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sample_split_index([1.0, 0.0], 0.5, stream(0), 3)
        for p in (0.0, 1.0, float("nan")):
            with pytest.raises(InvalidProbabilityError):
                sample_split_index([1.0, 1.0], p, stream(0), 3)


class TestMergeDuplicates:
    def test_distinct_sample_untouched(self, small_sample):
        stats = make_extended_order_stats(small_sample, BoundingInterval(0.0, INF))
        reduced, params = merge_duplicates(stats)
        assert np.array_equal(reduced, stats.points)
        assert params.tolist() == [1.0] * 16

    def test_triple_tie(self):
        stats = make_extended_order_stats([1, 1, 1], BoundingInterval(0.0, 2.0))
        reduced, params = merge_duplicates(stats)
        assert reduced.tolist() == [0.0, 1.0, 1.0, 2.0]
        assert params.tolist() == [1.0, 2.0, 1.0]

    def test_double_tie_keeps_unit_param(self):
        stats = make_extended_order_stats([1, 1], BoundingInterval(0.0, 2.0))
        reduced, params = merge_duplicates(stats)
        assert reduced.tolist() == [0.0, 1.0, 1.0, 2.0]
        assert params.tolist() == [1.0, 1.0, 1.0]

    def test_tie_at_boundary(self):
        stats = make_extended_order_stats([0.0, 0.0, 1.0], BoundingInterval(0.0, 2.0))
        reduced, params = merge_duplicates(stats)
        assert reduced.tolist() == [0.0, 0.0, 1.0, 2.0]
        assert params.tolist() == [2.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "data,interval",
        [
            ([], (0.0, 1.0)),
            ([1, 1, 1], (0.0, 2.0)),
            ([1, 1, 2, 3, 3, 3], (0.0, 10.0)),
            ([0.0, 0.5, 0.5, 1.0], (0.0, 1.0)),
        ],
    )
    def test_parameter_mass_conserved(self, data, interval):
        stats = make_extended_order_stats(data, BoundingInterval(*interval))
        _, params = merge_duplicates(stats)
        assert params.sum() == pytest.approx(len(data) + 1, abs=1e-12)

    @staticmethod
    def _merge_by_unique(points):
        # the reference: a fresh sort of the points by np.unique
        values, counts = np.unique(points, return_counts=True)
        kept = np.minimum(counts, 2)
        reduced = np.repeat(values, kept)
        left_counts = np.repeat(counts, kept)[:-1]
        params = np.where(reduced[:-1] == reduced[1:], left_counts - 1.0, 1.0)
        return reduced, params

    @pytest.mark.parametrize(
        "interval", [(-INF, INF), (-2.5, 7.0), (-0.0, INF), (0.0, 7.0), (-INF, 0.0)]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_unique_on_tied_data(self, seed, interval):
        rng = np.random.default_rng(seed)
        lo, hi = interval
        # both signed zeros tie, and so does every point on a bound
        pool = np.array([-0.0, 0.0, 0.0, -0.0, 1e-300, 1.0, 3.0, 7.0, -2.5])
        pool = pool[(pool >= lo) & (pool <= hi)]
        for n in (0, 1, 2, 5, 40, 600):
            data = rng.choice(pool, size=n)
            stats = make_extended_order_stats(data, BoundingInterval(lo, hi))
            reduced, params = merge_duplicates(stats)
            ref_reduced, ref_params = self._merge_by_unique(stats.points)
            assert reduced.tobytes() == ref_reduced.tobytes()
            assert params.dtype == ref_params.dtype
            assert params.tobytes() == ref_params.tobytes()


class TestUnitDpGrid:
    def test_single_cell(self):
        d = sample_unit_dp_grid(10.0, 1, stream(7))
        assert d.supports.tolist() == [1.0]
        assert d.cdf(1.0) == 1.0

    def test_cell_weight_beta_marginal(self):
        # first-cell mass follows Beta(alpha/n, alpha - alpha/n)
        alpha, cells = 10.0, 20
        rng = stream(8)
        draws = np.array(
            [sample_unit_dp_grid(alpha, cells, rng).cdf(1.0 / cells) for _ in range(20_000)]
        )
        a = alpha / cells
        assert sps.kstest(draws, "beta", args=(a, alpha - a)).pvalue > 0.01

    def test_large_alpha_approaches_uniform(self):
        grid = np.arange(1, 201) / 200
        for i in range(5):
            d = sample_unit_dp_grid(1e6, 200, substream(9, i))
            assert np.abs(d.cdf(grid) - grid).max() < 0.01

    def test_rejects_underflowing_cell_parameter(self):
        with pytest.raises(ValueError, match="alpha / n_cells .* underflows to 0"):
            sample_unit_dp_grid(5e-324, 200, stream(0))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sample_unit_dp_grid(0.0, 10, stream(0))
        with pytest.raises(ValueError):
            sample_unit_dp_grid(INF, 10, stream(0))
        with pytest.raises(ValueError):
            sample_unit_dp_grid(1.0, 0, stream(0))


class TestUnitDpStick:
    def test_truncation_base_case(self):
        d = sample_unit_dp_stick(1.0, 1, stream(10))
        assert d.n_atoms == 2
        assert abs(d.weights.sum() - 1.0) <= 1e-12

    def test_residual_mass_decays(self):
        # E[residual] = (alpha/(1+alpha))^n, tiny for alpha=1 and n=100
        rng = stream(11)
        for _ in range(20):
            d = sample_unit_dp_stick(1.0, 100, rng)
            assert abs(d.weights.sum() - 1.0) <= 1e-12

    def test_atom_locations_uniform(self):
        rng = stream(12)
        locations = np.concatenate(
            [sample_unit_dp_stick(5.0, 30, rng).supports for _ in range(2_000)]
        )
        assert sps.kstest(locations, "uniform").pvalue > 0.01

    def test_rejects_bad_args(self):
        for alpha in (0.0, INF, float("nan")):
            with pytest.raises(ValueError):
                sample_unit_dp_stick(alpha, 10, stream(0))
        with pytest.raises(ValueError):
            sample_unit_dp_stick(1.0, 0, stream(0))


class TestDeterminism:
    def test_same_seed_same_sequences(self):
        r1, r2 = stream(99), stream(99)
        for _ in range(5):
            assert np.array_equal(
                sample_dirichlet(np.ones(8), r1), sample_dirichlet(np.ones(8), r2)
            )

    def test_substreams_differ(self):
        a = sample_dirichlet(np.ones(8), substream(1, 0))
        b = sample_dirichlet(np.ones(8), substream(1, 1))
        assert not np.array_equal(a, b)
