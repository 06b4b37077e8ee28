import subprocess
import sys

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import betaincc

from conftest import child_env

from bisampling import dirichlet
from bisampling.dirichlet import (
    merge_duplicates,
    sample_dirichlet,
    sample_split_index,
    sample_unit_dp_grid,
    weight_chunks,
)
from bisampling.errors import InvalidProbabilityError
from bisampling.pbox import BoundingInterval, expected_pbox, make_extended_order_stats
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


class GivenUniforms:
    """A generator stand-in whose ``random`` writes the given uniforms and
    whose vertex draw picks the last cell."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)

    def random(self, out):
        out[...] = self.uniforms

    def integers(self, high, size):
        return np.full(size, high - 1)


class TestInversionDraw:
    """Inversion draws each unit weight as -log(1 - U) from one uniform."""

    @pytest.fixture(autouse=True)
    def inversion(self, monkeypatch):
        monkeypatch.setattr(dirichlet, "UNIT_DRAW", "inversion")

    def test_weights_are_the_inverted_uniforms(self):
        u = [0.0, 0.5, 1.0 - 2.0**-53]
        ((w,),) = weight_chunks(np.ones(3), GivenUniforms([u]), 1, 1)
        # the smallest uniform gives a zero and the largest 53 ln 2, the
        # largest weight the draw can make
        assert w[0] == 0.0
        np.testing.assert_array_max_ulp(w[1:], [np.log(2.0), 53 * np.log(2.0)], maxulp=1)

    def test_a_row_of_zero_uniforms_becomes_a_vertex(self):
        u = [[0.0] * 4, [0.25, 0.0, 0.5, 0.75], [0.0] * 4]
        (rows,) = weight_chunks(np.ones(4), GivenUniforms(u), 3, 3)
        assert rows[[0, 2]].tolist() == [[0.0, 0.0, 0.0, 1.0]] * 2
        assert rows[1, 1] == 0.0 and (rows[1, [0, 2, 3]] > 0).all()
        assert sample_dirichlet(np.ones(4), GivenUniforms([0.0] * 4)).tolist() == [0, 0, 0, 1]

    def test_entries_are_unit_exponentials(self):
        (rows,) = weight_chunks(np.ones(10), stream(14), 20_000, 20_000)
        assert rows.max() <= 53 * np.log(2.0)
        assert sps.kstest(rows.ravel(), "expon").pvalue > 0.01


class TestUnitDraw:
    """The host's float64 ``log`` kernel picks the unit draw: inversion
    where it is an AVX-512 one, NumPy's ziggurat elsewhere."""

    @pytest.mark.parametrize(
        "kernel, draw",
        [("X86_V4", "inversion"), ("AVX512F", "inversion"), ("AVX512_SKX", "inversion"),
         ("X86_V3", "ziggurat"), ("FMA3__AVX2", "ziggurat"), ("ASIMD", "ziggurat"),
         ("", "ziggurat")],
    )
    def test_inversion_only_on_an_avx512_log(self, kernel, draw):
        assert dirichlet._unit_draw(kernel) == draw

    def test_a_numpy_without_dispatch_reports_no_kernel(self, monkeypatch):
        # NumPy 1.x has no numpy.lib.introspect, so its log keeps the ziggurat
        monkeypatch.setitem(sys.modules, "numpy.lib.introspect", None)
        assert dirichlet._log_kernel() == ""
        assert dirichlet._unit_draw(dirichlet._log_kernel()) == "ziggurat"

    def test_ziggurat_rows_are_standard_exponentials(self, monkeypatch):
        monkeypatch.setattr(dirichlet, "UNIT_DRAW", "ziggurat")
        rows = np.concatenate([c.copy() for c in weight_chunks(np.ones(10), stream(14), 1000, 64)])
        assert rows.tobytes() == stream(14).standard_exponential((1000, 10)).tobytes()

    @pytest.mark.skipif(dirichlet._log_kernel() != "X86_V4",
                        reason="float64 log does not dispatch to X86_V4 here")
    def test_a_log_kept_off_avx512_keeps_the_ziggurat(self):
        # a fresh interpreter whose NumPy may not dispatch to AVX-512 draws
        # the ziggurat's bytes
        code = ("import numpy as np\n"
                "from bisampling import dirichlet, rng\n"
                "rows, = dirichlet.weight_chunks(np.ones(10), rng.stream(14), 100, 100)\n"
                "zig = rng.stream(14).standard_exponential((100, 10))\n"
                "print(dirichlet._log_kernel(), dirichlet.UNIT_DRAW, rows.tobytes() == zig.tobytes())\n")
        env = child_env(NPY_DISABLE_CPU_FEATURES="X86_V4")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert out.split() == ["X86_V3", "ziggurat", "True"]


def full_split_law(params, p):
    """P(split index <= j) evaluated on every cell, made monotone."""
    head = np.cumsum(params)[:-1]
    rest = np.cumsum(params[::-1])[::-1][1:]
    cdf = np.append(betaincc(head, rest, p), 1.0)
    return np.maximum.accumulate(cdf)


def split_params(n, ties):
    """n + 1 unit cells, or with ``ties`` every third one a merged run of four."""
    params = np.ones(n + 1)
    if ties:
        params[::3] = 4.0
    return params


def binomial_split_law(params, p):
    """P(split index <= j): fewer than head[j] of the A - 1 uniforms behind
    the A unit cells of integer ``params`` fall below p."""
    head = np.cumsum(params)
    return sps.binom.cdf(head - 1, head[-1] - 1, p)


def law_window(cdf):
    """The cells a split index can reach, read off its law by a linear
    scan: the last cell whose law reads below 2**-53 (or the first cell),
    and the first cell whose law reads 1, which the last cell always does."""
    below = np.flatnonzero(cdf < 2.0**-53)
    return (int(below[-1]) if below.size else 0, int(np.argmax(cdf == 1.0)))


def assert_inside_window(idx, cdf):
    """No draw in ``idx`` falls where the law ``cdf`` puts less than 2**-53."""
    lo, hi = law_window(cdf)
    assert idx.min() >= lo + (cdf[lo] < 2.0**-53)
    assert idx.max() <= hi


class TestSampleSplitIndex:
    @pytest.mark.parametrize("p", [1e-9, 0.001, 0.5, 0.999, 1 - 1e-9])
    @pytest.mark.parametrize("n", [1, 10, 10**5])
    @pytest.mark.parametrize("ties", [False, True], ids=["ones", "merged-ties"])
    def test_window_matches_full_law(self, ties, n, p):
        # the binomial law of the split index is the Beta law of the
        # cumulative weights, cell by cell
        params = split_params(n, ties)
        law = binomial_split_law(params, p)
        assert law[-1] == 1.0
        np.testing.assert_allclose(law, full_split_law(params, p), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [1e-9, 0.001, 0.5, 0.999, 1 - 1e-9])
    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_draws_from_the_split_window(self, n, p):
        params = split_params(n, True)
        # the draw is one binomial count of unit cells per row, read off the
        # cumulative parameters, so it spends the stream as that count does
        units = stream(8).binomial(int(params.sum()) - 1, p, 2000)
        got = sample_split_index(params, p, stream(8), 2000)
        assert np.array_equal(got, np.searchsorted(np.cumsum(params), units, side="right"))
        assert_inside_window(got, full_split_law(params, p))

    @pytest.mark.parametrize("p", [1e-9, 0.001, 0.5, 0.9, 0.999, 1 - 1e-9])
    @pytest.mark.parametrize("case", ["merged-ties-1", "merged-ties-10", "merged-ties-1000",
                                      "tied-data", "ones-200", "ones-1001"])
    def test_window_is_the_linear_scan(self, case, p):
        name, _, size = case.rpartition("-")
        if name == "merged-ties":
            params = split_params(int(size), True)
        elif name == "tied":
            data = np.round(stream(9).lognormal(size=500), 1)
            params = merge_duplicates(data, BoundingInterval(0.0, 50.0))[1]
        else:
            params = np.ones(int(size))
        cdf = full_split_law(params, p)
        # the binomial law reaches exactly the cells the full law does, and
        # the draws stay inside them
        assert law_window(binomial_split_law(params, p)) == law_window(cdf)
        assert_inside_window(sample_split_index(params, p, stream(10), 20_000), cdf)

    def test_window_reaches_no_further_than_the_law(self):
        law = binomial_split_law(np.ones(1001), 0.9)
        assert law_window(law) == (813, 968)
        idx = sample_split_index(np.ones(1001), 0.9, stream(11), 100_000)
        assert 813 < idx.min() and idx.max() <= 968
        assert law_window(binomial_split_law(np.ones(200), 0.5))[0] > 0
        assert sample_split_index(np.ones(200), 0.5, stream(11), 100_000).min() > 0

    @pytest.mark.parametrize("p", [0.01, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("n", [10, 1000])
    @pytest.mark.parametrize("ties", [False, True], ids=["ones", "merged-ties"])
    def test_draws_fit_the_law(self, ties, n, p):
        params, size = split_params(n, ties), 200_000
        got = np.bincount(sample_split_index(params, p, stream(8), size), minlength=params.size)
        expected = size * np.diff(binomial_split_law(params, p), prepend=0.0)
        # pool neighbouring cells until each pool expects at least 5 draws
        starts, mass = [0], 0.0
        for j, e in enumerate(expected):
            if mass >= 5.0:
                starts.append(j)
                mass = 0.0
            mass += e
        if mass < 5.0 and len(starts) > 1:
            starts.pop()
        obs, exp = np.add.reduceat(got, starts), np.add.reduceat(expected, starts)
        assert obs.sum() == size and len(starts) > 1
        assert sps.chisquare(obs, exp * size / exp.sum()).pvalue > 1e-3

    def test_matches_weight_blocks(self):
        # merged ties of several sizes, against cumulative Dirichlet weights
        params, p, n = np.array([1.0, 2.0, 5.0, 1.0, 3.0]), 0.4, 20_000
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
        # the binomial law needs whole unit cells
        for params in ([1.0, 0.5], [2.5, 1.0], [1.0, 1.0 + 1e-9]):
            with pytest.raises(ValueError, match="integer"):
                sample_split_index(params, 0.5, stream(0), 3)
        for p in (0.0, 1.0, float("nan"), "0.5"):
            with pytest.raises(InvalidProbabilityError):
                sample_split_index([1.0, 1.0], p, stream(0), 3)


class TestMergeDuplicates:
    def test_distinct_sample_untouched(self, small_sample):
        interval = BoundingInterval(0.0, INF)
        reduced, params = merge_duplicates(small_sample, interval)
        assert np.array_equal(reduced, make_extended_order_stats(small_sample, interval))
        assert params.tolist() == [1.0] * 16

    def test_triple_tie(self):
        reduced, params = merge_duplicates([1, 1, 1], BoundingInterval(0.0, 2.0))
        assert reduced.tolist() == [0.0, 1.0, 1.0, 2.0]
        assert params.tolist() == [1.0, 2.0, 1.0]

    def test_double_tie_keeps_unit_param(self):
        reduced, params = merge_duplicates([1, 1], BoundingInterval(0.0, 2.0))
        assert reduced.tolist() == [0.0, 1.0, 1.0, 2.0]
        assert params.tolist() == [1.0, 1.0, 1.0]

    def test_tie_at_boundary(self):
        reduced, params = merge_duplicates([0.0, 0.0, 1.0], BoundingInterval(0.0, 2.0))
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
        _, params = merge_duplicates(data, BoundingInterval(*interval))
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
        "interval",
        [(-INF, INF), (-2.5, 7.0), (-0.0, INF), (0.0, 7.0), (-INF, 0.0), (-0.0, 7.0)],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_unique_on_tied_data(self, seed, interval):
        rng = np.random.default_rng(seed)
        interval = BoundingInterval(*interval)
        # both signed zeros tie, and so does every point on a bound
        pool = np.array([-0.0, 0.0, 0.0, -0.0, 1e-300, 1.0, 3.0, 7.0, -2.5])
        pool = pool[(pool >= interval.lo) & (pool <= interval.hi)]
        for n in (0, 1, 2, 5, 40, 600):
            data = rng.choice(pool, size=n)
            reduced, params = merge_duplicates(data, interval)
            ref_reduced, ref_params = self._merge_by_unique(
                make_extended_order_stats(data, interval))
            assert reduced.tobytes() == ref_reduced.tobytes()
            assert params.dtype == ref_params.dtype
            assert params.tobytes() == ref_params.tobytes()
            # shuffled data with -0.0 gives the bytes of its sorted +0.0 copy
            tidy = np.sort(data) + 0.0
            for got, want in zip((reduced, params), merge_duplicates(tidy, interval)):
                assert got.tobytes() == want.tobytes()
            box, tidy_box = expected_pbox(data, interval), expected_pbox(tidy, interval)
            for got, want in ((box.lower, tidy_box.lower), (box.upper, tidy_box.upper)):
                assert got.supports.tobytes() == want.supports.tobytes()
                assert got.weights.tobytes() == want.weights.tobytes()


class TestUnitDpGrid:
    def test_single_cell(self):
        d = sample_unit_dp_grid(10.0, 1, stream(7))
        assert d.supports.tolist() == [1.0]
        assert d.cdf(1.0) == 1.0

    @staticmethod
    def beta_marginal_pvalue(alpha, cells, i, size):
        """KS p-value of the CDF at grid point i/n against its exact law,
        Beta(alpha * i/n, alpha * (1 - i/n)), over size seeded draws."""
        rng = stream(8)
        x = i / cells
        draws = np.array([sample_unit_dp_grid(alpha, cells, rng).cdf(x) for _ in range(size)])
        a = alpha * x
        return sps.kstest(draws, "beta", args=(a, alpha - a)).pvalue

    def test_cell_weight_beta_marginal(self):
        # first-cell mass follows Beta(alpha/n, alpha - alpha/n)
        assert self.beta_marginal_pvalue(10.0, 20, 1, 20_000) > 0.01

    def test_interior_point_beta_marginal_at_large_alpha(self):
        # the law is narrow here (standard deviation 0.0145)
        assert self.beta_marginal_pvalue(1000.0, 20, 6, 10_000) > 0.01

    def test_large_alpha_approaches_uniform(self):
        grid = np.arange(1, 201) / 200
        for i in range(5):
            d = sample_unit_dp_grid(1e6, 200, substream(9, i))
            assert np.abs(d.cdf(grid) - grid).max() < 0.01

    def test_rejects_underflowing_cell_parameter(self):
        with pytest.raises(ValueError, match="alpha / n_cells .* underflows to 0"):
            sample_unit_dp_grid(5e-324, 200, stream(0))

    def test_rejects_bad_args(self):
        for alpha in (0.0, INF, float("nan")):
            with pytest.raises(ValueError):
                sample_unit_dp_grid(alpha, 10, stream(0))
        with pytest.raises(ValueError):
            sample_unit_dp_grid(1.0, 0, stream(0))
        for n_cells in (True, 2.5, "3"):
            with pytest.raises(ValueError, match="n_cells must be an integer of at least 1"):
                sample_unit_dp_grid(1.0, n_cells, stream(0))
        assert sample_unit_dp_grid(1.0, np.int64(3), stream(0)).n_atoms == 3


class TestDeterminism:
    def test_same_seed_same_sequences(self):
        r1, r2 = stream(99), stream(99)
        for _ in range(5):
            assert np.array_equal(
                sample_dirichlet(np.ones(8), r1), sample_dirichlet(np.ones(8), r2)
            )

    @pytest.mark.parametrize("seed", [0, 7, -1, 2**40 + 3, 2**64 - 1, np.int64(5)])
    def test_stream_is_the_substream_with_no_key(self, seed):
        assert stream(seed).integers(2**63, size=8).tolist() == \
            substream(seed).integers(2**63, size=8).tolist()

    def test_substreams_differ(self):
        a = sample_dirichlet(np.ones(8), substream(1, 0))
        b = sample_dirichlet(np.ones(8), substream(1, 1))
        assert not np.array_equal(a, b)
