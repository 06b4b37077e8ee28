import math

import numpy as np
import pytest

from bisampling.errors import (
    BadIntervalError,
    InvalidProbabilityError,
    NonFiniteError,
    OutOfBoundsError,
)
from bisampling.functionals import Functional
from bisampling.pbox import (
    _DOMINANCE_TOL,
    BoundingInterval,
    IntervalEstimate,
    ProbabilityBox,
    WeightedStepCdf,
    expected_pbox,
    interval_probability,
    make_extended_order_stats,
)

INF = float("inf")


class TestBoundingInterval:
    def test_orders_endpoints(self):
        with pytest.raises(BadIntervalError):
            BoundingInterval(1.0, 1.0)
        with pytest.raises(BadIntervalError):
            BoundingInterval(2.0, 1.0)

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            BoundingInterval(float("nan"), 1.0)

    def test_infinite_endpoints_allowed(self):
        iv = BoundingInterval(-INF, INF)
        assert iv.contains(0.0) and iv.contains(1e300)


class TestExtendedOrderStatistics:
    def test_reference_sample(self, small_sample):
        points = make_extended_order_stats(small_sample, BoundingInterval(0.0, INF))
        assert isinstance(points, np.ndarray) and not points.flags.writeable
        assert points.size == 17
        assert points[0] == 0.0
        assert points[1] == 0.124
        assert points[-2] == 7.289
        assert points[-1] == INF
        assert (np.diff(points[:-1]) >= 0).all()

    def test_empty_data(self):
        points = make_extended_order_stats([], BoundingInterval(0.0, 1.0))
        assert points.size == 2
        assert points.tolist() == [0.0, 1.0]

    def test_sorting_with_tie(self):
        points = make_extended_order_stats([2, 1, 1], BoundingInterval(0.0, 3.0))
        assert points.tolist() == [0.0, 1.0, 1.0, 2.0, 3.0]

    def test_out_of_bounds(self):
        with pytest.raises(OutOfBoundsError):
            make_extended_order_stats([0.5, 4.0], BoundingInterval(0.0, 3.0))

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteError):
            make_extended_order_stats([0.5, float("nan")], BoundingInterval(0.0, 3.0))

    @pytest.mark.parametrize("data", [
        [0.5, float("nan"), 4.0, -INF, INF, -1.0],
        [4.0, float("nan"), -1.0],
        [-1.0, INF, 0.5],
        [-INF, 4.0],
        [INF],
    ])
    def test_non_finite_precedes_out_of_bounds(self, data):
        # only the sorted ends are read; whichever of them is out, a
        # non-finite observation anywhere is the error reported
        with pytest.raises(NonFiniteError):
            make_extended_order_stats(data, BoundingInterval(0.0, 3.0))
        with pytest.raises(NonFiniteError):
            make_extended_order_stats(data, BoundingInterval(-INF, INF))


class TestWeightedStepCdf:
    def test_cdf_partial_sum(self):
        d = WeightedStepCdf([1.0, 2.0], [0.4, 0.6])
        assert d.cdf(1.5) == 0.4
        assert d.cdf(0.5) == 0.0
        assert d.cdf(INF) == 1.0

    def test_cdf_right_continuity_and_left_limit(self):
        d = WeightedStepCdf([1.0, 2.0], [0.4, 0.6])
        assert d.cdf(1.0) == 0.4
        assert d.cdf_left(1.0) == 0.0
        assert d.cdf_left(2.0) == 0.4

    def test_quantile_hand_values(self):
        d = WeightedStepCdf([1.0, 2.0, 3.0], [0.5, 0.3, 0.2])
        # cumulative sums 0.5, 0.8, 1.0
        assert d.quantile(0.6) == 2.0
        assert d.quantile(0.5) == 1.0
        assert d.quantile(1.0) == 3.0

    def test_quantile_clamps_mass_a_few_ulp_short_of_one(self):
        # the cumulative mass tops out at 1 - 1e-13, under a level of 1 - 1e-16;
        # the generalized inverse still ends at the last atom
        d = WeightedStepCdf([1.0, 2.0], [0.5, 0.5 - 1e-13])
        assert d.quantile(1.0 - 1e-16) == 2.0
        assert Functional("quantile", 1.0 - 1e-16).evaluate(d) == 2.0

    def test_quantile_domain(self):
        d = WeightedStepCdf([1.0], [1.0])
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(InvalidProbabilityError):
                d.quantile(bad)

    def test_canonicalisation_merges_and_sorts(self):
        d = WeightedStepCdf([3.0, 1.0, 3.0, 2.0], [0.1, 0.4, 0.2, 0.3])
        assert d.supports.tolist() == [1.0, 2.0, 3.0]
        assert d.weights.tolist() == [0.4, 0.3, pytest.approx(0.3)]

    def test_zero_weight_atoms_dropped(self):
        d = WeightedStepCdf([1.0, 5.0, INF], [0.5, 0.5, 0.0])
        assert d.supports.tolist() == [1.0, 5.0]

    def test_repeated_infinite_atoms_merge(self):
        d = WeightedStepCdf([INF, INF, 1.0], [0.25, 0.25, 0.5])
        assert d.supports.tolist() == [1.0, INF]
        assert d.weights.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("supports", [
        [-2.0, 0.0, 1.5, 7.0, 9.0],  # strictly increasing
        [-2.0, 0.0, 0.0, 7.0, 7.0],  # sorted, with ties
        [7.0, -2.0, 9.0, 0.0, 1.5],  # unsorted
        [INF, -0.0, 1.5, 0.0, -INF],  # infinite and signed-zero atoms
        [-INF, -INF, 1.0, INF, INF],  # repeated infinite atoms
    ])
    def test_canonical_arrays_do_not_depend_on_the_fast_path(self, supports):
        # a strictly increasing support skips the merge; every support gives
        # the bytes of merging it through np.unique
        w = np.array([0.25, 0.0, 0.125, 0.5, 0.125])
        s = np.array(supports) + 0.0
        uniq, inverse = np.unique(s, return_inverse=True)
        merged = np.bincount(inverse, weights=w)
        keep = merged > 0
        d = WeightedStepCdf(supports, w)
        assert d.supports.tobytes() == uniq[keep].tobytes()
        assert d.weights.tobytes() == merged[keep].tobytes()
        assert d._cum.tobytes() == np.cumsum(merged[keep]).tobytes()

    def test_mass_must_be_one(self):
        with pytest.raises(ValueError):
            WeightedStepCdf([1.0, 2.0], [0.4, 0.5])

    def test_galois_property(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            w = rng.dirichlet(np.ones(n))
            s = np.sort(rng.normal(size=n) * 10)
            d = WeightedStepCdf(s, w)
            for p in rng.uniform(1e-9, 1.0, size=5):
                x = d.quantile(p)
                assert d.cdf(x) >= p
                # any point strictly left of the inverse has cdf below p
                assert d.cdf_left(x) < p or math.isclose(d.cdf_left(x), p)

    def test_repr_names_the_atom_count_and_range(self):
        assert repr(WeightedStepCdf([2.5, -1.0], [0.25, 0.75])) == \
            "WeightedStepCdf(2 atoms on [-1.0, 2.5])"

    def test_does_not_mutate_caller_arrays(self):
        s = np.array([1.0, 2.0])
        w = np.array([0.5, 0.5])
        WeightedStepCdf(s, w)
        s[0] = 99.0
        w[0] = 99.0


class TestProbabilityBox:
    def test_rejects_crossed_bounds(self):
        lo = WeightedStepCdf([1.0], [1.0])
        hi = WeightedStepCdf([2.0], [1.0])
        # lo steps earlier than hi, so lo.cdf >= hi.cdf: invalid as a box
        with pytest.raises(ValueError):
            ProbabilityBox(lower=lo, upper=hi)

    def test_checks_what_the_union_grid_checks(self):
        # the check at the lower bound's atoms raises exactly when the lower
        # CDF exceeds the upper one somewhere on the union of both supports
        rng = np.random.default_rng(28)
        pool = np.array([-INF, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, INF])

        def step_cdf():
            n = int(rng.integers(1, 6))
            return rng.choice(pool, size=n), rng.dirichlet(np.ones(n))

        decisions = []
        for i in range(2000):
            s, w = step_cdf()
            if i % 3 == 0:
                # near-equal: move a mass about the tolerance between two atoms
                t = w.copy()
                a, b = rng.integers(0, w.size, size=2)
                delta = min(t[a], rng.uniform(0.0, 3.0 * _DOMINANCE_TOL))
                t[a] -= delta
                t[b] += delta
                lower, upper = WeightedStepCdf(s, w), WeightedStepCdf(s, t)
            else:
                lower, upper = WeightedStepCdf(s, w), WeightedStepCdf(*step_cdf())
            grid = np.union1d(lower.supports, upper.supports)
            want = bool((lower.cdf(grid) > upper.cdf(grid) + _DOMINANCE_TOL).any())
            try:
                ProbabilityBox(lower=lower, upper=upper)
                got = False
            except ValueError:
                got = True
            assert got == want, (lower.supports, lower.weights, upper.supports, upper.weights)
            decisions.append((i % 3 == 0, got))
        # both decisions are taken, among the near-equal pairs too
        assert {(near, got) for near in (False, True) for got in (False, True)} == set(decisions)

    def test_dominance_on_dense_grid(self, small_sample):
        box = expected_pbox(small_sample, BoundingInterval(0.0, INF))
        grid = np.linspace(-1.0, 10.0, 501)
        assert (box.lower.cdf(grid) <= box.upper.cdf(grid) + 1e-12).all()


class TestIntervalProbability:
    def test_degenerate_box_is_precise(self):
        d = WeightedStepCdf([1.0, 2.0, 3.0], [0.2, 0.5, 0.3])
        box = ProbabilityBox(lower=d, upper=d)
        lo, hi = interval_probability(box, 1.0, 2.5)
        assert lo == hi == pytest.approx(d.cdf(2.5) - d.cdf(1.0))

    def test_vacuous_box_total_ignorance(self):
        box = expected_pbox([], BoundingInterval(0.0, 1.0))
        lo, hi = interval_probability(box, 0.2, 0.8)
        assert (lo, hi) == (0.0, 1.0)

    def test_hand_substitution(self):
        # lower cum 0.3 at a, 0.5 at b; upper cum 0.6 at a, 0.9 at b
        lower = WeightedStepCdf([0.0, 1.0, 4.0], [0.3, 0.2, 0.5])
        upper = WeightedStepCdf([-1.0, 0.5, 2.0, 4.0], [0.3, 0.3, 0.3, 0.1])
        box = ProbabilityBox(lower=lower, upper=upper)
        lo, hi = interval_probability(box, 0.5, 2.0)
        assert lo == pytest.approx(max(0.5 - 0.6, 0.0))
        assert hi == pytest.approx(0.9 - 0.3)

    def test_requires_ordered_endpoints(self):
        d = WeightedStepCdf([1.0], [1.0])
        box = ProbabilityBox(lower=d, upper=d)
        with pytest.raises(BadIntervalError):
            interval_probability(box, 2.0, 2.0)

    def test_bounds_always_ordered_fractions(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            pts = np.sort(rng.normal(size=n + 1))
            w = rng.dirichlet(np.ones(n))
            lower = WeightedStepCdf(pts[1:], w)
            upper = WeightedStepCdf(pts[:-1], w)
            box = ProbabilityBox(lower=lower, upper=upper)
            a, b = np.sort(rng.normal(size=2) * 2)
            if a == b:
                continue
            lo, hi = interval_probability(box, a, b)
            assert 0.0 <= lo <= hi <= 1.0


class TestExpectedPbox:
    def test_reference_sample_structure(self, small_sample):
        box = expected_pbox(small_sample, BoundingInterval(0.0, INF))
        assert box.lower.n_atoms == 16
        assert box.upper.n_atoms == 16
        # every step is exactly 1/16
        assert (box.lower.weights == 1.0 / 16).all()
        assert (box.upper.weights == 1.0 / 16).all()
        assert box.upper.supports[0] == 0.0
        assert box.lower.supports[-1] == INF

    def test_vacuous_prior(self):
        box = expected_pbox([], BoundingInterval(0.0, 1.0))
        assert box.lower.supports.tolist() == [1.0]
        assert box.upper.supports.tolist() == [0.0]

    def test_single_observation(self):
        box = expected_pbox([0.5], BoundingInterval(0.0, 1.0))
        assert box.lower.supports.tolist() == [0.5, 1.0]
        assert box.upper.supports.tolist() == [0.0, 0.5]
        assert box.lower.weights.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("make, error, word", [
    (lambda: WeightedStepCdf([], []), ValueError, "nonempty"),
    (lambda: WeightedStepCdf([math.nan], [1.0]), NonFiniteError, "NaN"),
    (lambda: WeightedStepCdf([1.0, 2.0], [1.5, -0.5]), ValueError, "nonnegative"),
    (lambda: WeightedStepCdf([1.0, 2.0], [math.nan, 1.0]), ValueError, "nonnegative"),
    (lambda: WeightedStepCdf([1.0, 2.0], [math.inf, 0.0]), ValueError, "sum to 1"),
    (lambda: WeightedStepCdf([1.0], [1.0]).cdf(math.nan), NonFiniteError, "NaN"),
    (lambda: IntervalEstimate(2.0, 1.0, 0.9), BadIntervalError, "malformed"),
], ids=["empty", "nan-support", "negative-weight", "nan-weight", "infinite-weight", "nan-cdf",
        "crossed-interval"])
def test_invalid_arguments_raise(make, error, word):
    with pytest.raises(error, match=word):
        make()
