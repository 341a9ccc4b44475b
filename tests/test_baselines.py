import tracemalloc

import numpy as np
import pytest

from warpcheck import baselines
from warpcheck.baselines import grid_search, match_metric, random_pick
from warpcheck.objectives import test_function as make_function
from warpcheck.partition import ParamSpace

UNIT1 = ParamSpace([(0.0, 1.0)])


def counted(fn):
    count = {"points": 0}

    def wrapped(pts):
        count["points"] += len(pts)
        return fn(pts)

    return wrapped, count


class TestGridSearch:
    def test_abs1d_grid_hits_target(self):
        fn = make_function("abs1d")
        res = grid_search(fn, UNIT1, 11)
        assert res.min_value < 1e-12
        assert abs(res.argmin[0] - 0.3) < 1e-12

    def test_constant_ties_break_to_first_point(self):
        fn = lambda pts: np.zeros(len(pts))
        space = ParamSpace([(0.0, 1.0), (0.0, 1.0)])
        res = grid_search(fn, space, 4)
        assert np.array_equal(res.argmin, [0.0, 0.0])

    def test_exact_evaluation_count(self):
        fn, count = counted(lambda pts: pts.sum(axis=1))
        space = ParamSpace([(0.0, 1.0), (0.0, 1.0)])
        res = grid_search(fn, space, 5)
        assert count["points"] == 25
        assert res.n_points == 25

    def test_endpoints_included(self):
        fn = lambda pts: -pts[:, 0]
        res = grid_search(fn, UNIT1, 7)
        assert res.argmin[0] == 1.0

    def test_needs_two_points_per_dim(self):
        with pytest.raises(ValueError):
            grid_search(lambda pts: np.zeros(len(pts)), UNIT1, 1)

    def test_batched_evaluation_matches_single_batch(self, monkeypatch):
        fn = make_function("multi-basin")
        space = fn.param_space()
        big = grid_search(fn, space, 40)
        monkeypatch.setattr(baselines, "_CHUNK_POINTS", 64)
        sizes = []
        small = grid_search(lambda pts: (sizes.append(len(pts)), fn(pts))[1], space, 40)
        assert sizes == [64] * 25
        assert small.min_value == big.min_value
        assert np.array_equal(small.argmin, big.argmin)

    def test_equal_minima_in_two_chunks_break_to_first_point(self, monkeypatch):
        monkeypatch.setattr(baselines, "_CHUNK_POINTS", 4)
        # 11 grid points over [0, 1]: minima at indices 2 (first chunk) and 8 (third)
        fn = lambda pts: np.where(np.isin(np.round(pts[:, 0] * 10), [2, 8]), -1.0, 0.0)
        res = grid_search(fn, UNIT1, 11)
        assert res.min_value == -1.0
        assert res.argmin[0] == np.linspace(0.0, 1.0, 11)[2]

    def test_chunks_hold_the_meshgrid_points(self, monkeypatch):
        monkeypatch.setattr(baselines, "_CHUNK_POINTS", 7)
        space = ParamSpace([(-1.0, 2.0), (0.1, 0.7), (5.0, 9.0)])
        seen = []
        fn = lambda pts: (seen.append(pts.copy()), np.zeros(len(pts)))[1]
        res = grid_search(fn, space, 4)
        axes = [np.linspace(lo, hi, 4) for lo, hi in space.bounds]
        mesh = np.meshgrid(*axes, indexing="ij")
        assert [len(pts) for pts in seen] == [7] * 9 + [1]
        assert np.array_equal(np.vstack(seen), np.stack([m.ravel() for m in mesh], axis=1))
        assert res.n_points == 64

    def test_large_grid_peak_memory(self):
        # the points are built a chunk at a time, so a 1M-point grid needs
        # far less than its 16 MB of points
        fn = lambda pts: pts[:, 0] - pts[:, 1]
        tracemalloc.start()
        try:
            res = grid_search(fn, ParamSpace([(0.0, 1.0), (0.0, 1.0)]), 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.n_points == 10**6
        assert np.array_equal(res.argmin, [0.0, 1.0])
        assert peak < 4 * 2**20


class TestRandomPick:
    def test_deterministic_given_seed(self):
        fn = make_function("multi-basin")
        a = random_pick(fn, fn.param_space(), 500, seed=9)
        b = random_pick(fn, fn.param_space(), 500, seed=9)
        assert a.min_value == b.min_value
        assert np.array_equal(a.argmin, b.argmin)

    def test_single_sample(self):
        fn = make_function("abs1d")
        res = random_pick(fn, UNIT1, 1, seed=3)
        assert res.n_points == 1
        assert res.min_value == fn([res.argmin])[0]

    def test_prefix_monotonicity(self):
        fn = make_function("multi-basin")
        space = fn.param_space()
        values = [random_pick(fn, space, n, seed=5).min_value for n in (10, 100, 1000, 5000)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_large_sample_approaches_grid_minimum(self):
        fn = make_function("abs1d")
        oracle = grid_search(fn, UNIT1, 1001)
        res = random_pick(fn, UNIT1, 10**4, seed=0)
        assert res.min_value <= oracle.min_value + 0.01

    def test_samples_respect_bounds(self):
        space = ParamSpace([(-4.0, -2.0), (10.0, 11.0)])
        seen = []
        fn = lambda pts: (seen.append(np.asarray(pts)), np.zeros(len(pts)))[1]
        random_pick(fn, space, 256, seed=1)
        pts = np.vstack(seen)
        assert pts[:, 0].min() >= -4.0 and pts[:, 0].max() < -2.0
        assert pts[:, 1].min() >= 10.0 and pts[:, 1].max() < 11.0

    def test_chunks_continue_one_draw(self, monkeypatch):
        monkeypatch.setattr(baselines, "_CHUNK_POINTS", 7)
        space = ParamSpace([(-4.0, -2.0), (10.0, 11.0), (0.0, 0.3)])
        seen = []
        fn = lambda pts: (seen.append(pts.copy()), np.zeros(len(pts)))[1]
        random_pick(fn, space, 30, seed=12)
        draw = space.lows + np.random.default_rng(12).random((30, 3)) * space.ranges
        assert [len(pts) for pts in seen] == [7, 7, 7, 7, 2]
        assert np.array_equal(np.vstack(seen), draw)

    def test_needs_positive_sample_count(self):
        with pytest.raises(ValueError):
            random_pick(lambda pts: np.zeros(len(pts)), UNIT1, 0, seed=0)


def nan_at_half(pts):
    """(t - 0.2)^2 with a NaN at t = 0.5, in the same chunk as the minimum."""
    t = np.asarray(pts)[:, 0]
    values = (t - 0.2) ** 2
    values[t == 0.5] = np.nan
    return values


class TestNonFiniteObjective:
    def test_grid_search_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            grid_search(nan_at_half, UNIT1, 11)

    def test_random_pick_rejects_nan(self):
        fn = lambda pts: np.where(np.arange(len(pts)) == 3, np.nan, pts[:, 0])
        with pytest.raises(ValueError, match="non-finite"):
            random_pick(fn, UNIT1, 10, seed=0)

    def test_infinite_values_rejected(self):
        fn = lambda pts: np.full(len(pts), np.inf)
        with pytest.raises(ValueError, match="non-finite"):
            grid_search(fn, UNIT1, 5)


class TestMatchMetric:
    def test_smaller_matches(self):
        assert match_metric(0.29, 0.30)

    def test_larger_does_not(self):
        assert not match_metric(0.31, 0.30)

    def test_equal_matches(self):
        assert match_metric(0.30, 0.30)

    def test_tolerance(self):
        assert match_metric(0.31, 0.30, tolerance=0.02)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            match_metric(np.nan, 0.0)
        with pytest.raises(ValueError):
            match_metric(0.0, np.inf)

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, -1.0])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            match_metric(0.0, 0.0, tolerance)
