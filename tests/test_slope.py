import numpy as np
import pytest

from warpcheck.partition import HyperRect, ParamSpace
from warpcheck.slope import (
    SlopeTracker,
    cover_radius,
    estimate_lower_bound,
    sample_distance,
    sample_radius,
)


class TestLocalSlope:
    def test_constant_objective(self):
        tracker = SlopeTracker(ParamSpace([(0.0, 1.0)]))
        tracker.observe(1.0, {(0, -1): 1.0, (0, 1): 1.0}, depth=0)
        assert tracker.k_max == 0.0

    def test_worked_one_dim_case(self):
        # bounds (0, 3), full-width side: sample distance 1.0;
        # values 0 and 3 around center value 1 give slopes 1 and 2
        space = ParamSpace([(0.0, 3.0)])
        assert sample_distance(0, 0, space) == 1.0
        samples = {(0, -1): 0.0, (0, 1): 3.0}
        tracker = SlopeTracker(space)
        tracker.observe(1.0, samples, depth=0)
        assert tracker.k_max == 2.0

    def test_affine_objective_recovers_slope(self):
        # f(t) = 2t on (0, 1): center 1.0 at t=0.5, samples at 1/6 and 5/6
        samples = {(0, -1): 2.0 / 6.0, (0, 1): 10.0 / 6.0}
        tracker = SlopeTracker(ParamSpace([(0.0, 1.0)]))
        tracker.observe(1.0, samples, depth=0)
        assert tracker.k_max == pytest.approx(2.0)


class TestRadii:
    def test_sample_radius_one_dim(self):
        space = ParamSpace([(0.0, 1.0)])
        # side 1/3: distance to samples is 1/9, half of that sum is 1/18
        assert sample_radius((1,), space) == pytest.approx(1.0 / 18.0)

    def test_sample_radius_uses_physical_ranges(self):
        space = ParamSpace([(-20.0, 20.0), (0.9, 1.1)])
        got = sample_radius((1, 1), space)
        assert got == pytest.approx(0.5 * (40.0 / 9.0 + 0.2 / 9.0))

    def test_cover_radius_reaches_the_faces(self):
        space = ParamSpace([(0.0, 1.0)])
        assert cover_radius((1,), space) == pytest.approx(1.0 / 6.0)
        assert cover_radius((0,), space) == pytest.approx(0.5)


class TestEstimateLowerBound:
    def test_zero_slope_returns_best_value(self):
        rect = HyperRect(id=0, nums=(1,), depths=(1,), value=0.5)
        space = ParamSpace([(0.0, 1.0)])
        assert estimate_lower_bound(rect, 0.0, space) == 0.5

    def test_worked_one_dim_case(self):
        rect = HyperRect(id=0, nums=(1,), depths=(1,), value=0.5)
        space = ParamSpace([(0.0, 1.0)])
        got = estimate_lower_bound(rect, 2.0, space)
        assert got == pytest.approx(0.5 - 2.0 / 18.0)

    def test_cover_mode_is_more_conservative(self):
        rect = HyperRect(id=0, nums=(1, 1), depths=(1, 2), value=0.0)
        space = ParamSpace([(0.0, 4.0), (0.0, 2.0)])
        loose = estimate_lower_bound(rect, 1.0, space)
        tight = rect.value - 1.0 * cover_radius(rect.depths, space)
        assert tight < loose
        assert tight == pytest.approx(-0.5 * (4.0 / 3.0 + 2.0 / 9.0))


class TestSlopeTracker:
    def test_tracks_running_maximum(self):
        space = ParamSpace([(0.0, 1.0)])
        tracker = SlopeTracker(space)
        tracker.observe(1.0, {(0, -1): 0.5, (0, 1): 2.0}, depth=0)
        assert tracker.k_max == pytest.approx(3.0)
        # one sample alone: its single-pair slope
        single = SlopeTracker(space)
        single.observe(1.0, {(0, -1): 0.5}, depth=0)
        assert single.k_max == pytest.approx(1.5)
        # a smaller local slope on a fresh tracker, then folded into the first
        fresh = SlopeTracker(space)
        fresh.observe(1.0, {(0, -1): 1.0, (0, 1): 1.1}, depth=1)
        assert fresh.k_max < 3.0
        tracker.observe(1.0, {(0, -1): 1.0, (0, 1): 1.1}, depth=1)
        assert tracker.k_max == pytest.approx(3.0)  # never decreases

    def test_slopes_scale_with_physical_range(self):
        wide = SlopeTracker(ParamSpace([(0.0, 10.0)]))
        narrow = SlopeTracker(ParamSpace([(0.0, 1.0)]))
        wide.observe(0.0, {(0, -1): 1.0, (0, 1): 1.0}, depth=0)
        narrow.observe(0.0, {(0, -1): 1.0, (0, 1): 1.0}, depth=0)
        assert narrow.k_max == pytest.approx(10.0 * wide.k_max)
