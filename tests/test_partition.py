import math
from fractions import Fraction

import numpy as np
import pytest

from warpcheck.partition import (
    HyperRect,
    ParamSpace,
    Partition,
    PartitionError,
    sample_points,
)
from warpcheck.selection import group_size


class TestParamSpace:
    def test_rejects_zero_dimensions(self):
        with pytest.raises(PartitionError):
            ParamSpace([])

    def test_rejects_empty_range(self):
        with pytest.raises(PartitionError):
            ParamSpace([(1.0, 1.0)])
        with pytest.raises(PartitionError):
            ParamSpace([(2.0, 1.0)])

    def test_to_physical_midpoint_and_endpoints(self):
        space = ParamSpace([(-20.0, 20.0)])
        assert space.to_physical([0.5])[0] == 0.0
        assert space.to_physical([0.0])[0] == -20.0
        assert space.to_physical([1.0])[0] == 20.0

    def test_to_physical_interior_point(self):
        space = ParamSpace([(0.9, 1.1)])
        # 0.9 + (5/6) * 0.2 checked by hand: 16/15
        assert space.to_physical([5.0 / 6.0])[0] == pytest.approx(16.0 / 15.0, rel=1e-12)

    def test_to_physical_batch(self):
        space = ParamSpace([(0.0, 10.0), (-1.0, 1.0)])
        out = space.to_physical([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        assert np.allclose(out, [[0.0, -1.0], [10.0, 1.0], [5.0, 0.0]])

    def test_identity_midpoint_is_exact_for_scale_bounds(self):
        space = ParamSpace([(0.9, 1.1)])
        assert space.to_physical([0.5])[0] == 1.0


class TestInitSpace:
    def test_two_dim(self):
        part = Partition(ParamSpace([(-20.0, 20.0), (0.9, 1.1)]).n)
        assert len(part) == 1
        rect = part.rects[0]
        assert np.array_equal(rect.center(), [0.5, 0.5])
        assert group_size(rect.depth_key) == 0.5
        assert rect.depths == (0, 0)

    def test_one_dim(self):
        part = Partition(ParamSpace([(0.0, 1.0)]).n)
        assert np.array_equal(part.rects[0].center(), [0.5])
        assert group_size(part.rects[0].depth_key) == 0.5

    def test_four_dim_volume(self):
        part = Partition(ParamSpace([(0.0, 1.0)] * 4).n)
        assert part.total_volume() == Fraction(1)


class TestSamplePoints:
    def test_fresh_unit_interval(self):
        part = Partition(1)
        points = sample_points(part.rects[0])
        coords = sorted(p.center()[0] for p in points)
        assert coords == pytest.approx([1.0 / 6.0, 5.0 / 6.0])

    def test_fresh_unit_square(self):
        part = Partition(2)
        points = sample_points(part.rects[0])
        assert len(points) == 4
        coords = {tuple(np.round(p.center(), 12)) for p in points}
        third = round(1.0 / 3.0, 12)
        assert coords == {
            (round(0.5 - third, 12), 0.5),
            (round(0.5 + third, 12), 0.5),
            (0.5, round(0.5 - third, 12)),
            (0.5, round(0.5 + third, 12)),
        }

    def test_only_long_dims_sampled(self):
        # depths (1, 0), center (1/6, 1/2): dim 1 is the long side
        rect = HyperRect(id=0, nums=(1, 1), depths=(1, 0))
        points = sample_points(rect)
        assert [p.dim for p in points] == [1, 1]
        coords = sorted(tuple(p.center()) for p in points)
        assert coords[0] == pytest.approx((1.0 / 6.0, 1.0 / 2.0 - 1.0 / 3.0))
        assert coords[1] == pytest.approx((1.0 / 6.0, 1.0 / 2.0 + 1.0 / 3.0))

    def test_points_stay_inside_unit_cube(self):
        rect = HyperRect(id=0, nums=(1, 5), depths=(2, 1))
        for p in sample_points(rect):
            assert np.all(p.center() > 0.0) and np.all(p.center() < 1.0)


def _divide_with_values(part, rect_id, values):
    rect = part.rects[rect_id]
    results = {}
    for p in sample_points(rect):
        results[(p.dim, p.sign)] = values[(p.dim, p.sign)]
    return part.divide(rect_id, results)


class TestDivide:
    def test_one_dim_trisection(self):
        part = Partition(1)
        part.rects[0].value = 0.7
        out = _divide_with_values(part, 0, {(0, -1): 1.0, (0, 1): 2.0})
        assert len(out.new_ids) == 3
        centers = sorted(part.rects[i].center()[0] for i in out.new_ids)
        assert centers == pytest.approx([1.0 / 6.0, 0.5, 5.0 / 6.0])
        assert all(part.rects[i].depths == (1,) for i in out.new_ids)
        # parent center value carried to the middle child
        assert part.rects[out.center_id].value == 0.7

    def test_two_dim_division_order(self):
        # w_1 = 1.0 < w_2 = 2.0: dim 0 divided first, so the dim-0 pair
        # keeps a long side while dim-1 children are unit/9 squares
        part = Partition(2)
        part.rects[0].value = 0.0
        out = _divide_with_values(
            part, 0, {(0, -1): 1.0, (0, 1): 3.0, (1, -1): 2.0, (1, 1): 4.0}
        )
        assert len(out.new_ids) == 5
        by_center = {tuple(np.round(part.rects[i].center(), 12)): part.rects[i]
                     for i in out.new_ids}
        sixth, half, third = round(1 / 6, 12), 0.5, round(1 / 3, 12)
        assert by_center[(sixth, half)].depths == (1, 0)
        assert by_center[(round(5 / 6, 12), half)].depths == (1, 0)
        assert by_center[(half, sixth)].depths == (1, 1)
        assert by_center[(half, half)].depths == (1, 1)
        assert by_center[(half, round(5 / 6, 12))].depths == (1, 1)
        # sampled values become the new centers' values
        assert by_center[(sixth, half)].value == 1.0
        assert by_center[(half, sixth)].value == 2.0

    def test_tie_breaks_to_lower_dimension(self):
        part = Partition(2)
        part.rects[0].value = 0.0
        out = _divide_with_values(
            part, 0, {(0, -1): 1.0, (0, 1): 1.0, (1, -1): 1.0, (1, 1): 1.0}
        )
        pair_rect = part.rects[out.pair_ids[(0, -1)]]
        assert pair_rect.depths == (1, 0)  # dim 0 split first keeps dim 1 long

    def test_best_point_lands_in_largest_child(self):
        part = Partition(3)
        part.rects[0].value = 0.0
        values = {(0, -1): 5.0, (0, 1): 6.0, (1, -1): 1.0, (1, 1): 7.0, (2, -1): 3.0, (2, 1): 2.0}
        out = _divide_with_values(part, 0, values)
        best = part.rects[out.pair_ids[(1, -1)]]  # w_1 = 1.0 is the smallest
        assert len(best.long_dims()) == 2  # m - 1 of the m = 3 divided dims

    def test_rejects_missing_and_extra_results(self):
        part = Partition(2)
        part.rects[0].value = 0.0
        with pytest.raises(PartitionError):
            part.divide(0, {(0, -1): 1.0, (0, 1): 1.0})
        with pytest.raises(PartitionError):
            part.divide(
                0,
                {(0, -1): 1.0, (0, 1): 1.0, (1, -1): 1.0, (1, 1): 1.0, (2, -1): 1.0},
            )

    def test_rejects_non_finite_values(self):
        part = Partition(1)
        part.rects[0].value = 0.0
        with pytest.raises(PartitionError):
            part.divide(0, {(0, -1): math.nan, (0, 1): 1.0})

    def test_divided_rect_not_live(self):
        part = Partition(1)
        part.rects[0].value = 0.0
        _divide_with_values(part, 0, {(0, -1): 1.0, (0, 1): 2.0})
        assert 0 not in part.rects
        with pytest.raises(PartitionError):
            part.divide(0, {(0, -1): 1.0, (0, 1): 2.0})


def _random_division_walk(n, divisions, seed, max_depth=None):
    rng = np.random.default_rng(seed)
    part = Partition(n)
    part.rects[0].value = float(rng.normal())
    for _ in range(divisions):
        candidates = [
            r.id
            for r in part
            if max_depth is None or r.depth_key < max_depth
        ]
        if not candidates:
            break
        rect_id = int(rng.choice(candidates))
        rect = part.rects[rect_id]
        points = sample_points(rect)
        results = {(p.dim, p.sign): float(rng.normal()) for p in points}
        m = len(rect.long_dims())
        before = len(part)
        out = part.divide(rect_id, results)
        assert len(out.new_ids) == 2 * m + 1
        assert len(part) == before + 2 * m
    return part


class TestPartitionInvariants:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_volume_conserved_after_random_divisions(self, n):
        part = _random_division_walk(n, 120, seed=n)
        assert part.total_volume() == Fraction(1)

    def test_group_keys_match_sizes(self):
        part = _random_division_walk(2, 60, seed=5, max_depth=4)
        assert max(r.depth_key for r in part) <= 4
        for r in part:
            assert r.depth_key == min(r.depths)
            assert group_size(r.depth_key) == 0.5 * 3.0 ** (-r.depth_key)

    def test_disjoint_interiors_desk_scale(self):
        part = _random_division_walk(2, 25, seed=11)
        rects = list(part)
        for i, a in enumerate(rects):
            box_a = a.box()
            for b in rects[i + 1 :]:
                box_b = b.box()
                overlap = all(
                    box_a[d, 0] < box_b[d, 1] - 1e-15 and box_b[d, 0] < box_a[d, 1] - 1e-15
                    for d in range(2)
                )
                assert not overlap, f"rects {a.id} and {b.id} overlap"

    def test_centers_unique_and_exact(self):
        part = _random_division_walk(3, 80, seed=3)
        centers = [
            tuple(Fraction(num, 2 * 3**d) for num, d in zip(r.nums, r.depths)) for r in part
        ]
        assert len(centers) == len(set(centers))
        for r, exact in zip(part, centers):
            assert r.center().tolist() == [float(c) for c in exact]
