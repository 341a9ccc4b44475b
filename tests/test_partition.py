import math
import struct
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
from oracles import ReferencePartition, group_by_size, sample_points_reference
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
        coords = sorted(u[0] for u in points.values())
        assert coords == pytest.approx([1.0 / 6.0, 5.0 / 6.0])

    def test_fresh_unit_square(self):
        part = Partition(2)
        points = sample_points(part.rects[0])
        assert len(points) == 4
        coords = {tuple(np.round(u, 12)) for u in points.values()}
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
        assert [dim for dim, _ in points] == [1, 1]
        coords = sorted(points.values())
        assert coords[0] == pytest.approx((1.0 / 6.0, 1.0 / 2.0 - 1.0 / 3.0))
        assert coords[1] == pytest.approx((1.0 / 6.0, 1.0 / 2.0 + 1.0 / 3.0))

    def test_keys_in_order_and_coordinates_exact(self):
        # depths (1, 0, 0), center (1/6, 1/2, 1/2): dims 1 and 2 are long
        rect = HyperRect(id=0, nums=(1, 1, 1), depths=(1, 0, 0))
        points = sample_points(rect)
        assert list(points) == [(1, -1), (1, 1), (2, -1), (2, 1)]
        assert points[(1, -1)] == (1 / 6, 1 / 6, 1 / 2)
        assert points[(1, 1)] == (1 / 6, 5 / 6, 1 / 2)
        assert points[(2, -1)] == (1 / 6, 1 / 2, 1 / 6)
        assert points[(2, 1)] == (1 / 6, 1 / 2, 5 / 6)

    def test_points_stay_inside_unit_cube(self):
        rect = HyperRect(id=0, nums=(1, 5), depths=(2, 1))
        for u in sample_points(rect).values():
            assert all(0.0 < c < 1.0 for c in u)


def _divide_with_values(part, rect_id, values):
    results = {key: values[key] for key in sample_points(part.rects[rect_id])}
    return part.divide(rect_id, results)


class TestDivide:
    def test_one_dim_trisection(self):
        part = Partition(1)
        part.rects[0].value = 0.7
        new_ids = _divide_with_values(part, 0, {(0, -1): 1.0, (0, 1): 2.0})
        assert len(new_ids) == 3
        centers = sorted(part.rects[i].center()[0] for i in new_ids)
        assert centers == pytest.approx([1.0 / 6.0, 0.5, 5.0 / 6.0])
        assert all(part.rects[i].depths == (1,) for i in new_ids)
        # parent center value carried to the middle child
        assert part.rects[new_ids[-1]].value == 0.7

    def test_two_dim_division_order(self):
        # w_1 = 1.0 < w_2 = 2.0: dim 0 divided first, so the dim-0 pair
        # keeps a long side while dim-1 children are unit/9 squares
        part = Partition(2)
        part.rects[0].value = 0.0
        new_ids = _divide_with_values(
            part, 0, {(0, -1): 1.0, (0, 1): 3.0, (1, -1): 2.0, (1, 1): 4.0}
        )
        assert len(new_ids) == 5
        by_center = {tuple(np.round(part.rects[i].center(), 12)): part.rects[i]
                     for i in new_ids}
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
        new_ids = _divide_with_values(
            part, 0, {(0, -1): 1.0, (0, 1): 1.0, (1, -1): 1.0, (1, 1): 1.0}
        )
        pair_rect = part.rects[new_ids[0]]  # the first pair's lower third
        assert pair_rect.depths == (1, 0)  # dim 0 split first keeps dim 1 long

    def test_best_point_lands_in_largest_child(self):
        part = Partition(3)
        part.rects[0].value = 0.0
        values = {(0, -1): 5.0, (0, 1): 6.0, (1, -1): 1.0, (1, 1): 7.0, (2, -1): 3.0, (2, 1): 2.0}
        new_ids = _divide_with_values(part, 0, values)
        # the (1, -1) sample is the only one valued 1.0, the smallest w_1
        best = next(part.rects[i] for i in new_ids if part.rects[i].value == 1.0)
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

    def test_rejects_unset_parent_value(self):
        part = Partition(1)
        with pytest.raises(PartitionError, match="rect 0 has non-finite value nan"):
            part.divide(0, {(0, -1): 1.0, (0, 1): 2.0})
        assert list(part.rects) == [0] and list(part.groups) == [0]

    @pytest.mark.parametrize("child", [2, 0])
    def test_rewritten_value_out_of_order_raises(self, child):
        part = Partition(1)
        part.rects[0].value = 0.0
        new_ids = _divide_with_values(part, 0, {(0, -1): 1.0, (0, 1): 2.0})
        # group 1 in (value, id) order: center 0.0, lower 1.0, upper 2.0.  At
        # 3.0 the center is no longer where bisection looks; the lower third
        # is, but now ranks above the upper third next to it.
        rect = part.rects[new_ids[child]]
        rect.value = 3.0
        with pytest.raises(PartitionError, match=f"rect {rect.id} is out of"):
            _divide_with_values(part, rect.id, {(0, -1): 1.0, (0, 1): 2.0})
        assert len(part) == 3 and rect.id in part.rects

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
        results = {key: float(rng.normal()) for key in points}
        m = len(rect.long_dims())
        before = len(part)
        new_ids = part.divide(rect_id, results)
        assert len(new_ids) == 2 * m + 1
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


def assert_size_groups(part):
    """``part.groups`` holds exactly the live rects, by identity, in the keys
    and (value, id) order that :func:`group_by_size` gives them."""
    grouped = [r for group in part.groups.values() for r in group]
    assert sorted(map(id, grouped)) == sorted(map(id, part))
    for key, group in part.groups.items():
        assert all(r.depth_key == key for r in group)
        ranks = [(r.value, r.id) for r in group]
        assert ranks == sorted(ranks)
    want = group_by_size(part)
    assert sorted(part.groups) == list(want)
    assert {k: [r.id for r in g] for k, g in part.groups.items()} == {
        k: [r.id for r in g] for k, g in want.items()
    }


class TestSizeGroups:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_groups_track_random_divisions_with_ties(self, n):
        rng = np.random.default_rng(40 + n)
        part = Partition(n)
        part.rects[0].value = float(np.round(rng.normal(), 1))
        assert_size_groups(part)
        for _ in range(80):
            rect = part.rects[int(rng.choice(list(part.rects)))]
            results = {key: float(np.round(rng.normal(), 1)) for key in sample_points(rect)}
            part.divide(rect.id, results)
            assert_size_groups(part)
            if all(r.depth_key != rect.depth_key for r in part):
                assert rect.depth_key not in part.groups

    def test_one_dim_division_empties_the_parent_group(self):
        part = Partition(1)
        part.rects[0].value = 0.0
        _divide_with_values(part, 0, {(0, -1): 1.0, (0, 1): 2.0})
        assert list(part.groups) == [1]
        assert [r.id for r in part.groups[1]] == [3, 1, 2]


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def _assert_matches_reference(part, ref):
    """Same live ids in creation order, the same exact centers, depths and
    value bits, and the same size groups in the same key and rank order."""
    assert list(part.rects) == list(ref.rects)
    for rect_id, rect in part.rects.items():
        want = ref.rects[rect_id]
        assert (rect.nums, rect.depths, rect.depth_key) == (want.nums, want.depths, want.depth_key)
        assert _bits([rect.value]) == _bits([want.value])
    assert list(part.groups) == list(ref.groups)
    for key, group in part.groups.items():
        assert [r.id for r in group] == [r.id for r in ref.groups[key]]
        assert all(part.rects[r.id] is r for r in group)


def _divide_both(part, ref, rect_id, values):
    """Divide ``rect_id`` in both partitions after checking that their sample
    points agree key for key and bit for bit; return the new ids."""
    points = sample_points(part.rects[rect_id])
    want = sample_points_reference(ref.rects[rect_id])
    assert list(points) == list(want)
    for key, u in want.items():
        assert _bits(points[key]) == _bits(u), key
    results = dict(zip(want, values))
    new_ids = part.divide(rect_id, results)
    assert new_ids == ref.divide(rect_id, results)
    _assert_matches_reference(part, ref)
    return new_ids


def _same_outcome(part, ref, rect_id, results):
    """Divide in both partitions: the new ids, or the error message, agree."""
    try:
        want = ref.divide(rect_id, results)
    except ValueError as exc:
        want = str(exc)
    try:
        got = part.divide(rect_id, results)
    except PartitionError as exc:
        got = str(exc)
    assert got == want
    _assert_matches_reference(part, ref)
    return got


def _twin(n, value):
    part, ref = Partition(n), ReferencePartition(n)
    part.rects[0].value = ref.rects[0].value = value
    return part, ref


class TestMatchesReference:
    """The division and sample points against the first-written trisection
    in ``oracles``: ids, centers, depths, value bits, group order, sample
    coordinate bits and error messages all agree."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_division_walks(self, n, seed):
        rng = np.random.default_rng(1000 * n + seed)
        part, ref = _twin(n, float(rng.normal()))
        for _ in range(90):
            live = [r.id for r in part if r.depth_key < 9]
            rect_id = live[int(rng.integers(len(live)))]
            # one decimal, so equal values tie and the (value, id) order decides
            values = np.round(rng.normal(size=2 * len(part.rects[rect_id].long_dims())), 1)
            _divide_both(part, ref, rect_id, values.tolist())

    def test_one_dim_dive_to_depth_33(self):
        # depth 33 is the budget's cap; the last denominator, 2 * 3**33, is
        # above 2**53, so a coordinate keeps its bits only if divided exactly
        rng = np.random.default_rng(33)
        part, ref = _twin(1, 0.25)
        rect_id = 0
        for depth in range(1, 34):
            values = [float(v) for v in rng.normal(size=2)]
            new_ids = _divide_both(part, ref, rect_id, values)
            rect_id = new_ids[int(rng.integers(3))]
            assert part.rects[rect_id].depths == (depth,)

    @pytest.mark.parametrize(
        "results",
        [
            {(0, -1): 1.0, (0, 1): 2.0},
            {(0, -1): 1.0, (0, 1): 2.0, (1, -1): 3.0},
            {(0, -1): 1.0, (0, 1): 2.0, (1, -1): 3.0, (1, 1): 4.0, (2, -1): 5.0},
            {(0, -1): 1.0, (0, 1): 2.0, (1, -1): 3.0, (2, 1): 4.0},
            {},
        ],
    )
    def test_same_coverage_failure(self, results):
        part, ref = _twin(2, 0.0)
        assert "do not cover" in _same_outcome(part, ref, 0, results)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 3])
    def test_same_finite_value_failure(self, bad, at):
        part, ref = _twin(2, 0.0)
        results = {(0, -1): 1.0, (0, 1): 2.0, (1, -1): 3.0, (1, 1): 4.0}
        results[list(results)[at]] = bad
        assert "non-finite query result" in _same_outcome(part, ref, 0, results)

    def test_same_dead_and_unset_rect_failures(self):
        part, ref = Partition(1), ReferencePartition(1)
        results = {(0, -1): 1.0, (0, 1): 2.0}
        assert "non-finite value nan" in _same_outcome(part, ref, 0, results)
        part.rects[0].value = ref.rects[0].value = 0.0
        _divide_both(part, ref, 0, [1.0, 2.0])
        assert "is not live" in _same_outcome(part, ref, 0, results)

    def test_same_order_guard(self):
        # group 1 in (value, id) order: center 0.0 (id 3), lower 1.0 (id 1),
        # upper 2.0 (id 2); rewriting one value moves its rank among them
        messages = []
        for child in range(3):
            for value in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
                part, ref = _twin(1, 0.0)
                rect_id = _divide_both(part, ref, 0, [1.0, 2.0])[child]
                part.rects[rect_id].value = ref.rects[rect_id].value = value
                messages.append(_same_outcome(part, ref, rect_id, {(0, -1): 1.0, (0, 1): 2.0}))
        raised = [m for m in messages if isinstance(m, str)]
        assert all("is out of (value, id) order" in m for m in raised)
        assert 0 < len(raised) < len(messages)
