"""Unit-cube search space bookkeeping: hyperrectangles and trisection.

The search always runs on the unit hypercube [0, 1]^n.  Physical factor
ranges (degrees, scale units, pixels) live in :class:`ParamSpace`, which
maps unit points to physical points.

Centers and side lengths are kept in exact integer form: along dimension
``i`` a rectangle has trisection depth ``d_i`` (side length ``3**-d_i``)
and its center coordinate is ``num_i / (2 * 3**d_i)`` with ``num_i`` odd.
This makes size grouping and volume accounting exact, so no floating-point
tolerances are ever needed for the partition itself.  A division is plain
data: :func:`sample_points` maps each ``(dim, sign)`` to a sample point's
unit coordinates, :meth:`Partition.divide` takes the same keys mapped to
the observed values and returns the children's ids.  Points need no
identity beyond that: a sample point lies strictly inside its rect and off
its center, so it is never a unit point evaluated before, and once
evaluated it is the center of exactly one live rect.  Callers track a point
by the id of the rect centered there.  Only unit points are distinct:
:meth:`ParamSpace.to_physical` can round two of them to one physical point.

The partition also keeps its size groups: the live rects of each depth key
in ``(value, id)`` order, which is all selection needs.  A division removes
the parent from its group and inserts each child into its own, at O(group
size) per rect, so no caller ever regroups or re-sorts the live set.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np


class PartitionError(ValueError):
    """Malformed partition state or division request."""


class ParamSpace:
    """Axis-aligned box of physical transformation factors.

    Args:
        bounds: sequence of ``(lo, hi)`` pairs, one per dimension, in
            physical units.  Every pair must satisfy ``hi > lo``.
    """

    def __init__(self, bounds) -> None:
        pairs = tuple((float(lo), float(hi)) for lo, hi in bounds)
        if len(pairs) == 0:
            raise PartitionError("parameter space needs at least one dimension")
        for i, (lo, hi) in enumerate(pairs):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise PartitionError(f"non-finite bounds on dimension {i}: ({lo}, {hi})")
            if not hi > lo:
                raise PartitionError(f"empty range on dimension {i}: ({lo}, {hi})")
        self.bounds = pairs
        self.lows = np.array([lo for lo, _ in pairs])
        self.highs = np.array([hi for _, hi in pairs])
        self.ranges = self.highs - self.lows

    @property
    def n(self) -> int:
        return len(self.bounds)

    def to_physical(self, u) -> np.ndarray:
        """Map unit-cube point(s) to physical coordinates.

        Accepts a single point of shape ``(n,)`` or a batch ``(B, n)``.
        Evaluated as ``lo * (1 - u) + hi * u``, which is exact at both
        endpoints and at the midpoint (the identity transformation).
        """
        u = np.asarray(u, dtype=float)
        return self.lows * (1.0 - u) + self.highs * u

    def __repr__(self) -> str:
        return f"ParamSpace({list(self.bounds)!r})"


# a rect's place in its size group
_rank = operator.attrgetter("value", "id")


def _center(nums: tuple[int, ...], depths: tuple[int, ...]) -> tuple[float, ...]:
    """The center ``num / (2 * 3**d)`` per axis, each coordinate correctly rounded."""
    return tuple(num / (2 * 3**d) for num, d in zip(nums, depths))


def group_size(depth: int) -> float:
    """Half a side of trisection depth ``depth``; for a rect's ``depth_key``,
    the size of its group (L-infinity measure)."""
    return 0.5 * 3.0 ** (-depth)


@dataclass(slots=True)
class HyperRect:
    """One subspace of the unit cube.

    ``nums``/``depths`` encode the exact center; ``value`` is the objective
    at the center.  ``depth_key`` is the least trisection depth, which names
    the rect's size group; :func:`group_size` gives the group's size.  The
    class is slotted: a search makes thousands of rects, and each carries
    only these five fields.

    ``value`` is fixed once set, since a :class:`Partition` ranks the rect
    in its group by ``(value, id)``.  The one exception is the root's first
    write: the root is alone in its group, so no order can break.
    """

    id: int
    nums: tuple[int, ...]
    depths: tuple[int, ...]
    value: float = math.nan
    depth_key: int = field(init=False)

    def __post_init__(self) -> None:
        self.depth_key = min(self.depths)

    def center(self) -> np.ndarray:
        return np.array(_center(self.nums, self.depths))

    def long_dims(self) -> list[int]:
        d = self.depth_key
        return [i for i, di in enumerate(self.depths) if di == d]

    def volume(self) -> Fraction:
        return Fraction(1, 3 ** sum(self.depths))

    def box(self) -> np.ndarray:
        """Unit-cube bounds, shape (n, 2)."""
        c = self.center()
        half = np.array([group_size(d) for d in self.depths])
        return np.stack([c - half, c + half], axis=1)


class Partition:
    """The live set of hyperrectangles tiling the unit cube.

    Mutation is single-writer.  Division replaces the parent with ``2m + 1``
    children where ``m`` is the number of longest sides.  ``groups`` maps
    each depth key in use to its live rects in ``(value, id)`` order; a key
    goes once its group is empty.  So a rect's ``value`` is fixed once set,
    but for the lone root's first write.  :meth:`divide` finds the parent by
    its rank and raises when that rank does not lead to it or its
    neighbours are out of order.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise PartitionError("partition needs at least one dimension")
        self.rects: dict[int, HyperRect] = {}
        self.groups: dict[int, list[HyperRect]] = {}
        self._next_id = 0
        self._add((1,) * n, (0,) * n)

    def _add(
        self, nums: tuple[int, ...], depths: tuple[int, ...], value: float = math.nan
    ) -> HyperRect:
        rect = HyperRect(self._next_id, nums, depths, value)
        self._next_id += 1
        self.rects[rect.id] = rect
        bisect.insort(self.groups.setdefault(rect.depth_key, []), rect, key=_rank)
        return rect

    def __len__(self) -> int:
        return len(self.rects)

    def __iter__(self) -> Iterator[HyperRect]:
        return iter(self.rects.values())

    def total_volume(self) -> Fraction:
        return sum((r.volume() for r in self.rects.values()), Fraction(0))

    def divide(self, rect_id: int, results: Mapping[tuple[int, int], float]) -> list[int]:
        """Trisect a rect along all of its longest sides; return the new ids.

        ``results`` maps each :func:`sample_points` key ``(dim, sign)`` to
        the objective value observed at that point.  Dimensions are divided
        in ascending order of ``w_i = min(value at +, value at -)`` (ties
        broken by lower dimension index), so the best query point ends up
        at the center of one of the two largest children.  The ids come in
        creation order: each side pair in division order, lower third
        first, then the center last.
        """
        rect = self.rects.get(rect_id)
        if rect is None:
            raise PartitionError(f"rect {rect_id} is not live")
        dims = rect.long_dims()
        if len(results) != 2 * len(dims) or any(
            (i, s) not in results for i in dims for s in (-1, 1)
        ):
            expected = {(i, s) for i in dims for s in (-1, 1)}
            raise PartitionError(
                f"query results do not cover the sampled points of rect {rect_id}: "
                f"got {sorted(results)}, need {sorted(expected)}"
            )
        for k, v in results.items():
            if not math.isfinite(v):
                raise PartitionError(f"non-finite query result {v} at {k}")
        # the center child inherits the value and ranks by it in its group
        if not math.isfinite(rect.value):
            raise PartitionError(f"rect {rect_id} has non-finite value {rect.value}")

        # bisect_left returns at > 0 only after finding group[at - 1] ranked
        # below the parent, so only the right neighbour can be out of order
        group = self.groups[rect.depth_key]
        rank = _rank(rect)
        at = bisect.bisect_left(group, rank, key=_rank)
        if (
            at == len(group)
            or group[at] is not rect
            or (at + 1 < len(group) and _rank(group[at + 1]) < rank)
        ):
            raise PartitionError(
                f"rect {rect_id} is out of (value, id) order in size group "
                f"{rect.depth_key}: its value changed after it joined the group"
            )

        order = sorted(dims, key=lambda i: (min(results[(i, -1)], results[(i, 1)]), i))

        del self.rects[rect_id], group[at]
        if not group:
            del self.groups[rect.depth_key]

        # Split stage by stage: after stage k the center cell is deepened
        # along the first k dims; the stage-k side pair keeps the remaining
        # long dims, so it shares the deepened center's depths and size group.
        rects, groups = self.rects, self.groups
        first = next_id = self._next_id
        nums, depths = rect.nums, rect.depths
        for dim in order:
            head, num, tail = nums[:dim], 3 * nums[dim], nums[dim + 1 :]
            depths = depths[:dim] + (depths[dim] + 1,) + depths[dim + 1 :]
            lower = HyperRect(next_id, head + (num - 2,) + tail, depths, results[(dim, -1)])
            upper = HyperRect(next_id + 1, head + (num + 2,) + tail, depths, results[(dim, 1)])
            group = groups.setdefault(lower.depth_key, [])
            for child in (lower, upper):
                rects[child.id] = child
                bisect.insort(group, child, key=_rank)
            nums = head + (num,) + tail
            next_id += 2
        self._next_id = next_id
        self._add(nums, depths, rect.value)
        return list(range(first, next_id + 1))


def sample_points(rect: HyperRect) -> dict[tuple[int, int], tuple[float, ...]]:
    """Points ``c +/- 3**-(d+1) e_i`` for every longest side of ``rect``.

    Maps ``(dim, sign)`` to the point's unit coordinates, long dims
    ascending and ``-1`` before ``+1``; :meth:`Partition.divide` takes the
    same keys.  Short sides are ignored.  The depth cap is not checked
    here: selection never picks a rect whose longest side is already at
    the cap.

    A point differs from the rect's center in one coordinate, the center
    ``(3 num +/- 2) / (2 * 3**(d+1))`` of the lower or upper third, divided
    as :func:`_center` divides, so every coordinate is correctly rounded.
    """
    center, scale = _center(rect.nums, rect.depths), 2 * 3 ** (rect.depth_key + 1)
    points = {}
    for dim in rect.long_dims():
        head, num, tail = center[:dim], 3 * rect.nums[dim], center[dim + 1 :]
        points[(dim, -1)] = head + ((num - 2) / scale,) + tail
        points[(dim, 1)] = head + ((num + 2) / scale,) + tail
    return points
