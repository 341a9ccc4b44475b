"""Unit-cube search space bookkeeping: hyperrectangles and trisection.

The search always runs on the unit hypercube [0, 1]^n.  Physical factor
ranges (degrees, scale units, pixels) live in :class:`ParamSpace`, which
maps unit points to physical points.

Centers and side lengths are kept in exact integer form: along dimension
``i`` a rectangle has trisection depth ``d_i`` (side length ``3**-d_i``)
and its center coordinate is ``num_i / (2 * 3**d_i)`` with ``num_i`` odd.
This makes size grouping and volume accounting exact, so no floating-point
tolerances are ever needed for the partition itself.  Points need no
identity of their own: a sample point lies strictly inside its rect and off
its center, so it is never a point evaluated before, and once evaluated it
is the center of exactly one live rect.  Callers track a point by the id of
the rect centered there.
"""

from __future__ import annotations

import math
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


def _center_array(nums, depths) -> np.ndarray:
    return np.array([num / (2 * 3**d) for num, d in zip(nums, depths)])


@dataclass
class HyperRect:
    """One subspace of the unit cube.

    ``nums``/``depths`` encode the exact center; ``value`` is the objective
    at the center.  ``depth_key`` is the least trisection depth, which names
    the rect's size group; :func:`warpcheck.selection.group_size` gives the
    group's size.
    """

    id: int
    nums: tuple[int, ...]
    depths: tuple[int, ...]
    value: float = math.nan
    depth_key: int = field(init=False)

    def __post_init__(self) -> None:
        self.depth_key = min(self.depths)

    @property
    def n(self) -> int:
        return len(self.depths)

    def center(self) -> np.ndarray:
        return _center_array(self.nums, self.depths)

    def long_dims(self) -> list[int]:
        d = self.depth_key
        return [i for i, di in enumerate(self.depths) if di == d]

    def volume(self) -> Fraction:
        return Fraction(1, 3 ** sum(self.depths))

    def box(self) -> np.ndarray:
        """Unit-cube bounds, shape (n, 2)."""
        c = self.center()
        half = np.array([0.5 * 3.0**-d for d in self.depths])
        return np.stack([c - half, c + half], axis=1)


@dataclass(frozen=True)
class SamplePoint:
    """A point ``c +/- 3**-(d+1) e_dim`` queued for evaluation."""

    dim: int
    sign: int
    nums: tuple[int, ...]
    depths: tuple[int, ...]

    def center(self) -> np.ndarray:
        return _center_array(self.nums, self.depths)


@dataclass
class DivideResult:
    """Outcome of one trisection: ids in creation order plus the center id."""

    new_ids: list[int]
    pair_ids: dict[tuple[int, int], int] = field(default_factory=dict)
    center_id: int = -1


class Partition:
    """The live set of hyperrectangles tiling the unit cube.

    Mutation is single-writer.  Division replaces the parent with ``2m + 1``
    children where ``m`` is the number of longest sides.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise PartitionError("partition needs at least one dimension")
        self.n = n
        self.rects: dict[int, HyperRect] = {}
        self._next_id = 0
        self._add((1,) * n, (0,) * n)

    def _add(
        self, nums: tuple[int, ...], depths: tuple[int, ...], value: float = math.nan
    ) -> HyperRect:
        rect = HyperRect(self._next_id, nums, depths, value)
        self._next_id += 1
        self.rects[rect.id] = rect
        return rect

    def __len__(self) -> int:
        return len(self.rects)

    def __iter__(self) -> Iterator[HyperRect]:
        return iter(self.rects.values())

    def total_volume(self) -> Fraction:
        return sum((r.volume() for r in self.rects.values()), Fraction(0))

    def divide(self, rect_id: int, results: Mapping[tuple[int, int], float]) -> DivideResult:
        """Trisect a rect along all of its longest sides.

        ``results`` maps ``(dim, sign)`` to the objective value observed at
        the matching :func:`sample_points` point.  Dimensions are divided
        in ascending order of ``w_i = min(value at +, value at -)`` (ties
        broken by lower dimension index), so the best query point ends up
        at the center of one of the two largest children.
        """
        rect = self.rects.get(rect_id)
        if rect is None:
            raise PartitionError(f"rect {rect_id} is not live")
        dims = rect.long_dims()
        expected = {(i, s) for i in dims for s in (-1, 1)}
        if set(results) != expected:
            raise PartitionError(
                f"query results do not cover the sampled points of rect {rect_id}: "
                f"got {sorted(results)}, need {sorted(expected)}"
            )
        for k, v in results.items():
            if not math.isfinite(v):
                raise PartitionError(f"non-finite query result {v} at {k}")

        w = {i: min(results[(i, -1)], results[(i, 1)]) for i in dims}
        order = sorted(dims, key=lambda i: (w[i], i))

        out = DivideResult(new_ids=[])
        del self.rects[rect_id]

        # Split stage by stage: after stage k the center cell is deepened
        # along the first k dims; the stage-k side pair keeps the remaining
        # long dims.
        nums, depths = rect.nums, rect.depths
        for dim in order:
            for sign in (-1, 1):
                child_nums, child_depths = _third(nums, depths, dim, sign)
                child = self._add(child_nums, child_depths, results[(dim, sign)])
                out.new_ids.append(child.id)
                out.pair_ids[(dim, sign)] = child.id
            nums, depths = _third(nums, depths, dim, 0)

        center = self._add(nums, depths, rect.value)
        out.new_ids.append(center.id)
        out.center_id = center.id
        return out


def _third(
    nums: tuple[int, ...], depths: tuple[int, ...], dim: int, sign: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact center of the lower (-1), middle (0) or upper (+1) third of the
    rect centered at ``(nums, depths)``, trisected along ``dim``."""
    nums, depths = list(nums), list(depths)
    nums[dim] = 3 * nums[dim] + 2 * sign
    depths[dim] += 1
    return tuple(nums), tuple(depths)


def sample_points(rect: HyperRect) -> list[SamplePoint]:
    """Points ``c +/- 3**-(d+1) e_i`` for every longest side of ``rect``.

    Short sides are ignored.  The depth cap is not checked here: selection
    never picks a rect whose longest side is already at the cap.
    """
    points = []
    for dim in rect.long_dims():
        for sign in (-1, 1):
            nums, depths = _third(rect.nums, rect.depths, dim, sign)
            points.append(SamplePoint(dim, sign, nums, depths))
    return points
