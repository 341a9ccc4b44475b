"""Potentially-optimal subspace selection.

The functions here read only ``id``, ``depth_key``, ``value`` and ``size``,
so they run unchanged on the live rects of a partition (:class:`HyperRect`)
or on synthetic ``RectStat`` records in tests.  Sizes are grouped by the
minimum trisection depth; group ``k`` has size ``0.5 * 3**-k``.

Within a size group the score :func:`optimal_score` never rises as the
center value rises (the slope toward larger rects falls, the slope toward
smaller rects rises, and float rounding keeps both monotone).  So the
``alpha`` best-scoring rects of a group are its ``alpha`` lowest center
values, cut at the first non-positive score; selection walks at most
``alpha`` rects per group and never scores the rest.

Selection conventions (empty-set cases):
  * the minimum slope over an empty larger-size set is ``+inf``;
  * the maximum slope over the smaller-size set is floored at 0, since
    only positive Lipschitz constants are admissible.

These keep every largest rect eligible, so at least one rect is selected
whenever any rect is still divisible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .partition import HyperRect


@dataclass(frozen=True)
class RectStat:
    """Stand-in for a live rect: the fields selection reads."""

    id: int
    depth_key: int
    value: float

    @property
    def size(self) -> float:
        return group_size(self.depth_key)


Rect = HyperRect | RectStat


def group_size(depth_key: int) -> float:
    return 0.5 * 3.0 ** (-depth_key)


def group_by_size(stats: Iterable[Rect]) -> dict[int, list[Rect]]:
    """Depth key -> rects of that size ordered by (value, id), keys ascending."""
    groups: dict[int, list[Rect]] = {}
    for s in stats:
        groups.setdefault(s.depth_key, []).append(s)
    return {k: sorted(groups[k], key=lambda s: (s.value, s.id)) for k in sorted(groups)}


def group_minima(groups: Mapping[int, Sequence[Rect]]) -> dict[int, float]:
    """Least center value per group, from :func:`group_by_size` output."""
    return {k: members[0].value for k, members in groups.items()}


def larger_slope(stat: Rect, minima: Mapping[int, float]) -> float:
    """min over strictly larger groups of (value_q - value_p)/(size_q - size_p).

    For a fixed larger group the minimising rect is the one with the least
    center value, so only group minima are needed.  Empty set -> +inf.
    """
    best = math.inf
    for key, vmin in minima.items():
        if key < stat.depth_key:
            slope = (vmin - stat.value) / (group_size(key) - stat.size)
            if slope < best:
                best = slope
    return best


def smaller_slope(stat: Rect, minima: Mapping[int, float]) -> float:
    """max over strictly smaller groups, floored at 0."""
    best = 0.0
    for key, vmin in minima.items():
        if key > stat.depth_key:
            slope = (stat.value - vmin) / (stat.size - group_size(key))
            if slope > best:
                best = slope
    return best


def optimal_score(stat: Rect, minima: Mapping[int, float]) -> float:
    """Width of the admissible local-slope bracket for ``stat``.

    Positive means some slope constant makes this rect the most promising
    of its size; rects in the largest group score ``+inf``.
    """
    return larger_slope(stat, minima) - smaller_slope(stat, minima)


def sufficient_descent(
    stat: Rect,
    l_min: float,
    tau: float,
    minima: Mapping[int, float],
) -> bool:
    """Whether dividing ``stat`` can improve ``l_min`` by more than ``tau``.

    Uses the least slope toward larger rects as the admissible-constant
    upper bound; with no larger rects the potential improvement is
    unbounded and the test passes.
    """
    upper = larger_slope(stat, minima)
    if l_min != 0.0:
        return tau <= (l_min - stat.value) / abs(l_min) + stat.size * upper / abs(l_min)
    return stat.value <= stat.size * upper


def select_po(
    stats: Iterable[Rect],
    alpha: int,
    tau: float,
    l_min: float,
    max_depth: int,
) -> list[int]:
    """Potentially-optimal rect ids, grouped pass over sizes above the depth cap.

    For each size group still divisible (depth key below ``max_depth``)
    the top-``alpha`` positive-score rects are kept if they also pass the
    sufficient-descent test.  Score ties break on lower center value, then
    lower id.  Ids come back ordered by group (largest size first) then
    rank.
    """
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    groups = group_by_size(stats)
    minima = group_minima(groups)
    selected: list[int] = []
    for key, group in groups.items():
        if key >= max_depth:
            continue
        for rect in group[:alpha]:
            if optimal_score(rect, minima) <= 0.0:
                break
            if sufficient_descent(rect, l_min, tau, minima):
                selected.append(rect.id)
    return selected
