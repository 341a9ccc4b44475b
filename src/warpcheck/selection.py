"""Potentially-optimal subspace selection.

The helpers read numbers: a rect's center value and its group's size.
:func:`select_po` reads a :class:`HyperRect`'s ``id`` and ``value`` alone.
Sizes are grouped by the minimum trisection depth; group ``k`` has size
``group_size(k) = 0.5 * 3**-k`` (from :mod:`warpcheck.partition`), computed
once per group per call; sizes fall strictly as ``k`` rises, so they compare
as depth keys do.  :func:`select_po` reads the size groups as
``Partition.groups`` keeps them, each in ``(value, id)`` order as the
partition divides, and never regroups or re-sorts a rect.  The depth cap
lives here as well: :func:`select_po` never picks a rect at
``max_depth``, so every rect it returns has sample points.

A rect is potentially optimal when some Lipschitz constant makes it the
most promising of its size.  :func:`slope_bracket` gives those constants
as one interval; a rect's score is its width.  Within a size group the
score never rises as the center value rises (the slope toward larger rects
falls, the slope toward smaller rects rises, and float rounding keeps both
monotone).  So the ``alpha`` best-scoring rects of a group are
its ``alpha`` lowest center values, cut at the first non-positive score;
selection brackets at most ``alpha`` rects per group, never the rest, and
reads one minimum per group.

Selection conventions (empty-set cases):
  * the minimum slope over an empty larger-size set is ``+inf``;
  * the maximum slope over the smaller-size set is floored at 0, since
    only positive Lipschitz constants are admissible.

These keep every largest rect eligible, so at least one rect is selected
whenever any rect is still divisible.
"""

from __future__ import annotations

import math
from typing import Mapping

from .partition import HyperRect, group_size


def slope_bracket(value: float, size: float, minima: Mapping[float, float]) -> tuple[float, float]:
    """Admissible local-slope constants for a rect, as ``(lower, upper)``.

    ``upper`` is the least slope ``(value_q - value_p)/(size_q - size_p)``
    toward a strictly larger group, ``+inf`` when there is none; ``lower``
    is the greatest slope from a strictly smaller group, floored at 0.  For
    a fixed group the extreme slope comes from its least center value, so
    ``minima`` maps each group's size to that value alone.
    """
    lower, upper = 0.0, math.inf
    for other, vmin in minima.items():
        if other > size:
            slope = (vmin - value) / (other - size)
            if slope < upper:
                upper = slope
        elif other < size:
            slope = (value - vmin) / (size - other)
            if slope > lower:
                lower = slope
    return lower, upper


def sufficient_descent(value: float, size: float, l_min: float, tau: float, upper: float) -> bool:
    """Whether dividing a rect can improve ``l_min`` by more than ``tau``.

    ``upper`` is the upper end of the rect's :func:`slope_bracket`; with no
    larger rects it is ``+inf`` and the test passes.
    """
    if l_min != 0.0:
        return tau <= (l_min - value) / abs(l_min) + size * upper / abs(l_min)
    return value <= size * upper


def select_po(
    groups: Mapping[int, list[HyperRect]],
    alpha: int,
    tau: float,
    l_min: float,
    max_depth: int,
) -> list[int]:
    """Potentially-optimal rect ids, grouped pass over sizes above the depth cap.

    ``groups`` maps each depth key to its rects in ``(value, id)`` order,
    as ``Partition.groups`` keeps them.  For each size group still
    divisible (depth key below ``max_depth``) the top-``alpha``
    positive-score rects are kept if they also pass the sufficient-descent
    test.  Score ties break on lower center value, then lower id.  Ids
    come back ordered by group (largest size first) then rank.
    """
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    keys = sorted(groups)
    minima = {group_size(key): groups[key][0].value for key in keys}
    selected: list[int] = []
    for key, size in zip(keys, minima):
        if key >= max_depth:
            break
        for rect in groups[key][:alpha]:
            lower, upper = slope_bracket(rect.value, size, minima)
            if upper - lower <= 0.0:
                break
            if sufficient_descent(rect.value, size, l_min, tau, upper):
                selected.append(rect.id)
    return selected
