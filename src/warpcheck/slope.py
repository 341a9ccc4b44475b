"""Local slope estimates and the anytime lower bound on the global minimum.

Slopes are measured in physical parameter units (degrees, scale units,
pixels), so the resulting bound does not depend on how the box was
normalised.  Each division folds its slopes into the one running maximum
of :class:`SlopeTracker`.  The running estimate uses the center-to-sample
Manhattan radius; :func:`cover_radius` is the full Manhattan half-diameter
of the rect, which covers every point of the subspace, so a user-supplied
Lipschitz constant times it gives a sound bound.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .partition import HyperRect, ParamSpace


def sample_distance(depth: int, dim: int, space: ParamSpace) -> float:
    """Physical distance from a rect center to its division samples."""
    return 3.0 ** (-(depth + 1)) * float(space.ranges[dim])


def sample_radius(depths: Sequence[int], space: ParamSpace) -> float:
    """Half the Manhattan sum of per-dimension sample distances."""
    return 0.5 * sum(sample_distance(d, i, space) for i, d in enumerate(depths))


def cover_radius(depths: Sequence[int], space: ParamSpace) -> float:
    """Manhattan half-diameter of the rect in physical units.

    Upper-bounds the L1 distance from the center to any point of the
    subspace, unlike :func:`sample_radius` which stops a third of the way
    to the faces: the faces lie at the sample distance of one depth up.
    """
    return sample_radius([d - 1 for d in depths], space)


def estimate_lower_bound(rect: HyperRect, slope_max: float, space: ParamSpace) -> float:
    """Running estimate of the floor under the objective on ``rect``: center
    value minus the observed slope times :func:`sample_radius`."""
    return rect.value - slope_max * sample_radius(rect.depths, space)


class SlopeTracker:
    """Running maximum of local slopes over every center ever divided.

    The maximum never decreases, matching the ever-growing index set of
    queried centers.  The sample distances of each depth are computed once,
    by :func:`sample_distance`, and kept for the tracker's life.
    """

    def __init__(self, space: ParamSpace) -> None:
        self.space = space
        self.k_max = 0.0
        self._distances: dict[int, list[float]] = {}

    def observe(
        self,
        center_value: float,
        samples: Mapping[tuple[int, int], float],
        depth: int,
    ) -> None:
        """Fold the slopes of one division into :attr:`k_max`.

        ``samples`` maps ``(dim, sign)`` to the value at the matching sample
        point; each slope is ``|center - sample| / distance`` in physical
        units.
        """
        distances = self._distances.get(depth)
        if distances is None:
            distances = [sample_distance(depth, dim, self.space) for dim in range(self.space.n)]
            self._distances[depth] = distances
        k_max = self.k_max
        for (dim, _), value in samples.items():
            slope = abs(center_value - value) / distances[dim]
            if slope > k_max:
                k_max = slope
        self.k_max = k_max
        if not math.isfinite(k_max):
            raise ValueError("non-finite slope observed")
