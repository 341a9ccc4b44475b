"""Local slope estimates and the anytime lower bound on the global minimum.

Slopes are measured in physical parameter units (degrees, scale units,
pixels), so the resulting bound does not depend on how the box was
normalised.  The default bound radius is the center-to-sample Manhattan
radius used by the estimate; ``cover=True`` switches to the full Manhattan
half-diameter of the rect, which actually covers every point of the
subspace and turns a user-supplied Lipschitz constant into a sound bound.
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
    to the faces.
    """
    return 0.5 * sum(3.0 ** (-d) * float(space.ranges[i]) for i, d in enumerate(depths))


def estimate_lower_bound(
    rect: HyperRect,
    slope_max: float,
    space: ParamSpace,
    cover: bool = False,
) -> float:
    """Floor under the objective on ``rect``: center value minus slope times radius.

    With ``cover=False`` this is the running estimate driven by observed
    slopes, applied to the best rect.  With ``cover=True`` and a true
    Lipschitz constant it is a certificate for every point of ``rect``,
    so its minimum over the live rects, which tile the box, is a sound
    bound on the global minimum.
    """
    radius = cover_radius(rect.depths, space) if cover else sample_radius(rect.depths, space)
    return rect.value - slope_max * radius


class SlopeTracker:
    """Running maximum of local slopes over every center ever divided.

    The maximum never decreases, matching the ever-growing index set of
    queried centers.
    """

    def __init__(self, space: ParamSpace) -> None:
        self.space = space
        self.k_max = 0.0

    def observe(
        self,
        center_value: float,
        samples: Mapping[tuple[int, int], float],
        depth: int,
    ) -> float:
        """Record slopes from one division and return the center's local slope.

        ``samples`` maps ``(dim, sign)`` to the value at the matching sample
        point; the local slope is the largest ``|center - sample| / distance``
        in physical units.
        """
        k_c = 0.0
        for (dim, _), value in samples.items():
            slope = abs(center_value - value) / sample_distance(depth, dim, self.space)
            if slope > k_c:
                k_c = slope
        if k_c > self.k_max:
            self.k_max = k_c
        if not math.isfinite(self.k_max):
            raise ValueError("non-finite slope observed")
        return k_c
