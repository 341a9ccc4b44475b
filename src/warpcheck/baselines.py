"""Reference search baselines: exhaustive grid and seeded random pick.

Both return the exact minimum over their sampled points with deterministic
tie-breaking (lowest linear index wins).  The grid includes box endpoints,
which the adaptive search never touches, making it a strictly stronger
oracle at equal resolution.  Random sampling uses numpy's PCG64 generator,
a published algorithm with stable streams, so runs are reproducible across
platforms; for a fixed seed the first ``n`` samples of a longer run equal
a shorter run's samples.  The objective is called through
:func:`engine.evaluate`, so a NaN or infinite value, which has no place in
the order the minimum is taken in, raises its ``ObjectiveError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import evaluate
from .partition import ParamSpace

# grid_search's default cap; compare checks its grid against it before searching
MAX_GRID_POINTS = 2_000_000
# points per objective call, which bounds the memory of one call's warped images
_CHUNK_POINTS = 65536


@dataclass(frozen=True)
class SearchResult:
    """Minimum found by a baseline sweep."""

    min_value: float
    argmin: np.ndarray
    n_points: int


def _argmin(objective, points: np.ndarray) -> SearchResult:
    values = np.concatenate([evaluate(objective, points[start : start + _CHUNK_POINTS])
                             for start in range(0, len(points), _CHUNK_POINTS)])
    best = int(np.argmin(values))
    return SearchResult(min_value=float(values[best]), argmin=points[best].copy(),
                        n_points=len(points))


def grid_search(
    objective,
    space: ParamSpace,
    points_per_dim: int,
    max_points: int = MAX_GRID_POINTS,
) -> SearchResult:
    """Evaluate the full Cartesian grid, endpoints included.

    Raises when ``points_per_dim ** n`` exceeds ``max_points``.
    """
    if points_per_dim < 2:
        raise ValueError("points_per_dim must be at least 2")
    total = points_per_dim**space.n
    if total > max_points:
        raise ValueError(
            f"grid of {total} points exceeds the budget of {max_points}; "
            "lower points_per_dim or raise max_points"
        )
    axes = [np.linspace(lo, hi, points_per_dim) for lo, hi in space.bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    return _argmin(objective, points)


def random_pick(objective, space: ParamSpace, n_samples: int, seed: int) -> SearchResult:
    """Uniform samples over the box from a seeded PCG64 stream."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    points = space.lows + rng.random((n_samples, space.n)) * space.ranges
    return _argmin(objective, points)


def match_metric(method_min: float, oracle_min: float, tolerance: float = 0.0) -> bool:
    """Whether a method's minimum matches the oracle's.

    True when the method found a value equal to or smaller than the oracle
    minimum, up to ``tolerance``, which must be finite and non-negative.
    """
    if not (np.isfinite(method_min) and np.isfinite(oracle_min)):
        raise ValueError("match_metric needs finite minima")
    if not 0.0 <= tolerance < np.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")
    return bool(method_min <= oracle_min + tolerance)
