"""Reference search baselines: exhaustive grid and seeded random pick.

Both return the exact minimum over their sampled points with deterministic
tie-breaking (lowest linear index wins).  The grid includes box endpoints,
which the adaptive search never touches, making it a strictly stronger
oracle at equal resolution.  Random sampling uses numpy's PCG64 generator,
a published algorithm with stable streams, so runs are reproducible across
platforms; for a fixed seed the first ``n`` samples of a longer run equal
a shorter run's samples.  A NaN or infinite objective value raises
``ValueError``, since it has no place in the order the minimum is taken in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import ParamSpace


@dataclass(frozen=True)
class SearchResult:
    """Minimum found by a baseline sweep."""

    min_value: float
    argmin: np.ndarray
    n_points: int


def _batched_min(objective, points: np.ndarray, batch_size: int) -> SearchResult:
    best = np.inf
    best_idx = -1
    for start in range(0, len(points), batch_size):
        chunk = points[start : start + batch_size]
        values = np.asarray(objective(chunk), dtype=float)
        if values.shape != (len(chunk),):
            raise ValueError(
                f"objective returned shape {values.shape}, expected ({len(chunk)},)"
            )
        # argmin would land on a NaN, which then never compares below best
        if not np.all(np.isfinite(values)):
            raise ValueError("objective returned a non-finite value")
        idx = int(np.argmin(values))
        if values[idx] < best:
            best = float(values[idx])
            best_idx = start + idx
    return SearchResult(min_value=best, argmin=points[best_idx].copy(), n_points=len(points))


def grid_search(
    objective,
    space: ParamSpace,
    points_per_dim: int,
    max_points: int = 2_000_000,
    batch_size: int = 65536,
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
    return _batched_min(objective, points, batch_size)


def random_pick(
    objective,
    space: ParamSpace,
    n_samples: int,
    seed: int,
    batch_size: int = 65536,
) -> SearchResult:
    """Uniform samples over the box from a seeded PCG64 stream."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    points = space.lows + rng.random((n_samples, space.n)) * space.ranges
    return _batched_min(objective, points, batch_size)


def match_metric(method_min: float, oracle_min: float, tolerance: float = 0.0) -> bool:
    """Whether a method's minimum matches the oracle's.

    True when the method found a value equal to or smaller than the oracle
    minimum, up to ``tolerance``.
    """
    if not (np.isfinite(method_min) and np.isfinite(oracle_min)):
        raise ValueError("match_metric needs finite minima")
    return bool(method_min <= oracle_min + tolerance)
