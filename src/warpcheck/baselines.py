"""Reference search baselines: exhaustive grid and seeded random pick.

Both return the exact minimum over their sampled points with deterministic
tie-breaking (lowest linear index wins).  The grid includes box endpoints,
which the adaptive search never touches, making it a strictly stronger
oracle at equal resolution.  Random sampling uses numpy's PCG64 generator,
a published algorithm with stable streams, so runs are reproducible across
platforms; for a fixed seed the first ``n`` samples of a longer run equal
a shorter run's samples.  Both sweeps build their points and query the
objective ``_CHUNK_POINTS`` at a time, keeping only a running minimum, so
their memory does not grow with the number of points.  The objective is
called through :func:`engine.evaluate`, so a NaN or infinite value, which
has no place in the order the minimum is taken in, raises its
``ObjectiveError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import evaluate
from .partition import ParamSpace

# points built and sent to the objective at once; no sweep holds more points
# or values than this
_CHUNK_POINTS = 8192


@dataclass(frozen=True)
class SearchResult:
    """Minimum found by a baseline sweep."""

    min_value: float
    argmin: np.ndarray
    n_points: int


def _argmin(objective, n_points: int, chunk) -> SearchResult:
    """Running minimum over ``chunk(start, stop)``, the points with linear
    indices ``start`` to ``stop``, asked for in order: within a chunk the
    first least value wins, and a later chunk only on a strictly lower one,
    so the lowest linear index wins ties."""
    best_value, best_point = np.inf, None
    for start in range(0, n_points, _CHUNK_POINTS):
        points = chunk(start, min(start + _CHUNK_POINTS, n_points))
        values = evaluate(objective, points)
        i = int(np.argmin(values))
        if values[i] < best_value:  # values are finite, so the first chunk sets it
            best_value, best_point = float(values[i]), points[i].copy()
    return SearchResult(min_value=best_value, argmin=best_point, n_points=n_points)


def grid_search(objective, space: ParamSpace, points_per_dim: int) -> SearchResult:
    """Evaluate the full Cartesian grid, endpoints included, in the order of
    ``meshgrid(indexing="ij")``: the last factor varies fastest."""
    if points_per_dim < 2:
        raise ValueError("points_per_dim must be at least 2")
    total = points_per_dim**space.n
    axes = [np.linspace(lo, hi, points_per_dim) for lo, hi in space.bounds]
    shape = (points_per_dim,) * space.n

    def chunk(start, stop):
        index = np.unravel_index(np.arange(start, stop), shape)
        return np.stack([axis[i] for axis, i in zip(axes, index)], axis=1)

    return _argmin(objective, total, chunk)


def random_pick(objective, space: ParamSpace, n_samples: int, seed: int) -> SearchResult:
    """Uniform samples over the box from a seeded PCG64 stream, drawn one
    chunk at a time; successive draws continue the stream, so the points are
    those of one ``(n_samples, n)`` draw."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    chunk = lambda start, stop: space.lows + rng.random((stop - start, space.n)) * space.ranges
    return _argmin(objective, n_samples, chunk)


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
