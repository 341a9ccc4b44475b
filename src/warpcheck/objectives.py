"""Objectives: classifier margins under warps, and synthetic test functions.

The margin of a prediction is the true-class logit minus the best other
logit; it is negative exactly when the classifier picks another class.  A
:class:`MarginObjective` composes matrix building, warping, and a model
forward pass into the batch evaluator consumed by the search engine.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .geometry import FACTORS, IDENTITY, build_matrix_batch, validate_image, warp_batch
from .partition import ParamSpace


def margin_loss(logits, label: int) -> float:
    """True-class logit minus the largest competing logit."""
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 1:
        raise ValueError("margin needs a vector of at least two logits")
    return float(margin_batch(logits[None], label)[0])


def margin_batch(logits: np.ndarray, label: int) -> np.ndarray:
    """True-class logit minus the largest competing logit, per row of (B, K) logits."""
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ValueError("margin needs (B, K) logits with K >= 2")
    if not 0 <= label < logits.shape[1]:
        raise ValueError(f"label {label} out of range for {logits.shape[1]} classes")
    masked = logits.copy()
    masked[:, label] = -np.inf
    return logits[:, label] - masked.max(axis=1)


@dataclass(frozen=True)
class TransformDomain:
    """Axis-aligned box of admissible transformation factors.

    Each factor is a ``(lo, hi)`` interval or ``None`` when held at its
    identity value.  The search runs only over the active factors, in the
    fixed order rotation, scale, horizontal, vertical translation.
    """

    rotation: tuple[float, float] | None = None
    scale: tuple[float, float] | None = None
    t_hor: tuple[float, float] | None = None
    t_vrt: tuple[float, float] | None = None

    @classmethod
    def from_ranges(
        cls,
        rotation: float = 0.0,
        scale: float = 0.0,
        translate: tuple[float, float] = (0.0, 0.0),
    ) -> "TransformDomain":
        """Symmetric ranges: rotation within +-r degrees, scale within
        1 +- s, translation within +-t pixels per axis.  Zero-width
        factors are dropped from the search."""

        def sym(center: float, radius: float):
            if radius == 0.0:
                return None
            if radius < 0.0:
                raise ValueError(f"negative range radius {radius}")
            return (center - radius, center + radius)

        return cls(
            rotation=sym(0.0, float(rotation)),
            scale=sym(1.0, float(scale)),
            t_hor=sym(0.0, float(translate[0])),
            t_vrt=sym(0.0, float(translate[1])),
        )

    @property
    def factors(self) -> tuple[str, ...]:
        return tuple(f for f in FACTORS if getattr(self, f) is not None)

    def param_space(self) -> ParamSpace:
        active = self.factors
        if not active:
            raise ValueError("no transformation factor has a nonzero range")
        return ParamSpace([getattr(self, f) for f in active])

    def factor_columns(self, thetas: np.ndarray) -> dict[str, np.ndarray]:
        """Split (B, n) physical points into per-factor columns with
        identity values filled in for inactive factors."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        active = self.factors
        if thetas.shape[1] != len(active):
            raise ValueError(
                f"expected {len(active)} factor columns ({active}), got {thetas.shape[1]}"
            )
        return {
            f: thetas[:, active.index(f)] if f in active
            else np.full(len(thetas), getattr(IDENTITY, f))
            for f in FACTORS
        }


class MarginObjective:
    """Batch margin evaluator over transformation factors.

    ``model`` maps a (B, H, W, C) image batch to (B, K) logits.  Calling
    the objective with (B, n) physical factor points warps the clean image
    once per point, runs one forward pass for the whole batch, and returns
    the margins.  Results depend only on the points, not on batch order.
    """

    def __init__(
        self,
        model: Callable[[np.ndarray], np.ndarray],
        image,
        label: int,
        domain: TransformDomain,
        mode: str = "cos-scaled",
    ) -> None:
        self.model = model
        self.image = validate_image(image, check_range=True)
        self.label = int(label)
        self.domain = domain
        self.mode = mode

    def __call__(self, thetas) -> np.ndarray:
        matrices = build_matrix_batch(**self.domain.factor_columns(thetas), mode=self.mode)
        warped = warp_batch(self.image, matrices)
        logits = np.asarray(self.model(warped), dtype=float)
        return margin_batch(logits, self.label)

    @functools.cached_property
    def clean_margin(self) -> float:
        """Margin on the untouched input (no warp in the path), computed once."""
        logits = np.asarray(self.model(self.image[None]), dtype=float)
        return margin_loss(logits[0], self.label)


@dataclass(frozen=True)
class TestFunction:
    """Closed-form objective with known minimum for optimiser validation."""

    name: str
    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    bounds: tuple[tuple[float, float], ...]
    lipschitz: float  # per-coordinate slope bound over the box
    min_value: float
    min_loc: np.ndarray

    def __call__(self, thetas) -> np.ndarray:
        return self.fn(np.atleast_2d(np.asarray(thetas, dtype=float)))

    def param_space(self) -> ParamSpace:
        return ParamSpace(self.bounds)


def make_multi_basin(seed: int) -> TestFunction:
    """A deterministic multi-modal instance: cosine waves over a shallow bowl.

    Instances differ by seed; the minimum location is not analytic, so
    tests pin it with a dense grid.  The recorded Lipschitz value is an
    upper bound from the wave amplitudes and frequencies.
    """
    rng = np.random.default_rng(seed)
    n_waves = 4
    amps = rng.uniform(0.08, 0.22, size=n_waves)
    freqs = rng.integers(1, 4, size=(n_waves, 2)).astype(float)
    freqs *= rng.choice([-1.0, 1.0], size=(n_waves, 2))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_waves)
    center = rng.uniform(0.25, 0.75, size=2)

    def fn(thetas: np.ndarray) -> np.ndarray:
        waves = sum(
            a * np.cos(2.0 * math.pi * (thetas @ k) + p)
            for a, k, p in zip(amps, freqs, phases)
        )
        bowl = 0.5 * np.sum((thetas - center) ** 2, axis=1)
        return waves + bowl

    k_bound = float(sum(2.0 * math.pi * a * np.abs(k).max() for a, k in zip(amps, freqs)) + 1.0)
    return TestFunction(
        name=f"multi-basin[{seed}]",
        dim=2,
        fn=fn,
        bounds=((0.0, 1.0), (0.0, 1.0)),
        lipschitz=k_bound,
        min_value=math.nan,  # pinned per instance by a grid oracle in tests
        min_loc=np.array([math.nan, math.nan]),
    )


# Canonical multi-basin fixture (seed 0): minimum pinned by a 1000x1000
# inclusive grid over the unit square (20 grid-local minima).
MULTI_BASIN_SEED = 0
MULTI_BASIN_MIN_VALUE = -0.43811780709552245
MULTI_BASIN_MIN_LOC = (0.7527527527527528, 0.6396396396396397)


def test_function(name: str) -> TestFunction:
    """Look up a validation objective by name.

    Known names: ``abs1d``, ``separable-abs-<n>d``, ``quadratic-bowl``
    (optionally ``quadratic-bowl-<n>d``), ``multi-basin``.
    """
    if name == "multi-basin":
        return replace(
            make_multi_basin(MULTI_BASIN_SEED),
            name=name,
            min_value=MULTI_BASIN_MIN_VALUE,
            min_loc=np.array(MULTI_BASIN_MIN_LOC),
        )
    m = re.fullmatch(r"abs(1)d|separable-abs-(\d+)d|quadratic-bowl(?:-(\d+)d)?", name)
    if m is None:
        raise ValueError(f"unknown test function {name!r}")
    dim = int(m.group(1) or m.group(2) or m.group(3) or 2)
    if dim < 1:
        raise ValueError(f"bad dimension in {name!r}")
    bowl = name.startswith("quadratic-bowl")
    target = np.full(dim, 0.5) if bowl else np.resize([0.3, 0.7], dim)  # 0.3, 0.7, 0.3, ...
    shape = np.square if bowl else np.abs
    fn = lambda t: shape(t - target).sum(axis=1)
    return TestFunction(name, dim, fn, ((0.0, 1.0),) * dim, 1.0, 0.0, target)
