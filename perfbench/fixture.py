"""The 8x8 fixture classifier and its curated examples, for the benchmark.

A copy of the construction the acceptance suite uses for criterion 6, kept
here so the benchmark's inputs do not change when the test helpers do.  With
``seed=7`` and ``count=56`` :func:`build_fixture_examples` returns exactly
the criterion-6 example set; other seeds give other curated sets drawn the
same way.  See the test module for how the net and populations are built.
"""

from __future__ import annotations

import itertools

import numpy as np

from warpcheck.baselines import grid_search
from warpcheck.netfwd import DenseLayer, FlattenLayer, NetSpec, ReluLayer, forward
from warpcheck.objectives import MarginObjective, TransformDomain

SIZE = 8
N_CLASSES = 2
THRESHOLD = 1.3
CHECKER_GAIN = 1.2
WINDOW_SIGMA = 2.2
WINDOW_OFFSETS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))

_IDX = np.arange(SIZE)
_XX, _YY = np.meshgrid(_IDX, _IDX)
CHECKER = np.cos(np.pi * _XX) * np.cos(np.pi * _YY)


def gaussian_blob(row: float, col: float, sigma: float) -> np.ndarray:
    return np.exp(-(((_XX - col) ** 2 + (_YY - row) ** 2) / (2.0 * sigma**2)))


def build_fixture_net() -> NetSpec:
    """flatten -> dense(64, 7) -> relu -> dense(7, 2).

    Rows 0-4 are normalized brightness windows; rows 5-6 are a
    checkerboard-matched filter and its negation, so the relu pair
    recovers the signed phase response.
    """
    rows = []
    for dr, dc in WINDOW_OFFSETS:
        window = gaussian_blob(3.5 + dr, 3.5 + dc, WINDOW_SIGMA)
        rows.append(window.ravel() / np.linalg.norm(window))
    phase = CHECKER * gaussian_blob(3.5, 3.5, 2.4)
    phase = phase - phase.mean()
    phase = phase / np.linalg.norm(phase)
    rows.append(phase.ravel())
    rows.append(-phase.ravel())
    w1 = np.array(rows)
    b1 = np.zeros(len(rows))
    share = 1.0 / len(WINDOW_OFFSETS)
    w2 = np.array(
        [
            [share] * 5 + [CHECKER_GAIN, -CHECKER_GAIN],
            [-share] * 5 + [-CHECKER_GAIN, CHECKER_GAIN],
        ]
    )
    b2 = np.array([-THRESHOLD, THRESHOLD])
    return NetSpec([FlattenLayer(), DenseLayer(w1, b1), ReluLayer(), DenseLayer(w2, b2)])


def fixture_model(net: NetSpec | None = None):
    net = net or build_fixture_net()
    return lambda batch: forward(net, batch)


def fixture_domain() -> TransformDomain:
    return TransformDomain.from_ranges(rotation=20.0, scale=0.1, translate=(1.6, 1.6))


# rotation x scale x t_hor x t_vrt probe points hitting the +-1 px kinks
_PROBE = np.array(
    list(
        itertools.product(
            [-20.0, -10.0, 0.0, 10.0, 20.0],
            [0.9, 0.95, 1.0, 1.05, 1.1],
            [-1.6, -1.0, -0.5, 0.0, 0.5, 1.0, 1.6],
            [-1.6, -1.0, -0.5, 0.0, 0.5, 1.0, 1.6],
        )
    )
)


def _proxy_worst(objective: MarginObjective) -> float:
    space = objective.domain.param_space()
    coarse = grid_search(objective, space, 5).min_value
    return min(coarse, float(objective(_PROBE).min()))


def _texture(rng: np.random.Generator) -> np.ndarray:
    return np.sin(2.0 * np.pi * (_XX + rng.uniform(0, 3)) / 2.7) * np.sin(
        2.0 * np.pi * (_YY + rng.uniform(0, 3)) / 3.3
    )


def _candidate(rng: np.random.Generator, population: int) -> tuple[np.ndarray, int]:
    sign = rng.choice([-1.0, 1.0])
    if population == 0:
        body = (
            rng.uniform(0.45, 0.55)
            + rng.uniform(0.25, 0.35) * gaussian_blob(3.5, 3.5, 2.6)
            + sign * rng.uniform(0.16, 0.22) * CHECKER
            + rng.uniform(0.06, 0.12) * _texture(rng)
        )
        label = 0
    elif population == 1:
        body = (
            rng.uniform(0.10, 0.16)
            + sign * rng.uniform(0.05, 0.08) * CHECKER
            + rng.uniform(0.02, 0.04) * _texture(rng)
        )
        label = 1
    elif population == 2:
        body = (
            rng.uniform(0.5, 0.6)
            * gaussian_blob(3.5, 3.5, 3.2)
            * (1.0 + rng.uniform(0.85, 0.95) * CHECKER)
        )
        label = 0
    else:
        body = (
            rng.uniform(0.5, 0.6)
            * gaussian_blob(3.5, 3.5, 3.2)
            * (1.0 - rng.uniform(0.85, 0.95) * CHECKER)
        )
        label = 1
    return np.clip(body, 0.0, 1.0)[:, :, None], label


def build_fixture_examples(
    count: int = 56,
    seed: int = 7,
    decisive: float = 0.08,
    net: NetSpec | None = None,
    domain: TransformDomain | None = None,
) -> list[tuple[np.ndarray, int]]:
    """Labelled 8x8 images whose worst-case margins are decisively signed."""
    rng = np.random.default_rng(seed)
    model = fixture_model(net)
    domain = domain or fixture_domain()
    examples: list[tuple[np.ndarray, int]] = []
    population = 0
    attempts = 0
    while len(examples) < count:
        attempts += 1
        if attempts > count * 60:
            raise RuntimeError("fixture curation rejected too many candidates")
        img, label = _candidate(rng, population)
        objective = MarginObjective(model, img, label, domain)
        if objective.clean_margin <= decisive:
            continue
        if abs(_proxy_worst(objective)) < decisive:
            continue
        examples.append((img, label))
        population = (population + 1) % 4
    return examples
