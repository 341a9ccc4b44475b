"""Worst-case geometric transformation search and robustness checking.

A black-box global minimiser over a box of transformation factors
(rotation, scale, translation) built on trisecting dividing-rectangles
search, plus the pieces needed to check image classifiers end to end:
affine warps with bilinear sampling, margin objectives, a small inference
engine, reference baselines, and a command-line front end.
"""

from .baselines import SearchResult, grid_search, match_metric, random_pick
from .engine import (
    FALSIFIED,
    UNDECIDED,
    VERIFIED_ESTIMATE,
    BudgetConfig,
    ObjectiveError,
    RunTrace,
    Search,
    VerificationResult,
    run,
    verify,
)
from .geometry import (
    IDENTITY,
    TransformParams,
    build_matrix,
    build_matrix_batch,
    lipschitz_bound,
    validate_image,
    warp,
    warp_batch,
    warp_coordinate_grads,
    warp_grad,
)
from .images import ImageFormatError, read_image, write_image
from .netfwd import NetSpec, ShapeError, WeightFormatError, forward, load_weights, save_weights
from .objectives import (
    MarginObjective,
    TestFunction,
    TransformDomain,
    make_multi_basin,
    margin_batch,
    test_function,
)
from .partition import HyperRect, ParamSpace, Partition, PartitionError, sample_points
from .selection import select_po
from .slope import SlopeTracker, estimate_lower_bound

__version__ = "0.1.0"

__all__ = [
    "BudgetConfig",
    "FALSIFIED",
    "HyperRect",
    "IDENTITY",
    "ImageFormatError",
    "MarginObjective",
    "NetSpec",
    "ObjectiveError",
    "ParamSpace",
    "Partition",
    "PartitionError",
    "RunTrace",
    "Search",
    "SearchResult",
    "ShapeError",
    "SlopeTracker",
    "TestFunction",
    "TransformDomain",
    "TransformParams",
    "UNDECIDED",
    "VERIFIED_ESTIMATE",
    "VerificationResult",
    "WeightFormatError",
    "build_matrix",
    "build_matrix_batch",
    "estimate_lower_bound",
    "forward",
    "grid_search",
    "lipschitz_bound",
    "load_weights",
    "make_multi_basin",
    "margin_batch",
    "match_metric",
    "random_pick",
    "read_image",
    "run",
    "sample_points",
    "save_weights",
    "select_po",
    "test_function",
    "validate_image",
    "verify",
    "warp",
    "warp_batch",
    "warp_coordinate_grads",
    "warp_grad",
    "write_image",
    "__version__",
]
