"""Affine warps with bilinear sampling, their derivatives, and slope bounds.

Coordinate convention: sampling coordinates are pixel-indexed with the
image center at the origin, so rotation and scaling pivot about the center
and translations are in pixels.  The transformation matrix maps an output
pixel's coordinates back into the source image (inverse warping); source
positions outside the grid contribute zero.

Bilinear sampling reads the four corners of every source position with one
flat-index gather each from a copy of the image with a two-pixel ring of
zeros; floored coordinates are clipped into that ring, so out-of-grid corners
read zero without a bounds mask.  The interpolation weights and their
summation order are fixed, so an identity matrix reproduces the input bit
for bit.

The default matrix applies the scale factor to the cosine entries only:

    [[s*cos(r), -sin(r), tx],
     [sin(r),    s*cos(r), ty]]

``mode="similarity"`` instead composes a rotation with an isotropic
scaling, which multiplies the sine entries by ``s`` as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FACTORS = ("rotation", "scale", "t_hor", "t_vrt")
MODES = ("cos-scaled", "similarity")


@dataclass(frozen=True)
class TransformParams:
    """Rotation (degrees), isotropic scale, and translation (pixels)."""

    rotation: float = 0.0
    scale: float = 1.0
    t_hor: float = 0.0
    t_vrt: float = 0.0


IDENTITY = TransformParams()


def validate_image(image, check_range: bool = False) -> np.ndarray:
    """Coerce to a float (H, W, C) array, optionally enforcing [0, 1]."""
    arr = np.asarray(image, dtype=float)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] < 1:
        raise ValueError(f"expected an (H, W) or (H, W, C) image, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("image contains non-finite values")
    if check_range and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError("pixel values must lie in [0, 1]")
    return arr


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown matrix mode {mode!r}, expected one of {MODES}")


def build_matrix(params: TransformParams, mode: str = "cos-scaled") -> np.ndarray:
    """2x3 source-lookup matrix for the given factors."""
    return build_matrix_batch(params.rotation, params.scale, params.t_hor, params.t_vrt, mode)


def build_matrix_batch(
    rotation: np.ndarray,
    scale: np.ndarray,
    t_hor: np.ndarray,
    t_vrt: np.ndarray,
    mode: str = "cos-scaled",
) -> np.ndarray:
    """Source-lookup matrices; inputs broadcast to a shape S, output S + (2, 3)."""
    _check_mode(mode)
    rotation, scale, t_hor, t_vrt = np.broadcast_arrays(
        np.asarray(rotation, dtype=float),
        np.asarray(scale, dtype=float),
        np.asarray(t_hor, dtype=float),
        np.asarray(t_vrt, dtype=float),
    )
    r = np.radians(rotation)
    c, s = np.cos(r), np.sin(r)
    sin_scale = scale if mode == "similarity" else np.ones_like(scale)
    out = np.empty(rotation.shape + (2, 3))
    out[..., 0, 0] = scale * c
    out[..., 0, 1] = -sin_scale * s
    out[..., 0, 2] = t_hor
    out[..., 1, 0] = sin_scale * s
    out[..., 1, 1] = scale * c
    out[..., 1, 2] = t_vrt
    return out


def matrix_grad(params: TransformParams, factor: str, mode: str = "cos-scaled") -> np.ndarray:
    """2x3 derivative of the matrix entries w.r.t. one factor.

    Rotation derivatives are per degree, matching the interface units.
    """
    _check_mode(mode)
    if factor not in FACTORS:
        raise ValueError(f"unknown factor {factor!r}, expected one of {FACTORS}")
    r = math.radians(params.rotation)
    c, s = math.cos(r), math.sin(r)
    if factor == "t_hor":
        return np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    if factor == "t_vrt":
        return np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    if factor == "scale":
        if mode == "similarity":
            return np.array([[c, -s, 0.0], [s, c, 0.0]])
        return np.array([[c, 0.0, 0.0], [0.0, c, 0.0]])
    # rotation, converted to per-degree
    k = math.pi / 180.0
    sin_scale = params.scale if mode == "similarity" else 1.0
    return k * np.array(
        [
            [-params.scale * s, -sin_scale * c, 0.0],
            [sin_scale * c, -params.scale * s, 0.0],
        ]
    )


def _source_coords(matrices: np.ndarray, height: int, width: int):
    """Source row/col arrays (B, H, W) for each output pixel."""
    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0
    xs = np.arange(width) - cx
    ys = np.arange(height) - cy
    xg, yg = np.meshgrid(xs, ys)  # (H, W)
    a = matrices[:, None, None, :, :]  # (B, 1, 1, 2, 3)
    src_x = a[..., 0, 0] * xg + a[..., 0, 1] * yg + a[..., 0, 2]
    src_y = a[..., 1, 0] * xg + a[..., 1, 1] * yg + a[..., 1, 2]
    return src_y + cy, src_x + cx, xg, yg


def _corners(image: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Bilinear corners of each source position in one gather per corner.

    Returns ``(fr, fc, [v00, v01, v10, v11])``: the fractional offsets with
    a trailing channel axis, and the pixel values at (r0, c0), (r0, c0 + 1),
    (r0 + 1, c0) and (r0 + 1, c0 + 1), each (..., C) and freshly allocated.
    The image gets a two-pixel ring of zeros and the floored coordinates are
    clipped into it, so out-of-grid corners read zero without a mask.  Each
    ring pixel is its nearest edge pixel times 0.0, which keeps the sign of
    the zero that masking an edge pixel gives.
    """
    h, w, c = image.shape
    padded = np.pad(image, ((2, 2), (2, 2), (0, 0)), mode="edge")
    padded[:2] *= 0.0
    padded[-2:] *= 0.0
    padded[:, :2] *= 0.0
    padded[:, -2:] *= 0.0
    flat = padded.reshape(-1, c)
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    fr = (rows - r0)[..., None]
    fc = (cols - c0)[..., None]
    stride = w + 4
    idx = np.clip(r0, -2, h, out=r0)
    idx *= stride
    idx += np.clip(c0, -2, w, out=c0)
    idx += 2 * stride + 2
    corners = [np.take(flat[offset:], idx, axis=0) for offset in (0, 1, stride, stride + 1)]
    return fr, fc, corners


def warp_batch(image, matrices: np.ndarray) -> np.ndarray:
    """Apply a batch of source-lookup matrices; output (B, H, W, C).

    Each output pixel takes the bilinear interpolation of the source image
    at its mapped position, every channel alike, zero outside the grid.
    The result is linear in the pixel values, and an identity matrix
    reproduces the input bit for bit.
    """
    img = validate_image(image)
    h, w, _ = img.shape
    matrices = np.asarray(matrices, dtype=float)
    rows, cols, _, _ = _source_coords(matrices, h, w)
    fr, fc, (out, v01, v10, v11) = _corners(img, rows, cols)
    gr = 1.0 - fr
    gc = 1.0 - fc
    # same products and summation order as v00*gr*gc + v01*gr*fc + ...
    out *= gr
    out *= gc
    v01 *= gr
    v01 *= fc
    out += v01
    v10 *= fr
    v10 *= gc
    out += v10
    v11 *= fr
    v11 *= fc
    out += v11
    return out


def warp(image, matrix: np.ndarray) -> np.ndarray:
    """Single-matrix warp; output (H, W, C)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (2, 3):
        raise ValueError(f"expected a (2, 3) matrix, got shape {matrix.shape}")
    return warp_batch(image, matrix[None])[0]


def warp_coordinate_grads(image, matrix: np.ndarray):
    """Per-pixel derivatives of the warped values w.r.t. source coordinates.

    Returns ``(d_dx, d_dy)`` arrays of shape (H, W, C): the rate of change
    of each output pixel as its source position moves along columns and
    rows.  Each is a convex combination of differences of neighbouring
    pixels, so for values in [0, 1] it is bounded by 1 in magnitude.  At
    exactly integral source coordinates the kernel has a kink; the branch
    treating the coincident pixel as lying ahead of the position is used.
    """
    img = validate_image(image)
    h, w, _ = img.shape
    matrix = np.asarray(matrix, dtype=float)
    rows, cols, _, _ = _source_coords(matrix[None], h, w)
    fr, fc, (v00, v01, v10, v11) = _corners(img, rows[0], cols[0])

    d_dx = (1.0 - fr) * (v01 - v00) + fr * (v11 - v10)
    d_dx = np.where(fc == 0.0, (1.0 - fr) * v00 + fr * v10, d_dx)

    d_dy = (1.0 - fc) * (v10 - v00) + fc * (v11 - v01)
    d_dy = np.where(fr == 0.0, (1.0 - fc) * v00 + fc * v01, d_dy)
    return d_dx, d_dy


def warp_grad(
    image,
    params: TransformParams,
    factor: str,
    mode: str = "cos-scaled",
) -> np.ndarray:
    """Per-pixel derivative of the warped image w.r.t. one factor.

    Chains the coordinate derivatives with the matrix derivative for the
    requested factor.  Rotation derivatives are per degree.
    """
    img = validate_image(image)
    h, w, _ = img.shape
    matrix = build_matrix(params, mode)
    d_dx, d_dy = warp_coordinate_grads(img, matrix)
    da = matrix_grad(params, factor, mode)
    _, _, xg, yg = _source_coords(matrix[None], h, w)
    dcol = da[0, 0] * xg + da[0, 1] * yg + da[0, 2]
    drow = da[1, 0] * xg + da[1, 1] * yg + da[1, 2]
    return d_dx * dcol[..., None] + d_dy * drow[..., None]


def _sup_deg(fn, lo: float, hi: float, peak: float, period: float) -> float:
    """Supremum over [lo, hi] degrees of ``fn`` (taking radians), whose only
    local maxima are the value 1 at ``peak + k * period`` degrees."""
    if math.floor((lo - peak) / period) != math.floor((hi - peak) / period) or (
        lo - peak
    ) % period == 0.0:
        return 1.0
    return max(fn(math.radians(lo)), fn(math.radians(hi)))


def lipschitz_bound(
    height: int,
    width: int,
    rotation_range: tuple[float, float],
    scale_max: float = 1.0,
) -> dict[str, float]:
    """Closed-form bounds on the per-pixel factor derivatives.

    ``rotation_range`` is the closed interval of admissible angles in
    degrees.  The scale bound is ``sup cos * (W + H)``; the rotation bound
    (per degree) additionally needs the largest admissible scale factor.
    Translation responds one-for-one to its matrix entry, so its bound is
    the coordinate-derivative bound of 1.
    """
    lo, hi = float(rotation_range[0]), float(rotation_range[1])
    if hi < lo:
        raise ValueError(f"empty rotation range ({lo}, {hi})")
    sup_cos = _sup_deg(math.cos, lo, hi, 0.0, 360.0)
    sup_sin = _sup_deg(lambda r: abs(math.sin(r)), lo, hi, 90.0, 180.0)
    span = float(width + height)
    return {
        "scale": sup_cos * span,
        "rotation": (scale_max * sup_sin + sup_cos) * span * math.pi / 180.0,
        "t_hor": 1.0,
        "t_vrt": 1.0,
    }
