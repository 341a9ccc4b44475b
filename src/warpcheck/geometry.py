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

:func:`warp_batch` pads the image once and fills its output in chunks of a
fixed number of source positions (points x H x W).  Within a chunk each
source coordinate is the sum of separable (points, W) and (points, H)
products, so only the sum is full size.  Its extra memory therefore does
not grow with the batch, and chunking does not change a bit: each point's
values are those of a warp of that point alone.

The matrix applies the scale factor to the cosine entries only:

    [[s*cos(r), -sin(r), tx],
     [sin(r),    s*cos(r), ty]]

:func:`lipschitz_bound` bounds the per-pixel factor derivatives of this
matrix for any closed range of rotation angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FACTORS = ("rotation", "scale", "t_hor", "t_vrt")

# source positions (points x H x W) that warp_batch fills per chunk: its
# temporaries then stay near the L2 cache's size whatever the batch
_WARP_CHUNK_POSITIONS = 1 << 15


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


def build_matrix(params: TransformParams) -> np.ndarray:
    """2x3 source-lookup matrix for the given factors."""
    return build_matrix_batch(params.rotation, params.scale, params.t_hor, params.t_vrt)


def build_matrix_batch(
    rotation: np.ndarray,
    scale: np.ndarray,
    t_hor: np.ndarray,
    t_vrt: np.ndarray,
) -> np.ndarray:
    """Source-lookup matrices; inputs broadcast to a shape S, output S + (2, 3)."""
    rotation, scale, t_hor, t_vrt = np.broadcast_arrays(
        np.asarray(rotation, dtype=float),
        np.asarray(scale, dtype=float),
        np.asarray(t_hor, dtype=float),
        np.asarray(t_vrt, dtype=float),
    )
    r = np.radians(rotation)
    c, s = np.cos(r), np.sin(r)
    out = np.empty(rotation.shape + (2, 3))
    out[..., 0, 0] = scale * c
    out[..., 0, 1] = -s
    out[..., 0, 2] = t_hor
    out[..., 1, 0] = s
    out[..., 1, 1] = scale * c
    out[..., 1, 2] = t_vrt
    return out


def matrix_grad(params: TransformParams, factor: str) -> np.ndarray:
    """2x3 derivative of the matrix entries w.r.t. one factor.

    Rotation derivatives are per degree, matching the interface units.
    """
    if factor not in FACTORS:
        raise ValueError(f"unknown factor {factor!r}, expected one of {FACTORS}")
    r = math.radians(params.rotation)
    c, s = math.cos(r), math.sin(r)
    if factor == "t_hor":
        return np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    if factor == "t_vrt":
        return np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    if factor == "scale":
        return np.array([[c, 0.0, 0.0], [0.0, c, 0.0]])
    # rotation, converted to per-degree
    k = math.pi / 180.0
    return k * np.array(
        [
            [-params.scale * s, -c, 0.0],
            [c, -params.scale * s, 0.0],
        ]
    )


def _axes(height: int, width: int):
    """Centred column coordinates (W,), row coordinates (H, 1), and the
    centre ``(cx, cy)``; the two axes broadcast to the (H, W) pixel grid."""
    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0
    return np.arange(width) - cx, (np.arange(height) - cy)[:, None], cx, cy


def _source_coords(matrices: np.ndarray, height: int, width: int):
    """Source rows and cols (B, H, W) for each output pixel, and the axes
    ``xs`` (W,) and ``ys`` (H, 1) they are formed from.

    Each product is taken on its (B, 1, W) or (B, H, 1) factor and only the
    sum is full size, which gives the bits of full-size products.
    """
    xs, ys, cx, cy = _axes(height, width)
    a = matrices[:, None, None, :, :]  # (B, 1, 1, 2, 3)
    src_x = a[..., 0, 0] * xs + a[..., 0, 1] * ys
    src_x += a[..., 0, 2]
    src_x += cx
    src_y = a[..., 1, 0] * xs + a[..., 1, 1] * ys
    src_y += a[..., 1, 2]
    src_y += cy
    return src_y, src_x, xs, ys


def _pad(image: np.ndarray) -> np.ndarray:
    """The image with a two-pixel ring, each ring pixel its nearest edge
    pixel times 0.0, which keeps the sign of the zero that masking an edge
    pixel gives."""
    h, w, c = image.shape
    padded = np.empty((h + 4, w + 4, c))
    padded[2:-2, 2:-2] = image
    padded[:2, 2:-2] = image[0] * 0.0
    padded[-2:, 2:-2] = image[-1] * 0.0
    padded[:, :2] = padded[:, 2:3] * 0.0
    padded[:, -2:] = padded[:, -3:-2] * 0.0
    return padded


def _checked_matrices(matrices, ndim: int) -> np.ndarray:
    """``matrices`` as floats, checked to be finite and (B, 2, 3) for
    ``ndim`` 3 or one (2, 3) matrix for ``ndim`` 2."""
    arr = np.asarray(matrices, dtype=float)
    if arr.ndim != ndim or arr.shape[-2:] != (2, 3):
        expected = "(B, 2, 3) matrices" if ndim == 3 else "a (2, 3) matrix"
        raise ValueError(f"expected {expected}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def _corners(padded: np.ndarray, rows: np.ndarray, cols: np.ndarray, out=None):
    """Bilinear corners of each source position in one gather per corner.

    ``padded`` is the image as :func:`_pad` returns it.  Returns
    ``(fr, fc, [v00, v01, v10, v11])``: the fractional offsets with a
    trailing channel axis, and the pixel values at (r0, c0), (r0, c0 + 1),
    (r0 + 1, c0) and (r0 + 1, c0 + 1), each (..., C).  ``v00`` is written
    into ``out`` when given; the others are freshly allocated.  The floored
    coordinates are clipped into the ring, so out-of-grid corners read zero
    without a mask.
    """
    h, w = padded.shape[0] - 4, padded.shape[1] - 4
    flat = padded.reshape(-1, padded.shape[2])
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    fr = (rows - r0)[..., None]
    fc = (cols - c0)[..., None]
    stride = w + 4
    idx = np.clip(r0, -2, h, out=r0)
    idx *= stride
    idx += np.clip(c0, -2, w, out=c0)
    idx += 2 * stride + 2
    # every index is in range, so mode="clip" only spares the buffered copy
    # that np.take makes for ``out`` under the default mode
    v00 = np.take(flat, idx, axis=0, out=out, mode="clip")
    corners = [np.take(flat[offset:], idx, axis=0) for offset in (1, stride, stride + 1)]
    return fr, fc, [v00, *corners]


def _warp_into(padded: np.ndarray, matrices: np.ndarray, out: np.ndarray) -> None:
    """Bilinear warp of the padded image by each matrix, written into ``out``.

    One chunk of :func:`warp_batch`; its temporaries are freed on return,
    before the next chunk allocates its own.
    """
    h, w = out.shape[1:3]
    rows, cols, _, _ = _source_coords(matrices, h, w)
    fr, fc, (_, v01, v10, v11) = _corners(padded, rows, cols, out=out)
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


def warp_batch(image, matrices: np.ndarray) -> np.ndarray:
    """Apply a batch of source-lookup matrices; output (B, H, W, C).

    Each output pixel takes the bilinear interpolation of the source image
    at its mapped position, every channel alike, zero outside the grid.
    The result is linear in the pixel values, and an identity matrix
    reproduces the input bit for bit.  The output is filled in chunks of
    at most ``_WARP_CHUNK_POSITIONS`` source positions, or one point, so
    the temporaries do not grow with the batch.  The matrices must be
    finite and (B, 2, 3), else ``ValueError``.
    """
    img = validate_image(image)
    h, w, c = img.shape
    matrices = _checked_matrices(matrices, 3)
    padded = _pad(img)
    out = np.empty((len(matrices), h, w, c))
    step = max(1, _WARP_CHUNK_POSITIONS // (h * w))
    for start in range(0, len(matrices), step):
        _warp_into(padded, matrices[start:start + step], out[start:start + step])
    return out


def warp(image, matrix: np.ndarray) -> np.ndarray:
    """Single-matrix warp; output (H, W, C)."""
    return warp_batch(image, _checked_matrices(matrix, 2)[None])[0]


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
    rows, cols, _, _ = _source_coords(_checked_matrices(matrix, 2)[None], h, w)
    fr, fc, (v00, v01, v10, v11) = _corners(_pad(img), rows[0], cols[0])

    d_dx = (1.0 - fr) * (v01 - v00) + fr * (v11 - v10)
    d_dx = np.where(fc == 0.0, (1.0 - fr) * v00 + fr * v10, d_dx)

    d_dy = (1.0 - fc) * (v10 - v00) + fc * (v11 - v01)
    d_dy = np.where(fr == 0.0, (1.0 - fc) * v00 + fc * v01, d_dy)
    return d_dx, d_dy


def warp_grad(
    image,
    params: TransformParams,
    factor: str,
) -> np.ndarray:
    """Per-pixel derivative of the warped image w.r.t. one factor.

    Chains the coordinate derivatives with the matrix derivative for the
    requested factor.  Rotation derivatives are per degree.
    """
    img = validate_image(image)
    h, w, _ = img.shape
    matrix = build_matrix(params)
    d_dx, d_dy = warp_coordinate_grads(img, matrix)
    da = matrix_grad(params, factor)
    xs, ys, _, _ = _axes(h, w)
    dcol = da[0, 0] * xs + da[0, 1] * ys + da[0, 2]
    drow = da[1, 0] * xs + da[1, 1] * ys + da[1, 2]
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

    ``rotation_range`` is any closed interval of admissible angles in
    degrees.  The scale bound is ``sup |cos| * (W + H)``; the rotation bound
    (per degree) additionally needs the largest admissible scale factor.
    Translation responds one-for-one to its matrix entry, so its bound is
    the coordinate-derivative bound of 1.
    """
    lo, hi = float(rotation_range[0]), float(rotation_range[1])
    if hi < lo:
        raise ValueError(f"empty rotation range ({lo}, {hi})")
    sup_cos = _sup_deg(lambda r: abs(math.cos(r)), lo, hi, 0.0, 180.0)
    sup_sin = _sup_deg(lambda r: abs(math.sin(r)), lo, hi, 90.0, 180.0)
    span = float(width + height)
    return {
        "scale": sup_cos * span,
        "rotation": (scale_max * sup_sin + sup_cos) * span * math.pi / 180.0,
        "t_hor": 1.0,
        "t_vrt": 1.0,
    }
