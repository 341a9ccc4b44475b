"""Independent reference implementations used by several test modules.

These deliberately share no code with the package: quadratic enumeration,
explicit candidate sweeps, dense grids, and a masked per-corner bilinear
warp that the package's padded single-gather warp must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


def lemma_po_oracle(stats, tau, l_min):
    """Potentially-optimal set by direct enumeration.

    A rect qualifies when its center value leads its size group, some
    positive constant drawn from the pairwise (value difference / size
    difference) slopes keeps its best case ahead of every other rect, and
    the prospective improvement clears the relative threshold ``tau``.
    """
    sizes = {s.id: 0.5 * 3.0 ** (-s.depth_key) for s in stats}
    slopes = []
    for a in stats:
        for b in stats:
            if sizes[a.id] != sizes[b.id]:
                slopes.append((a.value - b.value) / (sizes[a.id] - sizes[b.id]))
    candidates = [k for k in slopes if k > 0.0]
    candidates.append(max(candidates, default=0.0) + max(abs(l_min), 1.0) + 1.0)

    selected = set()
    for p in stats:
        same = [q for q in stats if sizes[q.id] == sizes[p.id]]
        if any(q.value < p.value for q in same):
            continue
        larger = [q for q in stats if sizes[q.id] > sizes[p.id]]
        smaller = [q for q in stats if sizes[q.id] < sizes[p.id]]
        lower = max(
            ((p.value - q.value) / (sizes[p.id] - sizes[q.id]) for q in smaller),
            default=-math.inf,
        )
        upper = min(
            ((q.value - p.value) / (sizes[q.id] - sizes[p.id]) for q in larger),
            default=math.inf,
        )
        if not any(lower <= k <= upper for k in candidates):
            continue
        if l_min != 0.0:
            ok = tau <= (l_min - p.value) / abs(l_min) + sizes[p.id] * upper / abs(l_min)
        else:
            ok = p.value <= sizes[p.id] * upper
        if ok:
            selected.add(p.id)
    return selected


def _source_coords_reference(matrices, height, width):
    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0
    xg, yg = np.meshgrid(np.arange(width) - cx, np.arange(height) - cy)
    a = matrices[:, None, None, :, :]
    src_x = a[..., 0, 0] * xg + a[..., 0, 1] * yg + a[..., 0, 2]
    src_y = a[..., 1, 0] * xg + a[..., 1, 1] * yg + a[..., 1, 2]
    return src_y + cy, src_x + cx


def _gather_reference(image, rows, cols):
    """Zero-padded pixel lookup at integer indices by clipping and masking."""
    h, w, _ = image.shape
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    vals = image[rows.clip(0, h - 1), cols.clip(0, w - 1), :]
    return vals * inside[..., None]


def _bilinear_corners_reference(image, rows, cols):
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    fr = (rows - r0)[..., None]
    fc = (cols - c0)[..., None]
    v00 = _gather_reference(image, r0, c0)
    v01 = _gather_reference(image, r0, c0 + 1)
    v10 = _gather_reference(image, r0 + 1, c0)
    v11 = _gather_reference(image, r0 + 1, c0 + 1)
    return fr, fc, v00, v01, v10, v11


def warp_batch_reference(image, matrices):
    """Bilinear inverse warp of an (H, W, C) image; output (B, H, W, C)."""
    h, w, _ = image.shape
    rows, cols = _source_coords_reference(np.asarray(matrices, dtype=float), h, w)
    fr, fc, v00, v01, v10, v11 = _bilinear_corners_reference(image, rows, cols)
    return (
        v00 * (1.0 - fr) * (1.0 - fc)
        + v01 * (1.0 - fr) * fc
        + v10 * fr * (1.0 - fc)
        + v11 * fr * fc
    )


def warp_coordinate_grads_reference(image, matrix):
    """(d_dx, d_dy) of the warped values w.r.t. source column and row."""
    h, w, _ = image.shape
    rows, cols = _source_coords_reference(np.asarray(matrix, dtype=float)[None], h, w)
    fr, fc, v00, v01, v10, v11 = _bilinear_corners_reference(image, rows[0], cols[0])
    d_dx = (1.0 - fr) * (v01 - v00) + fr * (v11 - v10)
    d_dx = np.where(fc == 0.0, (1.0 - fr) * v00 + fr * v10, d_dx)
    d_dy = (1.0 - fc) * (v10 - v00) + fc * (v11 - v01)
    d_dy = np.where(fr == 0.0, (1.0 - fc) * v00 + fc * v01, d_dy)
    return d_dx, d_dy


def _ref_group_size(depth_key):
    return 0.5 * 3.0 ** (-depth_key)


def _ref_larger_slope(stat, minima):
    best = math.inf
    for key, vmin in minima.items():
        if key < stat.depth_key:
            slope = (vmin - stat.value) / (_ref_group_size(key) - _ref_group_size(stat.depth_key))
            if slope < best:
                best = slope
    return best


def _ref_smaller_slope(stat, minima):
    best = 0.0
    for key, vmin in minima.items():
        if key > stat.depth_key:
            slope = (stat.value - vmin) / (_ref_group_size(stat.depth_key) - _ref_group_size(key))
            if slope > best:
                best = slope
    return best


def _ref_sufficient_descent(stat, l_min, tau, minima):
    upper = _ref_larger_slope(stat, minima)
    size = _ref_group_size(stat.depth_key)
    if l_min != 0.0:
        return tau <= (l_min - stat.value) / abs(l_min) + size * upper / abs(l_min)
    return stat.value <= size * upper


def group_by_size(stats):
    """Depth key -> rects of that size ordered by (value, id), keys ascending:
    the size groups that ``select_po`` reads, built from any rect list."""
    groups = {}
    for s in stats:
        groups.setdefault(s.depth_key, []).append(s)
    return {k: sorted(groups[k], key=lambda s: (s.value, s.id)) for k in sorted(groups)}


def select_po_reference(stats, alpha, tau, l_min, max_depth):
    """Potentially-optimal ids by scoring every rect of every group.

    The earlier selection rule, kept as written: each rect of a divisible
    size group gets the score ``larger_slope - smaller_slope``; the top
    ``alpha`` positive scores (ties on lower value, then lower id) are
    kept when they pass the sufficient-descent test.  Ids are ordered by
    group, largest size first, then rank.
    """
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    groups = {}
    for s in stats:
        groups.setdefault(s.depth_key, []).append(s)
    groups = {k: groups[k] for k in sorted(groups)}
    minima = {k: min(s.value for s in members) for k, members in groups.items()}
    selected = []
    for key, group in groups.items():
        if key >= max_depth:
            continue
        scores = {
            s.id: _ref_larger_slope(s, minima) - _ref_smaller_slope(s, minima) for s in group
        }
        positive = [s for s in group if scores[s.id] > 0.0]
        positive.sort(key=lambda s: (-scores[s.id], s.value, s.id))
        for cand in positive[:alpha]:
            if _ref_sufficient_descent(cand, l_min, tau, minima):
                selected.append(cand.id)
    return selected
