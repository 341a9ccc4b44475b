"""Independent reference implementations used by several test modules.

These deliberately share no code with the package: quadratic enumeration,
explicit candidate sweeps, dense grids, a masked per-corner bilinear warp
that the package's padded single-gather warp must match bit for bit,
the partition's trisection as first written, which the package's division
must match id for id and bit for bit, and conv2d's whole-batch padded
lowering, which the package's block-padded lowering must match bit for bit.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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
    d_dy = (1.0 - fc) * (v10 - v00) + fc * (v11 - v01)
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


# ---------------------------------------------------------------- trisection
#
# The partition's division and sample points as first written: each child's
# center is built as a list and converted back (``_third``), each sample
# point is a full ``_center`` of its third, and the order guard sorts the
# parent's neighbours.  Kept verbatim, on a plain (unslotted) rect class, so
# the package's division can be compared against it state for state.


class PartitionError(ValueError):
    """The reference partition's error; its messages are the package's."""


_rank = operator.attrgetter("value", "id")


def _center(nums, depths):
    return tuple(num / (2 * 3**d) for num, d in zip(nums, depths))


@dataclass
class ReferenceRect:
    id: int
    nums: tuple[int, ...]
    depths: tuple[int, ...]
    value: float = math.nan
    depth_key: int = field(init=False)

    def __post_init__(self) -> None:
        self.depth_key = min(self.depths)

    def long_dims(self) -> list[int]:
        d = self.depth_key
        return [i for i, di in enumerate(self.depths) if di == d]


class ReferencePartition:
    """Live rects and their ``(value, id)``-ordered size groups, divided as
    the partition first divided them."""

    def __init__(self, n: int) -> None:
        self.rects: dict[int, ReferenceRect] = {}
        self.groups: dict[int, list[ReferenceRect]] = {}
        self._next_id = 0
        self._add((1,) * n, (0,) * n)

    def _add(
        self, nums: tuple[int, ...], depths: tuple[int, ...], value: float = math.nan
    ) -> ReferenceRect:
        rect = ReferenceRect(self._next_id, nums, depths, value)
        self._next_id += 1
        self.rects[rect.id] = rect
        bisect.insort(self.groups.setdefault(rect.depth_key, []), rect, key=_rank)
        return rect

    def divide(self, rect_id: int, results: Mapping[tuple[int, int], float]) -> list[int]:
        rect = self.rects.get(rect_id)
        if rect is None:
            raise PartitionError(f"rect {rect_id} is not live")
        dims = rect.long_dims()
        expected = {(i, s) for i in dims for s in (-1, 1)}
        if set(results) != expected:
            raise PartitionError(
                f"query results do not cover the sampled points of rect {rect_id}: "
                f"got {sorted(results)}, need {sorted(expected)}"
            )
        for k, v in results.items():
            if not math.isfinite(v):
                raise PartitionError(f"non-finite query result {v} at {k}")
        # the center child inherits the value and ranks by it in its group
        if not math.isfinite(rect.value):
            raise PartitionError(f"rect {rect_id} has non-finite value {rect.value}")

        group = self.groups[rect.depth_key]
        at = bisect.bisect_left(group, _rank(rect), key=_rank)
        ranks = [_rank(r) for r in group[max(at - 1, 0) : at + 2]]
        if group[at : at + 1] != [rect] or ranks != sorted(ranks):
            raise PartitionError(
                f"rect {rect_id} is out of (value, id) order in size group "
                f"{rect.depth_key}: its value changed after it joined the group"
            )

        w = {i: min(results[(i, -1)], results[(i, 1)]) for i in dims}
        order = sorted(dims, key=lambda i: (w[i], i))

        new_ids: list[int] = []
        del self.rects[rect_id], group[at]
        if not group:
            del self.groups[rect.depth_key]

        # Split stage by stage: after stage k the center cell is deepened
        # along the first k dims; the stage-k side pair keeps the remaining
        # long dims.
        nums, depths = rect.nums, rect.depths
        for dim in order:
            for sign in (-1, 1):
                child = self._add(*_third(nums, depths, dim, sign), results[(dim, sign)])
                new_ids.append(child.id)
            nums, depths = _third(nums, depths, dim, 0)

        new_ids.append(self._add(nums, depths, rect.value).id)
        return new_ids


def _third(
    nums: tuple[int, ...], depths: tuple[int, ...], dim: int, sign: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact center of the lower (-1), middle (0) or upper (+1) third of the
    rect centered at ``(nums, depths)``, trisected along ``dim``."""
    nums, depths = list(nums), list(depths)
    nums[dim] = 3 * nums[dim] + 2 * sign
    depths[dim] += 1
    return tuple(nums), tuple(depths)


def sample_points_reference(rect) -> dict[tuple[int, int], tuple[float, ...]]:
    """Points ``c +/- 3**-(d+1) e_i`` for every longest side of ``rect``,
    keyed ``(dim, sign)``, long dims ascending and ``-1`` before ``+1``."""
    return {
        (dim, sign): _center(*_third(rect.nums, rect.depths, dim, sign))
        for dim in rect.long_dims()
        for sign in (-1, 1)
    }


# ------------------------------------------------------------------- conv2d
#
# Conv2d's lowering as it was before the padding moved into the block loop: a
# padded conv copies the whole batch into the padded buffer first.  Kept
# verbatim but for its input checks and comments, which it drops, the
# layer's fields, which it takes from ``layer``, and the block size, which
# it takes as an argument.


def conv2d_reference(layer, x: np.ndarray, scratch: dict | None = None,
                     block_floats: int = 1 << 16) -> np.ndarray:
    """``layer`` (a conv2d layer) applied to a (B, H, W, C) batch, with the
    padded input, the lowered blocks and the result in ``scratch``'s buffers."""
    out_ch, in_ch, k, _ = layer.weight.shape
    arena = {} if scratch is None else scratch
    p = layer.pad
    b, h, w = x.shape[0], x.shape[1] + 2 * p, x.shape[2] + 2 * p
    if p or ("out" in arena and np.may_share_memory(x, arena["out"])):
        padded = _buffer_reference(arena, "padded", (b, h, w, in_ch))
        padded[:, :p] = 0.0
        padded[:, h - p :] = 0.0
        padded[:, p : h - p, :p] = 0.0
        padded[:, p : h - p, w - p :] = 0.0
        padded[:, p : h - p, p : w - p] = x
        x = padded
    oh = (h - k) // layer.stride + 1
    ow = (w - k) // layer.stride + 1
    windows = sliding_window_view(x, (k, k), axis=(1, 2))
    windows = windows[:, :: layer.stride, :: layer.stride].transpose(0, 1, 2, 4, 5, 3)
    row = k * k * in_ch
    weight = layer.weight.transpose(2, 3, 1, 0).reshape(row, out_ch)
    out = _buffer_reference(arena, "out", (b, oh, ow, out_ch))
    step = max(1, block_floats // max(1, oh * ow * row))
    lowered = _buffer_reference(arena, "lowered", (min(step, b), oh, ow, k, k, in_ch))
    for start in range(0, b, step):
        block = windows[start : start + step]
        n = len(block) * oh * ow
        np.copyto(lowered[: len(block)], block)
        np.matmul(lowered[: len(block)].reshape(n, row), weight,
                  out=out[start : start + step].reshape(n, out_ch))
    out.reshape(b * oh, ow * out_ch)[...] += np.tile(layer.bias, ow)
    return out


def _buffer_reference(arena: dict, name: str, shape: tuple) -> np.ndarray:
    size = math.prod(shape)
    buf = arena.get(name)
    if buf is None or buf.size < size:
        buf = arena[name] = np.empty(size)
    return buf[:size].reshape(shape)
