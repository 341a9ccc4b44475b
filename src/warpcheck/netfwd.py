"""Minimal feedforward inference for desk-scale classifiers.

Weight file format (text, whitespace separated, ``#`` comments allowed):

    layer dense <in> <out>
    <out * in weights, row-major, one row per output unit> <out biases>
    layer relu
    layer conv2d <in_ch> <out_ch> <kernel> <stride> <pad>
    <out_ch * in_ch * kernel * kernel weights> <out_ch biases>
    layer flatten

A layer's values run to the next ``layer`` keyword, and their count must
be the one its header implies.  Every :class:`WeightFormatError` that
:func:`load_weights` raises names the file.

Images flow through as (B, H, W, C) channel-last arrays; ``flatten``
reorders row-major.  Inference is pure and deterministic.

``conv2d`` is lowered to matrix products (im2col): each output pixel's
k x k x C input window becomes one row, and a block of rows is multiplied by
the weight reshaped to (k*k*C, out_ch).  Whole images are lowered together
in blocks of at most ``_IM2COL_BLOCK_FLOATS`` window values (512 KiB), or
one image at a time when a single image exceeds that, so the lowered copy
never grows with the batch.

:func:`forward` keeps a scratch arena on the :class:`NetSpec`: one conv
output buffer that every conv layer shares, and the padded input and the
lowered windows of one lowering block.  Only the output buffer grows with
the batch; a padded conv copies each block's images into the padded buffer
just before lowering them, and blocking changes no bit.  Each call takes
views of the sizes it needs; a buffer is replaced only by a larger one, so
the arena is grow-only and lives as long as the ``NetSpec``.  Relu runs
in place only on arrays the pass itself made, never on the caller's batch,
and the returned logits are always a fresh array.  Because the arena is
shared, one ``NetSpec`` must not run two forward passes at once (use one
``NetSpec`` per thread).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Window values lowered at once (512 KiB of float64), so that the lowered
# copy does not grow with the batch and stays near the L2 cache's size.
_IM2COL_BLOCK_FLOATS = 1 << 16


class WeightFormatError(ValueError):
    """Unreadable or inconsistent weight file."""


class ShapeError(ValueError):
    """Input shape incompatible with the network."""


@dataclass
class DenseLayer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ShapeError(f"dense layer expects flat input, got shape {x.shape}")
        if x.shape[1] != self.weight.shape[1]:
            raise ShapeError(
                f"dense layer expects {self.weight.shape[1]} features, got {x.shape[1]}"
            )
        return x @ self.weight.T + self.bias


@dataclass
class ReluLayer:
    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


@dataclass
class Conv2dLayer:
    weight: np.ndarray  # (out_ch, in_ch, k, k)
    bias: np.ndarray  # (out_ch,)
    stride: int
    pad: int

    def apply(self, x: np.ndarray, scratch: dict | None = None) -> np.ndarray:
        """Convolve a (B, H, W, C) batch; the result is (B, OH, OW, out_ch).

        With ``scratch``, a forward pass's arena, the padded input, the
        lowered blocks and the result live in its buffers, so the result is
        only valid until the arena's next use; without it, the buffers are
        this call's own.  The input may be the arena's output buffer: each
        block of images is read before its rows of the result are written,
        so the result overwrites only images already read when the input
        starts at the buffer's start and no image's output is larger than
        its input.  Otherwise the input is copied first.
        """
        if x.ndim != 4:
            raise ShapeError(f"conv2d expects (B, H, W, C) input, got shape {x.shape}")
        out_ch, in_ch, k, _ = self.weight.shape
        if x.shape[3] != in_ch:
            raise ShapeError(f"conv2d expects {in_ch} channels, got {x.shape[3]}")
        arena = {} if scratch is None else scratch
        p = self.pad
        b, h, w = x.shape[0], x.shape[1] + 2 * p, x.shape[2] + 2 * p
        if h < k or w < k:
            raise ShapeError(f"conv2d kernel {k} larger than padded input {h}x{w}")
        oh = (h - k) // self.stride + 1
        ow = (w - k) // self.stride + 1
        row = k * k * in_ch
        if "out" in arena and np.may_share_memory(x, arena["out"]):
            # in place only under the docstring's read-before-write rule
            if not (x.flags.c_contiguous and x.ctypes.data == arena["out"].ctypes.data
                    and oh * ow * out_ch <= math.prod(x.shape[1:])):
                x = x.copy()
        step = max(1, _IM2COL_BLOCK_FLOATS // max(1, oh * ow * row))
        if p:
            # one block of images, copied into the interior block by block;
            # the border is zeroed on every call, as the buffer's previous
            # user may have left values there
            padded = _buffer(arena, "padded", (min(step, b), h, w, in_ch))
            padded[:, :p] = 0.0
            padded[:, h - p :] = 0.0
            padded[:, p : h - p, :p] = 0.0
            padded[:, p : h - p, w - p :] = 0.0
        # (images, oh, ow, k, k, in_ch) windows over the padded block, or
        # over the whole input when there is no padding; rows of a block
        # flatten in the same (u, v, channel) order as the reshaped weight
        windows = sliding_window_view(padded if p else x, (k, k), axis=(1, 2))
        windows = windows[:, :: self.stride, :: self.stride].transpose(0, 1, 2, 4, 5, 3)
        weight = self.weight.transpose(2, 3, 1, 0).reshape(row, out_ch)
        out = _buffer(arena, "out", (b, oh, ow, out_ch))
        lowered = _buffer(arena, "lowered", (min(step, b), oh, ow, k, k, in_ch))
        for start in range(0, b, step):
            n = min(step, b - start)
            if p:
                padded[:n, p : h - p, p : w - p] = x[start : start + n]
            np.copyto(lowered[:n], windows[:n] if p else windows[start : start + n])
            np.matmul(lowered[:n].reshape(n * oh * ow, row), weight,
                      out=out[start : start + n].reshape(n * oh * ow, out_ch))
        # the same additions as broadcasting over out_ch, but along rows of
        # ow * out_ch values, which numpy runs as one long contiguous add
        out.reshape(b * oh, ow * out_ch)[...] += np.tile(self.bias, ow)
        return out


def _buffer(arena: dict, name: str, shape: tuple) -> np.ndarray:
    """A C-ordered float view of ``shape`` on the arena's buffer ``name``,
    which is replaced by a larger one only when it is too small."""
    size = math.prod(shape)
    buf = arena.get(name)
    if buf is None or buf.size < size:
        buf = arena[name] = np.empty(size)
    return buf[:size].reshape(shape)


@dataclass
class FlattenLayer:
    def apply(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))


@dataclass
class NetSpec:
    """Ordered layers of a loaded network, and the scratch arena that
    :func:`forward` keeps for them between calls."""

    layers: list = field(default_factory=list)
    scratch: dict = field(default_factory=dict, repr=False, compare=False)


def forward(net: NetSpec, batch) -> np.ndarray:
    """Run a batch through the network; returns fresh (B, K) logits."""
    x = np.asarray(batch, dtype=float)
    if x.ndim not in (2, 4):
        raise ShapeError(f"expected (B, N) or (B, H, W, C) input, got shape {x.shape}")
    owned = False  # x was made by this pass, so relu may overwrite it
    for layer in net.layers:
        if isinstance(layer, Conv2dLayer):
            x, owned = layer.apply(x, net.scratch), True
        elif isinstance(layer, ReluLayer) and owned:
            np.maximum(x, 0.0, out=x)
        else:
            x = layer.apply(x)
            # flatten reshapes its input, so x is owned only if that was
            owned = owned or not isinstance(layer, FlattenLayer)
    if x.ndim != 2:
        raise ShapeError("network output is not a batch of logit vectors")
    if any(np.may_share_memory(x, buf) for buf in net.scratch.values()):
        x = x.copy()
    return x


# a '#' comment runs to the next line boundary that str.splitlines knows
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*")

# layer tag -> the header integers after it; weights, then biases, follow them
HEADERS = {
    "dense": ("input size", "output size"),
    "conv2d": ("input channels", "output channels", "kernel size", "stride", "padding"),
    "relu": (),
    "flatten": (),
}


def load_weights(path) -> NetSpec:
    """Parse a weight file into a :class:`NetSpec`, validating shapes: the
    comment-stripped tokens are cut at each ``layer`` keyword, one block per layer."""
    path = str(path)
    try:
        with open(path) as fh:
            tokens = _COMMENT.sub("", fh.read()).split()
    except (OSError, UnicodeDecodeError) as exc:
        raise WeightFormatError(f"cannot read {path}: {exc}") from exc
    if not tokens:
        raise WeightFormatError(f"truncated weight file {path}: no layers")
    if tokens[0] != "layer":
        raise WeightFormatError(f"expected 'layer', got {tokens[0]!r} in {path}")
    tokens.append("layer")  # closes the last block
    layers, start = [], 0
    while start < len(tokens) - 1:
        end = tokens.index("layer", start + 1)
        layers.append(_layer(tokens[start + 1 : end], path))
        start = end
    if not any(isinstance(layer, DenseLayer) for layer in layers):
        raise WeightFormatError(f"network has no dense layer producing logits in {path}")
    return NetSpec(layers)


def _layer(block: list[str], path: str):
    """The layer a block holds: tag, header integers, then their values."""
    if not block:
        raise WeightFormatError(f"'layer' without a tag in {path}")
    tag = block[0]
    if tag not in HEADERS:
        raise WeightFormatError(f"unknown layer tag {tag!r} in {path}")
    names = HEADERS[tag]
    if len(block) <= len(names):
        raise WeightFormatError(f"truncated {tag} header in {path}")
    dims = []
    for name, tok in zip(names, block[1 : 1 + len(names)]):
        try:
            dims.append(int(tok))
        except ValueError as exc:
            raise WeightFormatError(f"expected {tag} {name}, got {tok!r} in {path}") from exc
        if dims[-1] < 0:
            raise WeightFormatError(f"{tag} {name} must be nonnegative, got {dims[-1]} in {path}")
    values = block[1 + len(names) :]
    if tag == "dense":
        shape = (dims[1], dims[0])
    elif tag == "conv2d":
        if dims[2] < 1 or dims[3] < 1:
            raise WeightFormatError(f"conv2d kernel and stride must be positive in {path}")
        shape = (dims[1], dims[0], dims[2], dims[2])
    else:
        shape = (0,)  # no weights and no biases
    count = math.prod(shape) + shape[0]
    if len(values) != count:
        raise WeightFormatError(f"{tag} layer needs {count} values, got {len(values)} in {path}")
    if not names:
        return ReluLayer() if tag == "relu" else FlattenLayer()
    try:
        flat = np.array(values, dtype=float)
    except ValueError as exc:
        raise WeightFormatError(f"{tag} layer: bad value in {path}: {exc}") from exc
    weight, bias = flat[: count - shape[0]].reshape(shape), flat[count - shape[0] :]
    if tag == "dense":
        return DenseLayer(weight, bias)
    return Conv2dLayer(weight, bias, stride=dims[3], pad=dims[4])


def save_weights(path, net: NetSpec) -> None:
    """Write a :class:`NetSpec` in the text format read by :func:`load_weights`;
    the text is built first, so a layer it cannot hold leaves the file untouched."""
    lines = []
    for layer in net.layers:
        if isinstance(layer, ReluLayer):
            lines.append("layer relu")
        elif isinstance(layer, FlattenLayer):
            lines.append("layer flatten")
        elif isinstance(layer, DenseLayer):
            n_out, n_in = layer.weight.shape
            lines.append(f"layer dense {n_in} {n_out}")
        elif isinstance(layer, Conv2dLayer):
            out_ch, in_ch, k, _ = layer.weight.shape
            lines.append(f"layer conv2d {in_ch} {out_ch} {k} {layer.stride} {layer.pad}")
        else:
            raise WeightFormatError(f"cannot serialise layer {layer!r}")
        if isinstance(layer, (DenseLayer, Conv2dLayer)):
            for values in (layer.weight.ravel(), layer.bias):
                lines.append(" ".join(repr(float(v)) for v in values))
    with open(path, "w", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))
