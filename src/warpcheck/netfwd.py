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
in blocks of at most ``_IM2COL_BLOCK_FLOATS`` window values (2 MiB), or one
image at a time when a single image exceeds that, so the lowered copy never
grows with the batch.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Window values lowered at once (2 MiB of float64), so that the lowered copy
# does not grow with the batch.
_IM2COL_BLOCK_FLOATS = 1 << 18


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

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"conv2d expects (B, H, W, C) input, got shape {x.shape}")
        out_ch, in_ch, k, _ = self.weight.shape
        if x.shape[3] != in_ch:
            raise ShapeError(f"conv2d expects {in_ch} channels, got {x.shape[3]}")
        if self.pad:
            x = np.pad(x, ((0, 0), (self.pad, self.pad), (self.pad, self.pad), (0, 0)))
        b, h, w, _ = x.shape
        if h < k or w < k:
            raise ShapeError(f"conv2d kernel {k} larger than padded input {h}x{w}")
        oh = (h - k) // self.stride + 1
        ow = (w - k) // self.stride + 1
        # (b, oh, ow, k, k, in_ch) windows; rows of a block flatten in the
        # same (u, v, channel) order as the reshaped weight
        windows = sliding_window_view(x, (k, k), axis=(1, 2))
        windows = windows[:, :: self.stride, :: self.stride].transpose(0, 1, 2, 4, 5, 3)
        row = k * k * in_ch
        weight = self.weight.transpose(2, 3, 1, 0).reshape(row, out_ch)
        out = np.empty((b, oh, ow, out_ch))
        step = max(1, _IM2COL_BLOCK_FLOATS // max(1, oh * ow * row))
        for start in range(0, b, step):
            block = windows[start : start + step]
            n = len(block) * oh * ow
            np.matmul(block.reshape(n, row), weight,
                      out=out[start : start + step].reshape(n, out_ch))
        out += self.bias
        return out


@dataclass
class FlattenLayer:
    def apply(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


@dataclass
class NetSpec:
    """Ordered layers of a loaded network."""

    layers: list = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        for layer in reversed(self.layers):
            if isinstance(layer, DenseLayer):
                return layer.weight.shape[0]
        raise WeightFormatError("network has no dense layer producing logits")


def forward(net: NetSpec, batch) -> np.ndarray:
    """Run a batch through the network; returns (B, K) logits."""
    x = np.asarray(batch, dtype=float)
    if x.ndim not in (2, 4):
        raise ShapeError(f"expected (B, N) or (B, H, W, C) input, got shape {x.shape}")
    for layer in net.layers:
        x = layer.apply(x)
    if x.ndim != 2:
        raise ShapeError("network output is not a batch of logit vectors")
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
    """Write a :class:`NetSpec` in the text format read by :func:`load_weights`."""
    with open(path, "w", newline="\n") as fh:
        for layer in net.layers:
            if isinstance(layer, ReluLayer):
                fh.write("layer relu\n")
            elif isinstance(layer, FlattenLayer):
                fh.write("layer flatten\n")
            elif isinstance(layer, DenseLayer):
                n_out, n_in = layer.weight.shape
                fh.write(f"layer dense {n_in} {n_out}\n")
            elif isinstance(layer, Conv2dLayer):
                out_ch, in_ch, k, _ = layer.weight.shape
                fh.write(f"layer conv2d {in_ch} {out_ch} {k} {layer.stride} {layer.pad}\n")
            else:
                raise WeightFormatError(f"cannot serialise layer {layer!r}")
            if isinstance(layer, (DenseLayer, Conv2dLayer)):
                for values in (layer.weight.ravel(), layer.bias):
                    fh.write(" ".join(repr(float(v)) for v in values) + "\n")
