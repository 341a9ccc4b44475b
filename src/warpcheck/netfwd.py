"""Minimal feedforward inference for desk-scale classifiers.

Weight file format (text, whitespace separated, ``#`` comments allowed):

    layer dense <in> <out>
    <out * in weights, row-major, one row per output unit> <out biases>
    layer relu
    layer conv2d <in_ch> <out_ch> <kernel> <stride> <pad>
    <out_ch * in_ch * kernel * kernel weights> <out_ch biases>
    layer flatten

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


def _tokens(path: str) -> list[str]:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise WeightFormatError(f"cannot read {path}: {exc}") from exc
    toks: list[str] = []
    for line in lines:
        body = line.split("#", 1)[0]
        toks.extend(body.split())
    return toks


class _Reader:
    def __init__(self, tokens: list[str], path: str) -> None:
        self.tokens = tokens
        self.pos = 0
        self.path = path

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def word(self) -> str:
        if self.done():
            raise WeightFormatError(f"truncated weight file {self.path}")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def integer(self, what: str) -> int:
        tok = self.word()
        try:
            value = int(tok)
        except ValueError as exc:
            raise WeightFormatError(f"expected {what}, got {tok!r} in {self.path}") from exc
        if value < 0:
            raise WeightFormatError(f"{what} must be nonnegative, got {value}")
        return value

    def floats(self, count: int, what: str) -> np.ndarray:
        end = self.pos + count
        if end > len(self.tokens):
            raise WeightFormatError(
                f"{what}: expected {count} values, file ends after "
                f"{len(self.tokens) - self.pos} in {self.path}"
            )
        chunk = self.tokens[self.pos : end]
        # a 'layer' keyword inside the block means the declared shape and
        # the provided values disagree
        if "layer" in chunk:
            got = chunk.index("layer")
            raise WeightFormatError(
                f"{what}: expected {count} values, found {got} in {self.path}"
            )
        try:
            values = np.array(chunk, dtype=float)
        except ValueError as exc:
            raise WeightFormatError(f"{what}: bad value in {self.path}: {exc}") from exc
        self.pos = end
        return values


def load_weights(path) -> NetSpec:
    """Parse a weight file into a :class:`NetSpec`, validating shapes."""
    path = str(path)
    reader = _Reader(_tokens(path), path)
    if reader.done():
        raise WeightFormatError(f"truncated weight file {path}: no layers")
    layers: list = []
    while not reader.done():
        keyword = reader.word()
        if keyword != "layer":
            raise WeightFormatError(f"expected 'layer', got {keyword!r} in {path}")
        tag = reader.word()
        if tag == "dense":
            n_in = reader.integer("dense input size")
            n_out = reader.integer("dense output size")
            w = reader.floats(n_out * n_in, f"dense({n_in},{n_out}) weights")
            b = reader.floats(n_out, f"dense({n_in},{n_out}) biases")
            layers.append(DenseLayer(w.reshape(n_out, n_in), b))
        elif tag == "relu":
            layers.append(ReluLayer())
        elif tag == "flatten":
            layers.append(FlattenLayer())
        elif tag == "conv2d":
            in_ch = reader.integer("conv2d input channels")
            out_ch = reader.integer("conv2d output channels")
            k = reader.integer("conv2d kernel size")
            stride = reader.integer("conv2d stride")
            pad = reader.integer("conv2d padding")
            if k < 1 or stride < 1:
                raise WeightFormatError("conv2d kernel and stride must be positive")
            w = reader.floats(out_ch * in_ch * k * k, "conv2d weights")
            b = reader.floats(out_ch, "conv2d biases")
            layers.append(Conv2dLayer(w.reshape(out_ch, in_ch, k, k), b, stride, pad))
        else:
            raise WeightFormatError(f"unknown layer tag {tag!r} in {path}")
    net = NetSpec(layers)
    net.n_classes  # fails early when no logits layer exists
    return net


def save_weights(path, net: NetSpec) -> None:
    """Write a :class:`NetSpec` in the text format read by :func:`load_weights`."""
    with open(path, "w", newline="\n") as fh:
        for layer in net.layers:
            if isinstance(layer, DenseLayer):
                n_out, n_in = layer.weight.shape
                fh.write(f"layer dense {n_in} {n_out}\n")
                fh.write(" ".join(repr(float(v)) for v in layer.weight.ravel()) + "\n")
                fh.write(" ".join(repr(float(v)) for v in layer.bias) + "\n")
            elif isinstance(layer, ReluLayer):
                fh.write("layer relu\n")
            elif isinstance(layer, FlattenLayer):
                fh.write("layer flatten\n")
            elif isinstance(layer, Conv2dLayer):
                out_ch, in_ch, k, _ = layer.weight.shape
                fh.write(f"layer conv2d {in_ch} {out_ch} {k} {layer.stride} {layer.pad}\n")
                fh.write(" ".join(repr(float(v)) for v in layer.weight.ravel()) + "\n")
                fh.write(" ".join(repr(float(v)) for v in layer.bias) + "\n")
            else:
                raise WeightFormatError(f"cannot serialise layer {layer!r}")
