import numpy as np
import pytest

from fixtures import build_fixture_net
from warpcheck import netfwd
from warpcheck.netfwd import (
    Conv2dLayer,
    DenseLayer,
    FlattenLayer,
    NetSpec,
    ReluLayer,
    ShapeError,
    WeightFormatError,
    forward,
    load_weights,
    save_weights,
)


def manual_conv(x, w, b, stride, pad):
    """Direct convolution, one output pixel and one tap at a time."""
    out_ch, in_ch, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    oh = (xp.shape[1] - k) // stride + 1
    ow = (xp.shape[2] - k) // stride + 1
    out = np.zeros((x.shape[0], oh, ow, out_ch))
    for oc in range(out_ch):
        for i in range(oh):
            for j in range(ow):
                acc = np.full(x.shape[0], b[oc])
                for ic in range(in_ch):
                    for u in range(k):
                        for v in range(k):
                            acc += w[oc, ic, u, v] * xp[:, i * stride + u, j * stride + v, ic]
                out[:, i, j, oc] = acc
    return out


class TestLayers:
    def test_identity_dense(self):
        net = NetSpec([DenseLayer(np.eye(3), np.zeros(3))])
        x = np.array([[1.0, -2.0, 0.5]])
        assert np.array_equal(forward(net, x), x)

    def test_relu(self):
        net = NetSpec([DenseLayer(np.eye(2), np.zeros(2)), ReluLayer()])
        assert np.array_equal(forward(net, [[-1.0, 2.0]]), [[0.0, 2.0]])

    def test_one_by_one_conv_on_constant_image(self):
        conv = Conv2dLayer(np.full((1, 1, 1, 1), 2.0), np.zeros(1), stride=1, pad=0)
        net = NetSpec([conv, FlattenLayer(), DenseLayer(np.eye(9), np.zeros(9))])
        img = np.full((1, 3, 3, 1), 0.5)
        out = forward(net, img)
        assert np.array_equal(out, np.full((1, 9), 1.0))

    def test_conv_shapes_stride_and_pad(self):
        conv = Conv2dLayer(np.ones((2, 1, 3, 3)), np.zeros(2), stride=2, pad=1)
        x = np.ones((4, 5, 5, 1))
        out = conv.apply(x)
        assert out.shape == (4, 3, 3, 2)

    def test_conv_matches_manual_valid_convolution(self):
        rng = np.random.default_rng(0)
        x = rng.random((1, 4, 4, 2))
        w = rng.random((3, 2, 2, 2))
        b = rng.random(3)
        out = Conv2dLayer(w, b, stride=1, pad=0).apply(x)
        assert np.allclose(out, manual_conv(x, w, b, 1, 0))

    @pytest.mark.parametrize(
        "x_shape, w_shape, stride, pad",
        [
            ((3, 5, 7, 2), (4, 2, 3, 3), 2, 1),
            ((2, 6, 9, 3), (5, 3, 3, 3), 1, 1),
            ((2, 8, 8, 3), (2, 3, 3, 3), 2, 0),
            ((2, 7, 5, 3), (2, 3, 1, 1), 1, 0),
            ((2, 9, 6, 1), (3, 1, 1, 1), 2, 1),
            # 1134 window floats per image: the batch spans three im2col blocks
            ((500, 9, 7, 2), (2, 2, 3, 3), 1, 1),
        ],
    )
    def test_conv_matches_manual_convolution(self, x_shape, w_shape, stride, pad):
        rng = np.random.default_rng(sum(x_shape))
        x = rng.random(x_shape)
        w = rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0])
        out = Conv2dLayer(w, b, stride=stride, pad=pad).apply(x)
        manual = manual_conv(x, w, b, stride, pad)
        assert out.shape == manual.shape
        assert np.allclose(out, manual, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("block_floats", [200, 1100])
    def test_conv_block_edges(self, monkeypatch, block_floats):
        # 5*4*27 = 540 window floats per image: one image per block even when
        # it overflows the bound, and blocks of 2, 2 and 1 images
        monkeypatch.setattr(netfwd, "_IM2COL_BLOCK_FLOATS", block_floats)
        rng = np.random.default_rng(block_floats)
        x = rng.random((5, 9, 7, 3))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = Conv2dLayer(w, b, stride=2, pad=1).apply(x)
        assert np.allclose(out, manual_conv(x, w, b, 2, 1), rtol=0.0, atol=1e-12)

    def test_flatten_row_major(self):
        x = np.arange(12.0).reshape(1, 2, 3, 2)
        out = FlattenLayer().apply(x)
        assert np.array_equal(out[0], np.arange(12.0))

    def test_empty_batch_through_conv_and_flatten(self):
        rng = np.random.default_rng(3)
        net = NetSpec([
            Conv2dLayer(rng.normal(size=(2, 1, 3, 3)), rng.normal(size=2), stride=1, pad=1),
            ReluLayer(),
            FlattenLayer(),
            DenseLayer(rng.normal(size=(5, 32)), rng.normal(size=5)),
        ])
        assert forward(net, np.empty((0, 4, 4, 1))).shape == (0, 5)

    def test_shape_mismatch_raises(self):
        net = NetSpec([DenseLayer(np.eye(4), np.zeros(4))])
        with pytest.raises(ShapeError):
            forward(net, np.ones((2, 3)))
        with pytest.raises(ShapeError):
            forward(net, np.ones(4))


def _mixed_conv_net(rng):
    # pad 2 / stride 1, pad 1 / stride 2 and pad 0 convs with 2 -> 3 -> 4 -> 8
    # channels: on 9x7 inputs their padded inputs and outputs all differ in
    # shape, and the pad 0 conv's output per image outgrows its input
    return NetSpec([
        Conv2dLayer(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3), stride=1, pad=2),
        ReluLayer(),
        Conv2dLayer(rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4), stride=2, pad=1),
        ReluLayer(),
        Conv2dLayer(rng.normal(size=(8, 4, 2, 2)), rng.normal(size=8), stride=1, pad=0),
        ReluLayer(),
        FlattenLayer(),
        DenseLayer(rng.normal(size=(3, 160)), rng.normal(size=3)),
    ])


class TestScratchArena:
    """forward keeps its conv buffers on the NetSpec between calls."""

    @pytest.mark.parametrize("layers, shape", [
        ([FlattenLayer(), ReluLayer(), DenseLayer(np.ones((2, 12)), np.zeros(2))], (3, 2, 3, 2)),
        ([ReluLayer(), DenseLayer(np.ones((2, 12)), np.zeros(2))], (3, 12)),
        ([Conv2dLayer(np.ones((2, 2, 1, 1)), np.zeros(2), stride=1, pad=0), ReluLayer(),
          FlattenLayer(), DenseLayer(np.ones((2, 12)), np.zeros(2))], (3, 2, 3, 2)),
    ], ids=["flatten-relu-dense", "relu-dense", "conv-relu-flatten-dense"])
    def test_input_batch_left_unchanged(self, layers, shape):
        x = np.random.default_rng(1).normal(size=shape)
        before = x.copy()
        forward(NetSpec(layers), x)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("tail", [[], [DenseLayer(np.ones((2, 40)), np.zeros(2))]],
                             ids=["conv-output", "dense-output"])
    def test_logits_are_fresh(self, tail):
        # a net that ends in conv, relu, flatten would otherwise return the arena
        rng = np.random.default_rng(2)
        conv = Conv2dLayer(rng.normal(size=(2, 1, 3, 3)), rng.normal(size=2), stride=1, pad=1)
        net = NetSpec([conv, ReluLayer(), FlattenLayer(), *tail])
        first = forward(net, rng.random((3, 4, 5, 1)))
        kept = first.copy()
        second = forward(net, rng.random((3, 4, 5, 1)))
        assert np.array_equal(first, kept)
        for logits in (first, second):
            assert not any(np.shares_memory(logits, buf) for buf in net.scratch.values())

    @pytest.mark.parametrize("block_floats", [None, 300])
    def test_reused_arena_matches_fresh(self, monkeypatch, block_floats):
        # stale values in the shared buffers (a padding border written as
        # interior by another layer, an input read after its buffer was
        # overwritten) would change bits; 300 window floats lower one image
        # per block, so a later block would read an input the earlier ones
        # overwrote
        if block_floats is not None:
            monkeypatch.setattr(netfwd, "_IM2COL_BLOCK_FLOATS", block_floats)
        rng = np.random.default_rng(3)
        net = _mixed_conv_net(rng)
        for batch in (17, 46, 1, 9, 17):
            x = rng.random((batch, 9, 7, 2))
            got = forward(net, x)
            # a fresh arena, and each layer alone with buffers of its own
            want = forward(NetSpec(net.layers), x)
            alone = x
            for layer in net.layers:
                alone = layer.apply(alone)
            for other in (want, alone):
                assert np.array_equal(got, other)
                assert np.array_equal(np.signbit(got), np.signbit(other))

    def test_buffers_reused_up_to_warm_batch(self):
        rng = np.random.default_rng(4)
        net = _mixed_conv_net(rng)
        forward(net, rng.random((46, 9, 7, 2)))
        buffers = dict(net.scratch)
        assert sorted(buffers) == ["lowered", "out", "padded"]
        for batch in (1, 17, 46, 9):
            forward(net, rng.random((batch, 9, 7, 2)))
            assert all(net.scratch[name] is buf for name, buf in buffers.items())


FIXTURE = """\
# three layer classifier
layer dense 4 2
1 0 0 0
0 1 0 0
0.5 -0.5
layer relu
layer dense 2 2
2 0 0 2
0 0
"""


class TestLoadWeights:
    def test_parses_dense_relu_dense(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(FIXTURE)
        net = load_weights(path)
        assert len(net.layers) == 3
        assert net.layers[-1].weight.shape[0] == 2
        out = forward(net, [[1.0, 2.0, 3.0, 4.0]])
        assert np.array_equal(out, [[3.0, 3.0]])

    def test_wrong_weight_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("layer dense 4 2\n1 2 3 4 5 6 7\n")
        with pytest.raises(WeightFormatError):
            load_weights(path)

    def test_wrong_count_before_next_layer_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("layer dense 2 2\n1 2 3\nlayer relu\n1 1 1\n")
        with pytest.raises(WeightFormatError):
            load_weights(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(WeightFormatError, match="truncated"):
            load_weights(path)

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("layer softmax\n")
        with pytest.raises(WeightFormatError, match="unknown layer tag"):
            load_weights(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(WeightFormatError):
            load_weights(tmp_path / "nope.txt")

    def test_non_numeric_weight_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("layer dense 1 1\nx\n0\n")
        with pytest.raises(WeightFormatError):
            load_weights(path)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        net = NetSpec([
            Conv2dLayer(rng.normal(size=(2, 1, 3, 3)), rng.normal(size=2), stride=1, pad=1),
            ReluLayer(),
            FlattenLayer(),
            DenseLayer(rng.normal(size=(3, 2 * 16)), rng.normal(size=3)),
        ])
        path = tmp_path / "net.txt"
        save_weights(path, net)
        back = load_weights(path)
        x = rng.random((2, 4, 4, 1))
        assert np.array_equal(forward(net, x), forward(back, x))


# case -> weight file text; each must raise WeightFormatError naming the file
MALFORMED_WEIGHTS = {
    "empty": "",
    "comment-only": "# no layers here\n   # indented comment\n",
    "first-token-not-layer": "dense 1 1\n1\n0\n",
    "unknown-tag": "layer dense 1 1\n1\n0\nlayer softmax\n",
    "layer-at-end": "layer dense 1 1\n1\n0\nlayer\n",
    "layer-without-tag": "layer layer dense 1 1\n1\n0\n",
    "non-integer-header": "layer dense 1.5 1\n1\n0\n",
    "word-header": "layer conv2d 1 one 1 1 0\n1\n0\n",
    "negative-header": "layer dense -1 1\n0\n",
    "negative-padding": "layer conv2d 1 1 1 1 -1\n1\n0\n",
    "truncated-header": "layer conv2d 1 1 1\n",
    "conv-kernel-zero": "layer conv2d 1 1 0 1 0\n0\n",
    "conv-stride-zero": "layer conv2d 1 1 1 0 0\n1\n0\n",
    "too-few-values": "layer dense 2 1\n1\n0\n",
    "too-few-before-next-layer": "layer dense 2 2\n1 2 3\nlayer relu\n1 1 1\n",
    "too-many-before-next-layer": "layer dense 1 1\n1 2 3\nlayer relu\n",
    "too-many-at-end": "layer dense 1 1\n1\n0\n5\n",
    "values-after-relu": "layer dense 1 1\n1\n0\nlayer relu 0\n",
    "non-numeric-value": "layer dense 1 1\nx\n0\n",
    "non-numeric-bias": "layer conv2d 1 1 1 1 0\n1\nnan0\nlayer flatten\nlayer dense 1 1\n1 0\n",
    "no-dense-layer": "layer conv2d 1 1 1 1 0\n1\n0\nlayer flatten\n",
}


class TestMalformedWeights:
    @pytest.mark.parametrize("case", sorted(MALFORMED_WEIGHTS))
    def test_rejected(self, tmp_path, case):
        path = tmp_path / f"{case}.txt"
        path.write_text(MALFORMED_WEIGHTS[case])
        with pytest.raises(WeightFormatError) as info:
            load_weights(path)
        assert str(path) in str(info.value)

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"layer dense 1 1\n\xff\xfe\x00\n0\n")
        with pytest.raises(WeightFormatError) as info:
            load_weights(path)
        assert str(path) in str(info.value)


def _layers_equal(a: NetSpec, b: NetSpec) -> bool:
    """Same layer types, bit-identical arrays, same stride and padding."""
    if [type(x) for x in a.layers] != [type(y) for y in b.layers]:
        return False
    for x, y in zip(a.layers, b.layers):
        if isinstance(x, (DenseLayer, Conv2dLayer)):
            if x.weight.shape != y.weight.shape or x.weight.tobytes() != y.weight.tobytes():
                return False
            if x.bias.shape != y.bias.shape or x.bias.tobytes() != y.bias.tobytes():
                return False
        if isinstance(x, Conv2dLayer) and (x.stride, x.pad) != (y.stride, y.pad):
            return False
    return True


def _every_layer_net():
    rng = np.random.default_rng(21)
    return NetSpec([
        Conv2dLayer(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3), stride=2, pad=1),
        ReluLayer(),
        Conv2dLayer(rng.normal(size=(2, 3, 1, 1)) * 1e-300, rng.normal(size=2) * 1e300,
                    stride=1, pad=0),
        FlattenLayer(),
        DenseLayer(rng.normal(size=(4, 18)), -rng.random(4)),
        ReluLayer(),
        DenseLayer(np.array([[0.1, -0.0, 5e-324, 1.7976931348623157e308]]), np.zeros(1)),
    ])


def _conv_verify_net():
    # conv 3->8, conv 8->16 stride 2, dense 4096->10
    rng = np.random.default_rng(32)
    return NetSpec([
        Conv2dLayer(rng.normal(size=(8, 3, 3, 3)), rng.normal(size=8), stride=1, pad=1),
        ReluLayer(),
        Conv2dLayer(rng.normal(size=(16, 8, 3, 3)), rng.normal(size=16), stride=2, pad=1),
        ReluLayer(),
        FlattenLayer(),
        DenseLayer(rng.normal(size=(10, 4096)), rng.normal(size=10)),
    ])


class TestWellFormedWeights:
    @pytest.mark.parametrize("build", [_every_layer_net, build_fixture_net, _conv_verify_net])
    def test_save_load_bit_identical(self, tmp_path, build):
        net = build()
        path = tmp_path / "net.txt"
        save_weights(path, net)
        assert _layers_equal(load_weights(path), net)

    def test_comments_and_layout(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(
            "# leading comment\n"
            "layer conv2d 1 2 1 1 0 # header comment\n"
            "0.5\t-0.25\n"
            "  1e-3  # a form feed ends a line, as in str.splitlines\x0c"
            "2.5 layer flatten layer dense\n"
            "2 1 3 4\n"
            "\n"
            "-1 # trailing comment"
        )
        expected = NetSpec([
            Conv2dLayer(np.array([0.5, -0.25]).reshape(2, 1, 1, 1), np.array([1e-3, 2.5]),
                        stride=1, pad=0),
            FlattenLayer(),
            DenseLayer(np.array([[3.0, 4.0]]), np.array([-1.0])),
        ])
        assert _layers_equal(load_weights(path), expected)


class TestLipschitzOfForward:
    def test_slopes_below_operator_norm_product(self):
        rng = np.random.default_rng(11)
        w1 = rng.normal(size=(6, 8))
        w2 = rng.normal(size=(3, 6))
        net = NetSpec([
            DenseLayer(w1, rng.normal(size=6)),
            ReluLayer(),
            DenseLayer(w2, rng.normal(size=3)),
        ])
        bound = np.linalg.norm(w1, 2) * np.linalg.norm(w2, 2)
        for _ in range(200):
            a = rng.normal(size=(1, 8))
            b = rng.normal(size=(1, 8))
            num = np.linalg.norm(forward(net, a) - forward(net, b))
            den = np.linalg.norm(a - b)
            assert num <= bound * den + 1e-9
