import numpy as np
import pytest

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

    def test_shape_mismatch_raises(self):
        net = NetSpec([DenseLayer(np.eye(4), np.zeros(4))])
        with pytest.raises(ShapeError):
            forward(net, np.ones((2, 3)))
        with pytest.raises(ShapeError):
            forward(net, np.ones(4))


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
        assert net.n_classes == 2
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
