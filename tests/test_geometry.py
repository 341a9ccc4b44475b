import math
import tracemalloc

import numpy as np
import pytest

from oracles import warp_batch_reference, warp_coordinate_grads_reference
from warpcheck import geometry
from warpcheck.geometry import (
    FACTORS,
    IDENTITY,
    TransformParams,
    build_matrix,
    build_matrix_batch,
    lipschitz_bound,
    matrix_grad,
    validate_image,
    warp,
    warp_batch,
    warp_coordinate_grads,
    warp_grad,
)


def fd_grad(image, params, factor, step=1e-4):
    """Central finite differences through the full warp."""
    values = {f: getattr(params, f) for f in FACTORS}
    hi = dict(values)
    lo = dict(values)
    hi[factor] += step
    lo[factor] -= step
    up = warp(image, build_matrix(TransformParams(**hi)))
    down = warp(image, build_matrix(TransformParams(**lo)))
    return (up - down) / (2.0 * step)


def random_params(rng, rotation_range=(-20.0, 20.0)):
    return TransformParams(
        rotation=float(rng.uniform(*rotation_range)),
        scale=float(rng.uniform(0.9, 1.1)),
        t_hor=float(rng.uniform(-1.5, 1.5)),
        t_vrt=float(rng.uniform(-1.5, 1.5)),
    )


def kink_free(image, params, margin=5e-3):
    """Source coordinates stay clear of the integer lattice."""
    from warpcheck.geometry import _source_coords

    img = validate_image(image)
    h, w, _ = img.shape
    rows, cols, _, _ = _source_coords(build_matrix(params)[None], h, w)
    frac_r = np.abs(rows - np.round(rows))
    frac_c = np.abs(cols - np.round(cols))
    return float(min(frac_r.min(), frac_c.min())) > margin


class TestBuildMatrix:
    def test_identity(self):
        assert np.array_equal(build_matrix(IDENTITY), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_quarter_turn(self):
        got = build_matrix(TransformParams(rotation=90.0))
        assert got == pytest.approx(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]), abs=1e-15)

    def test_pure_scale(self):
        got = build_matrix(TransformParams(scale=1.1))
        assert np.array_equal(got, [[1.1, 0.0, 0.0], [0.0, 1.1, 0.0]])

    def test_translation_entries_in_pixels(self):
        got = build_matrix(TransformParams(t_hor=2.5, t_vrt=-1.0))
        assert got[0, 2] == 2.5 and got[1, 2] == -1.0

    def test_scale_touches_only_cosine_entries_by_default(self):
        p = TransformParams(rotation=30.0, scale=1.2, t_hor=0.5, t_vrt=-2.0)
        c, s = np.cos(np.radians(30.0)), np.sin(np.radians(30.0))
        assert np.array_equal(build_matrix(p), [[1.2 * c, -s, 0.5], [s, 1.2 * c, -2.0]])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        ps = [random_params(rng) for _ in range(6)]
        batch = build_matrix_batch(
            np.array([p.rotation for p in ps]),
            np.array([p.scale for p in ps]),
            np.array([p.t_hor for p in ps]),
            np.array([p.t_vrt for p in ps]),
        )
        for mat, p in zip(batch, ps):
            assert np.array_equal(mat, build_matrix(p))


class TestWarp:
    def test_identity_bit_equal(self):
        rng = np.random.default_rng(3)
        img = rng.random((6, 9, 2))
        out = warp(img, build_matrix(IDENTITY))
        assert np.array_equal(out, img)

    def test_half_pixel_shift_hand_values(self):
        a, b = 0.2, 0.8
        img = np.array([[[a], [b]]])
        out = warp(img, build_matrix(TransformParams(t_hor=0.5)))
        assert out[0, 0, 0] == pytest.approx(0.5 * (a + b), abs=1e-12)
        assert out[0, 1, 0] == pytest.approx(0.5 * b, abs=1e-12)

    def test_zero_image_stays_zero(self):
        img = np.zeros((5, 5, 1))
        rng = np.random.default_rng(1)
        for _ in range(5):
            out = warp(img, build_matrix(random_params(rng)))
            assert np.all(out == 0.0)

    def test_linearity_in_pixel_values(self):
        rng = np.random.default_rng(7)
        x = rng.random((7, 7, 1))
        z = rng.random((7, 7, 1))
        a, b = 0.3, 1.7
        for _ in range(5):
            m = build_matrix(random_params(rng))
            lhs = warp(a * x + b * z, m)
            rhs = a * warp(x, m) + b * warp(z, m)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_range_preserved_for_unit_images(self):
        rng = np.random.default_rng(11)
        img = rng.random((8, 8, 1))
        for _ in range(10):
            out = warp(img, build_matrix(random_params(rng)))
            assert out.min() >= 0.0
            assert out.max() <= img.max() + 1e-12

    def test_kernel_weights_sum_to_one_interior(self):
        # constant image, small shift: interior pixels keep the value
        img = np.ones((6, 6, 1))
        out = warp(img, build_matrix(TransformParams(t_hor=0.37, t_vrt=-0.21)))
        assert out[2:4, 2:4, :] == pytest.approx(1.0, abs=1e-12)

    def test_warp_batch_matches_loop(self):
        rng = np.random.default_rng(5)
        img = rng.random((8, 8, 1))
        mats = build_matrix_batch(
            rng.uniform(-20, 20, 4), rng.uniform(0.9, 1.1, 4),
            rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4),
        )
        batch = warp_batch(img, mats)
        for k in range(4):
            assert np.array_equal(batch[k], warp(img, mats[k]))

    def test_large_batch_peak_memory(self):
        # the warp fills its output in chunks, so a large batch needs little
        # memory beyond the output itself
        rng = np.random.default_rng(20000)
        img = rng.random((8, 8, 1))
        mats = build_matrix_batch(
            rng.uniform(-10.0, 10.0, 20000),
            rng.uniform(0.9, 1.1, 20000),
            rng.uniform(-1.0, 1.0, 20000),
            rng.uniform(-1.0, 1.0, 20000),
        )
        tracemalloc.start()
        try:
            out = warp_batch(img, mats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.nbytes

    def test_rejects_bad_matrix_shape(self):
        with pytest.raises(ValueError):
            warp(np.zeros((4, 4)), np.eye(3))

    @pytest.mark.parametrize(
        "call",
        [
            lambda img: warp_batch(img, np.eye(2, 3)),
            lambda img: warp_batch(img, np.stack([np.eye(3)] * 3)),
            lambda img: warp_batch(img, np.full((1, 2, 3), np.nan)),
            lambda img: warp_batch(img, [[[1.0, 0.0, np.inf], [0.0, 1.0, 0.0]]]),
            lambda img: warp_coordinate_grads(img, np.eye(3)),
            lambda img: warp_coordinate_grads(img, np.eye(2, 3)[None]),
            lambda img: warp_coordinate_grads(img, [[1.0, 0.0, 0.0], [0.0, np.nan, 0.0]]),
            lambda img: warp(img, np.full((2, 3), -np.inf)),
        ],
        ids=["2x3-as-batch", "3x3x3-batch", "nan-batch", "inf-batch", "grads-3x3",
             "grads-1x2x3", "grads-nan", "warp-inf"],
    )
    def test_rejects_bad_matrices(self, call):
        with pytest.raises(ValueError, match="matri"):
            call(np.random.default_rng(3).random((4, 5, 2)))

    def test_empty_batch(self):
        assert warp_batch(np.zeros((4, 5, 2)), np.zeros((0, 2, 3))).shape == (0, 4, 5, 2)


def bit_identical(a, b):
    """Equal values, shapes and signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def extreme_matrices(rng, n):
    """Seeded matrices mixing ordinary, near-zero and large scales with
    translations up to far beyond the image."""
    scale = rng.choice([1e-9, 1e-3, 1.0, 40.0, 1e6], n) * rng.uniform(0.5, 1.5, n)
    shift = rng.choice([0.0, 1.0, 1e3, 1e9], (2, n)) * rng.normal(size=(2, n))
    return build_matrix_batch(rng.uniform(-180.0, 180.0, n), scale, shift[0], shift[1])


class TestWarpMatchesMaskedReference:
    """The padded single-gather warp against the masked per-corner reference."""

    @pytest.mark.parametrize("batch", [1, 17, 20000])
    @pytest.mark.parametrize("shape", [(5, 9, 1), (7, 4, 3)])
    def test_warp_batch(self, batch, shape):
        rng = np.random.default_rng(batch + shape[2])
        # negative pixels make masked-out corners signed zeros
        img = rng.random(shape) - 0.5
        mats = extreme_matrices(rng, batch)
        assert bit_identical(warp_batch(img, mats), warp_batch_reference(img, mats))

    @pytest.mark.parametrize("chunk_points", [1, 3, 100])
    @pytest.mark.parametrize("shape", [(5, 9, 1), (7, 4, 3)])
    def test_chunk_edges(self, monkeypatch, chunk_points, shape):
        # chunks of one point (a single source position still makes one),
        # of 3 points (the last of the 17 holds 2) and of more than the batch
        h, w, _ = shape
        positions = 1 if chunk_points == 1 else chunk_points * h * w
        monkeypatch.setattr(geometry, "_WARP_CHUNK_POSITIONS", positions)
        rng = np.random.default_rng(chunk_points + shape[2])
        img = rng.random(shape) - 0.5
        mats = extreme_matrices(rng, 17)
        assert bit_identical(warp_batch(img, mats), warp_batch_reference(img, mats))

    @pytest.mark.parametrize("shape", [(5, 9, 1), (7, 4, 3), (6, 6, 1)])
    def test_coordinate_grads(self, shape):
        rng = np.random.default_rng(shape[0])
        img = rng.random(shape) - 0.5
        mats = np.concatenate([extreme_matrices(rng, 40), [build_matrix(IDENTITY)]])
        for m in mats:
            got = warp_coordinate_grads(img, m)
            want = warp_coordinate_grads_reference(img, m)
            assert bit_identical(got[0], want[0])
            assert bit_identical(got[1], want[1])


class TestValidateImage:
    def test_promotes_two_dim(self):
        out = validate_image(np.zeros((4, 5)))
        assert out.shape == (4, 5, 1)

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            validate_image(np.zeros(3))
        with pytest.raises(ValueError):
            validate_image(np.full((2, 2), np.nan))
        with pytest.raises(ValueError):
            validate_image(np.full((2, 2), 1.5), check_range=True)


def clear_config(rng, shape=(8, 8, 1)):
    """Random image and params with source coordinates clear of kinks."""
    while True:
        img = rng.random(shape)
        params = random_params(rng)
        if kink_free(img, params):
            return img, params


class TestWarpGrad:
    def test_constant_image_zero_gradients_where_interior(self):
        # pixel differences vanish on a constant image; only the zero-pad
        # band at the border carries real gradients
        rng = np.random.default_rng(31)
        _, params = clear_config(rng)
        img = np.full((8, 8, 1), 0.6)
        for factor in FACTORS:
            grad = warp_grad(img, params, factor)
            assert np.max(np.abs(grad[3:5, 3:5, :])) < 1e-12

    def test_scale_gradient_matches_finite_differences(self):
        # representative configuration near (10deg, 1.05, 1.0, -0.5)
        rng = np.random.default_rng(13)
        while True:
            img = rng.random((8, 8, 1))
            params = TransformParams(
                rotation=10.0 + float(rng.uniform(-0.3, 0.3)),
                scale=1.05 + float(rng.uniform(-0.003, 0.003)),
                t_hor=1.0 + float(rng.uniform(-0.1, 0.1)),
                t_vrt=-0.5 + float(rng.uniform(-0.1, 0.1)),
            )
            if kink_free(img, params):
                break
        analytic = warp_grad(img, params, "scale")
        numeric = fd_grad(img, params, "scale")
        denom = max(np.max(np.abs(numeric)), 1e-9)
        assert np.max(np.abs(analytic - numeric)) / denom < 1e-3

    @pytest.mark.parametrize("factor", FACTORS)
    def test_all_factors_match_finite_differences(self, factor):
        rng = np.random.default_rng(FACTORS.index(factor))
        hits = 0
        while hits < 10:
            img = rng.random((7, 9, 1))
            params = random_params(rng)
            if not kink_free(img, params):
                continue
            hits += 1
            analytic = warp_grad(img, params, factor)
            numeric = fd_grad(img, params, factor)
            denom = max(np.max(np.abs(numeric)), 1e-9)
            assert np.max(np.abs(analytic - numeric)) / denom < 1e-3

    def test_coordinate_grads_bounded_for_unit_images(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            img = rng.random((8, 8, 1))
            m = build_matrix(random_params(rng))
            d_dx, d_dy = warp_coordinate_grads(img, m)
            assert np.max(np.abs(d_dx)) <= 1.0 + 1e-12
            assert np.max(np.abs(d_dy)) <= 1.0 + 1e-12

    def test_kink_convention_at_integral_coordinates(self):
        # identity mapping: every source coordinate is integral, and the
        # coincident pixel counts as lying ahead of the position
        rng = np.random.default_rng(19)
        img = rng.random((5, 5, 1))
        d_dx, d_dy = warp_coordinate_grads(img, build_matrix(IDENTITY))
        assert np.array_equal(d_dx, img)
        assert np.array_equal(d_dy, img)

    def test_unknown_factor_rejected(self):
        with pytest.raises(ValueError):
            matrix_grad(IDENTITY, "shear")


class TestLipschitzBound:
    def test_scale_bound_with_zero_in_range(self):
        bounds = lipschitz_bound(4, 4, (-20.0, 20.0))
        assert bounds["scale"] == pytest.approx(8.0)

    def test_scale_bound_off_zero_range(self):
        bounds = lipschitz_bound(4, 4, (30.0, 60.0))
        assert bounds["scale"] == pytest.approx(math.cos(math.radians(30.0)) * 8.0)

    def test_translation_bound_independent_of_ranges(self):
        a = lipschitz_bound(4, 4, (-20.0, 20.0), scale_max=1.1)
        b = lipschitz_bound(4, 4, (30.0, 60.0), scale_max=2.0)
        assert a["t_hor"] == b["t_hor"] == 1.0
        assert a["t_vrt"] == b["t_vrt"] == 1.0

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            lipschitz_bound(4, 4, (10.0, -10.0))

    @pytest.mark.parametrize(
        "rotation_range",
        [(-20.0, 20.0), (30.0, 60.0), (80.0, 85.0), (100.0, 120.0), (170.0, 190.0),
         (-120.0, -100.0)],
        ids=lambda r: f"{r[0]:g}..{r[1]:g}",
    )
    def test_empirical_gradients_stay_below_bounds(self, rotation_range):
        rng = np.random.default_rng(23)
        bounds = lipschitz_bound(8, 8, rotation_range, scale_max=1.1)
        assert all(bound >= 0.0 for bound in bounds.values())
        for _ in range(25):
            uniform = rng.random((8, 8, 1))
            params = random_params(rng, rotation_range)
            # binary images put whole-range pixel steps under the kernel
            for img in (uniform, (uniform > 0.5).astype(float)):
                for factor in FACTORS:
                    grad = warp_grad(img, params, factor)
                    assert np.max(np.abs(grad)) <= bounds[factor] + 1e-9

    def test_per_configuration_scale_bound(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            img = rng.random((6, 10, 1))
            params = random_params(rng)
            grad = warp_grad(img, params, "scale")
            per_config = lipschitz_bound(6, 10, (params.rotation, params.rotation))
            assert np.max(np.abs(grad)) <= per_config["scale"] + 1e-9
