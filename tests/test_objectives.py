import hashlib

import numpy as np
import pytest

from warpcheck import netfwd, objectives
from warpcheck.netfwd import (
    Conv2dLayer,
    DenseLayer,
    FlattenLayer,
    NetSpec,
    ReluLayer,
    forward,
)
from warpcheck.objectives import (
    MarginObjective,
    TransformDomain,
    make_multi_basin,
    margin_batch,
)
from warpcheck.objectives import test_function as make_function


class TestMarginLoss:
    def test_true_class_leads(self):
        assert margin_batch([[2.0, 1.0, 0.0]], 0).tolist() == [1.0]

    def test_true_class_trails(self):
        assert margin_batch([[2.0, 1.0, 0.0]], 1).tolist() == [-1.0]

    def test_tie_is_zero(self):
        assert margin_batch([[0.7, 0.7, 0.7]], 2).tolist() == [0.0]

    def test_needs_at_least_two_classes(self):
        with pytest.raises(ValueError):
            margin_batch([[1.0]], 0)

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            margin_batch([[1.0, 2.0]], 2)

    def test_batch_matches_scalar(self):
        # each row of a batch equals that row's one-row batch, bit for bit
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(20, 4))
        for label in range(4):
            rows = [margin_batch(row[None], label)[0] for row in logits]
            assert np.array_equal(margin_batch(logits, label), rows)


class TestTransformDomain:
    def test_from_ranges_symmetric(self):
        dom = TransformDomain.from_ranges(rotation=20.0, scale=0.1, translate=(22.4, 22.4))
        assert dom.factors == ("rotation", "scale", "t_hor", "t_vrt")
        assert dom.bounds == ((-20.0, 20.0), (0.9, 1.1), (-22.4, 22.4), (-22.4, 22.4))

    def test_zero_width_factor_dropped(self):
        dom = TransformDomain.from_ranges(rotation=0.0, scale=0.1)
        assert dom.factors == ("scale",)
        assert dom.bounds == ((0.9, 1.1),)
        assert dom.param_space().bounds == ((0.9, 1.1),)

    def test_all_degenerate_rejected(self):
        dom = TransformDomain.from_ranges()
        with pytest.raises(ValueError):
            dom.param_space()

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            TransformDomain.from_ranges(rotation=-5.0)

    @pytest.mark.parametrize("ranges", [{"rotation": np.nan}, {"scale": np.inf},
                                        {"translate": (np.nan, 1.0)}])
    def test_non_finite_radius_rejected(self, ranges):
        with pytest.raises(ValueError, match="finite"):
            TransformDomain.from_ranges(**ranges)

    @pytest.mark.parametrize("scale", [1.0, 1.5])
    def test_scale_radius_of_one_or_more_rejected(self, scale):
        # 1 - scale <= 0 would query zero or negative scale factors
        with pytest.raises(ValueError, match="below 1"):
            TransformDomain.from_ranges(scale=scale)
        assert TransformDomain.from_ranges(scale=0.5).bounds == ((0.5, 1.5),)

    @pytest.mark.parametrize("rotation", [180.5, 181.0, 400.0])
    def test_rotation_radius_above_180_rejected(self, rotation):
        # a wider box would search some angles two or three times over
        with pytest.raises(ValueError, match="at most 180"):
            TransformDomain.from_ranges(rotation=rotation)
        assert TransformDomain.from_ranges(rotation=180.0).bounds == ((-180.0, 180.0),)

    @pytest.mark.parametrize("factors, bounds", [
        (("shear",), ((0.0, 1.0),)),
        (("scale", "rotation"), ((0.9, 1.1), (-5.0, 5.0))),
        (("scale", "scale"), ((0.9, 1.1), (0.9, 1.1))),
        (("scale",), ()),
    ])
    def test_malformed_factors_rejected(self, factors, bounds):
        with pytest.raises(ValueError, match="distinct factors"):
            TransformDomain(factors, bounds)

    def test_identity_fill_for_inactive_factors(self):
        dom = TransformDomain.from_ranges(scale=0.1)
        cols = dom.factor_columns(np.array([[1.05], [0.95]]))
        assert np.array_equal(cols["scale"], [1.05, 0.95])
        assert np.array_equal(cols["rotation"], [0.0, 0.0])
        assert np.array_equal(cols["t_hor"], [0.0, 0.0])

    def test_wrong_column_count_rejected(self):
        dom = TransformDomain.from_ranges(rotation=10.0, scale=0.1)
        with pytest.raises(ValueError):
            dom.factor_columns(np.zeros((3, 3)))


def linear_model(weights):
    """Single dense layer over flattened pixels."""
    h, w = weights.shape[1:]
    net = NetSpec([FlattenLayer(), DenseLayer(weights.reshape(len(weights), -1), np.zeros(len(weights)))])
    return lambda batch: forward(net, batch)


class TestMarginObjective:
    def _objective(self):
        rng = np.random.default_rng(4)
        img = rng.random((6, 6, 1))
        w = np.stack([rng.random((6, 6)), rng.random((6, 6))])
        model = linear_model(w)
        dom = TransformDomain.from_ranges(rotation=15.0, translate=(1.0, 1.0))
        return MarginObjective(model, img, 0, dom), dom

    def test_identity_point_equals_clean_margin_exactly(self):
        obj, dom = self._objective()
        space = dom.param_space()
        center = space.to_physical(np.full(space.n, 0.5))
        assert obj(center[None])[0] == obj.clean_margin

    def test_clean_margin_runs_the_model_once(self):
        calls = []

        def model(batch):
            calls.append(len(batch))
            return np.stack([batch.sum(axis=(1, 2, 3)), np.zeros(len(batch))], axis=1)

        dom = TransformDomain.from_ranges(rotation=5.0)
        obj = MarginObjective(model, np.full((4, 4), 0.25), 0, dom)
        assert obj.clean_margin == 4.0
        assert obj.clean_margin == 4.0
        assert calls == [1]

    def test_batch_purity_with_duplicates(self):
        obj, dom = self._objective()
        space = dom.param_space()
        rng = np.random.default_rng(1)
        pts = space.to_physical(rng.random((5, space.n)))
        batch = np.vstack([pts, pts[2:3], pts[0:1]])
        vals = obj(batch)
        assert vals[5] == vals[2]
        assert vals[6] == vals[0]

    def test_constant_image_translation_invariance_interior_weights(self):
        # weights supported away from the border: translations that keep
        # the border band outside the support leave the margin unchanged
        img = np.full((8, 8, 1), 0.7)
        w0 = np.zeros((8, 8))
        w0[2:6, 2:6] = 1.0
        model = linear_model(np.stack([w0, -w0]))
        dom = TransformDomain.from_ranges(translate=(1.4, 1.4))
        obj = MarginObjective(model, img, 0, dom)
        pts = np.array([[0.0, 0.0], [1.3, 0.0], [-1.3, 1.3], [0.7, -1.2]])
        vals = obj(pts)
        assert np.max(np.abs(vals - vals[0])) < 1e-9

    def test_no_points_gives_no_margins(self):
        obj, dom = self._objective()
        assert obj(np.empty((0, dom.param_space().n))).shape == (0,)

    def test_blocks_of_the_batch_go_to_the_model(self, monkeypatch):
        obj, dom = self._objective()
        model, calls = obj.model, []
        obj.model = lambda batch: (calls.append(len(batch)), model(batch))[1]
        space = dom.param_space()
        pts = space.to_physical(np.random.default_rng(2).random((23, space.n)))
        monkeypatch.setattr(objectives, "_BLOCK_VALUES", 5 * 36 + 35)  # 5 of the 6x6 images
        margins = obj(pts)
        assert calls == [5, 5, 5, 5, 3]
        assert np.array_equal(margins, np.concatenate([obj(pts[s : s + 5]) for s in range(0, 23, 5)]))

    def test_large_batch_keeps_the_arena_to_one_block(self):
        # 16x16x3 images: a block is 682 points, so a 2000-point call runs
        # three blocks and the arena holds no more than one block's conv
        # output, and the padded input and lowered windows of one lowering
        # block (9 images of 16x16x27 window floats)
        rng = np.random.default_rng(5)
        net = NetSpec([
            Conv2dLayer(rng.normal(0.0, 0.27, (4, 3, 3, 3)), rng.normal(0.0, 0.05, 4), 1, 1),
            FlattenLayer(),
            DenseLayer(rng.normal(0.0, 0.03, (2, 1024)), np.zeros(2)),
        ])
        dom = TransformDomain.from_ranges(rotation=10.0, translate=(1.5, 1.5))
        obj = MarginObjective(lambda batch: forward(net, batch), rng.random((16, 16, 3)), 0, dom)
        space = dom.param_space()
        obj(space.to_physical(rng.random((2000, space.n))))
        step = objectives._BLOCK_VALUES // (16 * 16 * 3)
        conv_step = netfwd._IM2COL_BLOCK_FLOATS // (16 * 16 * 27)
        padded, out = 18 * 18 * 3, 16 * 16 * 4  # floats per image
        bound = 8 * (conv_step * padded + step * out + netfwd._IM2COL_BLOCK_FLOATS)
        assert sum(buf.nbytes for buf in net.scratch.values()) <= bound

    def test_rejects_out_of_range_image(self):
        dom = TransformDomain.from_ranges(scale=0.1)
        with pytest.raises(ValueError):
            MarginObjective(lambda b: np.zeros((len(b), 2)), np.full((4, 4), 2.0), 0, dom)

    def test_negative_margin_means_misclassified(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(200, 3))
        for label in range(3):
            margins = margin_batch(logits, label)
            flipped = logits.argmax(axis=1) != label
            assert np.array_equal(margins < 0.0, flipped & (margins != 0.0))
            # ties sit exactly at zero and count as not verified
            assert np.all((margins > 0.0) == (~flipped))


class TestConvGolden:
    """SHA-256 of the margins of a seeded two-conv net, pinned.

    The net has the layer shapes of the benchmark's conv net at 16x16x3:
    conv 3->8 (stride 1, pad 1), conv 8->16 (stride 2, pad 1), dense
    1024->10.  One objective is called at 1, 17 and 46 points in turn, so
    any change to the conv lowering, its buffers or the warp that moves a
    bit of a margin shows here as a changed digest.
    """

    def test_margin_digest(self):
        rng = np.random.default_rng(16)
        net = NetSpec([
            Conv2dLayer(rng.normal(0.0, 0.27, (8, 3, 3, 3)), rng.normal(0.0, 0.05, 8), 1, 1),
            ReluLayer(),
            Conv2dLayer(rng.normal(0.0, 0.17, (16, 8, 3, 3)), rng.normal(0.0, 0.05, 16), 2, 1),
            ReluLayer(),
            FlattenLayer(),
            DenseLayer(rng.normal(0.0, 0.044, (10, 1024)), rng.normal(0.0, 0.05, 10)),
        ])
        dom = TransformDomain.from_ranges(rotation=10.0, scale=0.05, translate=(1.5, 1.5))
        obj = MarginObjective(lambda batch: forward(net, batch), rng.random((16, 16, 3)), 3, dom)
        space = dom.param_space()
        digest = hashlib.sha256()
        for n in (1, 17, 46):
            digest.update(obj(space.to_physical(rng.random((n, space.n)))).tobytes())
        assert digest.hexdigest() == (
            "7955c04c0829879358f3418d0b62ebf334aa75782b4cc4db369f8db6e4918bcd"
        )


class TestFunctions:
    def test_abs1d(self):
        fn = make_function("abs1d")
        assert fn([[0.3]])[0] == 0.0
        assert fn([[0.8]])[0] == pytest.approx(0.5)
        assert fn.lipschitz == 1.0 and fn.min_value == 0.0

    def test_separable_abs(self):
        fn = make_function("separable-abs-2d")
        assert fn.dim == 2
        assert fn([[0.3, 0.7]])[0] == 0.0
        assert fn([[0.0, 0.0]])[0] == pytest.approx(1.0)

    def test_quadratic_bowl(self):
        fn = make_function("quadratic-bowl")
        assert fn([[0.5, 0.5]])[0] == 0.0
        assert fn([[0.0, 0.0]])[0] == pytest.approx(0.5)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_function("rosenbrock")

    def test_multi_basin_fixture_matches_dense_grid(self):
        # recompute the pinned minimum with the same dense-grid enumeration
        fn = make_function("multi-basin")
        axis = np.linspace(0.0, 1.0, 1000)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        vals = fn(pts)
        idx = int(np.argmin(vals))
        assert vals[idx] == fn.min_value
        assert np.array_equal(pts[idx], fn.min_loc)

    def test_multi_basin_family_is_deterministic(self):
        a = make_multi_basin(3)
        b = make_multi_basin(3)
        pts = np.random.default_rng(0).random((50, 2))
        assert np.array_equal(a(pts), b(pts))

    def test_multi_basin_lipschitz_bound_holds_empirically(self):
        fn = make_function("multi-basin")
        rng = np.random.default_rng(8)
        pts = rng.random((400, 2))
        step = 1e-6
        for dim in range(2):
            shifted = pts.copy()
            shifted[:, dim] += step
            slopes = np.abs(fn(shifted) - fn(pts)) / step
            assert slopes.max() <= fn.lipschitz


UNIT = (0.0, 1.0)
ABS_3D = np.array([0.3, 0.7, 0.3])

# name -> (dim, bounds, lipschitz, min_value, min_loc, closed form on (B, dim) points)
FUNCTION_TABLE = {
    "abs1d": (1, (UNIT,), 1.0, 0.0, [0.3],
              lambda t: np.abs(t - ABS_3D[:1]).sum(axis=1)),
    "separable-abs-1d": (1, (UNIT,), 1.0, 0.0, [0.3],
                         lambda t: np.abs(t - ABS_3D[:1]).sum(axis=1)),
    "separable-abs-3d": (3, (UNIT,) * 3, 1.0, 0.0, [0.3, 0.7, 0.3],
                         lambda t: np.abs(t - ABS_3D).sum(axis=1)),
    "quadratic-bowl": (2, (UNIT,) * 2, 1.0, 0.0, [0.5, 0.5],
                       lambda t: ((t - 0.5) ** 2).sum(axis=1)),
    "quadratic-bowl-3d": (3, (UNIT,) * 3, 1.0, 0.0, [0.5, 0.5, 0.5],
                          lambda t: ((t - 0.5) ** 2).sum(axis=1)),
    "multi-basin": (2, (UNIT,) * 2, 9.037755518163962, -0.43811780709552245,
                    [0.7527527527527528, 0.6396396396396397], make_multi_basin(0).fn),
}


class TestFunctionTable:
    """Every field of each named test function, pinned exactly."""

    @pytest.mark.parametrize("name", sorted(FUNCTION_TABLE))
    def test_fields_and_values(self, name):
        dim, bounds, lipschitz, min_value, min_loc, closed_form = FUNCTION_TABLE[name]
        fn = make_function(name)
        assert (fn.name, fn.dim, fn.bounds, fn.lipschitz) == (name, dim, bounds, lipschitz)
        assert np.array_equal(fn.min_value, min_value, equal_nan=True)
        assert np.array_equal(fn.min_loc, min_loc, equal_nan=True)
        pts = np.random.default_rng(12).random((64, dim))
        assert np.array_equal(fn(pts), closed_form(pts))
        assert np.array_equal(fn.fn(pts), closed_form(pts))

    @pytest.mark.parametrize("name", ["separable-abs-0d", "quadratic-bowl-0d", "abs2d"])
    def test_bad_names_rejected(self, name):
        with pytest.raises(ValueError):
            make_function(name)
