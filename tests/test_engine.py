import hashlib

import numpy as np
import pytest

from warpcheck.baselines import grid_search, random_pick
from warpcheck.engine import (
    FALSIFIED,
    UNDECIDED,
    VERIFIED_ESTIMATE,
    BudgetConfig,
    ObjectiveError,
    run,
    verify,
)
from fixtures import build_fixture_examples, fixture_domain, fixture_model
from warpcheck.objectives import MarginObjective, make_multi_basin
from warpcheck.objectives import test_function as make_function
from warpcheck.partition import ParamSpace

UNIT1 = ParamSpace([(0.0, 1.0)])


def counting(fn):
    calls = {"batches": 0, "points": 0}

    def wrapped(pts):
        calls["batches"] += 1
        calls["points"] += len(pts)
        return fn(pts)

    return wrapped, calls


class TestRunBasics:
    def test_constant_objective_exhausts_depth(self):
        fn = lambda pts: np.zeros(len(pts))
        trace = run(fn, UNIT1, BudgetConfig(max_iters=10, max_queries=100, depth=2, alpha=1))
        assert trace.l_min == 0.0
        assert trace.l_star_min == 0.0
        assert trace.stop_reason == "exhausted"
        assert trace.queries <= 3**2

    def test_identity_point_is_first_query(self):
        seen = []
        space = ParamSpace([(-20.0, 20.0), (0.9, 1.1)])

        def fn(pts):
            seen.extend(np.asarray(pts).tolist())
            return np.zeros(len(pts))

        trace = run(fn, space, BudgetConfig(max_iters=1, max_queries=10, depth=2))
        assert seen[0] == [0.0, 1.0]
        assert trace.records[0].queries == 1
        assert trace.records[0].n_po == 1

    def test_abs1d_converges_within_depth_resolution(self):
        fn = make_function("abs1d")
        trace = run(fn, fn.param_space(), BudgetConfig(max_iters=50, max_queries=5000, depth=6, alpha=1))
        assert trace.l_min <= 3.0**-6
        # independent dense-grid check at finer resolution
        oracle = grid_search(fn, fn.param_space(), 3**7 + 1)
        assert trace.l_min <= oracle.min_value + 1.0 * (1.0 / 3**7)

    def test_separable_2d_locates_minimum(self):
        fn = make_function("separable-abs-2d")
        trace = run(fn, fn.param_space(), BudgetConfig(max_iters=80, max_queries=20000, depth=5, alpha=2))
        assert np.max(np.abs(trace.c_min - np.array([0.3, 0.7]))) <= 3.0**-5

    def test_trace_monotonicity(self):
        fn = make_function("multi-basin")
        trace = run(fn, fn.param_space(), BudgetConfig(max_iters=30, max_queries=2000, depth=5))
        l_mins = [r.l_min for r in trace.records]
        queries = [r.queries for r in trace.records]
        stars = [r.l_star_min for r in trace.records]
        assert all(a >= b for a, b in zip(l_mins, l_mins[1:]))
        assert all(a <= b for a, b in zip(queries, queries[1:]))
        assert all(s <= l for s, l in zip(stars, l_mins))

    def test_progress_and_query_floor(self):
        fn = make_function("quadratic-bowl")
        trace = run(fn, fn.param_space(), BudgetConfig(max_iters=12, max_queries=10000, depth=4))
        for before, after in zip(trace.records, trace.records[1:]):
            assert after.n_po >= 1
            assert after.queries - before.queries >= 2

    def test_query_budget_checked_before_batch(self):
        fn, calls = counting(lambda pts: np.abs(pts[:, 0] - 0.3))
        budget = BudgetConfig(max_iters=100, max_queries=10, depth=8, alpha=1)
        trace = run(fn, UNIT1, budget)
        assert trace.stop_reason == "queries"
        # the final batch may overshoot, but only by one iteration's worth
        overshoot = trace.queries - budget.max_queries
        last_batch = trace.records[-1].queries - trace.records[-2].queries
        assert 0 <= overshoot < last_batch or overshoot == 0

    def test_batch_order_independence(self):
        fn = make_function("multi-basin")

        def shuffled(pts):
            pts = np.asarray(pts)
            order = np.argsort(pts[:, 0] * 7919.0 % 1.0, kind="stable")
            inverse = np.argsort(order, kind="stable")
            return fn(pts[order])[inverse]

        budget = BudgetConfig(max_iters=25, max_queries=3000, depth=5)
        a = run(fn, fn.param_space(), budget)
        b = run(shuffled, fn.param_space(), budget)
        assert a.to_csv() == b.to_csv()

    def test_deterministic_traces(self):
        fn = make_function("multi-basin")
        budget = BudgetConfig(max_iters=20, max_queries=2000, depth=5)
        a = run(fn, fn.param_space(), budget)
        b = run(fn, fn.param_space(), budget)
        assert a.to_csv() == b.to_csv()

    def test_objective_failure_preserves_partial_trace(self):
        def fn(pts):
            pts = np.asarray(pts)
            out = np.abs(pts[:, 0] - 0.3)
            out[pts[:, 0] < 0.1] = np.nan
            return out

        with pytest.raises(ObjectiveError) as info:
            run(fn, UNIT1, BudgetConfig(max_iters=50, max_queries=5000, depth=6))
        trace = info.value.trace
        assert trace.stop_reason == "objective-error"
        assert len(trace.records) >= 1

    def test_bad_shape_rejected(self):
        fn = lambda pts: np.zeros((len(pts), 2))
        with pytest.raises(ObjectiveError):
            run(fn, UNIT1, BudgetConfig())

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            BudgetConfig(max_iters=0)
        with pytest.raises(ValueError):
            BudgetConfig(depth=0)
        with pytest.raises(ValueError):
            BudgetConfig(tau=0.0)
        with pytest.raises(ValueError):
            BudgetConfig(tau=np.inf)
        with pytest.raises(ValueError):
            BudgetConfig(tau=np.nan)
        with pytest.raises(ValueError):
            BudgetConfig(alpha=0)

    def test_trace_csv_schema(self):
        fn = make_function("abs1d")
        trace = run(fn, fn.param_space(), BudgetConfig(max_iters=3, max_queries=50, depth=3))
        lines = trace.to_csv().splitlines()
        assert lines[0].startswith("# warpcheck-trace")
        assert lines[1] == "iteration,queries,l_min,l_star_min,k_hat_max,n_po"
        assert len(lines) == 2 + len(trace.records)

    def test_write_csv_writes_to_csv_bytes(self, tmp_path):
        fn = make_function("multi-basin")
        trace = run(fn, fn.param_space(), BudgetConfig(max_iters=8, max_queries=200, depth=4))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        assert path.read_bytes() == trace.to_csv().encode()


class TestObjectiveContract:
    """The search and both baselines call an objective through one function, so
    a broken objective raises the same ObjectiveError from each of them."""

    METHODS = {
        "run": lambda fn: run(fn, UNIT1, BudgetConfig(max_iters=3)),
        "grid": lambda fn: grid_search(fn, UNIT1, 5),
        "random": lambda fn: random_pick(fn, UNIT1, 7, seed=0),
    }
    BROKEN = {
        "raises": lambda pts: 1 / 0,
        "shape": lambda pts: np.zeros((len(pts), 2)),
        "nan": lambda pts: np.full(len(pts), np.nan),
    }

    @pytest.mark.parametrize("kind", sorted(BROKEN))
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_same_error_from_every_method(self, method, kind):
        sizes = []
        fn = lambda pts: (sizes.append(len(pts)), self.BROKEN[kind](pts))[1]
        with pytest.raises(ObjectiveError) as info:
            self.METHODS[method](fn)
        n = sizes[-1]
        assert str(info.value) == {
            "raises": "objective raised: division by zero",
            "shape": f"objective returned shape ({n}, 2), expected ({n},)",
            "nan": "objective returned a non-finite value",
        }[kind]
        assert isinstance(info.value, ValueError)
        if method == "run":
            assert info.value.trace.stop_reason == "objective-error"
        else:
            assert info.value.trace is None


class TestCoverage:
    def test_full_depth_coverage_bounded_by_grid(self):
        # unbounded budget, depth 2, 2 dims: every rect reaches the floor
        fn = lambda pts: np.sin(7.0 * pts[:, 0]) + np.cos(5.0 * pts[:, 1])
        space = ParamSpace([(0.0, 1.0), (0.0, 1.0)])
        trace = run(fn, space, BudgetConfig(max_iters=10**6, max_queries=10**6, depth=2, alpha=3))
        assert trace.stop_reason == "exhausted"
        assert trace.queries <= 3 ** (2 * 2)


class TestVerify:
    def test_constant_positive_margin_verified(self):
        fn = lambda pts: np.ones(len(pts))
        result = verify(fn, UNIT1, BudgetConfig(max_iters=5, max_queries=100, depth=2))
        assert result.status == VERIFIED_ESTIMATE
        assert result.l_star_min == 1.0
        assert result.witness is None

    def test_zero_crossing_falsified_with_witness(self):
        fn = lambda pts: np.abs(pts[:, 0] - 0.3) - 0.1
        result = verify(fn, UNIT1, BudgetConfig(max_iters=30, max_queries=2000, depth=6))
        assert result.status == FALSIFIED
        assert result.l_min < 0.0
        assert abs(result.witness[0] - 0.3) <= 0.1

    def test_shallow_depth_with_steep_slope_undecided(self):
        # minimum stays at +0.05 but the observed slope of 1.26 pushes the
        # bound to 0.05 - 1.26/18 = -0.02 before depth runs out
        fn = lambda pts: 0.05 + 1.26 * np.abs(pts[:, 0] - 0.5)
        result = verify(fn, UNIT1, BudgetConfig(max_iters=10, max_queries=100, depth=1))
        assert result.status == UNDECIDED
        assert result.l_min == pytest.approx(0.05)
        assert result.l_star_min == pytest.approx(-0.02)

    def test_zero_margin_not_verified(self):
        fn = lambda pts: np.zeros(len(pts))
        result = verify(fn, UNIT1, BudgetConfig(max_iters=4, max_queries=50, depth=2))
        assert result.status == UNDECIDED

    def test_summary_record_carries_verdict_and_witness(self):
        fn = lambda pts: np.abs(pts[:, 0] - 0.3) - 0.1
        result = verify(fn, UNIT1, BudgetConfig(max_iters=30, max_queries=2000, depth=6))
        record = result.summary()
        assert record["verdict"] == FALSIFIED
        assert abs(record["witness"][0] - 0.3) <= 0.1
        assert record["queries"] == result.queries
        import json

        json.dumps(record)  # structured record is serialisable as-is


def _digest(trace) -> str:
    return hashlib.sha256(trace.to_csv().encode()).hexdigest()


class TestGoldenTraces:
    """SHA-256 of ``to_csv()`` pinned for fixed configs.

    Any change to selection, division order, the batch contents or the
    slope bookkeeping shows up here as a changed digest.
    """

    def test_criterion_10_config(self):
        fn = make_function("multi-basin")
        space = ParamSpace([(0.0, 1.0), (0.0, 1.0)])
        budget = BudgetConfig(max_iters=25, max_queries=2000, depth=6, alpha=2)
        assert _digest(run(fn, space, budget)) == (
            "e3c6bc710873671352d04934214438742998569cd4dccd360a08827ac410087f"
        )

    @pytest.mark.parametrize(
        "alpha, digest",
        [
            (1, "d645540f6509915b09667a7e2e198181fb094b7a4fc833261db2d539d6f8c608"),
            (2, "906656cc56325a6b10be4efd9653e77bb28d4032da49c2e52ccf2ef9d36f4190"),
            (3, "f54b15e04958b6e4b2e0846f5b7077337c29427759531967104d26694c4a17b3"),
        ],
    )
    def test_multi_basin(self, alpha, digest):
        fn = make_function("multi-basin")
        budget = BudgetConfig(max_iters=30, max_queries=3000, depth=6, alpha=alpha)
        assert _digest(run(fn, fn.param_space(), budget)) == digest

    def test_criterion_6_fixture_examples(self):
        model, domain = fixture_model(), fixture_domain()
        budget = BudgetConfig(max_iters=80, max_queries=3000, depth=6, alpha=2)
        space = domain.param_space()
        digests = [
            _digest(run(MarginObjective(model, image, label, domain), space, budget))
            for image, label in build_fixture_examples(count=4, seed=7)
        ]
        assert digests == [
            "7ed9d569c8103151ebd1ed83b2f20ca73c1f9c52c8ce0bb35b379f66d07bd83e",
            "b7396db55f102ef890b88bd8876bd2825cb46f08c3f75ee3b92a505f3c88cfda",
            "93dcb15b298622ae5dae05dd00dd9b7c71515e1f626f7d61dc6fc8f012289756",
            "cb8eb6c46bca38d56ad28b6e3de379d0ec9d569d30c557511830967ce967d707",
        ]


class TestKnownLipschitz:
    def test_bound_below_grid_minimum_on_multi_basin(self):
        # the bound covers every live rect, not only the best one: with the
        # best rect alone, seeds 0, 1 and 12 here put it above the grid minimum
        for seed in range(16):
            fn = make_multi_basin(seed)
            space = fn.param_space()
            grid_min = grid_search(fn, space, 729).min_value
            for max_iters in (10, 20):
                for alpha in (1, 2):
                    budget = BudgetConfig(
                        max_iters=max_iters, max_queries=10**6, depth=6, alpha=alpha
                    )
                    trace = run(fn, space, budget, known_lipschitz=fn.lipschitz)
                    for record in trace.records:
                        assert record.l_star_min <= grid_min, (seed, max_iters, alpha)

    def test_supplied_constant_bounds_true_minimum(self):
        fn = make_function("abs1d")
        budget = BudgetConfig(max_iters=40, max_queries=4000, depth=6, alpha=1)
        trace = run(fn, fn.param_space(), budget, known_lipschitz=fn.lipschitz)
        for record in trace.records:
            box = record.optimal_box
            if box[0, 0] <= 0.3 <= box[0, 1]:
                assert record.l_star_min <= fn.min_value
            assert record.l_star_min <= record.l_min
