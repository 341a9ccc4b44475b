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
    Search,
    run,
    verify,
)
from fixtures import build_fixture_examples, fixture_domain, fixture_model
from warpcheck.objectives import MarginObjective, make_multi_basin
from warpcheck.objectives import test_function as make_function
from warpcheck.partition import ParamSpace
from test_partition import assert_size_groups

UNIT1 = ParamSpace([(0.0, 1.0)])


def counting(fn):
    calls = {"batches": 0, "points": 0}

    def wrapped(pts):
        calls["batches"] += 1
        calls["points"] += len(pts)
        return fn(pts)

    return wrapped, calls


def step_out(search):
    """Step ``search`` until it stops, as ``run`` does, and return its trace."""
    while search.step():
        pass
    return search.trace


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

        search = Search(fn, UNIT1, BudgetConfig(max_iters=50, max_queries=5000, depth=6))
        with pytest.raises(ObjectiveError):
            step_out(search)
        trace = search.trace
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
        with pytest.raises(ValueError, match="depth must be at most 33"):
            BudgetConfig(depth=34)
        with pytest.raises(ValueError):
            BudgetConfig(tau=0.0)
        with pytest.raises(ValueError):
            BudgetConfig(tau=np.inf)
        with pytest.raises(ValueError):
            BudgetConfig(tau=np.nan)
        for tau in ("0.1", None):
            with pytest.raises(ValueError, match="tau must be a number"):
                BudgetConfig(tau=tau)
        with pytest.raises(ValueError):
            BudgetConfig(alpha=0)
        for name in ("max_iters", "max_queries", "depth", "alpha"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                BudgetConfig(**{name: 2.5})
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                BudgetConfig(**{name: np.float64(3.0)})
            assert getattr(BudgetConfig(**{name: np.int64(3)}), name) == 3
            with pytest.raises(ValueError, match=f"^{name} must be at least 1$"):
                BudgetConfig(**{name: 0})

    def test_trace_csv_schema(self):
        fn = make_function("abs1d")
        trace = run(fn, fn.param_space(), BudgetConfig(max_iters=3, max_queries=50, depth=3))
        lines = trace.to_csv().splitlines()
        assert lines[0].startswith("# warpcheck-trace")
        assert lines[1] == "iteration,queries,l_min,l_star_min,k_hat_max,n_po"
        assert len(lines) == 2 + len(trace.records)


class TestObjectiveContract:
    """The search and both baselines call an objective through one function, so
    a broken objective raises the same ObjectiveError from each of them."""

    BROKEN = {
        "raises": lambda pts: 1 / 0,
        "shape": lambda pts: np.zeros((len(pts), 2)),
        "nan": lambda pts: np.full(len(pts), np.nan),
    }

    @pytest.mark.parametrize("kind", sorted(BROKEN))
    @pytest.mark.parametrize("method", ["grid", "random", "run"])
    def test_same_error_from_every_method(self, method, kind):
        sizes = []
        fn = lambda pts: (sizes.append(len(pts)), self.BROKEN[kind](pts))[1]
        # "run" steps a Search as run does, keeping it to read the partial trace
        search = Search(fn, UNIT1, BudgetConfig(max_iters=3))
        call = {
            "run": lambda: step_out(search),
            "grid": lambda: grid_search(fn, UNIT1, 5),
            "random": lambda: random_pick(fn, UNIT1, 7, seed=0),
        }[method]
        with pytest.raises(ObjectiveError) as info:
            call()
        n = sizes[-1]
        assert str(info.value) == {
            "raises": "objective raised: division by zero",
            "shape": f"objective returned shape ({n}, 2), expected ({n},)",
            "nan": "objective returned a non-finite value",
        }[kind]
        assert isinstance(info.value, ValueError)
        assert not hasattr(info.value, "trace")
        if method == "run":
            assert search.trace.stop_reason == "objective-error"


class TestSearchStepper:
    def test_stepped_trace_matches_run_on_multi_basin(self):
        fn = make_function("multi-basin")
        budget = BudgetConfig(max_iters=30, max_queries=3000, depth=6, alpha=2)
        search = Search(fn, fn.param_space(), budget)
        records = []
        while (record := search.step()) is not None:
            records.append(record)
        assert len(records) == len(search.trace.records)
        assert all(a is b for a, b in zip(records, search.trace.records))
        expected = run(fn, fn.param_space(), budget)
        assert search.trace.to_csv() == expected.to_csv()
        assert search.trace.stop_reason == expected.stop_reason

    def test_stepped_trace_matches_run_with_known_constant_on_fixture(self):
        model, domain = fixture_model(), fixture_domain()
        image, label = build_fixture_examples(count=1, seed=7)[0]
        objective = MarginObjective(model, image, label, domain)
        budget = BudgetConfig(max_iters=40, max_queries=3000, depth=6, alpha=2)
        # any K >= 0 takes the bound over every live rect in place of the estimate
        space, K = domain.param_space(), 0.05
        trace = step_out(Search(objective, space, budget, known_lipschitz=K))
        expected = run(objective, space, budget, known_lipschitz=K)
        assert trace.to_csv() == expected.to_csv()
        assert trace.stop_reason == expected.stop_reason

    def test_constructor_makes_no_query_and_first_step_is_identity_alone(self):
        fn, calls = counting(lambda pts: np.abs(pts[:, 0] - 0.3))
        search = Search(fn, UNIT1, BudgetConfig(max_iters=5, depth=3))
        assert calls == {"batches": 0, "points": 0}
        record = search.step()
        assert calls == {"batches": 1, "points": 1}
        assert (record.iteration, record.queries) == (0, 1)
        assert search.trace.records == [record]

    def test_no_query_after_stop(self):
        fn, calls = counting(lambda pts: np.abs(pts[:, 0] - 0.3))
        search = Search(fn, UNIT1, BudgetConfig(max_iters=4, max_queries=1000, depth=5))
        step_out(search)
        assert search.trace.stop_reason == "iterations"
        seen, csv = dict(calls), search.trace.to_csv()
        assert [search.step() for _ in range(3)] == [None, None, None]
        assert calls == seen
        assert search.trace.to_csv() == csv

    def test_no_query_after_objective_error(self):
        def fn(pts):
            calls.append(len(pts))
            out = np.abs(pts[:, 0] - 0.3)
            out[pts[:, 0] < 0.1] = np.nan
            return out

        calls = []
        search = Search(fn, UNIT1, BudgetConfig(max_iters=50, max_queries=5000, depth=6))
        with pytest.raises(ObjectiveError):
            step_out(search)
        n_calls, n_records = len(calls), len(search.trace.records)
        assert search.step() is None
        assert search.step() is None
        assert (len(calls), len(search.trace.records)) == (n_calls, n_records)
        assert search.trace.stop_reason == "objective-error"

    def test_no_query_after_a_raise_past_the_query(self):
        # finite values 2e308 apart: the slope overflows and observe raises
        calls = []

        def fn(pts):
            calls.append(len(pts))
            return np.where(pts[:, 0] < 0.5, -1e308, 1e308)

        search = Search(fn, UNIT1, BudgetConfig())
        search.step()
        with pytest.raises(ValueError, match="non-finite slope observed"):
            search.step()
        assert search.trace.stop_reason == "objective-error"
        assert search.step() is None
        assert calls == [1, 2]

    def test_error_on_first_query_leaves_empty_trace(self):
        calls = []

        def fn(pts):
            calls.append(len(pts))
            return np.full(len(pts), np.nan)

        search = Search(fn, UNIT1, BudgetConfig())
        with pytest.raises(ObjectiveError, match="non-finite"):
            search.step()
        assert search.trace.records == []
        assert search.trace.stop_reason == "objective-error"
        assert search.step() is None
        assert calls == [1]


def _stepped_terraces():
    """(search, best rect id after each step) on a staircase of integer
    values, so that most children tie the best value exactly."""
    def terraces(pts):
        return np.floor(6 * np.abs(pts[:, 0] - 0.2)) + np.floor(6 * np.abs(pts[:, 1] - 0.85))

    space = ParamSpace([(0.0, 1.0), (0.0, 1.0)])
    search = Search(terraces, space, BudgetConfig(max_iters=30, depth=5))
    best_ids = []
    while search.step():
        best_ids.append(search.best.id)
    return search, best_ids


class TestBestRect:
    def test_a_tied_child_does_not_replace_the_best(self):
        search, best_ids = _stepped_terraces()
        # the sequence a min() over [best, *children] gave, which keeps the
        # first of equal values; a child that only ties never takes over
        assert best_ids == [0, 2, 6, 16, 16, 16] + [56] * 18 + [311] * 7
        assert [r.l_min for r in search.trace.records[:3]] == [3.0, 1.0, 0.0]

    def test_one_dim_tie_keeps_the_center_child(self):
        search = Search(lambda pts: np.ones(len(pts)), UNIT1, BudgetConfig(max_iters=1))
        search.step()
        search.step()
        # ids 1 and 2 are the side thirds, 3 the center that inherits the root
        assert search.best.id == 3

    def test_each_record_owns_its_arrays(self):
        search, _ = _stepped_terraces()
        records = search.trace.records
        space = search.space
        # records 3 to 5 share the best rect 16
        for a, b in zip(records[3:5], records[4:6]):
            for name in ("c_min", "optimal_box"):
                x, y = getattr(a, name), getattr(b, name)
                assert np.array_equal(x, y)
                assert x is not y and not np.shares_memory(x, y)

        # writing into one record's arrays leaves the next record's alone
        search = Search(search.objective, space, search.budget)
        for _ in range(4):
            record = search.step()
        assert search.best.id == 16
        record.c_min[:] = np.nan
        record.optimal_box[:] = np.nan
        following = search.step()
        assert search.best.id == 16
        assert np.array_equal(following.c_min, space.to_physical(search.best.center()))
        assert np.array_equal(following.optimal_box, space.to_physical(search.best.box().T).T)


class TestSizeGroups:
    def test_partition_groups_hold_after_every_step(self):
        fn = make_multi_basin(5)
        budget = BudgetConfig(max_iters=30, max_queries=3000, depth=5, alpha=2)
        search = Search(fn, fn.param_space(), budget)
        while search.step():
            assert_size_groups(search.partition)
        assert len(search.partition.groups) > 2


def recording(fn):
    """``fn`` with every point it is asked for appended to a list."""
    seen = []

    def wrapped(pts):
        seen.extend(map(tuple, pts.tolist()))
        return fn(pts)

    return wrapped, seen


class TestNoRepeatedQuery:
    """No point is queried twice, which is why the engine keeps no cache.  On
    a unit box ``to_physical`` is exact, so the recorded points are the unit
    points themselves."""

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_multi_basin_runs(self, alpha):
        for seed in range(4):
            fn = make_multi_basin(seed)
            wrapped, seen = recording(fn)
            budget = BudgetConfig(max_iters=60, max_queries=3000, depth=8, alpha=alpha)
            trace = run(wrapped, fn.param_space(), budget)
            assert len(seen) == trace.queries
            assert len(set(seen)) == len(seen), f"seed {seed}"

    def test_dive_to_depth_33(self):
        wrapped, seen = recording(lambda pts: np.abs(pts[:, 0] - 0.7))
        search = Search(wrapped, UNIT1, BudgetConfig(max_iters=100, max_queries=10**5,
                                                      depth=33, alpha=1))
        trace = step_out(search)
        assert max(r.depths[0] for r in search.partition) == 33
        assert len(seen) == trace.queries
        assert len(set(seen)) == len(seen)


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

    def test_no_division_undecided(self):
        # one query sees the peak margin 0.5 and no slope; a longer run
        # finds margins down to -4.5
        fn = lambda pts: 0.5 - 10.0 * np.abs(pts[:, 0] - 0.5)
        result = verify(fn, UNIT1, BudgetConfig(max_queries=1))
        assert result.trace.final.iteration == 0
        assert result.l_star_min == result.l_min == 0.5
        assert result.status == UNDECIDED
        assert result.witness is None
        assert verify(fn, UNIT1, BudgetConfig(max_queries=3000)).status == FALSIFIED

    def test_zero_margin_not_verified(self):
        fn = lambda pts: np.zeros(len(pts))
        result = verify(fn, UNIT1, BudgetConfig(max_iters=4, max_queries=50, depth=2))
        assert result.status == UNDECIDED


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
            for image, label in build_fixture_examples(count=56, seed=7)
        ]
        assert digests == [
            "7ed9d569c8103151ebd1ed83b2f20ca73c1f9c52c8ce0bb35b379f66d07bd83e",
            "b7396db55f102ef890b88bd8876bd2825cb46f08c3f75ee3b92a505f3c88cfda",
            "93dcb15b298622ae5dae05dd00dd9b7c71515e1f626f7d61dc6fc8f012289756",
            "cb8eb6c46bca38d56ad28b6e3de379d0ec9d569d30c557511830967ce967d707",
            "58e15023c0d5f2f4943abde783fef99ef14cea2eb4ee9692a50b85f0fc5660c0",
            "feac65c37b665d5a1de991f9686155497b93a36806b97e2d4448208c155a0568",
            "6bcee61f7415a6b6fbca4d3b71364f56ab69ed1a7ac878528510d5c125a0c0e0",
            "735787c17f2162928d0311722ac0808c943337bc4ee0b3cb39ad44491cd9a71f",
            "a90da5867aa15dd5e2c860e70daf4ac1c3f46f8c743cc5f71a82e08fa54c52b4",
            "b1126fdcdc0aba0259ece0b2ca5a4c265a58eb2dba7cffff992b7c852a28e7a3",
            "4440447b7f3caa85ac362bac57c4c83d3521ec34df747dbb2cb70327d5b86843",
            "b92b1d4b5dca9bb08c4cfaadcdfdd1ee6d41166a2fc49680a68769a5c50cb65e",
            "0da3ca8c3af7170ef6ef3ddd7dbb4e73a505023ba166caa426b0376416d278d6",
            "483a7bce841c833d52ae92b8045c848a9789c751dd2cbee62d03d0abb57bad0c",
            "5116c9d1d23666a8b0355456c802b292d99affc0e317f6bf0f9b172a2aa6ff77",
            "d9389413cb80dfe03dabaf935c7bcef2de59983e2eaec5bc69d2993ce2b933f3",
            "999ba16faedd8a177c120eca82b9366757af999f196d43f6fed1b579a8703ef7",
            "f249cd4aa82bca26b20bfd2f629805453339b282bf74cf46fe7b8a4c0c7f0d6a",
            "9ad15e2dd76f7b5203f5ccc1f4a3965c3eab53d7a1f1d59fda232af240cd8d4a",
            "e6a0f9df91bd67439676142f92e1896255bf6a2c3f6202f553ae17ee851d1499",
            "5c5238b98e15b16544b57b78f9189d97ace2b17174485f5a86fea549ac7f9f87",
            "ffaf84f89fa5e3b43c197afa864a1c3a5bee1cd0332e676dc2fae3506ac4b256",
            "8136e733cf8cf4d27bacbc7a056a8c1b6aea71da1e48e4aa74a158ff5300a9a4",
            "eb647b312ec5e1987974077e99916569a20b823d190963f35a5fbc3e684dbd01",
            "f75c96d6b05afb29ca6d9dfe85e14ff336e036cce36ab7e852d8596987bf3205",
            "49c3cd1457ee5e8c678449fb742dcd0e09910c6e967818cc6c25c8a62359b0ed",
            "7fa7387e8d97fc72354b2c0824e87aa4a2947f963bccfc13e5afaecf8d6690c8",
            "af45f2f193ae85cbe93932cd6ac83248f4caa7c27b2243c6658aa7521a926663",
            "0d7a438a61e868fd9fbd0fd3c2bf5c1196deefa267f0bf1abbca450ed6c74ead",
            "a00144b4145b8761463811c606930c208135a80b38531ef67efb23324034015e",
            "062171aadd84a42be6ec476e516082ba44f08526e2bc752976f13c21cd3e111a",
            "79827d22b51f0c029b68222b4514397245e7681c063743ae4fb356ded34be2ac",
            "c3aef2fa9ef1b1104d2a551cca57ae26e2f60029612cd13400ca19df1953a739",
            "9511ff007e2d15770e41b54be7a1a87eb8cb5c592a2bfc2e01d164e342303e70",
            "155f6ced62e7534bb7c15092855d61eb1b0d93f5ce82048a845aabe386d01066",
            "d956239e6b3e109f035408150640dcd741690c529a45ac9fd1ecd6ecde49ab2b",
            "9d3f2360281371235a4048d864de4bbaeda381b5b701dda2c85dacc4a6673e47",
            "a3bbb95cf2d8405d5918557fe1fb5db2849507e6acdbe8c02c43e0e57d0208b8",
            "6ae41ba91e4e9ab21eedaa8f5c9a34ea458417c963f18d4406f9f19e94f4e2d3",
            "310762417b65557e2f2cc39c30355b8ccce218b28a73efd87896b6a3693855e5",
            "5c98299106905b7cb1940a4e7a32de7870526e23df62c74396f27f8940ccd92e",
            "6baf5b139ecd467a048c6d0dd85cbbd3b588287de7b56962014c0ba45f1db920",
            "2b70ca66fa15d66f952f31e4ba9b122e2d0281b088bc97903c7a49ff117a162d",
            "a4d636e32317888a14e2c0132c9c7d0a8364c4ac72a627b71b4b1a0e3790a34c",
            "823044f77578764e84fbd51c438c1557520a4997ba88bd38fc84f6ded514d0d5",
            "675989181becb0cf9af559484897d06a9f4bfba28e114dfba95ecc689bc47fd8",
            "d82608138f80247f603fdd327b045d618343a448b222e82aa35dbce5b80a0927",
            "977bb08626ca98439d6ba092342ef9afbfe5561052f11d71a9f6d957523f5932",
            "b39fc4233729bd18c6bc016328d2b3eec96507ae3cdadd5fc98d5032154abd74",
            "df02fd43612db8b0f56bfb4ff93ca4bf95f78f6f67929f61127c1a69a1909d82",
            "1bed0e52249f9068484c5e476e5c926f96fd2097fa65835a5f1301ae7c803101",
            "55dfcb957524dc1452d9a674bf1a19b9ebacfb00b4ea4b1df0aa56228aea310b",
            "1af133aa085428a3c9cd3ad732ab0fb0ff8556107064a0997f87d0eb64c5c4d2",
            "c562a69d385ae2699cb82a3e8a562764e0ed6b005ab6121ddd7e0dfeaf9778d6",
            "ef3b737f2fcf045ef5b7d4bf9ec7f7eb6e63c3ec6622f5518b4349e7383fd3cd",
            "3814350bdef7b5a0b67ac6dfd3a44b95dab0de2fe28b85dab52c0bcb120c47e3",
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

    @pytest.mark.parametrize("K", [-2.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_constant_rejected(self, K):
        calls = []

        def fn(points):
            calls.append(len(points))
            return np.abs(points[:, 0] - 0.3)

        with pytest.raises(ValueError, match="known_lipschitz"):
            run(fn, ParamSpace([(0.0, 1.0)]), BudgetConfig(max_iters=5), known_lipschitz=K)
        assert calls == []  # rejected before the first query

    def test_numpy_scalar_constant_traces_as_float(self):
        fn = make_function("abs1d")
        budget = BudgetConfig(max_iters=5)
        traces = [
            run(fn, fn.param_space(), budget, known_lipschitz=K).to_csv()
            for K in (np.float64(1.0), 1.0)
        ]
        assert traces[0] == traces[1]
