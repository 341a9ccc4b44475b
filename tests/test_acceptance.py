"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest report.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fixtures import build_fixture_examples, fixture_domain, fixture_model
from oracles import group_by_size, lemma_po_oracle
from warpcheck.baselines import grid_search, match_metric
from warpcheck.cli import main as cli_main
from warpcheck.engine import BudgetConfig, run
from warpcheck.geometry import (
    FACTORS,
    IDENTITY,
    TransformParams,
    build_matrix,
    lipschitz_bound,
    warp,
    warp_coordinate_grads,
    warp_grad,
)
from warpcheck.objectives import MarginObjective, make_multi_basin
from warpcheck.objectives import test_function as make_function
from warpcheck.partition import HyperRect, ParamSpace, Partition, sample_points
from warpcheck.selection import select_po


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def random_smooth(seed: int, n: int):
    """Seeded trigonometric polynomial on the unit box."""
    rng = np.random.default_rng(seed)
    waves = 5
    amps = rng.uniform(0.1, 1.0, waves)
    freqs = rng.uniform(0.5, 3.0, (waves, n))
    phases = rng.uniform(0.0, 2.0 * np.pi, waves)

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        return sum(a * np.cos(2.0 * np.pi * (pts @ k) + p)
                   for a, k, p in zip(amps, freqs, phases))

    return fn


def test_criterion_1_partition_soundness():
    start = time.perf_counter()
    total_divisions = 0
    ok = True
    for n in (1, 2, 3, 4):
        rng = np.random.default_rng(n)
        part = Partition(n)
        part.rects[0].value = float(rng.normal())
        for _ in range(250):
            rect_id = int(rng.choice(list(part.rects)))
            rect = part.rects[rect_id]
            m = len(rect.long_dims())
            results = {key: float(rng.normal()) for key in sample_points(rect)}
            before = len(part)
            out = part.divide(rect_id, results)
            total_divisions += 1
            if len(out) != 2 * m + 1 or len(part) != before + 2 * m:
                ok = False
        if part.total_volume() != Fraction(1):
            ok = False
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: partition soundness",
        ok and total_divisions == 1000 and elapsed < 1.0,
        f"{total_divisions} divisions, volume exact, {elapsed:.3f}s",
    )


def test_criterion_2_selection_matches_brute_force():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(200):
        n_rects = int(rng.integers(1, 21))
        stats = [
            HyperRect(i, (1,), (int(rng.integers(0, 5)),), float(np.round(rng.normal(), 6)))
            for i in range(n_rects)
        ]
        tau = float(rng.choice([1e-3, 1e-4, 1e-5]))
        l_min = min(s.value for s in stats)
        mine = set(select_po(group_by_size(stats), 1, tau, l_min, max_depth=6))
        oracle = lemma_po_oracle(stats, tau, l_min)
        if mine != oracle:
            mismatches += 1
    report(
        "criterion 2: alpha=1 equals brute-force potential-optimality",
        mismatches == 0,
        "200 configurations, exact set equality",
    )


# traces shared with the anytime-bound criterion
_COLLECTED_TRACES = []


def test_criterion_3_progress_and_query_cap():
    depth = 5
    ok = True
    runs = 0
    for n, count, iters in ((1, 34, 10**6), (2, 33, 12), (3, 33, 8)):
        space = ParamSpace([(0.0, 1.0)] * n)
        cap = 3 ** (n * depth)
        for seed in range(count):
            fn = random_smooth(1000 + seed + 100 * n, n)
            trace = run(fn, space, BudgetConfig(
                max_iters=iters, max_queries=10**6, depth=depth, alpha=1))
            runs += 1
            _COLLECTED_TRACES.append(trace)
            if any(r.n_po < 1 for r in trace.records[1:]):
                ok = False
            if trace.queries > cap:
                ok = False
            if n == 1 and trace.stop_reason != "exhausted":
                ok = False
    report(
        "criterion 3: progress each iteration, queries within the depth grid",
        ok and runs == 100,
        f"{runs} randomized runs, depth {depth}",
    )


def test_criterion_4_convergence_rate():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for name, n, budget in (
        ("abs1d", 1, BudgetConfig(max_iters=60, max_queries=10**6, depth=8, alpha=1)),
        ("separable-abs-2d", 2, BudgetConfig(max_iters=60, max_queries=10**6, depth=6, alpha=2)),
    ):
        fn = make_function(name)
        trace = run(fn, fn.param_space(), budget)
        _COLLECTED_TRACES.append(trace)
        for record in trace.records:
            gap = record.l_min - fn.min_value
            bound = fn.lipschitz * (record.iteration + 1) ** (-1.0 / n)
            worst = max(worst, gap / bound)
            if not gap < bound:
                ok = False
    elapsed = time.perf_counter() - start
    report(
        "criterion 4: rate bound strict at every iteration",
        ok and elapsed < 5.0,
        f"worst gap/bound {worst:.3f}, {elapsed:.2f}s",
    )


def test_criterion_5_anytime_bound():
    ok = True
    # every run recorded so far keeps the estimate below the best value
    traces = list(_COLLECTED_TRACES)
    fn = make_function("multi-basin")
    traces.append(run(fn, fn.param_space(), BudgetConfig(max_iters=30, max_queries=10**5, depth=6)))
    for trace in traces:
        if any(r.l_star_min > r.l_min for r in trace.records):
            ok = False
    # supplied true constant on abs1d: sound whenever the best rect
    # contains the minimiser
    fn = make_function("abs1d")
    trace = run(
        fn, fn.param_space(),
        BudgetConfig(max_iters=60, max_queries=10**5, depth=7, alpha=1),
        known_lipschitz=fn.lipschitz,
    )
    covered = 0
    for record in trace.records:
        if record.l_star_min > record.l_min:
            ok = False
        lo, hi = record.optimal_box[0]
        if lo <= fn.min_loc[0] <= hi:
            covered += 1
            if record.l_star_min > fn.min_value:
                ok = False
    report(
        "criterion 5: anytime bound below best value; certified mode sound",
        ok and covered > 0,
        f"{len(traces)} traces, {covered} certified-coverage iterations",
    )


def test_criterion_6_fixture_agreement_with_grid():
    start = time.perf_counter()
    examples = build_fixture_examples(count=56, seed=7)
    model = fixture_model()
    domain = fixture_domain()
    space = domain.param_space()
    budget = BudgetConfig(max_iters=80, max_queries=3000, depth=6, alpha=2)
    # per-dimension count capped at 3**6 + 1, then by a 20k total budget
    points_per_dim = min(3**6 + 1, int(20000 ** (1.0 / space.n)))

    matches = 0
    sets_equal = True
    for image, label in examples:
        objective = MarginObjective(model, image, label, domain)
        trace = run(objective, space, budget)
        oracle = grid_search(objective, space, points_per_dim)
        matches += match_metric(trace.l_min, oracle.min_value)
        if (trace.l_min > 0.0) != (oracle.min_value > 0.0):
            sets_equal = False
    elapsed = time.perf_counter() - start
    rate = matches / len(examples)
    report(
        "criterion 6: match rate and verified-set agreement vs grid",
        len(examples) >= 50 and rate >= 0.95 and sets_equal and elapsed < 300.0,
        f"{len(examples)} examples, match {rate:.3f}, sets equal {sets_equal}, {elapsed:.0f}s",
    )


def test_criterion_7_warp_correctness():
    rng = np.random.default_rng(7)
    ok = True
    # identity warp is bit-exact
    for _ in range(5):
        img = rng.random((8, 8, 1))
        if not np.array_equal(warp(img, build_matrix(IDENTITY)), img):
            ok = False
    # half-pixel shift closed form
    a, b = 0.2, 0.8
    out = warp(np.array([[[a], [b]]]), build_matrix(TransformParams(t_hor=0.5)))
    if abs(out[0, 0, 0] - 0.5 * (a + b)) > 1e-12 or abs(out[0, 1, 0] - 0.5 * b) > 1e-12:
        ok = False
    # linearity in pixel values
    for _ in range(10):
        x = rng.random((7, 9, 1))
        z = rng.random((7, 9, 1))
        mat = build_matrix(TransformParams(
            rotation=float(rng.uniform(-30, 30)),
            scale=float(rng.uniform(0.8, 1.2)),
            t_hor=float(rng.uniform(-2, 2)),
            t_vrt=float(rng.uniform(-2, 2)),
        ))
        lhs = warp(0.4 * x + 1.3 * z, mat)
        rhs = 0.4 * warp(x, mat) + 1.3 * warp(z, mat)
        if np.max(np.abs(lhs - rhs)) > 1e-12:
            ok = False
    report("criterion 7: warp identity, half-pixel values, linearity", ok)


def _kink_free(img, params):
    from warpcheck.geometry import _source_coords

    h, w, _ = img.shape
    rows, cols = _source_coords(build_matrix(params)[None], h, w)
    frac_r = np.abs(rows - np.round(rows))
    frac_c = np.abs(cols - np.round(cols))
    return float(min(frac_r.min(), frac_c.min())) > 5e-3


def test_criterion_8_gradient_checks():
    rng = np.random.default_rng(88)
    height = width = 8
    bounds = lipschitz_bound(height, width, (-20.0, 20.0), scale_max=1.1)
    configs = 0
    ok = True
    while configs < 100:
        img = rng.random((height, width, 1))
        params = TransformParams(
            rotation=float(rng.uniform(-20, 20)),
            scale=float(rng.uniform(0.9, 1.1)),
            t_hor=float(rng.uniform(-1.5, 1.5)),
            t_vrt=float(rng.uniform(-1.5, 1.5)),
        )
        if not _kink_free(img, params):
            continue
        configs += 1
        factor = FACTORS[configs % len(FACTORS)]
        analytic = warp_grad(img, params, factor)
        step = 1e-4
        values = {f: getattr(params, f) for f in FACTORS}
        hi = dict(values, **{factor: values[factor] + step})
        lo = dict(values, **{factor: values[factor] - step})
        numeric = (
            warp(img, build_matrix(TransformParams(**hi)))
            - warp(img, build_matrix(TransformParams(**lo)))
        ) / (2.0 * step)
        denom = max(np.max(np.abs(numeric)), 1e-9)
        if np.max(np.abs(analytic - numeric)) / denom >= 1e-3:
            ok = False
        d_dx, d_dy = warp_coordinate_grads(img, build_matrix(params))
        if np.max(np.abs(d_dx)) > 1.0 + 1e-12 or np.max(np.abs(d_dy)) > 1.0 + 1e-12:
            ok = False
        if np.max(np.abs(warp_grad(img, params, "scale"))) > bounds["scale"] + 1e-9:
            ok = False
    report(
        "criterion 8: analytic gradients vs finite differences and bounds",
        ok,
        "100 in-bounds configurations",
    )


def test_criterion_9_alpha_and_depth_trends():
    instances = [make_multi_basin(seed) for seed in range(100, 120)]
    spaces = [f.param_space() for f in instances]

    mean_queries = []
    for alpha in (1, 2, 3):
        budget = BudgetConfig(max_iters=15, max_queries=10**6, depth=6, alpha=alpha)
        qs = [run(f, sp, budget).queries for f, sp in zip(instances, spaces)]
        mean_queries.append(float(np.mean(qs)))
    alpha_ok = all(a <= b for a, b in zip(mean_queries, mean_queries[1:]))

    oracle = [grid_search(f, sp, 3**7 + 1).min_value for f, sp in zip(instances, spaces)]
    mean_gaps = []
    for depth in (3, 4, 5, 6, 7):
        budget = BudgetConfig(max_iters=40, max_queries=10**6, depth=depth, alpha=2)
        gaps = [
            abs(run(f, sp, budget).l_min - best)
            for f, sp, best in zip(instances, spaces, oracle)
        ]
        mean_gaps.append(float(np.mean(gaps)))
    depth_ok = all(a >= b for a, b in zip(mean_gaps, mean_gaps[1:]))

    report(
        "criterion 9: queries grow with alpha, gap shrinks with depth",
        alpha_ok and depth_ok,
        f"queries {['%.0f' % q for q in mean_queries]}, gaps {['%.1e' % g for g in mean_gaps]}",
    )


def test_criterion_10_trace_determinism(tmp_path):
    args = [
        "optimize", "--fn", "multi-basin", "--bounds", "0,1,0,1",
        "--depth", "6", "--alpha", "2", "--max-iters", "25", "--out", str(tmp_path),
    ]
    assert cli_main(args) == 0
    first = (tmp_path / "trace.csv").read_bytes()
    assert cli_main(args) == 0
    second = (tmp_path / "trace.csv").read_bytes()
    report("criterion 10: byte-identical traces for identical config and seed",
           first == second)
