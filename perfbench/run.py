"""warpcheck benchmark: seeded closed-loop workloads, end-to-end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fixture-verify --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, untraced, seed 7

One client runs one job at a time (a closed loop).  Each workload runs in
fresh processes started from this script: one generates the inputs, seven
only set up (their median start-to-ready time is ``setup_s``), and one sets
up and then cycles through the examples until ``--seconds`` have elapsed
and one whole pass is done.  With ``--trace 1`` the measuring process runs
one pass, records spans around the program's public functions and reports
per-layer metrics instead.  The last
line of output is one JSON object with the metrics named in BENCHMARK.json.
Results and spans are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from job import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
TAIL_PERCENTILE = 80
DEADLINE_S = 170.0
BLAS_THREADS = "1"


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list[str], deadline: float) -> str:
    """Run ``job.py`` with ``args`` in a fresh process; return its stdout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before `job.py {args[0]}`")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"`job.py {args[0]}` did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"`job.py {' '.join(args)}` failed:\n{proc.stderr[-4000:]}")
    return proc.stdout


def _nearest_rank(sorted_values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _failed(job: dict) -> bool:
    return job["error"] is not None or not all(job["checks"].values())


def end_to_end(measured: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    jobs = measured["jobs"]
    wall = measured["wall_s"]
    durations = sorted(j["s"] for j in jobs)
    done = [j for j in jobs if j["error"] is None]
    tail, beyond = _nearest_rank(durations, TAIL_PERCENTILE)
    queries = sum(j["queries"] for j in done)
    failed = sum(map(_failed, jobs))
    # answers depend only on the example, so these come from the first pass
    first = [j for j in jobs if j["pass"] == 0]
    first_done = [j for j in first if j["error"] is None]
    matches = sum(j["match"] for j in first_done)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "job_s_p50": statistics.median(durations),
        "job_s_tail": tail,
        "jobs_per_s": len(jobs) / wall,
        "queries_per_s": queries / wall,
        "queries_per_job": statistics.fmean([j["queries"] for j in first_done] or [0]),
        "match_ratio": matches / len(first),
        "peak_rss_mb": measured["peak_rss_kb"] / 1024.0,
        "failed_ratio": failed / len(jobs),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} process starts",
        "job_s_p50": f"{len(jobs)} jobs",
        "job_s_tail": f"p{TAIL_PERCENTILE}, {beyond} of {len(jobs)} jobs beyond it",
        "jobs_per_s": f"{len(jobs)} jobs in {wall:.2f} s ({measured['passes']:.2f} passes)",
        "queries_per_s": f"{queries} points in {wall:.2f} s",
        "queries_per_job": f"mean over the {len(first_done)} jobs of the first pass",
        "match_ratio": f"{matches} of the {len(first)} jobs of the first pass",
        "failed_ratio": f"{failed} of {len(jobs)} jobs",
    }
    return metrics, notes


# per-layer metric -> span names it is computed from (absent if all are)
LAYER_SOURCES = {
    "engine.self_s": ("engine.verify", "engine.run"),
    "engine.batch_points_mean": ("objectives.MarginObjective.__call__",),
    "engine.query_ratio": ("partition.sample_points", "engine.run"),
    "selection.s": ("selection.select_po", "selection.stats_from_partition"),
    "selection.calls": ("selection.select_po",),
    "selection.selected_per_call": ("selection.select_po",),
    "partition.divide_s": ("partition.divide",),
    "partition.divides": ("partition.divide",),
    "partition.sample_s": ("partition.sample_points",),
    "slope.observe_s": ("slope.observe",),
    "slope.bound_s": ("slope.estimate_lower_bound",),
    "objective.s": ("objectives.MarginObjective.__call__",),
    "objective.self_s": ("objectives.MarginObjective.__call__",),
    "objective.calls": ("objectives.MarginObjective.__call__",),
    "objective.points": ("objectives.MarginObjective.__call__",),
    "objective.share": ("objectives.MarginObjective.__call__",),
    "objectives.margin_s": ("objectives.margin_batch",),
    "geometry.matrix_s": ("geometry.build_matrix_batch",),
    "geometry.warp_s": ("geometry.warp_batch",),
    "geometry.warp_pixels": ("geometry.warp_batch",),
    "geometry.warp_ns_per_pixel": ("geometry.warp_batch",),
    "netfwd.forward_s": ("netfwd.forward",),
    "netfwd.conv2d_s": ("netfwd.Conv2dLayer.apply",),
    "netfwd.dense_s": ("netfwd.DenseLayer.apply",),
    "netfwd.conv2d_macs": ("netfwd.Conv2dLayer.apply",),
    "netfwd.dense_macs": ("netfwd.DenseLayer.apply",),
    "baselines.grid_s": ("baselines.grid_search",),
    "baselines.random_s": ("baselines.random_pick",),
    "baselines.points": ("baselines.grid_search", "baselines.random_pick"),
    "netfwd.load_weights_s": ("netfwd.load_weights",),
    "images.read_s": ("images.read_image",),
}


def per_layer(measured: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced jobs, times and counts per job."""
    layers = measured["layers"]
    spans, setup = layers["jobs"], layers["setup"]
    traced = [j for j in measured["jobs"] if j["traced"]]
    plain = [j for j in measured["jobs"] if not j["traced"]]
    n = len(traced)
    job_wall = sum(j["s"] for j in traced)

    def get(name: str, key: str = "s", table: dict = spans) -> float:
        return table.get(name, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    call = "objectives.MarginObjective.__call__"
    points = get(call, "count")
    metrics = {
        "engine.self_s": (get("engine.verify", "self_s") + get("engine.run", "self_s")) / n,
        "engine.iterations": sum(j.get("iterations", 0) for j in traced) / n,
        "engine.batch_points_mean": ratio(points, get(call, "calls")),
        # every run queries the box center once before any planned point
        "engine.query_ratio": ratio(points - get("engine.run", "calls"),
                                    get("partition.sample_points", "count")),
        "selection.s": (get("selection.select_po") + get("selection.stats_from_partition")) / n,
        "selection.calls": get("selection.select_po", "calls") / n,
        "selection.selected_per_call": ratio(get("selection.select_po", "count"),
                                             get("selection.select_po", "calls")),
        "partition.divide_s": get("partition.divide") / n,
        "partition.divides": get("partition.divide", "calls") / n,
        "partition.sample_s": get("partition.sample_points") / n,
        "slope.observe_s": get("slope.observe") / n,
        "slope.bound_s": get("slope.estimate_lower_bound") / n,
        "objective.s": get(call) / n,
        "objective.self_s": get(call, "self_s") / n,
        "objective.calls": get(call, "calls") / n,
        "objective.points": points / n,
        "objective.share": ratio(get(call), job_wall),
        "objectives.margin_s": get("objectives.margin_batch") / n,
        "geometry.matrix_s": get("geometry.build_matrix_batch") / n,
        "geometry.warp_s": get("geometry.warp_batch") / n,
        "geometry.warp_pixels": get("geometry.warp_batch", "count") / n,
        "geometry.warp_ns_per_pixel": 1e9 * ratio(get("geometry.warp_batch"),
                                                  get("geometry.warp_batch", "count")),
        "netfwd.forward_s": get("netfwd.forward") / n,
        "netfwd.conv2d_s": get("netfwd.Conv2dLayer.apply") / n,
        "netfwd.dense_s": get("netfwd.DenseLayer.apply") / n,
        "netfwd.conv2d_macs": get("netfwd.Conv2dLayer.apply", "count") / n,
        "netfwd.dense_macs": get("netfwd.DenseLayer.apply", "count") / n,
        "baselines.grid_s": get("baselines.grid_search") / n,
        "baselines.random_s": get("baselines.random_pick") / n,
        "baselines.points": (get("baselines.grid_search", "count")
                             + get("baselines.random_pick", "count")) / n,
        "netfwd.load_weights_s": get("netfwd.load_weights", table=setup),
        "images.read_s": get("images.read_image", table=setup),
        "trace.overhead_ratio": ratio(job_wall - sum(j["s"] for j in plain),
                                      sum(j["s"] for j in plain)),
    }
    absent = layers["absent"]
    notes = {}
    for name, sources in LAYER_SOURCES.items():
        missing = [absent[s] for s in sources if s in absent]
        if missing:
            partly = "" if len(missing) == len(sources) else "partly "
            notes[name] = f"{partly}absent: {', '.join(missing)}"
    notes["objective.share"] = f"base: summed wall time of {n} traced jobs"
    notes["trace.overhead_ratio"] = f"{n} traced vs {len(plain)} untraced jobs of the same examples"
    return metrics, notes


def layer_split(measured: dict) -> dict[str, float]:
    """Self time per module as a share of the traced jobs' wall time."""
    traced_wall = sum(j["s"] for j in measured["jobs"] if j["traced"])
    split: Counter = Counter()
    for name, entry in measured["layers"]["jobs"].items():
        split[name.split(".", 1)[0]] += entry["self_s"]
    split["(benchmark loop)"] = traced_wall - sum(split.values())
    return {k: v / traced_wall for k, v in split.most_common()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"run-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        _child(["gen", name, str(seed), str(workdir)], deadline)
        setup_samples = []
        for _ in range(SETUP_SAMPLES):
            t0 = time.monotonic()
            ready = json.loads(_child(["setup", str(workdir)], deadline).splitlines()[-1])["ready"]
            setup_samples.append(ready - t0)
        spans_path = out_dir / f"spans-{name}.csv"
        t0 = time.monotonic()
        _child(["measure", str(workdir), str(seconds), "1" if trace else "0", str(spans_path)],
               deadline)
        measured = json.loads((workdir / "measure.json").read_text())
        manifest = json.loads((workdir / "manifest.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    measured["setup_s_measure_process"] = measured.pop("ready") - t0

    if trace:
        metrics, notes = per_layer(measured)
        wanted = spec["per_layer"]
    else:
        metrics, notes = end_to_end(measured, setup_samples)
        wanted = spec["end_to_end"]
    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json but not measured: {sorted(missing)}")

    checks: dict[str, list[int]] = {}
    for job in measured["jobs"]:
        for check, ok in job.get("checks", {}).items():
            tally = checks.setdefault(check, [0, 0])
            tally[0] += bool(ok)
            tally[1] += 1
    errors = [j["error"] for j in measured["jobs"] if j["error"] is not None]
    failed = sum(map(_failed, measured["jobs"]))
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "config": manifest["config"],
        "label_counts": manifest["label_counts"],
        "attempted": len(measured["jobs"]),
        "failed": failed,
        "errors": errors[:10],
        "checks": checks,
        "verdicts": dict(Counter(j.get("verdict", "error") for j in measured["jobs"])),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        "all_metrics": metrics,
        "notes": notes,
        "setup_samples_s": setup_samples,
        "setup_s_measure_process": measured["setup_s_measure_process"],
        "passes": measured["passes"],
        "job_s": [[j["example"], j["traced"], j["s"]] for j in measured["jobs"]],
        "wall_s": measured["wall_s"],
        "environment": measured["environment"],
        "run_s": time.monotonic() - start,
    }
    if trace:
        result["layer_split"] = layer_split(measured)
        result["absent"] = measured["layers"]["absent"]
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    path = out_dir / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1))
    return result


def report(result: dict, units: dict[str, str]) -> None:
    env = result["environment"]
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"jobs={result['attempted']} in {result['passes']:.2f} passes, {result['wall_s']:.2f} s")
    print(f"   nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} blas_threads={BLAS_THREADS} machine={env['machine']}")
    for name, value in result["all_metrics"].items():
        note = result["notes"].get(name, "")
        print(f"   {name:<28} {value:>14.6g} {units.get(name, 'fraction'):<12} {note}")
    for check, (passed, total) in result["checks"].items():
        print(f"   check {check:<38} {'PASS' if passed == total else 'FAIL'} {passed}/{total}")
    for error in result["errors"]:
        print(f"   job error: {error}")
    print(f"   verdicts: {result['verdicts']}")
    if result["trace"]:
        split = ", ".join(f"{k} {v:.1%}" for k, v in result["layer_split"].items())
        print(f"   self-time split of traced job wall: {split}")
        for name, why in result["absent"].items():
            print(f"   absent: {name} ({why})")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "warpcheck" / "__init__.py").is_file():
        print(f"error: no warpcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), spec))
            report(results[-1], units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        r = results[0]
        print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": r["metrics"]}))
        return 0
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
