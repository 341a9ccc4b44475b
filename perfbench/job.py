"""Child-process side of the benchmark: input generation, set-up, timed jobs.

``run.py`` starts this file as a fresh process for each step, so that the
memory and start-up cost of one step never count against another:

    python3 perfbench/job.py gen <workload> <seed> <dir>
    python3 perfbench/job.py setup <dir>
    python3 perfbench/job.py measure <dir> <seconds> <trace 0|1> <spans.csv>

``gen`` writes the weight file, images, labels and reference minima into
``<dir>``; the program later sees only those files.  ``setup`` loads them as
a user of ``verify``/``compare`` would and reports when the first job is
ready.  ``measure`` sets up the same way, runs the examples one job at a
time, in order and over again, until ``seconds`` have elapsed and at least
one whole pass is done, checks every job's output and writes
``measure.json``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

FIXTURE_BOX = {"rotation": 20.0, "scale": 0.1, "translate": (1.6, 1.6)}

WORKLOADS = {
    # criterion-6 config: the objective is cheap, so search bookkeeping dominates
    "fixture-verify": {
        "kind": "verify",
        "inputs": "fixture",
        "examples": 56,
        "box": FIXTURE_BOX,
        "budget": {"max_iters": 80, "max_queries": 3000, "depth": 6, "alpha": 2},
        "reference_grid": 11,
        "match": "below-reference",
    },
    # seeded conv net: the objective (warp + conv forward) dominates at small batches
    "conv-verify": {
        "kind": "verify",
        "inputs": "conv",
        "examples": 50,
        "box": {"rotation": 10.0, "scale": 0.05, "translate": (1.5, 1.5)},
        "budget": {"max_iters": 40, "max_queries": 2000, "depth": 5, "alpha": 2},
        "reference_grid": 3,
        "match": "same-sign-as-reference",
    },
    # the baselines `compare` adds: the objective path at ~1000x larger batches
    "fixture-oracle": {
        "kind": "oracle",
        "inputs": "fixture",
        "examples": 56,
        "box": FIXTURE_BOX,
        "grid": 11,
        "random": 20000,
    },
}

CONV_SIZE = 32
CONV_CLASSES = 10
CONV_MARGIN_FLOOR = 0.3
REEVAL_TOLERANCE = 1e-9


# ---------------------------------------------------------------- generation


def _conv_net(rng):
    import numpy as np
    from warpcheck.netfwd import Conv2dLayer, DenseLayer, FlattenLayer, NetSpec, ReluLayer

    def he(shape, fan_in):
        return rng.normal(0.0, (2.0 / fan_in) ** 0.5, shape)

    flat = 16 * (CONV_SIZE // 2) ** 2
    return NetSpec([
        Conv2dLayer(he((8, 3, 3, 3), 27), rng.normal(0.0, 0.05, 8), 1, 1),
        ReluLayer(),
        Conv2dLayer(he((16, 8, 3, 3), 72), rng.normal(0.0, 0.05, 16), 2, 1),
        ReluLayer(),
        FlattenLayer(),
        DenseLayer(he((CONV_CLASSES, flat), flat), np.zeros(CONV_CLASSES)),
    ])


def _smooth_image(rng):
    """Three channels, each a flat level plus four Gaussian blobs, in [0, 1]."""
    import numpy as np

    yy, xx = np.mgrid[0:CONV_SIZE, 0:CONV_SIZE]
    img = np.empty((CONV_SIZE, CONV_SIZE, 3))
    for c in range(3):
        acc = np.full((CONV_SIZE, CONV_SIZE), rng.uniform(0.2, 0.4))
        for _ in range(4):
            row, col = rng.uniform(4, CONV_SIZE - 4, size=2)
            sigma, amp = rng.uniform(2.5, 7.0), rng.uniform(-0.5, 0.6)
            acc += amp * np.exp(-((yy - row) ** 2 + (xx - col) ** 2) / (2 * sigma**2))
        img[:, :, c] = acc
    return np.clip(img, 0.0, 1.0)


def _conv_inputs(seed: int, count: int):
    """Seeded net and images labelled by the net's clean prediction.

    The final layer is standardised on 64 calibration images: every logit
    gets mean 0 and the classes' mean spread becomes 1, so no class wins
    every image and margins are of order one.  Images whose clean margin is
    at or below ``CONV_MARGIN_FLOOR`` are dropped.
    """
    import numpy as np
    from warpcheck.netfwd import forward

    rng = np.random.default_rng([seed, 32])
    net = _conv_net(rng)
    calib = forward(net, np.stack([_smooth_image(rng) for _ in range(64)]))
    spread = calib.std(axis=0).mean()
    dense = net.layers[-1]
    dense.weight = dense.weight / spread
    dense.bias = -calib.mean(axis=0) / spread
    examples = []
    for _ in range(count * 20):
        if len(examples) == count:
            break
        img = _smooth_image(rng)
        logits = forward(net, img[None])[0]
        top = np.sort(logits)
        if top[-1] - top[-2] > CONV_MARGIN_FLOOR:
            examples.append((img, int(np.argmax(logits))))
    if len(examples) < count:
        raise RuntimeError(f"only {len(examples)} of {count} images clear the margin floor")
    return net, examples


def generate(workload: str, seed: int, workdir: Path) -> None:
    """Write the inputs of one workload run; nothing here is timed."""
    import numpy as np
    from warpcheck.baselines import grid_search
    from warpcheck.images import write_image
    from warpcheck.netfwd import forward, save_weights
    from warpcheck.objectives import MarginObjective, TransformDomain

    cfg = WORKLOADS[workload]
    if cfg["inputs"] == "fixture":
        sys.path.insert(0, str(HERE))
        from fixture import build_fixture_examples, build_fixture_net

        net = build_fixture_net()
        examples = build_fixture_examples(count=cfg["examples"], seed=seed)
    else:
        net, examples = _conv_inputs(seed, cfg["examples"])
    workdir.mkdir(parents=True, exist_ok=True)
    save_weights(workdir / "net.txt", net)
    names = []
    for i, (img, _) in enumerate(examples):
        names.append(f"ex{i:03d}.txt")
        write_image(workdir / names[-1], img)
    labels = [label for _, label in examples]
    (workdir / "labels.txt").write_text(" ".join(str(v) for v in labels) + "\n")

    references = []
    if cfg["kind"] == "verify":
        domain = TransformDomain.from_ranges(**cfg["box"])
        space = domain.param_space()
        model = lambda batch: forward(net, batch)
        for img, label in examples:
            oracle = grid_search(MarginObjective(model, img, label, domain), space,
                                 cfg["reference_grid"])
            references.append(oracle.min_value)
    manifest = {
        "workload": workload,
        "seed": seed,
        "config": cfg,
        "weights": "net.txt",
        "images": names,
        "labels": "labels.txt",
        "references": references,
        "label_counts": np.bincount(labels).tolist(),
    }
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1))


# ------------------------------------------------------------ set-up and jobs


class Workload:
    """A loaded workload: the objectives a user's run would build."""

    def __init__(self, workdir: Path) -> None:
        import numpy as np
        import warpcheck  # noqa: F401  (loads every module before tracing)

        self.np = np
        self.manifest = json.loads((workdir / "manifest.json").read_text())
        self.cfg = self.manifest["config"]
        self.workdir = workdir

    def load(self) -> None:
        """Everything a user's run does before its first job."""
        from warpcheck import images, netfwd, objectives
        from warpcheck.engine import BudgetConfig

        m, cfg = self.manifest, self.cfg
        net = netfwd.load_weights(self.workdir / m["weights"])
        pictures = [images.read_image(self.workdir / name) for name in m["images"]]
        labels = [int(t) for t in (self.workdir / m["labels"]).read_text().split()]
        box = dict(cfg["box"], translate=tuple(cfg["box"]["translate"]))
        domain = objectives.TransformDomain.from_ranges(**box)
        self.space = domain.param_space()
        model = lambda batch: netfwd.forward(net, batch)
        self.objectives = [
            objectives.MarginObjective(model, img, label, domain)
            for img, label in zip(pictures, labels)
        ]
        self.clean = [o.clean_margin for o in self.objectives]
        if cfg["kind"] == "verify":
            self.budget = BudgetConfig(**cfg["budget"])

    def job(self, i: int) -> dict:
        from warpcheck import baselines, engine

        obj = self.objectives[i]
        if self.cfg["kind"] == "verify":
            res = engine.verify(obj, self.space, self.budget)
            records = res.trace.records
            last_batch = records[-1].queries - records[-2].queries if len(records) > 1 else 1
            return {
                "verdict": res.status,
                "l_min": res.l_min,
                "l_star_min": res.l_star_min,
                "witness": None if res.witness is None else [float(v) for v in res.witness],
                "queries": res.queries,
                "last_batch": last_batch,
                "iterations": res.trace.final.iteration,
            }
        grid = baselines.grid_search(obj, self.space, self.cfg["grid"])
        rand = baselines.random_pick(obj, self.space, self.cfg["random"],
                                     self.manifest["seed"] + i)
        return {
            "verdict": "survived" if grid.min_value > 0.0 else "broken",
            "grid_min": grid.min_value,
            "grid_argmin": grid.argmin.tolist(),
            "grid_points": grid.n_points,
            "random_min": rand.min_value,
            "random_argmin": rand.argmin.tolist(),
            "random_points": rand.n_points,
            "queries": grid.n_points + rand.n_points,
        }

    def _reevaluate(self, i: int, point) -> float:
        return float(self.objectives[i](self.np.asarray([point], dtype=float))[0])

    def check(self, i: int, out: dict) -> dict[str, bool]:
        """Output checks of one job; every one must hold."""
        def same(a: float, b: float) -> bool:
            return abs(a - b) <= REEVAL_TOLERANCE * max(1.0, abs(b))

        if self.cfg["kind"] == "verify":
            reference = self.manifest["references"][i]
            checks = {
                "bound_not_above_min": out["l_star_min"] <= out["l_min"],
                "queries_within_budget":
                    out["queries"] <= self.budget.max_queries + out["last_batch"],
                "no_verified_on_negative_reference":
                    not (out["verdict"] == "verified-estimate" and reference < 0.0),
            }
            if out["verdict"] == "falsified":
                value = self._reevaluate(i, out["witness"])
                checks["witness_negative"] = value < 0.0 and same(value, out["l_min"])
            return checks
        return {
            "grid_argmin_reproduces": same(self._reevaluate(i, out["grid_argmin"]), out["grid_min"]),
            "random_argmin_reproduces":
                same(self._reevaluate(i, out["random_argmin"]), out["random_min"]),
            "point_counts": out["grid_points"] == self.cfg["grid"] ** self.space.n
                and out["random_points"] == self.cfg["random"],
        }

    def match(self, i: int, out: dict) -> bool:
        """Whether the job's answer matches its reference.

        fixture-verify: the search minimum is at or below the dense-grid
        minimum, as in criterion 6.  conv-verify: the search minimum has the
        sign of the coarse-grid minimum.  fixture-oracle: the random
        baseline's minimum has the sign of the grid's.
        """
        if self.cfg["kind"] == "oracle":
            return (out["random_min"] > 0.0) == (out["grid_min"] > 0.0)
        reference = self.manifest["references"][i]
        if self.cfg["match"] == "below-reference":
            return out["l_min"] <= reference
        return (out["l_min"] > 0.0) == (reference > 0.0)


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs between numpy versions
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def _run_job(work: Workload, i: int) -> tuple[float, dict | None, str | None]:
    start = time.perf_counter()
    try:
        out, error = work.job(i), None
    except Exception as exc:  # one failed job is counted, the run goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, error


def measure(workdir: Path, seconds: float, trace: bool, spans_path: Path) -> None:
    work = Workload(workdir)
    tracer = None
    if trace:
        sys.path.insert(0, str(HERE))
        from tracing import SETUP_JOB, Tracer

        tracer = Tracer()
        tracer.install()
    work.load()
    ready = time.monotonic()
    if tracer is not None:
        tracer.uninstall()

    n = len(work.objectives)
    jobs: list[dict] = []
    start = time.perf_counter()
    k = 0
    # untraced: cycle through the examples until `seconds` have elapsed, and
    # always finish the first pass; traced: exactly one pass, so that every
    # per-layer count is the same on every run of a seed
    while k < n or (tracer is None and time.perf_counter() - start < seconds):
        i = k % n
        # the traced run pairs every traced job with an untraced one of the
        # same example, in alternating order, to measure the overhead
        modes = [False] if tracer is None else [i % 2 == 0, i % 2 == 1]
        for traced in modes:
            if traced:
                tracer.job = len(jobs)
                tracer.install()
            duration, out, error = _run_job(work, i)
            if traced:
                tracer.uninstall()
            jobs.append({"example": i, "pass": k // n, "traced": traced,
                         "s": duration, "out": out, "error": error})
        k += 1
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    first = {}
    for job in jobs:
        out = job.pop("out")
        if out is None:
            continue
        job["checks"] = work.check(job["example"], out)
        job["match"] = work.match(job["example"], out)
        job["queries"] = out["queries"]
        job["verdict"] = out["verdict"]
        job["iterations"] = out.get("iterations", 0)
        # a repeated example gives the first answer again: the program is deterministic
        key = job["example"]
        first.setdefault(key, out)
        job["checks"]["repeat_matches_first_pass"] = out == first[key]

    result = {
        "ready": ready,
        "wall_s": wall,
        "passes": k / n,
        "examples": n,
        "peak_rss_kb": peak_kb,
        "jobs": jobs,
        "environment": _environment(),
    }
    if tracer is not None:
        result["layers"] = {
            "jobs": tracer.totals(lambda job: job >= 0),
            "setup": tracer.totals(lambda job: job == SETUP_JOB),
            "absent": tracer.absent,
        }
        tracer.write(spans_path, start)
    (workdir / "measure.json").write_text(json.dumps(result))


def main(argv: list[str]) -> int:
    command = argv[0]
    if command == "gen":
        generate(argv[1], int(argv[2]), Path(argv[3]))
    elif command == "setup":
        Workload(Path(argv[1])).load()
        print(json.dumps({"ready": time.monotonic()}))
    elif command == "measure":
        measure(Path(argv[1]), float(argv[2]), argv[3] == "1", Path(argv[4]))
    else:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
