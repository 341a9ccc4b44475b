"""Search driver: iteration loop, batch query contract, stop criteria, trace.

One iteration gathers the sample points of every potentially-optimal rect,
evaluates them in a single batch call, divides those rects, updates slope
estimates and the running best, then selects the next potentially-optimal
set.  Each pass of the loop first appends its :class:`IterationRecord`
(iteration 0 holds the first query alone) and then checks the stop
criteria: the run stops when the iteration cap is reached, the query budget
is exhausted (checked before launching a batch, so one batch may
overshoot), or every rect is at the depth cap, so selection returns
nothing.

No point is ever queried twice, so no evaluation cache is kept: a sample
point lies strictly inside its rect and off its center, while every point
queried so far is the center of exactly one live rect.  The best point is
tracked as the live rect centered there.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .partition import ParamSpace, Partition, sample_points
from .selection import select_po
from .slope import SlopeTracker, estimate_lower_bound

Objective = Callable[[np.ndarray], np.ndarray]

TRACE_COLUMNS = ("iteration", "queries", "l_min", "l_star_min", "k_hat_max", "n_po")
TRACE_VERSION = "warpcheck-trace v1"


@dataclass(frozen=True)
class BudgetConfig:
    """Search budget and selection knobs.

    max_iters: division iterations allowed (T).
    max_queries: objective evaluations allowed (Q); a batch in flight may
        overshoot.
    depth: maximum trisections per dimension (D); caps the smallest
        subspace side at ``3**-depth``.
    alpha: candidates kept per size group each iteration.
    tau: minimum relative improvement demanded of a candidate.
    """

    max_iters: int = 150
    max_queries: int = 2000
    depth: int = 6
    alpha: int = 2
    tau: float = 1e-4

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.max_queries < 1:
            raise ValueError("max_queries must be at least 1")
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.alpha < 1:
            raise ValueError("alpha must be at least 1")
        if not self.tau > 0:
            raise ValueError("tau must be positive")


@dataclass
class IterationRecord:
    iteration: int
    queries: int
    l_min: float
    l_star_min: float
    k_hat_max: float
    n_po: int
    c_min: np.ndarray
    optimal_box: np.ndarray


@dataclass
class RunTrace:
    """Per-iteration audit trail of one run."""

    space: ParamSpace
    records: list[IterationRecord] = field(default_factory=list)
    stop_reason: str = "unknown"

    @property
    def final(self) -> IterationRecord:
        return self.records[-1]

    @property
    def l_min(self) -> float:
        return self.final.l_min

    @property
    def l_star_min(self) -> float:
        return self.final.l_star_min

    @property
    def c_min(self) -> np.ndarray:
        return self.final.c_min

    @property
    def queries(self) -> int:
        return self.final.queries

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# {TRACE_VERSION}\n")
        buf.write(",".join(TRACE_COLUMNS) + "\n")
        for r in self.records:
            buf.write(
                f"{r.iteration},{r.queries},{r.l_min!r},{r.l_star_min!r},"
                f"{r.k_hat_max!r},{r.n_po}\n"
            )
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv())

    def summary(self) -> dict:
        return {
            "iterations": self.final.iteration,
            "queries": self.queries,
            "l_min": self.l_min,
            "l_star_min": self.l_star_min,
            "k_hat_max": self.final.k_hat_max,
            "c_min": [float(v) for v in self.c_min],
            "stop_reason": self.stop_reason,
        }


class ObjectiveError(RuntimeError):
    """The objective failed mid-run; the partial trace is preserved and marked."""

    def __init__(self, message: str, trace: RunTrace) -> None:
        super().__init__(message)
        trace.stop_reason = "objective-error"
        self.trace = trace


def _evaluate(objective: Objective, points: np.ndarray, trace: RunTrace) -> np.ndarray:
    try:
        values = np.asarray(objective(points), dtype=float)
    except Exception as exc:
        raise ObjectiveError(f"objective raised: {exc}", trace) from exc
    if values.shape != (len(points),):
        raise ObjectiveError(
            f"objective returned shape {values.shape}, expected ({len(points)},)", trace
        )
    if not np.all(np.isfinite(values)):
        raise ObjectiveError("objective returned a non-finite value", trace)
    return values


def run(
    objective: Objective,
    space: ParamSpace,
    budget: BudgetConfig | None = None,
    known_lipschitz: float | None = None,
) -> RunTrace:
    """Minimise a batch objective over the physical box.

    ``objective`` receives an ``(B, n)`` array of physical points and must
    return one value per point, order preserving.  The unit-cube center
    (the identity transformation for symmetric bounds) is always the first
    query.  With ``known_lipschitz`` set, the reported lower bound is the
    least ``value - K * cover_radius`` over all live rects, which is sound
    when ``K`` bounds the objective's slope in every factor; otherwise it is
    the slope estimate gathered along the way, applied to the best rect.
    """
    budget = budget or BudgetConfig()
    partition = Partition(space.n)
    tracker = SlopeTracker(space)
    trace = RunTrace(space=space)

    best = partition.rects[0]
    best.value = float(_evaluate(objective, space.to_physical(best.center()[None]), trace)[0])
    queries = 1

    po = select_po(partition, budget.alpha, budget.tau, best.value, budget.depth)
    iteration, n_po = 0, len(po)
    while True:
        if known_lipschitz is not None:
            bound = min(
                estimate_lower_bound(r, known_lipschitz, space, cover=True) for r in partition
            )
        else:
            bound = estimate_lower_bound(best, tracker.k_max, space)
        trace.records.append(
            IterationRecord(
                iteration=iteration,
                queries=queries,
                l_min=best.value,
                l_star_min=bound,
                k_hat_max=tracker.k_max,
                n_po=n_po,
                c_min=space.to_physical(best.center()),
                optimal_box=space.to_physical(best.box().T).T,
            )
        )
        if not po:
            trace.stop_reason = "exhausted"
            break
        if iteration >= budget.max_iters:
            trace.stop_reason = "iterations"
            break
        if queries >= budget.max_queries:
            trace.stop_reason = "queries"
            break
        iteration, n_po = iteration + 1, len(po)

        # select_po skips every rect at the depth cap, so each has sample points
        plan = [(rect_id, sample_points(partition.rects[rect_id])) for rect_id in po]
        unit = np.array([p.center() for _, points in plan for p in points])
        values = iter(_evaluate(objective, space.to_physical(unit), trace).tolist())
        queries += len(unit)

        for rect_id, points in plan:
            rect = partition.rects[rect_id]
            results = {(p.dim, p.sign): next(values) for p in points}
            tracker.observe(rect.value, results, rect.depth_key)
            divided = partition.divide(rect_id, results)
            if rect is best:
                best = partition.rects[divided.center_id]
            for child_id in divided.pair_ids.values():
                child = partition.rects[child_id]
                if child.value < best.value:
                    best = child

        po = select_po(partition, budget.alpha, budget.tau, best.value, budget.depth)

    return trace


FALSIFIED = "falsified"
VERIFIED_ESTIMATE = "verified-estimate"
UNDECIDED = "undecided"


@dataclass
class VerificationResult:
    """Outcome of a robustness check on one margin objective."""

    status: str
    l_min: float
    l_star_min: float
    witness: np.ndarray | None
    queries: int
    trace: RunTrace

    def summary(self) -> dict:
        out = self.trace.summary()
        out["verdict"] = self.status
        out["witness"] = (
            [float(v) for v in self.witness] if self.witness is not None else None
        )
        return out


def verify(
    objective: Objective,
    space: ParamSpace,
    budget: BudgetConfig | None = None,
    known_lipschitz: float | None = None,
) -> VerificationResult:
    """Run the search on a margin objective and classify the outcome.

    Falsified when any evaluated margin went negative (the witness is the
    physical point achieving the best observed value); verified when the
    final lower-bound estimate stayed positive; undecided otherwise.
    """
    trace = run(objective, space, budget, known_lipschitz)
    if trace.l_min < 0.0:
        status, witness = FALSIFIED, trace.c_min
    elif trace.l_star_min > 0.0:
        status, witness = VERIFIED_ESTIMATE, None
    else:
        status, witness = UNDECIDED, None
    return VerificationResult(
        status=status,
        l_min=trace.l_min,
        l_star_min=trace.l_star_min,
        witness=witness,
        queries=trace.queries,
        trace=trace,
    )
