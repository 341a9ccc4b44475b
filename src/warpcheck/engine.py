"""Search driver: the search iteration, batch query contract, stop criteria, trace.

:meth:`Search.step` runs one iteration.  Iteration 0 queries the unit-cube
center alone; each later one gathers the sample points of the rects the
last one selected, evaluates them in one batch call, divides those rects
and updates the slope estimates and the running best.  Every iteration then
selects the next rects and appends its :class:`IterationRecord`.  The search
stops after an iteration when selection returned nothing (every rect is at
the depth cap), the iteration cap is reached or the query budget is spent,
so one batch may overshoot it.  :func:`run` steps a search until it stops.

No unit-cube point is ever queried twice, so no evaluation cache is kept:
a sample point lies strictly inside its rect and off its center, while
every point queried so far is the center of exactly one live rect.  Depths
up to 33 (:class:`BudgetConfig`) keep distinct unit points distinct as
doubles; on a narrow box away from zero :meth:`ParamSpace.to_physical` can
still round two to one physical point, which costs a repeated query of the
same value.  The best point is tracked as the live rect centered there.
Its physical center and box are computed only when the best rect changes,
and every :class:`IterationRecord` gets its own copies of both arrays, so
writing into one record's arrays changes no other record.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .partition import ParamSpace, Partition, sample_points
from .selection import select_po
from .slope import SlopeTracker, cover_radius, estimate_lower_bound

Objective = Callable[[np.ndarray], np.ndarray]

TRACE_COLUMNS = ("iteration", "queries", "l_min", "l_star_min", "k_hat_max", "n_po")
TRACE_VERSION = "warpcheck-trace v1"


@dataclass(frozen=True)
class BudgetConfig:
    """Search budget and selection knobs.

    max_iters: division iterations allowed (T).
    max_queries: objective evaluations allowed (Q); a batch in flight may
        overshoot.
    depth: maximum trisections per dimension (D), 1 to 33; caps the
        smallest subspace side at ``3**-depth``.
    alpha: candidates kept per size group each iteration.
    tau: minimum relative improvement demanded of a candidate.
    """

    max_iters: int = 150
    max_queries: int = 2000
    depth: int = 6
    alpha: int = 2
    tau: float = 1e-4

    def __post_init__(self) -> None:
        for name in ("max_iters", "max_queries", "depth", "alpha"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        # Up to depth 33 every center is an odd multiple of 1/(2 * 3**33), so
        # distinct centers lie at least 3**-33 ~ 1.9e-16 apart, above the
        # spacing of doubles below 1 (2**-53); deeper, distinct sample points
        # round to one double and a point would be queried twice.  This holds
        # for unit points: to_physical may still map two of them to one.
        if self.depth > 33:
            raise ValueError("depth must be at most 33")
        try:
            tau_ok = 0 < self.tau < np.inf
        except TypeError:
            raise ValueError("tau must be a number") from None
        if not tau_ok:
            raise ValueError("tau must be positive and finite")


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
        lines = [f"# {TRACE_VERSION}", ",".join(TRACE_COLUMNS)]
        lines += [",".join(repr(getattr(r, name)) for name in TRACE_COLUMNS) for r in self.records]
        return "\n".join(lines) + "\n"

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


class ObjectiveError(ValueError):
    """A batch objective raised or broke its contract."""


def evaluate(objective: Objective, points: np.ndarray) -> np.ndarray:
    """Call a batch objective: ``B`` points in, ``B`` finite values out, or an
    :class:`ObjectiveError`.  Every method that queries an objective calls it here."""
    try:
        values = np.asarray(objective(points), dtype=float)
    except Exception as exc:
        raise ObjectiveError(f"objective raised: {exc}") from exc
    if values.shape != (len(points),):
        raise ObjectiveError(
            f"objective returned shape {values.shape}, expected ({len(points)},)"
        )
    if not np.all(np.isfinite(values)):
        raise ObjectiveError("objective returned a non-finite value")
    return values


class Search:
    """One anytime minimisation of a batch objective over the physical box.

    ``objective`` maps a ``(B, n)`` array of physical points to ``B`` values,
    order preserving.  With ``known_lipschitz`` a finite ``K >= 0`` (checked
    before any query), the lower bound is the least ``value - K *
    cover_radius`` over the live rects, sound when ``K`` bounds the slope in
    every factor; otherwise it is the slope estimate applied to the best rect.
    """

    def __init__(
        self,
        objective: Objective,
        space: ParamSpace,
        budget: BudgetConfig | None = None,
        known_lipschitz: float | None = None,
    ) -> None:
        K = None if known_lipschitz is None else float(known_lipschitz)
        if K is not None and not 0.0 <= K < np.inf:
            raise ValueError(f"known_lipschitz must be finite and >= 0, got {known_lipschitz}")
        self.objective, self.space, self.K = objective, space, K
        self.budget = budget or BudgetConfig()
        self.partition, self.tracker = Partition(space.n), SlopeTracker(space)
        self.best = self.partition.rects[0]
        self.po: list[int] = []  # the rects the next iteration divides
        self.queries = 0
        self.trace = RunTrace()
        # (best rect, its physical center, its physical box), redone when the best changes
        self._shown: tuple = (None, None, None)

    def step(self) -> IterationRecord | None:
        """Run one iteration and return its record, or ``None`` once stopped:
        ``trace.stop_reason`` is set with the last record, or to
        ``objective-error`` when the iteration raises from its query on."""
        trace, budget, space = self.trace, self.budget, self.space
        if trace.stop_reason != "unknown":
            return None
        # select_po skips every rect at the depth cap, so each has sample points;
        # with none selected yet (iteration 0), the root's center is the one query
        plan = [(rect_id, sample_points(self.partition.rects[rect_id])) for rect_id in self.po]
        unit = np.array([u for _, points in plan for u in points.values()] or [self.best.center()])
        rects, best = self.partition.rects, self.best
        try:
            values = iter(evaluate(self.objective, space.to_physical(unit)).tolist())
            self.queries += len(unit)
            if not plan:
                best.value = next(values)
            for rect_id, points in plan:
                rect = rects[rect_id]
                results = dict(zip(points, values))
                self.tracker.observe(rect.value, results, rect.depth_key)
                *pairs, center_id = self.partition.divide(rect_id, results)
                if rect is best:
                    best = rects[center_id]
                # strict <: a child that only ties the best does not replace it
                for child_id in pairs:
                    if rects[child_id].value < best.value:
                        best = rects[child_id]
        except Exception:
            # the values are spent or the partition half divided: never resume
            trace.stop_reason = "objective-error"
            raise

        self.best, iteration = best, len(trace.records)
        self.po = select_po(
            self.partition.groups, budget.alpha, budget.tau, best.value, budget.depth
        )
        if self.K is not None:
            bound = min(r.value - self.K * cover_radius(r.depths, space) for r in self.partition)
        else:
            bound = estimate_lower_bound(best, self.tracker.k_max, space)
        if self._shown[0] is not best:
            self._shown = (best, space.to_physical(best.center()), space.to_physical(best.box().T).T)
        _, c_min, optimal_box = self._shown
        record = IterationRecord(
            iteration=iteration,
            queries=self.queries,
            l_min=best.value,
            l_star_min=bound,
            k_hat_max=self.tracker.k_max,
            n_po=len(plan) or len(self.po),  # iteration 0: the first selection
            c_min=c_min.copy(),  # each record owns its arrays
            optimal_box=optimal_box.copy(),
        )
        trace.records.append(record)
        if not self.po:
            trace.stop_reason = "exhausted"
        elif iteration >= budget.max_iters:
            trace.stop_reason = "iterations"
        elif self.queries >= budget.max_queries:
            trace.stop_reason = "queries"
        return record


def run(
    objective: Objective,
    space: ParamSpace,
    budget: BudgetConfig | None = None,
    known_lipschitz: float | None = None,
) -> RunTrace:
    """Run a :class:`Search` until it stops and return its trace."""
    search = Search(objective, space, budget, known_lipschitz)
    while search.step():
        pass
    return search.trace


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
) -> VerificationResult:
    """Run the search on a margin objective and classify the outcome.

    Falsified when any evaluated margin went negative (the witness is the
    physical point achieving the best observed value); verified when at
    least one rect was divided and the final lower-bound estimate stayed
    positive; undecided otherwise.  A run stopped after iteration 0 has
    seen no slope, so its estimate is the one margin queried.
    """
    trace = run(objective, space, budget)
    if trace.l_min < 0.0:
        status, witness = FALSIFIED, trace.c_min
    elif trace.l_star_min > 0.0 and trace.final.iteration > 0:
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
