"""Span recording around the program's public functions, for the traced run.

The tracer replaces module and class attributes of ``warpcheck`` with
wrappers that record one span per call: name, start, end, parent span and
job id.  Spans stay in memory until :meth:`Tracer.write` saves them at the
end of the run.  A target that a later version of the program no longer has
is reported as absent instead of failing the run.

A function is patched under every name any loaded ``warpcheck`` module
binds it to, so a call resolves to the wrapper whether the caller imported
the function by name (``engine.select_po``) or goes through its module.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from collections import defaultdict


def _points(args, result):
    return len(result)


def _size(args, result):
    return result.size


def _conv_macs(args, result):
    _, in_ch, k, _ = args[0].weight.shape
    return result.size * in_ch * k * k


def _dense_macs(args, result):
    return result.size * args[0].weight.shape[1]


def _n_points(args, result):
    return result.n_points


# (span name, "module:attribute[.method]", per-call count or None)
TARGETS = (
    ("engine.verify", "warpcheck.engine:verify", None),
    ("engine.run", "warpcheck.engine:run", None),
    ("selection.select_po", "warpcheck.selection:select_po", _points),
    ("selection.stats_from_partition", "warpcheck.selection:stats_from_partition", None),
    ("partition.divide", "warpcheck.partition:Partition.divide", None),
    ("partition.sample_points", "warpcheck.partition:sample_points", _points),
    ("slope.observe", "warpcheck.slope:SlopeTracker.observe", None),
    ("slope.estimate_lower_bound", "warpcheck.slope:estimate_lower_bound", None),
    ("objectives.MarginObjective.__call__", "warpcheck.objectives:MarginObjective.__call__", _points),
    ("objectives.margin_batch", "warpcheck.objectives:margin_batch", None),
    ("geometry.build_matrix_batch", "warpcheck.geometry:build_matrix_batch", None),
    ("geometry.warp_batch", "warpcheck.geometry:warp_batch", _size),
    ("netfwd.forward", "warpcheck.netfwd:forward", None),
    ("netfwd.Conv2dLayer.apply", "warpcheck.netfwd:Conv2dLayer.apply", _conv_macs),
    ("netfwd.DenseLayer.apply", "warpcheck.netfwd:DenseLayer.apply", _dense_macs),
    ("netfwd.load_weights", "warpcheck.netfwd:load_weights", None),
    ("images.read_image", "warpcheck.images:read_image", None),
    ("baselines.grid_search", "warpcheck.baselines:grid_search", _n_points),
    ("baselines.random_pick", "warpcheck.baselines:random_pick", _n_points),
)

SETUP_JOB = -1
NAME, START, END, PARENT, JOB, COUNT = range(6)


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = SETUP_JOB
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._wrappers: dict[str, tuple[list[tuple[object, str]], object, object]] = {}
        for name, where, count in TARGETS:
            found = self._resolve(where)
            if found is None:
                self.absent[name] = f"{where} not found"
                continue
            owners, original = found
            self._wrappers[name] = (owners, original, self._wrap(name, original, count))

    def _resolve(self, where: str):
        module_name, _, path = where.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return None
        owner_name, _, method = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or method not in vars(owner):
                return None
            return [(owner, method)], vars(owner)[method]
        original = getattr(module, method, None)
        if original is None:
            return None
        owners = [
            (mod, attr)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "warpcheck" or mod_name.startswith("warpcheck.")
            for attr, value in list(vars(mod).items())
            if value is original
        ]
        return owners, original

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, result)
            return result

        return wrapper

    def install(self) -> None:
        for owners, _, wrapper in self._wrappers.values():
            for owner, attr in owners:
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owners, original, _ in self._wrappers.values():
            for owner, attr in owners:
                setattr(owner, attr, original)

    def totals(self, job_filter) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds and summed count.

        Self time is a span's duration minus the durations of its direct
        children; calls in one thread nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0}
        )
        for i, span in enumerate(self.spans):
            if not job_filter(span[JOB]):
                continue
            entry = out[span[NAME]]
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child[i]
            entry["count"] += span[COUNT]
        return out

    def write(self, path, origin: float) -> None:
        """Save every span as CSV, times in seconds from ``origin``."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_s", "end_s", "parent", "job", "count"))
            for i, s in enumerate(self.spans):
                out.writerow((i, s[NAME], f"{s[START] - origin:.9f}",
                              f"{s[END] - origin:.9f}", s[PARENT], s[JOB], s[COUNT]))
