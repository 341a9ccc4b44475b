"""Command-line front end: optimize, verify, and compare subcommands.

Configuration comes from literal ``key = value`` files with one section per
transformation plus ``[search]``, ``[model]``, ``[data]``, ``[oracle]``
and ``[output]`` sections.  ``OPTIONS`` maps every flag to its config key,
type and default, and flags win over the file.  The effective
configuration is echoed into each output header so results are
self-describing.  Outputs carry a schema version line for downstream
tooling.

An example whose image, model call or search raises anything but an
interrupt is reported (verdict ``error`` in ``verify``, left out of
``attacked`` in ``compare``, listed under ``errors`` in the summary, its
traceback on stderr) and the batch goes on.  Exit codes: 0 on success, 1
for a runtime failure or a failed example (after every output is written),
2 for a usage or config error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from .baselines import MAX_GRID_POINTS, grid_search, match_metric, random_pick
from .engine import FALSIFIED, UNDECIDED, VERIFIED_ESTIMATE, BudgetConfig, run, verify
from .images import read_image
from .netfwd import forward, load_weights
from .objectives import MarginObjective, TransformDomain, test_function
from .partition import ParamSpace

OUTPUT_VERSION = "warpcheck-output v1"
CLEAN_ERROR = "clean-error"
ERROR = "error"


class ConfigError(ValueError):
    pass


def _parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


# flag destination -> (config section, config key, type, default, help).
# The type casts config values and, for int and float, flags; ``str.split``
# marks a list flag and ``_parse_bool`` an on-switch.  --config has no key.
OPTIONS = {
    "config": (None, None, str, None, "key = value config file"),
    "depth": ("search", "depth", int, BudgetConfig.depth, "max trisections per dimension (D)"),
    "alpha": ("search", "alpha", int, BudgetConfig.alpha, "candidates kept per size group"),
    "tau": ("search", "tau", float, BudgetConfig.tau, "minimum relative improvement"),
    "max_iters": ("search", "max_iters", int, BudgetConfig.max_iters, "iteration cap (T)"),
    "max_queries": ("search", "max_queries", int, BudgetConfig.max_queries, "query cap (Q)"),
    "seed": ("search", "seed", int, 0, "seed for randomised baselines"),
    "out": ("output", "dir", str, ".", "output directory"),
    "fn": ("function", "name", str, None, "test function name (e.g. abs1d, multi-basin)"),
    "bounds": ("function", "bounds", str, None, "comma-separated lo,hi per dimension"),
    "weights": ("model", "weights", str, None, "weight file for the classifier"),
    "images": ("data", "images", str.split, None, "image files (.pgm/.ppm/.txt)"),
    "labels": ("data", "labels", str, None, "label file or comma-separated integers"),
    "rotation": ("rotation", "range", float, 0.0, "rotation range, +- degrees"),
    "scale": ("scale", "range", float, 0.0, "scale range, 1 +- value"),
    "translate": ("translate", "range", str, "0,0", "translation range, pixels: 'h,v'"),
    "skip_misclassified": ("search", "skip_misclassified", _parse_bool, False,
                           "report clean mistakes instead of attacking them"),
    "oracle_grid": ("oracle", "grid", int, 5, "grid points per dimension"),
    "oracle_random": ("oracle", "random", int, 1000, "random samples per example"),
    "match_tolerance": ("oracle", "match_tolerance", float, 0.0, "slack for the match rule"),
}

_SEARCH = ("config", "depth", "alpha", "tau", "max_iters", "max_queries", "out")
_MODEL = ("weights", "images", "labels", "rotation", "scale", "translate", "skip_misclassified")

# subcommand -> (help, the OPTIONS it accepts)
COMMANDS = {
    "optimize": ("minimise a named test function", _SEARCH + ("fn", "bounds")),
    "verify": ("robustness verdict per example", _SEARCH + _MODEL),
    "compare": ("side-by-side with grid and random baselines",
                _SEARCH + _MODEL + ("seed", "oracle_grid", "oracle_random", "match_tolerance")),
}


class Resolver:
    """Flag-over-file-over-default lookup that records what it resolved."""

    def __init__(self, args: argparse.Namespace, config_path: str | None) -> None:
        self.args = args
        # values are literal, as the key = value format says: no % interpolation
        self.file = configparser.ConfigParser(interpolation=None)
        if config_path is not None:
            try:
                read = self.file.read(config_path)
            except (configparser.Error, UnicodeDecodeError) as exc:
                raise ConfigError(f"{config_path}: {exc}") from None
            if not read:
                raise ConfigError(f"cannot read config file {config_path}")
            # a key of another subcommand is known, so one file serves all three;
            # a [DEFAULT] key is inherited by every section, so it need only be
            # some option's key, and is not checked again in each section
            known = {spec[:2] for spec in OPTIONS.values()}
            option_keys = {key for _, key in known}
            for key in self.file.defaults():
                if key not in option_keys:
                    raise ConfigError(f"{config_path}: unknown key {key!r} in section [DEFAULT]")
            for section in self.file.sections():
                for key in self.file.options(section):
                    if (section, key) not in known and key not in self.file.defaults():
                        raise ConfigError(f"{config_path}: unknown key {key!r} in section [{section}]")
        self.effective: dict[str, str] = {}

    def get(self, dest: str, required: bool = False):
        section, key, kind, default, _ = OPTIONS[dest]
        value = getattr(self.args, dest)
        if value is None and self.file.has_option(section, key):
            raw = self.file.get(section, key)
            try:
                value = kind(raw)
            except ValueError as exc:
                raise _bad(dest, f"bad config value {raw!r}: {exc}") from None
        if value is None:
            value = default
        if value is None and required:
            raise _bad(dest, "missing required option")
        if value is not None:
            self.effective[f"{section}.{key}"] = _format_value(value)
        return value


def _format_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def _bad(dest: str, why) -> ConfigError:
    """A config error naming the flag and config key of option ``dest``."""
    section, key = OPTIONS[dest][:2]
    return ConfigError(f"--{dest.replace('_', '-')} (config key {section}.{key}): {why}")


def _build(make, **values):
    """``make(**values)``; a ValueError from one value alone is blamed on its option."""
    for dest, value in values.items():
        try:
            make(**{dest: value})
        except ValueError as exc:
            raise _bad(dest, exc) from None
    return make(**values)


def _floats(dest: str, raw: str) -> list[float]:
    """The comma-separated numbers of option ``dest``; empty items are skipped."""
    try:
        return [float(p) for p in raw.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise _bad(dest, exc) from None


def _parse_bounds(raw: str) -> ParamSpace:
    values = _floats("bounds", raw.replace(";", ","))
    if len(values) == 0 or len(values) % 2 != 0:
        raise _bad("bounds", f"need lo,hi pairs, got {raw!r}")
    return _build(ParamSpace, bounds=list(zip(values[::2], values[1::2])))


def _parse_pair(raw: str) -> tuple[float, float]:
    values = _floats("translate", raw)
    if len(values) not in (1, 2):
        raise _bad("translate", f"need one or two comma-separated values, got {raw!r}")
    return values[0], values[-1]


def _parse_labels(raw: str, count: int) -> list[int]:
    path = Path(raw)
    if path.exists():
        try:
            tokens = path.read_text().split()
        except (OSError, UnicodeDecodeError) as exc:
            raise _bad("labels", exc) from None
    else:
        tokens = [t for t in raw.split(",") if t.strip() != ""]
    try:
        labels = [int(t) for t in tokens]
    except ValueError as exc:
        raise ConfigError(f"bad label list {raw!r}: {exc}")
    if len(labels) != count:
        raise ConfigError(f"{count} images but {len(labels)} labels")
    return labels


def _header_lines(command: str, effective: dict[str, str]) -> list[str]:
    lines = [f"# {OUTPUT_VERSION}", f"# command = {command}"]
    lines.extend(f"# {key} = {value}" for key, value in sorted(effective.items()))
    return lines


def _write_summary(outdir: Path, command: str, effective: dict[str, str], payload: dict,
                   errors: dict[int, str] | None = None) -> int:
    """Write and echo the summary, listing failed examples; return the exit code."""
    if errors:
        payload["errors"] = errors
    text = "\n".join(_header_lines(command, effective))
    text += "\n" + json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (outdir / "summary.txt").write_text(text)
    sys.stdout.write(text)
    return 1 if errors else 0


def _write_csv(path: Path, command: str, effective: dict[str, str],
               columns: list[str], rows: list[list]) -> None:
    lines = _header_lines(command, effective)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _budget(res: Resolver) -> BudgetConfig:
    fields = ("max_iters", "max_queries", "depth", "alpha", "tau")
    return _build(BudgetConfig, **{dest: res.get(dest) for dest in fields})


def _outdir(res: Resolver) -> Path:
    out = Path(res.get("out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def cmd_optimize(res: Resolver) -> int:
    name = res.get("fn", required=True)
    bounds_raw = res.get("bounds", required=True)
    budget = _budget(res)
    fn = test_function(name)
    space = _parse_bounds(bounds_raw)
    if space.n != fn.dim:
        raise ConfigError(f"{name} is {fn.dim}-dimensional but {space.n} bounds given")
    outdir = _outdir(res)
    trace, elapsed = _timed(run, fn, space, budget)

    trace_path = outdir / "trace.csv"
    header = _header_lines("optimize", res.effective)
    trace_path.write_text("\n".join([*header, trace.to_csv()]), newline="\n")
    payload = trace.summary()
    payload["function"] = name
    payload["runtime_s"] = elapsed
    payload["trace"] = str(trace_path)
    return _write_summary(outdir, "optimize", res.effective, payload)


def _domain(res: Resolver) -> TransformDomain:
    return _build(TransformDomain.from_ranges, rotation=res.get("rotation"),
                  scale=res.get("scale"), translate=_parse_pair(res.get("translate")))


def _examples(res: Resolver, domain: TransformDomain, attack):
    """Run ``attack(space, index, objective)`` on each example of the batch.

    Returns ``(index, path, label, objective, outcome)`` per example, with
    ``outcome`` None for a failed example or a skipped clean mistake, and
    ``{index: message}`` for the examples whose image, model or search raised.
    """
    skip = res.get("skip_misclassified")
    weights_path = res.get("weights", required=True)
    paths = res.get("images", required=True)
    try:
        space = domain.param_space() if paths else None
    except ValueError as exc:
        raise ConfigError(f"{exc}: set --rotation, --scale or --translate") from None
    net = load_weights(weights_path)
    raw_labels = res.get("labels", required=bool(paths))
    labels = _parse_labels(raw_labels, len(paths)) if paths else []
    model = lambda batch: forward(net, batch)

    examples, errors = [], {}
    for i, (path, label) in enumerate(zip(paths, labels)):
        objective = outcome = None
        try:
            objective = MarginObjective(model, read_image(path), label, domain)
            if not (skip and objective.clean_margin <= 0.0):
                outcome = attack(space, i, objective)
        except Exception as exc:  # an interrupt still stops the batch
            errors[i] = str(exc) or type(exc).__name__
            sys.stderr.write(f"error: example {i} ({path}): {errors[i]}\n{traceback.format_exc()}")
        examples.append((i, path, label, objective, outcome))
    return examples, errors


def cmd_verify(res: Resolver) -> int:
    budget = _budget(res)
    domain = _domain(res)
    outdir = _outdir(res)
    examples, errors = _examples(res, domain, lambda space, i, objective: (
        objective.clean_margin, *_timed(verify, objective, space, budget)))

    columns = ["index", "image", "label", "verdict", "clean_margin", "l_min",
               "l_star_min", "witness", "queries", "runtime_s"]
    rows = []
    for i, path, label, objective, outcome in examples:
        if i in errors:
            verdict, cells = ERROR, [""] * 6
        elif outcome is None:
            clean = objective.clean_margin
            verdict, cells = CLEAN_ERROR, [clean, clean, "", "", 0, 0.0]
        else:
            clean, result, elapsed = outcome
            witness = ";".join(repr(float(v)) for v in result.witness) if result.witness is not None else ""
            verdict, cells = result.status, [clean, result.l_min, result.l_star_min, witness,
                                             result.queries, elapsed]
        rows.append([i, path, label, verdict, *cells])

    _write_csv(outdir / "results.csv", "verify", res.effective, columns, rows)
    total = len(examples)
    counts = Counter(row[3] for row in rows)
    payload = {
        "examples": total,
        "verified": counts[VERIFIED_ESTIMATE],
        "falsified": counts[FALSIFIED],
        "undecided": counts[UNDECIDED],
        "clean_error": counts[CLEAN_ERROR],
        "verified_accuracy": counts[VERIFIED_ESTIMATE] / total if total else 0.0,
        "results": str(outdir / "results.csv"),
    }
    return _write_summary(outdir, "verify", res.effective, payload, errors)


def cmd_compare(res: Resolver) -> int:
    budget = _budget(res)
    seed = res.get("seed")
    grid_points = res.get("oracle_grid")
    random_samples = res.get("oracle_random")
    tolerance = res.get("match_tolerance")
    if grid_points < 2:
        raise _bad("oracle_grid", "need at least 2 points per dimension")
    if random_samples < 1:
        raise _bad("oracle_random", "need at least 1 sample")
    if seed < 0:
        raise _bad("seed", "need a non-negative seed")
    try:
        match_metric(0.0, 0.0, tolerance)
    except ValueError as exc:
        raise _bad("match_tolerance", exc) from None
    domain = _domain(res)
    n = len(domain.factors)
    if grid_points**n > MAX_GRID_POINTS:
        raise _bad("oracle_grid", f"{grid_points}**{n} points exceed the cap of {MAX_GRID_POINTS}")
    outdir = _outdir(res)

    def attack(space, i, objective):
        trace, t_engine = _timed(run, objective, space, budget)
        grid, t_grid = _timed(grid_search, objective, space, grid_points)
        rand, t_rand = _timed(random_pick, objective, space, random_samples, seed + i)
        outcomes = [("warpcheck", trace.l_min, trace.queries, t_engine),
                    ("grid", grid.min_value, grid.n_points, t_grid),
                    ("random", rand.min_value, rand.n_points, t_rand)]
        return [[i, method, value, queries, elapsed,
                 int(match_metric(value, grid.min_value, tolerance))]
                for method, value, queries, elapsed in outcomes]

    examples, errors = _examples(res, domain, attack)
    details = [row for *_, outcome in examples if outcome for row in outcome]
    attacked = sum(1 for *_, outcome in examples if outcome)

    methods = {}
    for method in ("warpcheck", "grid", "random"):
        mine = [row[2:] for row in details if row[1] == method]
        if mine:
            values, queries, runtimes, matches = zip(*mine)
            methods[method] = {"verified_acc": sum(v > 0.0 for v in values) / attacked,
                               "mean_queries": float(np.mean(queries)),
                               "mean_runtime_s": float(np.mean(runtimes)),
                               "match_rate": sum(matches) / attacked}
    columns = ["method", "verified_acc", "mean_queries", "mean_runtime_s", "match_rate"]
    rows = [[method, *[stats[c] for c in columns[1:]]] for method, stats in methods.items()]
    detail_cols = ["index", "method", "min_value", "queries", "runtime_s", "match"]
    _write_csv(outdir / "compare.csv", "compare", res.effective, columns, rows)
    _write_csv(outdir / "details.csv", "compare", res.effective, detail_cols, details)
    payload = {"examples": len(examples), "attacked": attacked, "methods": methods,
               "compare": str(outdir / "compare.csv")}
    return _write_summary(outdir, "compare", res.effective, payload, errors)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpcheck",
        description="Worst-case geometric transformation search and robustness checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, dests) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for dest in dests:
            kind, help_text = OPTIONS[dest][2], OPTIONS[dest][4]
            if kind is str.split:
                how = {"nargs": "*"}
            elif kind is _parse_bool:
                how = {"action": "store_const", "const": True}
            else:
                how = {"type": kind}
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, help=help_text, **how)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"optimize": cmd_optimize, "verify": cmd_verify, "compare": cmd_compare}
    try:
        res = Resolver(args, args.config)
        return handlers[args.command](res)
    except ConfigError as exc:
        parser.exit(2, f"error: {exc}\n")
    except Exception as exc:  # unreadable files, bad formats, engine failures
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
