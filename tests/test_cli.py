import gc
import hashlib
import json
import re
import weakref

import numpy as np
import pytest

from fixtures import build_fixture_examples, build_fixture_net
from warpcheck import cli
from warpcheck.cli import COMMANDS, OPTIONS, _build_parser, main
from warpcheck.images import write_image
from warpcheck.netfwd import save_weights


def read_summary(path):
    lines = path.read_text().splitlines()
    body_start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return lines[:body_start], json.loads("\n".join(lines[body_start:]))


def trace_rows(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    return rows


class TestOptimize:
    def test_abs1d_converges(self, tmp_path, capsys):
        code = main([
            "optimize", "--fn", "abs1d", "--bounds", "0,1",
            "--depth", "6", "--alpha", "1", "--max-iters", "50",
            "--out", str(tmp_path),
        ])
        assert code == 0
        rows = trace_rows(tmp_path / "trace.csv")
        assert float(rows[-1]["l_min"]) <= 3.0**-6
        header, payload = read_summary(tmp_path / "summary.txt")
        assert header[0] == "# warpcheck-output v1"
        assert payload["function"] == "abs1d"

    def test_missing_bounds_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["optimize", "--fn", "abs1d", "--out", str(tmp_path)])
        assert info.value.code == 2

    def test_unknown_function_fails_cleanly(self, tmp_path, capsys):
        code = main(["optimize", "--fn", "nope", "--bounds", "0,1", "--out", str(tmp_path)])
        assert code == 1
        assert "nope" in capsys.readouterr().err

    def test_dimension_mismatch_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["optimize", "--fn", "abs1d", "--bounds", "0,1,0,1", "--out", str(tmp_path)])

    def test_deterministic_trace_bytes(self, tmp_path):
        args = [
            "optimize", "--fn", "multi-basin", "--bounds", "0,1,0,1",
            "--max-iters", "20", "--out", str(tmp_path),
        ]
        main(args)
        first = (tmp_path / "trace.csv").read_bytes()
        main(args)
        assert (tmp_path / "trace.csv").read_bytes() == first

    def test_alpha_raises_query_count(self, tmp_path):
        # wider candidate sets spend more queries in the same iterations
        queries = {}
        for alpha in ("1", "3"):
            out = tmp_path / f"alpha{alpha}"
            main([
                "optimize", "--fn", "multi-basin", "--bounds", "0,1,0,1",
                "--alpha", alpha, "--depth", "7", "--max-iters", "15",
                "--max-queries", "100000", "--out", str(out),
            ])
            queries[alpha] = int(trace_rows(out / "trace.csv")[-1]["queries"])
        assert queries["3"] > queries["1"]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[function]\nname = abs1d\nbounds = 0,1\n"
            "[search]\ndepth = 4\nalpha = 1\nmax_iters = 9\n"
            f"[output]\ndir = {tmp_path / 'from_file'}\n"
        )
        code = main(["optimize", "--config", str(cfg), "--depth", "5"])
        assert code == 0
        header, _ = read_summary(tmp_path / "from_file" / "summary.txt")
        assert "# search.depth = 5" in header  # flag wins
        assert "# search.max_iters = 9" in header  # file value used

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["optimize", "--config", str(tmp_path / "none.cfg")])


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixture")
    save_weights(path / "net.txt", build_fixture_net())
    examples = build_fixture_examples(count=6, seed=11)
    names = []
    labels = []
    for i, (img, label) in enumerate(examples):
        name = path / f"ex{i}.txt"
        write_image(name, img)
        names.append(str(name))
        labels.append(str(label))
    (path / "labels.txt").write_text("\n".join(labels) + "\n")
    return path, names


class TestVerify:
    def test_verdict_rows_and_aggregate(self, model_dir, tmp_path):
        path, names = model_dir
        code = main([
            "verify", "--weights", str(path / "net.txt"),
            "--images", *names, "--labels", str(path / "labels.txt"),
            "--rotation", "20", "--scale", "0.1", "--translate", "1.6,1.6",
            "--depth", "5", "--alpha", "2", "--max-iters", "25",
            "--max-queries", "1200", "--out", str(tmp_path),
        ])
        assert code == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()
        data = [r for r in rows if not r.startswith("#")]
        assert data[0].startswith("index,image,label,verdict")
        assert len(data) == 1 + len(names)
        _, payload = read_summary(tmp_path / "summary.txt")
        assert payload["examples"] == len(names)
        total = (payload["verified"] + payload["falsified"]
                 + payload["undecided"] + payload["clean_error"])
        assert total == len(names)

    def test_one_query_is_undecided(self, model_dir, tmp_path):
        # the budget stops after the identity query: no rect is divided
        path, names = model_dir
        code = main([
            "verify", "--weights", str(path / "net.txt"),
            "--images", *names, "--labels", str(path / "labels.txt"),
            "--rotation", "20", "--max-queries", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()
        data = [r.split(",") for r in rows if not r.startswith("#")][1:]
        positive = [r for r in data if float(r[4]) > 0.0]
        assert positive
        assert all(r[3] == "undecided" and r[8] == "1" for r in positive)
        _, payload = read_summary(tmp_path / "summary.txt")
        assert payload["verified"] == 0
        assert payload["undecided"] == len(positive)

    def test_degenerate_rotation_dim_excluded(self, model_dir, tmp_path):
        path, names = model_dir
        code = main([
            "verify", "--weights", str(path / "net.txt"),
            "--images", names[0], "--labels", "0",
            "--rotation", "0", "--scale", "0.1",
            "--max-iters", "10", "--out", str(tmp_path),
        ])
        assert code == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()
        data = [r for r in rows if not r.startswith("#")][1]
        # a witness, if any, would live in the single remaining dimension
        assert data.split(",")[3] in ("verified-estimate", "falsified", "undecided")

    def test_skip_misclassified(self, model_dir, tmp_path):
        path, names = model_dir
        # wrong label on purpose: clean margin goes negative
        code = main([
            "verify", "--weights", str(path / "net.txt"),
            "--images", names[0], "--labels", "1",
            "--rotation", "20", "--scale", "0.1", "--skip-misclassified",
            "--max-iters", "10", "--out", str(tmp_path),
        ])
        assert code == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()
        data = [r for r in rows if not r.startswith("#")][1]
        assert data.split(",")[3] == "clean-error"
        _, payload = read_summary(tmp_path / "summary.txt")
        assert payload["clean_error"] == 1

    def test_empty_message_names_the_type(self, model_dir, tmp_path, capsys, monkeypatch):
        path, names = model_dir

        def out_of_memory(_):
            raise MemoryError()

        monkeypatch.setattr(cli, "load_weights", out_of_memory)
        code = main(["verify", "--weights", str(path / "net.txt"), "--images", names[0],
                     "--labels", "0", "--rotation", "10", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_long_inline_label_list(self, model_dir, tmp_path, capsys):
        # 130 labels make a 259-byte list, longer than a file name may be
        path, names = model_dir
        label = (path / "labels.txt").read_text().split()[0]
        labels = ",".join([label] * 130)
        argv = ["verify", "--weights", str(path / "net.txt"), "--labels", labels,
                "--rotation", "10", "--max-iters", "1", "--max-queries", "1"]
        with pytest.raises(SystemExit) as info:
            main([*argv, "--images", names[0], "--out", str(tmp_path / "one")])
        assert info.value.code == 2
        assert capsys.readouterr().err == "error: 1 images but 130 labels\n"
        assert main([*argv, "--images", *[names[0]] * 130, "--out", str(tmp_path / "all")]) == 0
        _, payload = read_summary(tmp_path / "all" / "summary.txt")
        assert payload["examples"] == 130

    def test_unreadable_weights(self, tmp_path, capsys):
        code = main([
            "verify", "--weights", str(tmp_path / "missing.txt"),
            "--images", "x.txt", "--labels", "0", "--rotation", "10",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_label_count_mismatch(self, model_dir, tmp_path):
        path, names = model_dir
        with pytest.raises(SystemExit):
            main([
                "verify", "--weights", str(path / "net.txt"),
                "--images", *names, "--labels", "0,1",
                "--rotation", "10", "--out", str(tmp_path),
            ])

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_label_file(self, kind, model_dir, tmp_path, capsys):
        path, names = model_dir
        labels = tmp_path / "labels"
        if kind == "directory":
            labels.mkdir()
        else:
            labels.write_bytes(b"0 \xff\n")
        with pytest.raises(SystemExit) as info:
            main(["verify", "--weights", str(path / "net.txt"), "--images", names[0],
                  "--labels", str(labels), "--rotation", "10", "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert "error: --labels (config key data.labels): " in capsys.readouterr().err


class TestCompare:
    def test_label_file_length_must_match_images(self, model_dir, tmp_path):
        path, names = model_dir
        # labels file has six entries but only four images are given
        with pytest.raises(SystemExit) as info:
            main([
                "compare", "--weights", str(path / "net.txt"),
                "--images", *names[:4], "--labels", str(path / "labels.txt"),
                "--rotation", "20", "--scale", "0.1",
                "--out", str(tmp_path),
            ])
        assert info.value.code == 2

    def test_table_contents(self, model_dir, tmp_path):
        path, names = model_dir
        code = main([
            "compare", "--weights", str(path / "net.txt"),
            "--images", *names, "--labels", str(path / "labels.txt"),
            "--rotation", "20", "--scale", "0.1", "--translate", "1.6,1.6",
            "--depth", "5", "--max-iters", "20", "--max-queries", "1000",
            "--oracle-grid", "5", "--oracle-random", "300",
            "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        rows = [r for r in (tmp_path / "compare.csv").read_text().splitlines()
                if not r.startswith("#")]
        assert rows[0] == "method,verified_acc,mean_queries,mean_runtime_s,match_rate"
        methods = [r.split(",")[0] for r in rows[1:]]
        assert methods == ["warpcheck", "grid", "random"]
        grid_row = rows[2].split(",")
        assert float(grid_row[4]) == 1.0  # grid always matches itself
        _, payload = read_summary(tmp_path / "summary.txt")
        assert payload["attacked"] == len(names)

    def test_methods_agree_on_one_dim_rotation(self, tmp_path):
        # single-factor search: all three methods settle the same verdicts
        from warpcheck.baselines import grid_search
        from warpcheck.netfwd import forward
        from warpcheck.objectives import MarginObjective, TransformDomain

        net = build_fixture_net()
        model = lambda batch: forward(net, batch)
        domain = TransformDomain.from_ranges(rotation=20.0)
        space = domain.param_space()
        names, labels = [], []
        save_weights(tmp_path / "net.txt", net)
        picked = 0
        for i, (img, label) in enumerate(build_fixture_examples(count=24, seed=13)):
            objective = MarginObjective(model, img, label, domain)
            worst = grid_search(objective, space, 41).min_value
            if abs(worst) < 0.08 or objective.clean_margin <= 0.08:
                continue
            name = tmp_path / f"rot{i}.txt"
            write_image(name, img)
            names.append(str(name))
            labels.append(str(label))
            picked += 1
            if picked == 5:
                break
        assert picked == 5
        code = main([
            "compare", "--weights", str(tmp_path / "net.txt"),
            "--images", *names, "--labels", ",".join(labels),
            "--rotation", "20", "--depth", "6", "--max-iters", "40",
            "--max-queries", "2000", "--oracle-grid", "41",
            "--oracle-random", "500", "--seed", "0",
            "--out", str(tmp_path / "cmp"),
        ])
        assert code == 0
        rows = [r for r in (tmp_path / "cmp" / "details.csv").read_text().splitlines()
                if not r.startswith("#")][1:]
        survived = {}
        for row in rows:
            idx, method, min_value = row.split(",")[:3]
            survived.setdefault(method, {})[idx] = float(min_value) > 0.0
        assert survived["warpcheck"] == survived["grid"] == survived["random"]

    def test_empty_image_list(self, model_dir, tmp_path):
        path, _ = model_dir
        code = main([
            "compare", "--weights", str(path / "net.txt"),
            "--images", "--rotation", "10",
            "--out", str(tmp_path),
        ])
        assert code == 0
        rows = [r for r in (tmp_path / "compare.csv").read_text().splitlines()
                if not r.startswith("#")]
        assert rows == ["method,verified_acc,mean_queries,mean_runtime_s,match_rate"]


@pytest.fixture
def bad_batch(model_dir, tmp_path):
    """Model flags and three examples: a good image, a 3x3 image the 8x8 net
    rejects, and a truncated PGM."""
    path, names = model_dir
    small = tmp_path / "small.txt"
    write_image(small, np.full((3, 3, 1), 0.5))
    truncated = tmp_path / "cut.pgm"
    truncated.write_bytes(b"P5\n8 8\n255\n" + bytes(10))
    label = (path / "labels.txt").read_text().split()[0]
    model = ["--weights", str(path / "net.txt"), "--rotation", "10", "--scale", "0.05",
             "--max-iters", "6"]
    examples = ["--images", names[0], str(small), str(truncated), "--labels", f"{label},0,0"]
    return model, examples, ["--images", names[0], "--labels", label]


def data_rows(path):
    return [r.split(",") for r in path.read_text().splitlines() if not r.startswith("#")]


class TestFailedExamples:
    """A failing example is reported in its row; the batch goes on and exits 1."""

    def check_errors(self, payload, err):
        assert sorted(payload["errors"]) == ["1", "2"]
        assert "dense layer expects 64 features, got 9" in payload["errors"]["1"]
        assert "truncated pixel data" in payload["errors"]["2"]
        assert "error: example 1 (" in err and "small.txt): " in err
        assert "error: example 2 (" in err and "cut.pgm): truncated" in err

    def test_verify_writes_error_rows(self, bad_batch, tmp_path, capsys):
        model, examples, good = bad_batch
        assert main(["verify", *model, *examples, "--out", str(tmp_path / "bad")]) == 1
        _, payload = read_summary(tmp_path / "bad" / "summary.txt")
        self.check_errors(payload, capsys.readouterr().err)
        assert payload["examples"] == 3
        rows = data_rows(tmp_path / "bad" / "results.csv")[1:]
        assert [r[3] for r in rows[1:]] == ["error", "error"]
        assert rows[1][4:] == rows[2][4:] == [""] * 6

        # the good example's row is the one a run of it alone writes
        assert main(["verify", *model, *good, "--out", str(tmp_path / "good")]) == 0
        alone = data_rows(tmp_path / "good" / "results.csv")[1:]
        assert alone[0][:-1] == rows[0][:-1]  # all but runtime_s

    def test_compare_leaves_failed_examples_out(self, bad_batch, tmp_path, capsys):
        model, examples, _ = bad_batch
        argv = ["compare", *model, *examples, "--oracle-random", "40", "--out", str(tmp_path)]
        assert main(argv) == 1
        _, payload = read_summary(tmp_path / "summary.txt")
        self.check_errors(payload, capsys.readouterr().err)
        assert payload["examples"] == 3 and payload["attacked"] == 1
        details = data_rows(tmp_path / "details.csv")[1:]
        assert [r[:2] for r in details] == [["0", "warpcheck"], ["0", "grid"], ["0", "random"]]
        methods = [r[0] for r in data_rows(tmp_path / "compare.csv")[1:]]
        assert methods == ["warpcheck", "grid", "random"]


def five_examples(command, model_dir, tmp_path):
    """argv of a small ``command`` run on the first five fixture examples."""
    path, names = model_dir
    labels = (path / "labels.txt").read_text().split()[:5]
    extra = ["--oracle-grid", "2", "--oracle-random", "5"] if command == "compare" else []
    return [command, "--weights", str(path / "net.txt"), "--images", *names[:5],
            "--labels", ",".join(labels), "--rotation", "10", "--max-iters", "3",
            *extra, "--out", str(tmp_path)]


def third_call_raises(monkeypatch, target, exc):
    """Patch ``cli.<target>`` to raise ``exc`` on its third call."""
    real, calls = getattr(cli, target), []

    def patched(*args):
        calls.append(args)
        if len(calls) == 3:
            raise exc
        return real(*args)

    monkeypatch.setattr(cli, target, patched)


class TestAnyExceptionStaysWithItsExample:
    """Any exception but an interrupt fails only its example; its traceback goes
    to stderr and an empty message becomes the exception's type name.  An
    interrupt stops the run, keeping the rows of the finished examples."""

    def run_five(self, command, target, model_dir, tmp_path, monkeypatch):
        third_call_raises(monkeypatch, target, MemoryError())
        assert main(five_examples(command, model_dir, tmp_path)) == 1
        _, payload = read_summary(tmp_path / "summary.txt")
        assert payload["errors"] == {"2": "MemoryError"}
        return payload

    def check_stderr(self, err, model_dir):
        line = f"error: example 2 ({model_dir[1][2]}): MemoryError\n"
        assert line + "Traceback (most recent call last):" in err
        assert err.rstrip().endswith("MemoryError")

    def test_verify_keeps_the_finished_rows(self, model_dir, tmp_path, capsys, monkeypatch):
        payload = self.run_five("verify", "verify", model_dir, tmp_path, monkeypatch)
        self.check_stderr(capsys.readouterr().err, model_dir)
        assert payload["examples"] == 5
        rows = data_rows(tmp_path / "results.csv")[1:]
        assert [r[0] for r in rows] == ["0", "1", "2", "3", "4"]
        assert [r[3] == "error" for r in rows] == [False, False, True, False, False]
        assert rows[2][4:] == [""] * 6

    def test_compare_leaves_the_example_out(self, model_dir, tmp_path, capsys, monkeypatch):
        payload = self.run_five("compare", "run", model_dir, tmp_path, monkeypatch)
        self.check_stderr(capsys.readouterr().err, model_dir)
        assert payload["examples"] == 5 and payload["attacked"] == 4
        details = data_rows(tmp_path / "details.csv")[1:]
        assert sorted({r[0] for r in details}) == ["0", "1", "3", "4"]

    @pytest.mark.parametrize("command, target, name", [("verify", "verify", "results.csv"),
                                                        ("compare", "run", "details.csv")])
    def test_interrupt_keeps_the_finished_rows(self, command, target, name, model_dir,
                                               tmp_path, monkeypatch):
        third_call_raises(monkeypatch, target, KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt):
            main(five_examples(command, model_dir, tmp_path))
        rows = data_rows(tmp_path / name)
        assert rows[0][0] == "index"
        assert sorted({r[0] for r in rows[1:]}) == ["0", "1"]
        assert sorted(f.name for f in tmp_path.iterdir()) == [name]  # and no summary

    @pytest.mark.parametrize("command, target", [("verify", "verify"), ("compare", "run")])
    def test_one_objective_alive_at_a_time(self, command, target, model_dir, tmp_path,
                                           monkeypatch):
        made, alive = [], []

        class Recorded(cli.MarginObjective):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        real = getattr(cli, target)

        def counted(*args):
            gc.collect()
            alive.append(sum(ref() is not None for ref in made))
            return real(*args)

        monkeypatch.setattr(cli, "MarginObjective", Recorded)
        monkeypatch.setattr(cli, target, counted)
        assert main(five_examples(command, model_dir, tmp_path)) == 0
        assert alive == [1] * 5

    def test_interrupt_stops_the_run(self, model_dir, tmp_path, monkeypatch):
        path, names = model_dir
        label = (path / "labels.txt").read_text().split()[0]

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "verify", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "--weights", str(path / "net.txt"), "--images", names[0],
                  "--labels", label, "--rotation", "10", "--out", str(tmp_path)])


class TestInputChecks:
    """The exact message of each value check the CLI makes before any search."""

    @pytest.mark.parametrize("word", ["no", "off", "0", "false", " No ", "FALSE",
                                      "yes", "on", "1", "true", " Yes ", "TRUE"])
    def test_boolean_words(self, word):
        assert cli._parse_bool(word) is (word.strip().lower() in ("yes", "on", "1", "true"))

    @pytest.mark.parametrize("word", ["maybe", "", "2", "y"])
    def test_invalid_word(self, word):
        with pytest.raises(ValueError, match=f"^not a boolean: {re.escape(repr(word))}$"):
            cli._parse_bool(word)

    # case -> (argv before --out, config text or None, the error line)
    CASES = {
        "bool-in-config": (
            ["verify", "--images", "--rotation", "10"], "[search]\nskip_misclassified = maybe\n",
            "error: --skip-misclassified (config key search.skip_misclassified): "
            "bad config value 'maybe': not a boolean: 'maybe'"),
        "cast-in-config": (
            ["optimize", "--fn", "abs1d", "--bounds", "0,1"], "[search]\ndepth = abc\n",
            "error: --depth (config key search.depth): bad config value 'abc': "
            "invalid literal for int() with base 10: 'abc'"),
        "odd-bounds": (
            ["optimize", "--fn", "abs1d", "--bounds", "0,1,2"], None,
            "error: --bounds (config key function.bounds): need lo,hi pairs, got '0,1,2'"),
        "three-translate": (
            ["verify", "--images", "--rotation", "10", "--translate", "1,2,3"], None,
            "error: --translate (config key translate.range): "
            "need one or two comma-separated values, got '1,2,3'"),
        "word-label": (
            ["verify", "--images", "{image}", "{image}", "--labels", "1,x", "--rotation", "10"],
            None, "error: bad label list '1,x': invalid literal for int() with base 10: 'x'"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2_with_message(self, case, model_dir, tmp_path, capsys):
        path, names = model_dir
        argv, config, message = self.CASES[case]
        argv = [names[0] if arg == "{image}" else arg for arg in argv]
        if argv[0] == "verify":
            argv += ["--weights", str(path / "net.txt")]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "run.cfg")]
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == message
        assert not (tmp_path / "out").exists()


class TestMalformedNumbers:
    """Unparseable --bounds and --translate are usage errors (exit 2), by flag or file."""

    CASES = {
        "bounds": (["optimize", "--fn", "abs1d"], "0,x", "[function]\nbounds = 0,x\n"),
        "translate": (["verify", "--images", "--rotation", "10"], "1,a",
                      "[translate]\nrange = 1,a\n"),
    }

    @pytest.mark.parametrize("dest", sorted(CASES))
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_exit_2_naming_the_option(self, dest, source, model_dir, tmp_path, capsys):
        path, _ = model_dir
        argv, value, config = self.CASES[dest]
        argv = [*argv, "--weights", str(path / "net.txt")] if argv[0] == "verify" else list(argv)
        if source == "flag":
            argv += [f"--{dest}", value]
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out", str(tmp_path)])
        assert info.value.code == 2
        assert f"--{dest}" in capsys.readouterr().err


class TestOutOfRangeValues:
    """Values that parse but lie out of range are usage errors (exit 2), by flag or
    file, named after their option and caught before any example is searched."""

    # case -> (command, option, flag value, config text)
    CASES = {
        "no-range": ("verify", "rotation", "0", "[rotation]\nrange = 0\n"),
        "negative-rotation": ("verify", "rotation", "-5", "[rotation]\nrange = -5\n"),
        "depth": ("verify", "depth", "0", "[search]\ndepth = 0\n"),
        "depth-34": ("verify", "depth", "34", "[search]\ndepth = 34\n"),
        "bounds": ("optimize", "bounds", "1,0", "[function]\nbounds = 1,0\n"),
        "oracle-grid": ("compare", "oracle_grid", "1", "[oracle]\ngrid = 1\n"),
        "oracle-random": ("compare", "oracle_random", "0", "[oracle]\nrandom = 0\n"),
        "nan-tolerance": ("compare", "match_tolerance", "nan",
                          "[oracle]\nmatch_tolerance = nan\n"),
        "negative-tolerance": ("compare", "match_tolerance", "-1",
                               "[oracle]\nmatch_tolerance = -1\n"),
        "infinite-tau": ("verify", "tau", "inf", "[search]\ntau = inf\n"),
        "nan-rotation": ("verify", "rotation", "nan", "[rotation]\nrange = nan\n"),
        "infinite-scale": ("verify", "scale", "inf", "[scale]\nrange = inf\n"),
        "scale-one": ("verify", "scale", "1", "[scale]\nrange = 1\n"),
        "rotation-over-180": ("verify", "rotation", "181", "[rotation]\nrange = 181\n"),
        "nan-translate": ("verify", "translate", "nan,1", "[translate]\nrange = nan,1\n"),
        # 39**4 grid points on the 4-factor box exceed the grid cap
        "oracle-grid-cap": ("compare", "oracle_grid", "39", "[oracle]\ngrid = 39\n"),
        "negative-seed": ("compare", "seed", "-1", "[search]\nseed = -1\n"),
    }
    # options besides --rotation 10 that a case's box needs
    BOX = {"oracle-grid-cap": ["--scale", "0.05", "--translate", "1,1"]}

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_exit_2_naming_the_option(self, case, source, model_dir, tmp_path, capsys,
                                      monkeypatch):
        path, names = model_dir
        command, dest, value, config = self.CASES[case]
        if command == "optimize":
            argv = ["optimize", "--fn", "abs1d"]
        else:
            labels = (path / "labels.txt").read_text().split()[:2]
            argv = [command, "--weights", str(path / "net.txt"), "--images", *names[:2],
                    "--labels", ",".join(labels)]
            if dest != "rotation":
                argv += ["--rotation", "10", *self.BOX.get(case, [])]
        flag = "--" + dest.replace("_", "-")
        if source == "flag":
            argv += [flag, value]
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        searched = []
        monkeypatch.setattr(cli, "run", lambda *args: searched.append(args))
        monkeypatch.setattr(cli, "verify", lambda *args: searched.append(args))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out", str(out)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        if case != "no-range":  # that case names every range option
            section, key = cli.OPTIONS[dest][:2]
            assert f"error: {flag} (config key {section}.{key}):" in err
        assert searched == []
        assert not out.exists()


class TestUnknownConfigKeys:
    """A config key that no option names is a config error (exit 2) naming the
    file, section and key, caught before any example is searched."""

    CASES = {
        "misspelled-key": ("search", "max_iter"),
        "misspelled-default": ("DEFAULT", "max_iter"),
        "misspelled-section": ("serch", "max_iters"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2_naming_the_key(self, case, model_dir, tmp_path, capsys, monkeypatch):
        path, names = model_dir
        section, key = self.CASES[case]
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(f"[{section}]\n{key} = 3\n")
        label = (path / "labels.txt").read_text().split()[0]
        searched = []
        monkeypatch.setattr(cli, "verify", lambda *args: searched.append(args))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["verify", "--weights", str(path / "net.txt"), "--images", names[0],
                  "--labels", label, "--rotation", "10", "--config", str(cfg),
                  "--out", str(out)])
        assert info.value.code == 2
        assert f"error: {cfg}: unknown key {key!r} in section [{section}]" in capsys.readouterr().err
        assert searched == []
        assert not out.exists()

    def test_keys_of_other_commands_and_defaults_accepted(self, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("[DEFAULT]\nrange = 5\n[search]\nmax_iters = 2\n"
                       "[oracle]\ngrid = 3\n[model]\nweights = net.txt\n")
        argv = ["optimize", "--fn", "abs1d", "--bounds", "0,1", "--config", str(cfg),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        header, payload = read_summary(tmp_path / "out" / "summary.txt")
        assert "# search.max_iters = 2" in header and payload["iterations"] == 2


class TestFaultyConfigFiles:
    """A config file that does not parse is a config error (exit 2) naming the
    file; values are literal, so a % in one is never interpolated."""

    CASES = {
        "no-section-header": b"max_iters = 3\n",
        "duplicate-key": b"[search]\nmax_iters = 3\nmax_iters = 4\n",
        "no-equals": b"[search]\nmax_iters 3\n",
        "not-utf8": b"[search]\nmax_iters = \xff\n",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_2_naming_the_file(self, case, tmp_path, capsys):
        cfg = tmp_path / "faulty.cfg"
        cfg.write_bytes(self.CASES[case])
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["optimize", "--fn", "abs1d", "--bounds", "0,1", "--config", str(cfg),
                  "--out", str(out)])
        assert info.value.code == 2
        assert f"error: {cfg}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["out%x", "run-%(name)s"])
    def test_percent_is_literal(self, name, tmp_path):
        cfg = tmp_path / "literal.cfg"
        cfg.write_text("[DEFAULT]\nname = abs1d\n[function]\nbounds = 0,1\n"
                       f"[search]\nmax_iters = 2\n[output]\ndir = {tmp_path / name}\n")
        assert main(["optimize", "--config", str(cfg)]) == 0
        assert (tmp_path / name / "summary.txt").exists()


class TestOptionTable:
    # a value for each option that has a config key; BASE holds the options
    # each run needs besides the one under test
    VALUES = {
        "depth": "3", "alpha": "1", "tau": "0.01", "max_iters": "2", "max_queries": "40",
        "seed": "4", "out": "OUT", "fn": "abs1d", "bounds": "0,1", "weights": "WEIGHTS",
        "images": "IMAGE", "labels": "1", "rotation": "5", "scale": "0.05",
        "translate": "1,0.5", "skip_misclassified": "yes", "oracle_grid": "3",
        "oracle_random": "7", "match_tolerance": "0.5",
    }
    BASE = {
        "optimize": {"fn": "abs1d", "bounds": "0,1", "max_iters": "2", "out": "OUT"},
        "compare": {"weights": "WEIGHTS", "images": "IMAGE", "labels": "0", "rotation": "5",
                    "depth": "3", "max_iters": "2", "max_queries": "40", "oracle_grid": "2",
                    "oracle_random": "3", "out": "OUT"},
    }

    @pytest.mark.parametrize("dest", [d for d, spec in OPTIONS.items() if spec[0] is not None])
    def test_flag_and_config_key_echo_alike(self, dest, model_dir, tmp_path):
        path, names = model_dir
        command = "optimize" if dest in ("fn", "bounds") else "compare"
        fill = {"OUT": str(tmp_path / "out"), "WEIGHTS": str(path / "net.txt"), "IMAGE": names[0]}

        def flag(d, value):
            value = fill.get(value, value)
            if d == "skip_misclassified":
                return [f"--{d.replace('_', '-')}"]
            return [f"--{d.replace('_', '-')}", *value.split()]

        base = [a for d, v in self.BASE[command].items() if d != dest for a in flag(d, v)]
        section, key = OPTIONS[dest][:2]
        value = fill.get(self.VALUES[dest], self.VALUES[dest])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        echoed = []
        for extra in (flag(dest, self.VALUES[dest]), ["--config", str(cfg)]):
            assert main([command, *base, *extra]) == 0
            header, _ = read_summary(tmp_path / "out" / "summary.txt")
            echoed.append([line for line in header if line.startswith(f"# {section}.{key} = ")])
        assert len(echoed[0]) == 1 and echoed[0] == echoed[1]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_each_command_accepts_exactly_its_options(self, command):
        accepted = set(COMMANDS[command][1])
        for dest in OPTIONS:
            argv = [command, f"--{dest.replace('_', '-')}"]
            if dest not in ("images", "skip_misclassified"):
                argv.append("1")
            if dest in accepted:
                assert getattr(_build_parser().parse_args(argv), dest) is not None
            else:
                with pytest.raises(SystemExit) as info:
                    main(argv)
                assert info.value.code == 2


def _masked_digest(path, subs):
    """SHA-256 of an output file with timings and tmp paths masked."""
    text = path.read_text()
    for old, new in subs:
        text = text.replace(old, new)
    text = re.sub(r'("(?:mean_)?runtime_s": )[^,\n]+', r"\1<t>", text)
    lines, timed = [], None
    for line in text.splitlines():
        if not line.startswith("#"):
            cells = line.split(",")
            if timed is None:
                timed = [i for i, c in enumerate(cells) if c in ("runtime_s", "mean_runtime_s")]
            else:
                for i in timed:
                    cells[i] = "<t>"
            line = ",".join(cells)
        lines.append(line)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestGoldenOutputs:
    """Exit code and digests of every output file, timings and tmp paths masked.

    Pins the command line's outputs byte for byte (apart from wall-clock
    cells) over flags, config files, overrides, --skip-misclassified and
    empty image lists for all three subcommands.
    """

    GOLDEN = {
        "optimize-flags": (0, {
            "summary.txt": "b789c7e561564de9b1f1a2cefa79509f7558a0f29e09a3b85fc8a9c37347da4a",
            "trace.csv": "bc389b54880af7d149dad1c054dec9307bbc579df0bae965fe9f8b84aa85169c",
        }),
        "optimize-config": (0, {
            "summary.txt": "e4a709fdd2ae2eec85d0f81f22b6014a92e7cf97c4970823f0b34fbe675ddb57",
            "trace.csv": "f2ce22e68bafa6e4b163b28554a6876a6a2c1e5438ee47d665fdda9d84345aa9",
        }),
        "verify-flags": (0, {
            "results.csv": "67d9085cb2f735e2c04a3dc9bcaca451fb119871d673c66c31b6d14eaf959809",
            "summary.txt": "b0208a31a59ff05f098a5f8c1207b207c7e4691d90ff3194cf67ff02b6e5a475",
        }),
        "verify-skip": (0, {
            "results.csv": "933a622d700a31fdd81d739be4216be00b3a27e65c12af178d3a27cb6d241363",
            "summary.txt": "bc64f357acfb4091f2ffcddb803ae8dbca93cf319b7994351cf6530fc6b25cc5",
        }),
        "verify-config": (0, {
            "results.csv": "056cfbb0a60dce271570899d45836bd637cd969370bf866930bf25df91adcf15",
            "summary.txt": "56b6167aed4c18a3e97d84068e9684553932a25c2d4c94796a1c0a8a517ecb0f",
        }),
        "verify-empty": (0, {
            "results.csv": "5331944d394596ec982347202c6f0645a56aadac8883e03f62ca8d33b539fe89",
            "summary.txt": "b6df3b1b9cd76ba6980fc6cf5d8bed1b647d1e13504731ad173a6b127ad5103a",
        }),
        "verify-empty-labels": (0, {
            "results.csv": "946093fa9722db71bca0c1e626726b372f6fa90e234d7c0a7925dfa737c82200",
            "summary.txt": "38ef089dd5186efa1628b1310ddaf235f52e89666ca5bd3709a59f92f6757212",
        }),
        "compare-flags": (0, {
            "compare.csv": "9a57ab2441b70eb7b2885c38203a7a8fc3970d3b313b008f7edc10fc282a9a4b",
            "details.csv": "beaaaf4cfbf23a83f232307cfc0e5ef0d05cb22df8bb56e49f14b53ebd5af4ac",
            "summary.txt": "65797aad03d59cdaee13187a3e408d8f28934cf3d44a49d4e77ed0b76a999ae2",
        }),
        "compare-skip": (0, {
            "compare.csv": "c378f16220993bffd1b5a3f64f9e02ada4241626c6527e514004069e54c0241d",
            "details.csv": "aaa7df0a47cd7d56b02ccbe854eec8c62b55617402924d50df3241aa90b1a238",
            "summary.txt": "19e34f2352840476996cc5637e7b71b957809082c2b5b10e0bdeaa6fcacc0009",
        }),
        "compare-config": (0, {
            "compare.csv": "1f68d383ba40df86fd8f31c71cf5e98c7f9d1b51e18eeb2b1f304206e42a7bde",
            "details.csv": "282e8f9913ddd664d2b9069834444fd587595cc5eea46f28cb442a49a3a73955",
            "summary.txt": "e6e4b577e84158a79686531402f36b4048d49db2cd6279394d25a633081c43aa",
        }),
        "compare-empty": (0, {
            "compare.csv": "e1b117f428a1da0b046ff484cf9d7825d606b70f3e1a3161049ba33b66846ff8",
            "details.csv": "37b5933348a039a149fe1455d3365fae79ba2a0f9088a9ef8678b93b5544470b",
            "summary.txt": "2fa0376c612795094b4a5efed8d99a03f83d2cdaa2136f3b56fdc45b63c4ccb3",
        }),
    }

    @pytest.fixture
    def invoke(self, model_dir, tmp_path):
        path, names = model_dir
        labels = (path / "labels.txt").read_text().split()
        wrong = [str(1 - int(label)) for label in labels]
        weights = str(path / "net.txt")
        out = tmp_path / "out"
        configs = {
            "optimize-config": (
                "[function]\nname = abs1d\nbounds = 0,1\n"
                "[search]\ndepth = 4\nalpha = 1\nmax_iters = 9\nmax_queries = 50\n"
                f"[output]\ndir = {out}\n"
            ),
            "verify-config": (
                f"[model]\nweights = {weights}\n"
                f"[data]\nimages = {' '.join(names)}\nlabels = {path / 'labels.txt'}\n"
                "[search]\ndepth = 4\nmax_iters = 5\nmax_queries = 200\n"
                "skip_misclassified = yes\n"
                "[rotation]\nrange = 15\n[scale]\nrange = 0.05\n"
                "[translate]\nrange = 1,0.5\n"
                f"[output]\ndir = {out}\n"
            ),
            "compare-config": (
                f"[model]\nweights = {weights}\n"
                f"[data]\nimages = {' '.join(names[:3])}\nlabels = {','.join(labels[:3])}\n"
                "[search]\ndepth = 4\nmax_iters = 6\nmax_queries = 200\nseed = 4\n"
                "[rotation]\nrange = 20\n[translate]\nrange = 1.2\n"
                "[oracle]\ngrid = 3\nrandom = 50\nmatch_tolerance = 0.01\n"
                f"[output]\ndir = {out}\n"
            ),
        }
        model = ["--weights", weights]
        small = ["--depth", "4", "--max-iters", "8", "--max-queries", "300"]
        argv = {
            "optimize-flags": [
                "optimize", "--fn", "multi-basin", "--bounds", "0,1,0,1", "--depth", "5",
                "--alpha", "2", "--max-iters", "12", "--tau", "1e-3",
            ],
            "optimize-config": ["optimize", "--depth", "5"],
            "verify-flags": [
                "verify", *model, "--images", *names[:4], "--labels", ",".join(labels[:4]),
                "--rotation", "20", "--scale", "0.1", "--translate", "1.6,1.6",
                *small, "--alpha", "2", "--tau", "1e-3",
            ],
            "verify-skip": [
                "verify", *model, "--images", *names[:3],
                "--labels", ",".join([wrong[0], *labels[1:3]]),
                "--rotation", "10", "--translate", "1", *small, "--skip-misclassified",
            ],
            "verify-config": ["verify", "--alpha", "1"],
            "verify-empty": ["verify", *model, "--images", "--rotation", "10"],
            "verify-empty-labels": ["verify", *model, "--images", "--labels", "0,1"],
            "compare-flags": [
                "compare", *model, "--images", *names[:4], "--labels", ",".join(labels[:4]),
                "--rotation", "20", "--scale", "0.1", "--translate", "1.6,1.6", *small,
                "--oracle-grid", "4", "--oracle-random", "100", "--seed", "1",
                "--match-tolerance", "0.05",
            ],
            "compare-skip": [
                "compare", *model, "--images", *names[:3],
                "--labels", ",".join([labels[0], wrong[1], labels[2]]),
                "--rotation", "15", "--scale", "0.05", *small,
                "--oracle-grid", "3", "--oracle-random", "60", "--skip-misclassified",
            ],
            "compare-config": ["compare"],
            "compare-empty": ["compare", *model, "--images", "--rotation", "10"],
        }

        def run(case):
            args = list(argv[case])
            if case in configs:
                cfg = tmp_path / "run.cfg"
                cfg.write_text(configs[case])
                args += ["--config", str(cfg)]
            else:
                args += ["--out", str(out)]
            code = main(args)
            subs = [(str(tmp_path), "<tmp>"), (str(path), "<fixture>")]
            return code, {f.name: _masked_digest(f, subs) for f in sorted(out.iterdir())}

        return run

    @pytest.mark.parametrize("case", [
        "optimize-flags", "optimize-config", "verify-flags", "verify-skip",
        "verify-config", "verify-empty", "verify-empty-labels", "compare-flags", "compare-skip",
        "compare-config", "compare-empty",
    ])
    def test_outputs(self, invoke, case):
        assert invoke(case) == self.GOLDEN[case]
