"""End-to-end command line behaviour."""

import contextlib
import io
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attainbench import attainment, cli
from attainbench.attainment import surface
from attainbench.fileio import (_TRAJECTORY, _fields, read_flat_file, read_trajectories,
                                write_histogram)
from attainbench.histogram import eah, fit_discretization
from attainbench.problems import Direction
from attainbench.solvers import random_search

from oracles import as_trajectories

AB_CSV = ("run,evaluations,quality\n"
          "0,1,10\n0,3,5\n"
          "1,2,8\n1,4,2\n")


@pytest.fixture
def ab_file(tmp_path):
    path = tmp_path / "ab.csv"
    path.write_text(AB_CSV, encoding="utf-8")
    return path


def run_files(directory):
    return sorted(p.name for p in directory.iterdir())


class TestRun:
    def test_writes_trajectories_and_prints_a_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--problems", "1", "--instances", "1", "--dims", "3",
                         "--runs", "2", "--budget", "5", "--seed", "1",
                         "--out", str(out)])
        assert code == 0
        assert run_files(out) == ["continuous_f1_d3_i1_traj.csv"]
        lines = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert lines == {"cells": "1", "runs": "2", "evaluations": "10", "files": "1"}

    def test_every_logger_kind_writes_its_files(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", "--problems", "1,2", "--instances", "1", "--dims", "4",
                  "--runs", "2", "--budget", "6", "--seed", "3", "--out", str(out),
                  "--log", "eaf", "--log", "eah", "--log", "flatfile"])
        assert run_files(out) == [
            "continuous_f1_d4_i1.csv", "continuous_f1_d4_i1_eah.csv",
            "continuous_f1_d4_i1_traj.csv",
            "continuous_f2_d4_i1.csv", "continuous_f2_d4_i1_eah.csv",
            "continuous_f2_d4_i1_traj.csv",
        ]

    @pytest.mark.parametrize("kinds", [kinds for n in (1, 2, 3)
                                       for kinds in itertools.combinations(cli.LOG_CHOICES, n)])
    def test_each_set_of_logger_kinds_writes_exactly_its_files(self, tmp_path, kinds):
        suffix = {"eaf": "_traj.csv", "eah": "_eah.csv", "flatfile": ".csv"}
        summary = cli.run_benchmark(cli.RunConfig(problems=(1, 2), dimensions=(4,), runs=2,
                                                  budget=6, loggers=kinds, out_dir=tmp_path))
        expected = sorted(f"continuous_f{p}_d4_i1{suffix[kind]}" for p in (1, 2) for kind in kinds)
        assert run_files(tmp_path) == sorted(path.name for path in summary["files"]) == expected

    def test_store_logging_is_materialized_as_flat_files(self, tmp_path):
        out = tmp_path / "out"
        args = ["run", "--problems", "1", "--instances", "1", "--dims", "3",
                "--runs", "1", "--budget", "4", "--out", str(out)]
        cli.main(args + ["--log", "flatfile"])
        (name,) = run_files(out)
        names, rows = read_flat_file(out / name)
        assert names == ["transformed_y", "transformed_y_best"]
        assert len(rows) == 4  # every evaluation of the single run
        with pytest.raises(SystemExit) as exc:
            cli.main(args + ["--log", "store"])
        assert exc.value.code == 2

    def test_a_solver_that_raises_in_the_third_cell_leaves_the_first_two_flat_files_whole(
            self, tmp_path, monkeypatch):
        config = dict(problems=(1, 2), instances=(1, 2), dimensions=(4,), runs=2, budget=300,
                      loggers=("eaf", "flatfile"))
        full = cli.run_benchmark(cli.RunConfig(**config, out_dir=tmp_path / "full"))

        def failing(problem, budget, rng):
            random_search(problem, budget, rng)
            if (problem.meta.problem_id, problem.meta.instance) == (2, 1):
                raise RuntimeError("the solver failed")

        monkeypatch.setitem(cli.SOLVERS, "random", failing)
        with pytest.raises(RuntimeError, match="the solver failed"):
            cli.run_benchmark(cli.RunConfig(**config, out_dir=tmp_path / "crash"))
        written = ["continuous_f1_d4_i1.csv", "continuous_f1_d4_i2.csv"]
        assert run_files(tmp_path / "crash") == written
        for name in written:
            assert ((tmp_path / "crash" / name).read_bytes()
                    == (tmp_path / "full" / name).read_bytes())
        assert len(full["files"]) == 8

    def test_trajectories_cover_each_run(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", "--problems", "1", "--instances", "1", "--dims", "3",
                  "--runs", "3", "--budget", "1", "--seed", "2", "--out", str(out)])
        trajs = read_trajectories(out / "continuous_f1_d3_i1_traj.csv")
        assert [t.run for t in trajs] == [0, 1, 2]
        assert all(len(t.points) == 1 for t in trajs)  # budget 1: one improvement each

    def test_pseudo_boolean_suite_and_hill_climber(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["run", "--suite", "pseudo-boolean", "--problems", "1",
                         "--instances", "1", "--dims", "8", "--runs", "2",
                         "--budget", "10", "--solver", "hill", "--out", str(out)])
        assert code == 0
        trajs = read_trajectories(out / "pseudo-boolean_f1_d8_i1_traj.csv")
        assert len(trajs) == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["run", "--problems", "1,2", "--instances", "1", "--dims", "4",
                "--runs", "2", "--budget", "6", "--seed", "9",
                "--log", "eaf", "--log", "flatfile", "--log", "eah"]
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(args + ["--out", str(a)])
        cli.main(args + ["--out", str(b)])
        assert run_files(a) == run_files(b)
        for name in run_files(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("argv", [
        ["run", "--suite", "nope", "--out", "x"],
        ["run", "--problems", "1,zap", "--out", "x"],
        ["run", "--problems", "7", "--out", "x"],
        ["run", "--runs", "0", "--out", "x"],
        ["run", "--buckets", "5", "--out", "x", "--log", "eah"],
        ["run", "--scale", "linear,cubic", "--out", "x"],
        ["run"],
    ])
    def test_usage_errors_exit_2(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


class TestRunFlagsAreConfigFields:
    @staticmethod
    def config_of(monkeypatch, argv):
        configs = []

        def run_benchmark(config):
            configs.append(config)
            return {"cells": 0, "runs": 0, "evaluations": 0, "files": []}

        monkeypatch.setattr(cli, "run_benchmark", run_benchmark)
        assert cli.main(["run", *argv]) == 0
        (config,) = configs
        return config

    def test_flags_not_given_keep_the_config_defaults(self, monkeypatch, tmp_path):
        config = self.config_of(monkeypatch, ["--out", str(tmp_path)])
        assert config == cli.RunConfig(out_dir=Path(tmp_path))

    def test_every_flag_lands_in_its_field(self, monkeypatch, tmp_path):
        config = self.config_of(monkeypatch, [
            "--suite", "pseudo-boolean", "--problems", "3,1", "--instances", "2,4",
            "--dims", "8,16", "--runs", "7", "--budget", "55", "--solver", "hill",
            "--seed", "9", "--log", "eah", "--log", "flatfile", "--out", str(tmp_path),
            "--buckets", "3x4", "--scale", "log,linear"])
        assert config == cli.RunConfig(
            suite="pseudo-boolean", problems=(3, 1), instances=(2, 4), dimensions=(8, 16),
            runs=7, budget=55, solver="hill", seed=9, loggers=["eah", "flatfile"],
            out_dir=Path(tmp_path), eah_buckets=(3, 4), eah_scales=("log", "linear"))


class TestEaf:
    def test_writes_the_reference_level_sets(self, ab_file, tmp_path, capsys):
        out = tmp_path / "levels.json"
        code = cli.main(["eaf", "--in", str(ab_file), "--levels", "0,1", "--out", str(out)])
        assert code == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["nadir"] == [4, 10.0]
        assert document["group"]["runs"] == 2
        assert [lv["level"] for lv in document["levels"]] == [1, 2]
        assert document["levels"][0]["points"] == [[1, 10.0], [2, 8.0], [3, 5.0], [4, 2.0]]
        assert document["levels"][1]["points"] == [[2, 10.0], [3, 8.0], [4, 5.0]]

    def test_level_index_out_of_range_names_the_run_count(self, ab_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eaf", "--in", str(ab_file), "--levels", "5",
                      "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"level index(es) [5] out of range: {ab_file} has 2 run(s)" in err

    def test_missing_input_exits_1(self, tmp_path, capsys):
        code = cli.main(["eaf", "--in", str(tmp_path / "none.csv"), "--levels", "0",
                         "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "bench:" in capsys.readouterr().err

    def test_a_line_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(AB_CSV.replace("1,2,8", "1,2,8\xff").encode("latin-1"))
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["eaf", "--in", str(path), "--levels", "0", "--out", str(out)])
        assert exc.value.code == 2
        assert "bad.csv:4: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()


class TestEah:
    def test_reference_histogram_on_log_axes(self, ab_file, tmp_path):
        out = tmp_path / "h.csv"
        code = cli.main(["eah", "--in", str(ab_file), "--buckets", "2x2",
                         "--scale", "log,log", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert "# time,2,1.0,3.0,log" in lines
        assert lines[-4:] == ["0,0,0", "0,1,2", "1,0,1", "1,1,2"]

    def test_axis_range_overrides(self, ab_file, tmp_path):
        out = tmp_path / "h.csv"
        cli.main(["eah", "--in", str(ab_file), "--buckets", "2x2",
                  "--time-range", "0:8", "--quality-range", "0:16", "--out", str(out)])
        lines = out.read_text(encoding="utf-8").splitlines()
        assert "# time,2,0.0,8.0,linear" in lines
        assert "# quality,2,0.0,16.0,linear" in lines

    @pytest.mark.parametrize("flags, fitted", [
        ([], {}),
        (["--buckets", "3x4"], {"buckets": (3, 4)}),
        (["--scale", "log,linear"], {"scales": ("log", "linear")}),
    ])
    def test_flags_not_given_keep_the_fit_defaults(self, ab_file, tmp_path, flags, fitted):
        out, expected = tmp_path / "h.csv", tmp_path / "expected.csv"
        assert cli.main(["eah", "--in", str(ab_file), *flags, "--out", str(out)]) == 0
        trajectories = read_trajectories(ab_file)
        write_histogram(expected, eah(trajectories, fit_discretization(trajectories, **fitted)))
        assert out.read_bytes() == expected.read_bytes()

    def test_bad_range_exits_2(self, ab_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eah", "--in", str(ab_file), "--time-range", "5:1",
                      "--out", str(tmp_path / "h.csv")])
        assert exc.value.code == 2


class TestStats:
    def test_reference_surface_and_volume(self, ab_file, capsys):
        code = cli.main(["stats", "--in", str(ab_file), "--levels", "0,1",
                         "--nadir", "5,12"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# nadir\t5.0\t12.0"
        assert lines[1] == "metric\tlevel\tvalue"
        assert "surface\t1\t23.0" in lines
        assert "surface\t2\t13.0" in lines
        assert "volume\t1,2\t36.0" in lines

    def test_default_nadir_is_the_worst_observed_point(self, ab_file, capsys):
        cli.main(["stats", "--in", str(ab_file), "--levels", "0"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# nadir\t4.0\t10.0"
        assert "surface\t1\t7.0" in lines  # same staircase, tighter box

    def test_normalized_volume(self, ab_file, capsys):
        cli.main(["stats", "--in", str(ab_file), "--levels", "0,1",
                  "--nadir", "5,12", "--normalized"])
        out = capsys.readouterr().out
        assert "volume\t1,2\t0.45" in out

    def test_the_volume_adds_the_printed_surfaces_in_level_order(self, tmp_path, capsys):
        # Surfaces 2**53, 1 and 1: in level order the sum stays 2**53, from the end it
        # would be 2**53 + 2.
        path = tmp_path / "t.csv"
        path.write_text("run,evaluations,quality\n0,1,0\n1,1,9007199254740991\n"
                        "2,1,9007199254740991\n", encoding="utf-8")
        cli.main(["stats", "--in", str(path), "--levels", "0,1,2",
                  "--nadir", "2,9007199254740992"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:] == ["surface\t1\t9007199254740992.0", "surface\t2\t1.0",
                             "surface\t3\t1.0", "volume\t1,2,3\t9007199254740992.0"]

    def test_each_surface_is_computed_once(self, ab_file, monkeypatch, capsys):
        calls = []

        def counted(level_set, nadir):
            calls.append(level_set.level)
            return surface(level_set, nadir)

        for module in (attainment, cli):
            monkeypatch.setattr(module, "surface", counted)
        cli.main(["stats", "--in", str(ab_file), "--levels", "0,1", "--nadir", "5,12"])
        assert calls == [1, 2]
        assert "volume\t1,2\t36.0" in capsys.readouterr().out

    @pytest.mark.parametrize("row", ["0,0,4", "1,3,nan", "1,3,-inf"])
    def test_rejected_rows_exit_2_with_their_line(self, tmp_path, capsys, row):
        path = tmp_path / "bad.csv"
        path.write_text(AB_CSV + row + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            cli.main(["stats", "--in", str(path), "--levels", "0"])
        assert exc.value.code == 2
        assert "bad.csv:6:" in capsys.readouterr().err

    def test_invalid_nadir_exits_2(self, ab_file, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["stats", "--in", str(ab_file), "--levels", "0", "--nadir", "3,12"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "not weakly dominated" in captured.err
        assert captured.out == ""


valid_rows = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 50),
                                st.integers(-20, 20).map(lambda q: q / 4)),
                      min_size=1, max_size=12)
numbers = st.integers(-3, 60).map(str)
words = st.text("abcxyz_.-", min_size=1, max_size=4)
malformed_lines = st.one_of(
    st.sampled_from(["", " ", "\t"]),
    st.lists(numbers, min_size=2, max_size=2).map(",".join),
    st.lists(numbers, min_size=4, max_size=4).map(",".join),
    st.tuples(numbers, numbers, numbers, words, st.integers(0, 2)).map(
        lambda c: ",".join(c[3] if i == c[4] else c[i] for i in range(3))),
    st.tuples(st.integers(0, 3), st.integers(-5, 0)).map(lambda c: f"{c[0]},{c[1]},1.5"),
    st.tuples(st.integers(0, 3), st.integers(1, 50),
              st.sampled_from(["nan", "NaN", "inf", "-inf", "+inf", "Infinity"])).map(
        lambda c: f"{c[0]},{c[1]},{c[2]}"),
)


def trajectory_fault(line: bytes):
    """What the line rule finds wrong with one trajectory line, or None."""
    try:
        _fields(line, _TRAJECTORY)
    except ValueError as exc:
        return str(exc)
    return None


def run_cli_expecting_usage_error(argv):
    """Run ``bench`` in process; return its stderr after checking it exited 2."""
    with contextlib.redirect_stderr(io.StringIO()) as err, pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in err.getvalue()
    return err.getvalue()


@settings(max_examples=150, deadline=None)
@given(rows=valid_rows, bad=st.lists(malformed_lines, min_size=1, max_size=3), data=st.data())
def test_a_malformed_line_exits_2_naming_it_and_writes_nothing(tmp_path_factory, rows, bad, data):
    lines = [f"{r},{e},{q!r}" for r, e, q in rows]
    for line in bad:
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    # The first line the rule flags is named, with the rule's problem text.
    problems = (trajectory_fault(line.encode()) for line in lines)
    index, problem = next((i, problem) for i, problem in enumerate(problems) if problem is not None)
    directory = tmp_path_factory.mktemp("malformed")
    path = directory / "t.csv"
    path.write_text("run,evaluations,quality\n" + "\n".join(lines) + "\n", encoding="utf-8")
    out = directory / "levels.json"
    err = run_cli_expecting_usage_error(["eaf", "--in", str(path), "--levels", "0",
                                         "--out", str(out)])
    assert f"{path}:{index + 2}: {problem}\n" in err
    assert sorted(p.name for p in directory.iterdir()) == ["t.csv"]


@settings(max_examples=100, deadline=None)
@given(good=st.lists(st.integers(0, 1), max_size=3), data=st.data(),
       bad=st.integers(-50, -1).map(str) | st.integers(2, 50).map(str)
       | st.sampled_from(["", "x", "1.5", "0x1", "1e0", " "]))
def test_bad_level_indices_exit_2_and_write_nothing(tmp_path_factory, good, data, bad):
    entries = [str(j) for j in good]
    entries.insert(data.draw(st.integers(0, len(entries))), bad)
    directory = tmp_path_factory.mktemp("levels")
    path = directory / "ab.csv"
    path.write_text(AB_CSV, encoding="utf-8")  # two runs: valid indices are 0 and 1
    run_cli_expecting_usage_error(["eaf", "--in", str(path), f"--levels={','.join(entries)}",
                                   "--out", str(directory / "levels.json")])
    assert sorted(p.name for p in directory.iterdir()) == ["ab.csv"]


MALFORMED_FLAGS = [
    ("run", "--problems", "1,x"),
    ("run", "--instances", ""),
    ("run", "--dims", "3,,4"),
    ("run", "--runs", "0"),
    ("run", "--budget", "-5"),
    ("run", "--buckets", "5"),
    ("run", "--scale", "linear,cubic"),
    ("run", "--seed", "-1"),
    ("run", "--problems", "0"),
    ("run", "--dims", "0"),
    ("run", "--instances", "-2"),
    ("eaf", "--levels", "0,one"),
    ("eaf", "--levels", "-1"),
    ("eaf", "--direction", "up"),
    ("eah", "--buckets", "0x3"),
    ("eah", "--scale", "log"),
    ("eah", "--time-range", "5:1"),
    ("eah", "--quality-range", "a:b"),
    ("eah", "--time-range", "0:inf"),
    ("eah", "--quality-range", "0:nan"),
    ("eah", "--direction", "MAX"),
    ("stats", "--levels", ""),
    ("stats", "--levels", "0,-2"),
    ("stats", "--nadir", "3"),
    ("stats", "--nadir", "inf,3"),
    ("stats", "--direction", "minimize"),
    ("stats", "--levels", "1_0"),
    ("eaf", "--levels", " 1"),
    ("run", "--problems", "+1"),
    ("stats", "--levels", "\u0660"),
    ("eah", "--buckets", "\u0662x2"),
    ("eah", "--time-range", "-1e308:1e308"),
    ("eah", "--quality-range", "-1e308:1e308"),
    ("stats", "--nadir", "1_0,5"),
    ("stats", "--nadir", "\u0661\u0660, 5"),
    ("eah", "--time-range", " 1:1_0"),
    ("run", "--seed", str(2**63)),
    ("eah", "--buckets", "2x1001"),
    ("run", "--buckets", "1001x1"),
]


@pytest.mark.parametrize("command, flag, value", MALFORMED_FLAGS)
def test_a_malformed_flag_is_named_by_argparse_and_writes_nothing(
        tmp_path, capsys, ab_file, command, flag, value):
    out = tmp_path / "out"
    valid = {"run": ["--out", str(out)],
             "eaf": ["--in", str(ab_file), "--levels", "0", "--out", str(out)],
             "eah": ["--in", str(ab_file), "--out", str(out)],
             "stats": ["--in", str(ab_file), "--levels", "0"]}[command]
    err = run_cli_expecting_usage_error([command, *valid, f"{flag}={value}"])
    assert f"argument {flag}: " in err
    assert not out.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, flag", [("run", "--runs"), ("run", "--seed"),
                                           ("stats", "--levels"), ("stats", "--nadir")])
def test_a_flag_value_of_two_dashes_is_rejected_by_the_subcommand(
        tmp_path, capsys, ab_file, command, flag):
    out = tmp_path / "out"
    valid = {"run": ["--out", str(out)],
             "stats": ["--in", str(ab_file), "--levels", "0"]}[command]
    err = run_cli_expecting_usage_error([command, *valid, f"{flag}=--"])
    assert f"bench {command}: error: argument {flag}: expects " in err
    assert "got '--'" in err
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_an_integer_flag_past_the_int_digit_limit_gets_the_flag_message(ab_file):
    digits = "1" * 5000
    err = run_cli_expecting_usage_error(["stats", "--in", str(ab_file), f"--levels={digits}"])
    assert (f"argument --levels: expects comma-separated integers in [0, 2**63), got '{digits}'"
            in err)


def test_a_grid_past_the_bucket_cap_is_refused_before_the_input_is_read(
        ab_file, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a histogram was set up")

    monkeypatch.setattr(cli, "read_trajectories", refuse)
    monkeypatch.setattr(cli, "fit_discretization", refuse)
    out = tmp_path / "h.csv"
    err = run_cli_expecting_usage_error(["eah", "--in", str(ab_file), "--out", str(out),
                                         "--buckets", "100000000x2"])
    assert (f"argument --buckets: expects TxQ counts in [1, {cli.MAX_BUCKETS}], "
            "got '100000000x2'") in err
    assert not out.exists()
    cap = f"{cli.MAX_BUCKETS}X{cli.MAX_BUCKETS}"
    parser = cli.build_parser()
    assert parser.parse_args(["eah", "--in", "x", "--out", "y", "--buckets", cap]).buckets == (
        cli.MAX_BUCKETS, cli.MAX_BUCKETS)
    assert parser.parse_args(["run", "--out", "y", "--buckets", cap]).eah_buckets == (
        cli.MAX_BUCKETS, cli.MAX_BUCKETS)


def test_a_histogram_at_the_time_bucket_cap_needs_memory_for_its_grid_not_its_runs():
    # 3,000 one-point runs: a best quality per run and time bucket alone would be 24 MB.
    times, qualities = np.arange(1, 3001), -np.arange(3000.0)
    trajectories = as_trajectories([[point] for point in zip(times.tolist(), qualities.tolist())],
                                   Direction.MINIMIZATION)
    disc = fit_discretization(trajectories, (cli.MAX_BUCKETS, 2))
    eah(trajectories, disc)  # checks and caches each run's columns
    tracemalloc.start()
    try:
        counts = eah(trajectories, disc).counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    reps_t, reps_q = (np.array(axis.representatives) for axis in (disc.time, disc.quality))
    attained = ((times <= reps_t[:, None])[:, :, None] & (qualities[:, None] <= reps_q))
    assert (counts == attained.sum(axis=1)).all()


def test_a_flat_file_run_needs_memory_for_a_block_not_its_evaluations(tmp_path):
    # With every evaluation kept until the suite ended, this run peaked at 957 KB, and at
    # 9,557 KB with ten times the budget.
    def peak(budget):
        config = cli.RunConfig(problems=(1, 2), instances=(1, 2, 3), dimensions=(10,), runs=2,
                               budget=budget, loggers=("eaf", "eah", "flatfile"),
                               out_dir=tmp_path)
        tracemalloc.start()
        try:
            cli.run_benchmark(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)  # so that first-call set-up is not counted
    at_budget = peak(1000)
    assert at_budget < 300_000
    assert peak(10_000) < 1.2 * at_budget


# Pieces of cells next to the edges of the cell grammar: a sign, leading zeros, padding, an
# Arabic-Indic digit, ``_``, 2**63 - 1 to 2**63 + 1, 5,000 digits, overflow, nan and NA.
edge_pieces = ["-", "+", "0", "007", "1", "5", ".", "e", " ", "\t", "\u0661", "_",
               str(2**63 - 1), str(2**63), str(2**63 + 1), "1" * 5000, "0" * 5000,
               "1e500", "nan", "inf", "Infinity", "NA"]
# Python 3.11's argparse drops a flag value of "--" before any type check, so none is drawn.
edge_cells = st.lists(st.sampled_from(edge_pieces), min_size=1, max_size=3).map("".join).filter(
    lambda cell: cell != "--")


def verdict(read):
    """What ``read()`` returns, or "rejected" if it rejects its input."""
    try:
        return read()
    except (ValueError, SystemExit):
        return "rejected"


@settings(max_examples=200, deadline=None)
@given(cell=edge_cells)
def test_every_boundary_gives_a_cell_the_same_verdict(tmp_path_factory, cell):
    directory = tmp_path_factory.mktemp("cell")

    def trajectory(line):
        path = directory / "t.csv"
        path.write_text(f"run,evaluations,quality\n{line}\n", encoding="utf-8")
        (traj,) = read_trajectories(path)
        return traj

    def flat(line):
        path = directory / "f.csv"
        path.write_text(f"run,event,evaluations,y\n{line}\n", encoding="utf-8")
        (row,) = read_flat_file(path)[1]
        return row

    def flag(*argv):
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.build_parser().parse_args(list(argv))

    run = verdict(lambda: trajectory(f"{cell},1,2.5").run)
    assert verdict(lambda: flat(f"{cell},0,1,2.5").run) == run
    assert verdict(lambda: flat(f"0,{cell},1,2.5").event) == run
    assert verdict(lambda: flag("run", "--out", "x", f"--seed={cell}").seed) == run
    count = verdict(lambda: trajectory(f"0,{cell},2.5").points[0].time)
    assert verdict(lambda: flat(f"0,0,{cell},2.5").evaluations) == count
    assert verdict(lambda: flag("run", "--out", "x", f"--runs={cell}").runs) == count
    quality = verdict(lambda: trajectory(f"0,1,{cell}").points[0].quality)
    assert verdict(lambda: flag("stats", "--in", "x", "--levels=0", f"--nadir={cell},5").nadir
                   ) == ("rejected" if quality == "rejected" else (quality, 5.0))
    assert verdict(lambda: flag("stats", "--in", "x", "--levels=0", f"--nadir=5,{cell}").nadir
                   ) == ("rejected" if quality == "rejected" else (5.0, quality))
    if quality != "rejected":
        assert verdict(lambda: flat(f"0,0,1,{cell}").values["y"]) == quality


def test_direction_max_reaches_the_kernels(ab_file, tmp_path, capsys):
    out = tmp_path / "levels.json"
    assert cli.main(["eaf", "--in", str(ab_file), "--levels", "0,1", "--direction", "max",
                     "--out", str(out)]) == 0
    document = {"group": {"source": str(ab_file), "runs": 2}, "direction": "max",
                "nadir": [2, 8.0],
                "levels": [{"level": 1, "points": [[1, 10.0]]},
                           {"level": 2, "points": [[2, 8.0]]}]}
    assert out.read_text(encoding="utf-8") == json.dumps(document, indent=2) + "\n"
    assert cli.main(["stats", "--in", str(ab_file), "--levels", "0,1",
                     "--direction", "max"]) == 0
    assert capsys.readouterr().out == ("# nadir\t2.0\t8.0\nmetric\tlevel\tvalue\n"
                                       "surface\t1\t2.0\nsurface\t2\t0.0\nvolume\t1,2\t2.0\n")
