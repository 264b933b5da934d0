"""Command line front end.

``bench run`` drives a reference solver over a suite with loggers attached
and writes the requested outputs; ``bench eaf``, ``bench eah`` and
``bench stats`` ingest a trajectory CSV and compute level sets, an
attainment histogram, or surface/volume statistics. Tables go to stdout as
TSV. Integer and number flags are read by the cell readers of the CSV files.
Exit status: 0 on success, 1 on I/O failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .attainment import LevelSelector, TrajectoryLogger, _volume, default_nadir, surface
from .fileio import (FlatFile, _finite, _integer, cell_stem, read_trajectories,
                     write_histogram, write_level_sets, write_trajectories)
from .histogram import Axis, Discretization, SCALES, eah, fit_discretization
from .problems import Direction, SUITES
from .properties import TransformedY, TransformedYBest, _real
from .solvers import SOLVERS
from .triggers import Always

LOG_CHOICES = ("eaf", "eah", "flatfile")


@dataclass
class RunConfig:
    """Everything one ``bench run`` needs; usable programmatically."""

    suite: str = "continuous"
    problems: tuple = (1, 2)
    instances: tuple = (1,)
    dimensions: tuple = (10,)
    runs: int = 10
    budget: int = 100
    solver: str = "random"
    seed: int = 0
    loggers: tuple = ("eaf",)
    out_dir: Path = Path(".")
    eah_buckets: tuple = (20, 20)
    eah_scales: tuple = ("linear", "linear")


def run_benchmark(config: RunConfig) -> dict:
    """Run the configured benchmark, write outputs, return a summary.

    Each (problem, dimension, instance, run) cell draws its own generator
    seeded from (seed, problem, dimension, instance, run), so results do not
    depend on iteration order and repeated runs are byte-identical. Flat run logs
    are written by a :class:`~attainbench.fileio.FlatFile` as the suite runs, each
    cell's file once its cell is done; if the suite raises, the open cell's file is
    removed and the finished cells' files stay.
    """
    suite = SUITES[config.suite](config.problems, config.instances, config.dimensions)
    solver = SOLVERS[config.solver]
    wants = set(config.loggers)

    out = Path(config.out_dir)
    trajectory_logger = TrajectoryLogger()
    flat = FlatFile(out, [Always()], [TransformedY(), TransformedYBest()])
    for logger, kinds in ((trajectory_logger, {"eaf", "eah"}), (flat, {"flatfile"})):
        if wants & kinds:
            suite.attach_logger(logger)

    try:
        for problem in suite:
            meta = problem.meta
            for run in range(config.runs):
                seed = np.random.SeedSequence(
                    [config.seed, meta.problem_id, meta.dimension, meta.instance, run])
                solver(problem, config.budget, np.random.default_rng(seed))
                problem.reset()
    except BaseException:
        flat.abort()
        raise
    flat.close()

    # A logger that was not attached recorded no cell, so it writes nothing.
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for cell in trajectory_logger.cells():
        stem = cell_stem(cell)
        trajectories = trajectory_logger.trajectories(cell)
        if "eaf" in wants:
            path = out / f"{stem}_traj.csv"
            write_trajectories(path, trajectories)
            files.append(path)
        if "eah" in wants:
            disc = fit_discretization(trajectories, config.eah_buckets, config.eah_scales)
            path = out / f"{stem}_eah.csv"
            write_histogram(path, eah(trajectories, disc))
            files.append(path)
    files.extend(flat.paths)

    cells = len(suite)
    return {"cells": cells, "runs": cells * config.runs,
            "evaluations": cells * config.runs * config.budget, "files": files}


def _flag(read, form: str):
    """Argparse type that reads a value with ``read`` and reports its ``ValueError`` as
    ``expects <form>, got '<value>'``."""
    def convert(text: str):
        try:
            return read(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects {form}, got {text!r}") from None
    return convert


def _pair(read, sep: str):
    """Reader of exactly two ``sep``-separated values, each read by ``read``."""
    def pair(text: str) -> tuple:
        first, second = map(read, text.split(sep))
        return first, second
    return pair


def _int_list(least: int):
    return _flag(lambda text: tuple(map(_integer(least), text.split(","))),
                 f"comma-separated integers in [{least}, 2**63)")


def _int_at_least(least: int):
    return _flag(_integer(least), f"an integer in [{least}, 2**63)")


#: Most buckets a ``--buckets`` flag may give either axis. It bounds what a histogram
#: holds, one count per grid cell, and is checked before anything is allocated.
MAX_BUCKETS = 1000


def _bucket_pair(text: str) -> tuple:
    pair = _pair(_integer(1), "x")(text.lower())
    if max(pair) > MAX_BUCKETS:
        raise ValueError(f"more than {MAX_BUCKETS} buckets")
    return pair


_buckets = _flag(_bucket_pair, f"TxQ counts in [1, {MAX_BUCKETS}]")
_nadir = _flag(_pair(_finite, ","), "finite T,Q")


def _scales(text: str) -> tuple:
    parts = tuple(text.split(","))
    if len(parts) != 2 or any(p not in SCALES for p in parts):
        raise argparse.ArgumentTypeError(f"expects time,quality from {SCALES}, got {text!r}")
    return parts


def _range(text: str) -> tuple:
    lo, hi = _flag(_pair(_finite, ":"), "finite lo:hi")(text)
    if not (_real(hi - lo) and hi - lo > 0):
        raise argparse.ArgumentTypeError(
            f"upper bound must exceed lower bound by a finite span, got {text!r}")
    return lo, hi


def _cmd_run(args) -> int:
    names = {f.name for f in fields(RunConfig)}
    summary = run_benchmark(RunConfig(**{k: v for k, v in vars(args).items() if k in names}))
    summary["files"] = len(summary["files"])
    print("\n".join(f"{key}\t{value}" for key, value in summary.items()))
    return 0


def _cmd_eaf(args) -> int:
    trajectories = read_trajectories(args.infile, args.direction)
    sets = LevelSelector(args.levels).select(trajectories, args.infile)
    nadir = default_nadir(trajectories)
    write_level_sets(args.out, sets, nadir, {"source": str(args.infile), "runs": len(trajectories)})
    return 0


def _cmd_eah(args) -> int:
    trajectories = read_trajectories(args.infile, args.direction)
    given = {k: v for k, v in vars(args).items() if k in ("buckets", "scales")}
    fitted = fit_discretization(trajectories, **given)
    axes = []
    for axis, override in ((fitted.time, args.time_range), (fitted.quality, args.quality_range)):
        if override is not None:
            lo, hi = override
            axis = Axis(axis.buckets, lo, hi - lo, axis.scale)
        axes.append(axis)
    write_histogram(args.out, eah(trajectories, Discretization(*axes)))
    return 0


def _cmd_stats(args) -> int:
    trajectories = read_trajectories(args.infile, args.direction)
    sets = LevelSelector(args.levels).select(trajectories, args.infile)
    nadir = args.nadir or default_nadir(trajectories)
    # Every value is computed before the first line is printed, so a failure prints nothing.
    surfaces = [surface(ls, nadir) for ls in sets]
    rows = [f"surface\t{ls.level}\t{value!r}" for ls, value in zip(sets, surfaces)]
    label = ",".join(str(ls.level) for ls in sets)
    rows.append(f"volume\t{label}\t{_volume(sets, surfaces, nadir, args.normalized)!r}")
    print(f"# nadir\t{float(nadir[0])!r}\t{float(nadir[1])!r}", "metric\tlevel\tvalue", *rows,
          sep="\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Parser, and parser class of its subcommands, that rejects a flag value of
    exactly ``--``. Python 3.11's argparse drops that value before the flag's
    converter runs, leaving an empty list as the flag's value."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            self._get_value(action, "--")  # a converter that rejects it names its own rule
            raise argparse.ArgumentError(action, "expects a value, got '--'")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bench",
        description="Benchmark anytime optimizers and analyze attainment data.")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each flag's dest is a RunConfig field, and a flag not given leaves its field's default.
    run = sub.add_parser("run", help="run a reference solver over a suite",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--suite", choices=sorted(SUITES))
    run.add_argument("--problems", type=_int_list(1), help="comma-separated problem ids")
    run.add_argument("--instances", type=_int_list(1), help="comma-separated instance numbers")
    run.add_argument("--dims", dest="dimensions", type=_int_list(1), metavar="DIMS",
                     help="comma-separated dimensions")
    run.add_argument("--runs", type=_int_at_least(1), help="runs per cell")
    run.add_argument("--budget", type=_int_at_least(1), help="evaluations per run")
    run.add_argument("--solver", choices=sorted(SOLVERS))
    run.add_argument("--seed", type=_int_at_least(0))
    run.add_argument("--log", dest="loggers", action="append", choices=LOG_CHOICES,
                     help="logger to attach (repeatable; default eaf)")
    run.add_argument("--out", dest="out_dir", type=Path, required=True, metavar="OUT",
                     help="output directory")
    run.add_argument("--buckets", dest="eah_buckets", type=_buckets, metavar="BUCKETS",
                     help=f"eah bucket counts, TxQ, each at most {MAX_BUCKETS}")
    run.add_argument("--scale", dest="eah_scales", type=_scales, metavar="SCALE",
                     help="eah scales, time,quality")
    run.set_defaults(func=_cmd_run)

    eaf_cmd = sub.add_parser("eaf", help="level sets of a trajectory file, as JSON")
    eah_cmd = sub.add_parser("eah", help="attainment histogram of a trajectory file")
    stats = sub.add_parser("stats", help="surface/volume statistics of a trajectory file")
    for p in (eaf_cmd, eah_cmd, stats):
        p.add_argument("--in", dest="infile", required=True, help="trajectory CSV")
        p.add_argument("--direction", type=Direction, default=Direction.MINIMIZATION,
                       metavar="{min,max}")
    for p in (eaf_cmd, stats):
        p.add_argument("--levels", type=_int_list(0), required=True,
                       help="zero-based level indices, comma-separated")
    eaf_cmd.add_argument("--out", required=True, help="output JSON path")
    eaf_cmd.set_defaults(func=_cmd_eaf)
    eah_cmd.add_argument("--buckets", type=_buckets, default=argparse.SUPPRESS,
                         help=f"bucket counts, TxQ, each at most {MAX_BUCKETS}")
    eah_cmd.add_argument("--scale", dest="scales", type=_scales, default=argparse.SUPPRESS,
                         metavar="SCALE", help="scales, time,quality")
    eah_cmd.add_argument("--time-range", type=_range, help="time axis bounds, lo:hi")
    eah_cmd.add_argument("--quality-range", type=_range, help="quality axis bounds, lo:hi")
    eah_cmd.add_argument("--out", required=True, help="output CSV path")
    eah_cmd.set_defaults(func=_cmd_eah)
    stats.add_argument("--nadir", type=_nadir, help="nadir as T,Q (default: worst observed point)")
    stats.add_argument("--normalized", action="store_true", help="normalize the volume")
    stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
