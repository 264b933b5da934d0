"""Command line front end.

``bench run`` drives a reference solver over a suite with loggers attached
and writes the requested outputs; ``bench eaf``, ``bench eah`` and
``bench stats`` ingest a trajectory CSV and compute level sets, an
attainment histogram, or surface/volume statistics. Tables go to stdout as
TSV. Exit status: 0 on success, 1 on I/O failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attainment import LevelSet, TrajectoryLogger, default_nadir, eaf_levels, surface, volume
from .fileio import (cell_stem, read_trajectories, write_flat_files, write_histogram,
                     write_level_sets, write_trajectories)
from .histogram import Axis, Discretization, SCALES, eah, fit_discretization
from .loggers import Store
from .problems import Direction, SUITES
from .properties import TransformedY, TransformedYBest
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
    depend on iteration order and repeated runs are byte-identical.
    """
    suite = SUITES[config.suite](config.problems, config.instances, config.dimensions)
    solver = SOLVERS[config.solver]
    wants = set(config.loggers)

    trajectory_logger = TrajectoryLogger() if wants & {"eaf", "eah"} else None
    store = Store([Always()], [TransformedY(), TransformedYBest()]) if "flatfile" in wants else None
    for logger in (trajectory_logger, store):
        if logger is not None:
            suite.attach_logger(logger)

    cells = 0
    for problem in suite:
        cells += 1
        meta = problem.meta
        for run in range(config.runs):
            seed = np.random.SeedSequence(
                [config.seed, meta.problem_id, meta.dimension, meta.instance, run])
            solver(problem, config.budget, np.random.default_rng(seed))
            problem.reset()

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    if trajectory_logger is not None:
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
    if store is not None:
        files.extend(write_flat_files(store, out))

    summary = {
        "cells": cells,
        "runs": cells * config.runs,
        "evaluations": cells * config.runs * config.budget,
        "files": files,
    }
    return summary


def _int_list(parser: argparse.ArgumentParser, text: str, flag: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        parser.error(f"{flag} expects a comma-separated integer list, got {text!r}")
    if not values:
        parser.error(f"{flag} must not be empty")
    return values


def _buckets(parser, text: str) -> tuple:
    parts = text.lower().split("x")
    if len(parts) != 2 or not all(p.isdigit() and int(p) >= 1 for p in parts):
        parser.error(f"--buckets expects TxQ positive counts, got {text!r}")
    return int(parts[0]), int(parts[1])


def _scales(parser, text: str) -> tuple:
    parts = tuple(text.split(","))
    if len(parts) != 2 or any(p not in SCALES for p in parts):
        parser.error(f"--scale expects time,quality from {SCALES}, got {text!r}")
    return parts


def _range(parser, text: str, flag: str) -> tuple:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError:
        parser.error(f"{flag} expects lo:hi, got {text!r}")
    if not hi > lo:
        parser.error(f"{flag}: upper bound must exceed lower bound")
    return lo, hi


def _direction(args) -> Direction:
    return Direction.MINIMIZATION if args.direction == "min" else Direction.MAXIMIZATION


def _level_indices(parser, text: str, m: int) -> list:
    indices = sorted(set(_int_list(parser, text, "--levels")))
    bad = [j for j in indices if j < 0 or j >= m]
    if bad:
        parser.error(f"--levels index(es) {bad} out of range: input has {m} run(s)")
    return indices


def _cmd_run(args, parser) -> int:
    try:
        config = RunConfig(
            suite=args.suite,
            problems=_int_list(parser, args.problems, "--problems"),
            instances=_int_list(parser, args.instances, "--instances"),
            dimensions=_int_list(parser, args.dims, "--dims"),
            runs=args.runs,
            budget=args.budget,
            solver=args.solver,
            seed=args.seed,
            loggers=tuple(dict.fromkeys(args.log or ["eaf"])),
            out_dir=Path(args.out),
            eah_buckets=_buckets(parser, args.buckets),
            eah_scales=_scales(parser, args.scale),
        )
        if config.runs < 1 or config.budget < 1:
            parser.error("--runs and --budget must be >= 1")
        summary = run_benchmark(config)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"cells\t{summary['cells']}")
    print(f"runs\t{summary['runs']}")
    print(f"evaluations\t{summary['evaluations']}")
    print(f"files\t{len(summary['files'])}")
    return 0


def _cmd_eaf(args, parser) -> int:
    trajectories = _read(parser, args.infile, _direction(args))
    indices = _level_indices(parser, args.levels, len(trajectories))
    sets = eaf_levels(trajectories, [j + 1 for j in indices])
    nadir = default_nadir(trajectories)
    group = {"source": str(args.infile), "runs": len(trajectories)}
    write_level_sets(args.out, sets, nadir, group)
    return 0


def _cmd_eah(args, parser) -> int:
    trajectories = _read(parser, args.infile, _direction(args))
    fitted = fit_discretization(trajectories, _buckets(parser, args.buckets),
                                _scales(parser, args.scale))
    axes = []
    for axis, override, flag in ((fitted.time, args.time_range, "--time-range"),
                                 (fitted.quality, args.quality_range, "--quality-range")):
        if override:
            lo, hi = _range(parser, override, flag)
            axis = Axis(axis.buckets, lo, hi - lo, axis.scale)
        axes.append(axis)
    write_histogram(args.out, eah(trajectories, Discretization(*axes)))
    return 0


def _cmd_stats(args, parser) -> int:
    trajectories = _read(parser, args.infile, _direction(args))
    indices = _level_indices(parser, args.levels, len(trajectories))
    sets = eaf_levels(trajectories, [j + 1 for j in indices])
    if args.nadir:
        try:
            t_text, q_text = args.nadir.split(",")
            nadir = (float(t_text), float(q_text))
        except ValueError:
            parser.error(f"--nadir expects T,Q got {args.nadir!r}")
    else:
        nadir = default_nadir(trajectories)
    print(f"# nadir\t{repr(float(nadir[0]))}\t{repr(float(nadir[1]))}")
    print("metric\tlevel\tvalue")
    try:
        for level_set in sets:
            print(f"surface\t{level_set.level}\t{repr(surface(level_set, nadir))}")
        label = ",".join(str(ls.level) for ls in sets)
        print(f"volume\t{label}\t{repr(volume(sets, nadir, args.normalized))}")
    except ValueError as exc:
        parser.error(str(exc))
    return 0


def _read(parser, path, direction: Direction):
    try:
        return read_trajectories(path, direction)
    except ValueError as exc:
        parser.error(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Benchmark anytime optimizers and analyze attainment data.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a reference solver over a suite")
    run.add_argument("--suite", choices=sorted(SUITES), default="continuous")
    run.add_argument("--problems", default="1,2", help="comma-separated problem ids")
    run.add_argument("--instances", default="1", help="comma-separated instance numbers")
    run.add_argument("--dims", default="10", help="comma-separated dimensions")
    run.add_argument("--runs", type=int, default=10, help="runs per cell")
    run.add_argument("--budget", type=int, default=100, help="evaluations per run")
    run.add_argument("--solver", choices=sorted(SOLVERS), default="random")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--log", action="append", choices=LOG_CHOICES, default=None,
                     help="logger to attach (repeatable; default eaf)")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--buckets", default="20x20", help="eah bucket counts, TxQ")
    run.add_argument("--scale", default="linear,linear", help="eah scales, time,quality")
    run.set_defaults(func=_cmd_run)

    eaf_cmd = sub.add_parser("eaf", help="level sets of a trajectory file, as JSON")
    eah_cmd = sub.add_parser("eah", help="attainment histogram of a trajectory file")
    stats = sub.add_parser("stats", help="surface/volume statistics of a trajectory file")
    for p in (eaf_cmd, eah_cmd, stats):
        p.add_argument("--in", dest="infile", required=True, help="trajectory CSV")
        p.add_argument("--direction", choices=("min", "max"), default="min")
    eaf_cmd.add_argument("--levels", required=True, help="zero-based level indices, comma-separated")
    eaf_cmd.add_argument("--out", required=True, help="output JSON path")
    eaf_cmd.set_defaults(func=_cmd_eaf)
    eah_cmd.add_argument("--buckets", default="20x20", help="bucket counts, TxQ")
    eah_cmd.add_argument("--scale", default="linear,linear", help="scales, time,quality")
    eah_cmd.add_argument("--time-range", default=None, help="time axis bounds, lo:hi")
    eah_cmd.add_argument("--quality-range", default=None, help="quality axis bounds, lo:hi")
    eah_cmd.add_argument("--out", required=True, help="output CSV path")
    eah_cmd.set_defaults(func=_cmd_eah)
    stats.add_argument("--levels", required=True, help="zero-based level indices, comma-separated")
    stats.add_argument("--nadir", default=None, help="nadir as T,Q (default: worst observed point)")
    stats.add_argument("--normalized", action="store_true", help="normalize the volume")
    stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except OSError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
