"""The four benchmark workloads: input generation, one operation, output checks.

Every workload is a closed loop driven through attainbench's public API: the
next operation starts only after the previous one returned. An operation is

* ``run-*``: one ``attainbench.cli.run_benchmark(RunConfig(...))`` call;
* ``analyze-*``: one analysis pass, i.e. ``attainbench.cli.main`` for
  ``eaf``, ``stats`` and ``eah`` on the same trajectory CSV, back to back.

Inputs depend only on the workload seed. The analysis CSVs are written at a
fixed path relative to the working directory, because the level-set JSON
embeds the ``--in`` path and its digest must repeat.

See ``benchmarks/README.md`` for why each workload exists and what each
layer metric is predicted to move.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from attainbench import cli
from attainbench.problems import Direction

#: Seed whose outputs are compared byte for byte with ``reference_digests.json``.
REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_digests.json"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def write_atomically(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


class CheckFailed(Exception):
    """An operation produced output that breaks an invariant or a reference digest."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _representatives(buckets: int, origin: float, extent: float, scale: str) -> np.ndarray:
    """Bucket edges of a histogram axis: lower edges if linear, upper edges if log."""
    if scale == "linear":
        width = extent / buckets
        return np.array([origin + i * width for i in range(buckets)])
    step = math.log1p(extent) / buckets
    return np.array([math.expm1((i + 1) * step) + origin for i in range(buckets)])


def _check_histogram(path: Path, staircases: list, sign: float) -> None:
    """Counts equal a brute-force count over the runs' staircases.

    ``staircases`` hold minimization qualities (``sign`` times the file's).
    Counts must also lie in [0, runs] and never decrease toward the worse
    corner.
    """
    axes, declared, rows = {}, None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith(("# time,", "# quality,")):
                label, buckets, origin, extent, scale = line[2:].rstrip("\n").split(",")
                axes[label] = (int(buckets), float(origin), float(extent), scale)
            elif line.startswith("# runs,"):
                declared = int(line.split(",")[1])
            elif line[0].isdigit():
                rows.append(line)
    runs = len(staircases)
    _require(declared == runs, f"{path.name}: declares {declared} runs, expected {runs}")
    table = np.loadtxt(rows, delimiter=",", dtype=np.int64, ndmin=2)
    (t_buckets, t_origin, t_extent, _), (q_buckets, q_origin, q_extent, _) = (
        axes["time"], axes["quality"])
    counts = np.zeros((t_buckets, q_buckets), dtype=np.int64)
    counts[table[:, 0], table[:, 1]] = table[:, 2]
    reps_t, reps_q = _representatives(*axes["time"]), _representatives(*axes["quality"])
    expected = np.zeros_like(counts)
    for times, qualities in staircases:
        t = np.clip(times, t_origin, t_origin + t_extent)
        q = np.clip(sign * qualities, q_origin, q_origin + q_extent)
        idx = np.searchsorted(t, reps_t, side="right") - 1
        best = np.where(idx >= 0, q[np.maximum(idx, 0)], sign * np.inf)
        expected += sign * best[:, None] <= sign * reps_q[None, :]
    _require(np.array_equal(counts, expected),
             f"{path.name}: counts differ from a brute-force count")
    _require(counts.min() >= 0 and counts.max() <= runs,
             f"{path.name}: counts outside [0, {runs}]")
    _require(bool((np.diff(counts, axis=0) >= 0).all()),
             f"{path.name}: counts decrease along the time axis")
    toward_worse = counts if sign > 0 else counts[:, ::-1]
    _require(bool((np.diff(toward_worse, axis=1) >= 0).all()),
             f"{path.name}: counts decrease toward the worse quality")


def staircase_of(times, qualities) -> tuple:
    """Strict-improvement staircase (minimization) of raw (time, quality) rows.

    Rows are taken in stable time order; a row survives if it is strictly
    better than every row before it, and survivors sharing a time collapse
    onto the last. This is the filter trajectory capture and ingestion
    apply, written independently of the package.
    """
    order = np.argsort(times, kind="stable")
    t, q = np.asarray(times)[order], np.asarray(qualities, dtype=float)[order]
    keep = q < np.concatenate(([np.inf], np.minimum.accumulate(q)[:-1]))
    t, q = t[keep], q[keep]
    last = np.append(t[1:] != t[:-1], True)
    return t[last], q[last]


def attainment_levels(staircases: list) -> list:
    """Level sets k = 1..m of minimization staircases, by brute force.

    At every event time the runs' bests are sorted; level k emits a point
    whenever its k-th best improves. Returns one (n, 2) array per level.
    """
    times = np.unique(np.concatenate([t for t, _ in staircases]))
    best = np.empty((times.size, len(staircases)))
    for i, (t, q) in enumerate(staircases):
        idx = np.searchsorted(t, times, side="right") - 1
        best[:, i] = np.where(idx >= 0, q[np.maximum(idx, 0)], np.inf)
    best.sort(axis=1)
    levels = []
    for column in best.T:  # non-increasing in time, so the previous value is the best so far
        keep = (column < np.concatenate(([np.inf], column[:-1]))) & np.isfinite(column)
        levels.append(np.column_stack((times[keep], column[keep])))
    return levels


def _check_staircase(times, qualities, label: str) -> None:
    """Strictly later times with strictly lower (minimization) qualities."""
    t = np.asarray(times, dtype=float)
    q = np.asarray(qualities, dtype=float)
    _require(t.size > 0, f"{label}: empty staircase")
    _require(bool((np.diff(t) > 0).all() and (np.diff(q) < 0).all()),
             f"{label}: not a strict staircase")


# ---------------------------------------------------------------- run workloads

@dataclass(frozen=True)
class RunWorkload:
    """``run_benchmark`` over one suite configuration; no input file."""

    name: str
    config: dict
    sizes: dict  # size name -> (runs, budget)

    def prepare(self, seed: int, workdir: Path, size: str) -> str:
        """Set-up is building the configuration; returns its digest."""
        return sha256_bytes(repr(self.run_config(seed, workdir, size)).encode())

    def run_config(self, seed: int, workdir: Path, size: str) -> cli.RunConfig:
        runs, budget = self.sizes[size]
        return cli.RunConfig(runs=runs, budget=budget, seed=seed,
                             out_dir=workdir / "out", **self.config)

    def session(self, seed: int, workdir: Path, size: str) -> "RunSession":
        return RunSession(self.run_config(seed, workdir, size))


class RunSession:
    def __init__(self, config: cli.RunConfig):
        self.config = config
        suite = cli.SUITES[config.suite](config.problems, config.instances, config.dimensions)
        self.cells = len(suite)
        self.evaluations = self.cells * config.runs * config.budget
        first = suite.roster[suite.problem_ids[0]]
        self.minimizing = first.direction is Direction.MINIMIZATION

    def operation(self) -> dict:
        """One timed ``run_benchmark`` call; returns phase timings in seconds."""
        start = time.perf_counter()
        self.summary = cli.run_benchmark(self.config)
        return {"run_benchmark": time.perf_counter() - start}

    def digests(self) -> dict:
        """sha256 of every file the last operation wrote."""
        return {Path(path).name: sha256_file(path) for path in self.summary["files"]}

    def verify(self) -> None:
        """Check the invariants of the last operation's outputs."""
        config, summary = self.config, self.summary
        _require(summary["evaluations"] == self.evaluations,
                 f"summary reports {summary['evaluations']} evaluations, "
                 f"expected {self.evaluations}")
        per_cell = sum(1 for lg in ("eaf", "eah", "flatfile") if lg in config.loggers)
        _require(len(summary["files"]) == self.cells * per_cell,
                 f"wrote {len(summary['files'])} files, expected {self.cells * per_cell}")
        paths = {Path(path).name: Path(path) for path in summary["files"]}
        sign = 1.0 if self.minimizing else -1.0
        for name, path in paths.items():
            if name.endswith("_traj.csv"):
                staircases = self._check_trajectories(path)
                stem = name[:-len("_traj.csv")]
                if stem + ".csv" in paths:
                    self._check_flat_file(paths[stem + ".csv"], staircases)
                if stem + "_eah.csv" in paths:
                    _check_histogram(paths[stem + "_eah.csv"], staircases, sign)

    def _check_trajectories(self, path: Path) -> list:
        """Check a trajectory file; return its per-run (times, minimization qualities)."""
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        runs = data[:, 0].astype(np.int64)
        _require(np.array_equal(np.unique(runs), np.arange(self.config.runs)),
                 f"{path.name}: run ids are not 0..{self.config.runs - 1}")
        _require(data[:, 1].min() >= 1 and data[:, 1].max() <= self.config.budget,
                 f"{path.name}: evaluation counts outside [1, budget]")
        sign = 1.0 if self.minimizing else -1.0
        staircases = []
        for run in range(self.config.runs):
            rows = data[runs == run]
            _check_staircase(rows[:, 1], sign * rows[:, 2], f"{path.name} run {run}")
            staircases.append((rows[:, 1], sign * rows[:, 2]))
        return staircases

    def _check_flat_file(self, path: Path, staircases: list) -> None:
        """Every evaluation is logged, and its improvements are the trajectory's points."""
        config = self.config
        _require(count_lines(path) == config.runs * config.budget + 1,
                 f"{path.name}: line count is not evaluations + header")
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
        _require(header == ["run", "event", "evaluations", "transformed_y", "transformed_y_best"],
                 f"{path.name}: unexpected header {header}")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        sign = 1.0 if self.minimizing else -1.0
        steps = np.arange(config.budget)
        for run, (times, qualities) in enumerate(staircases):
            rows = data[data[:, 0] == run]
            _require(np.array_equal(rows[:, 1], steps) and np.array_equal(rows[:, 2], steps + 1),
                     f"{path.name} run {run}: events are not 0..budget-1 at evaluations 1..budget")
            y = sign * rows[:, 3]
            _require(np.array_equal(sign * rows[:, 4], np.minimum.accumulate(y)),
                     f"{path.name} run {run}: transformed_y_best is not the running best")
            t, q = staircase_of(rows[:, 2], y)
            _require(np.array_equal(t, times) and np.array_equal(q, qualities),
                     f"{path.name} run {run}: improvements differ from the trajectory file")


# ----------------------------------------------------------- analysis workloads

def staircase_csv(rng: np.random.Generator, runs: int, points: tuple, horizon: int) -> str:
    """Improvement-only trajectories, as ``bench run --log eaf`` writes them.

    Each run has ``points`` (lo, hi) strictly improving rows at distinct
    evaluation counts in [1, horizon]; qualities decay from about 100.
    """
    out = ["run,evaluations,quality\n"]
    for run in range(runs):
        n = int(rng.integers(points[0], points[1] + 1))
        times = np.sort(rng.choice(horizon, size=n, replace=False)) + 1
        start = rng.uniform(80.0, 120.0)
        qualities = start * np.exp(-np.cumsum(rng.exponential(0.05, n)))
        out.extend(f"{run},{t},{q!r}\n" for t, q in zip(times.tolist(), qualities.tolist()))
    return "".join(out)


def raw_csv(rng: np.random.Generator, runs: int, rows: int) -> str:
    """Unfiltered random-search logs: one row per evaluation, i.i.d. qualities.

    The strict-improvement filter keeps about H(rows) (8.2 for 2000) rows
    per run, well under 1%.
    """
    out = ["run,evaluations,quality\n"]
    evaluations = range(1, rows + 1)
    for run in range(runs):
        qualities = (rng.chisquare(10.0, rows) * (25.0 / 3.0)).tolist()
        out.extend(f"{run},{e},{q!r}\n" for e, q in zip(evaluations, qualities))
    return "".join(out)


@dataclass(frozen=True)
class AnalysisWorkload:
    """``bench eaf``/``stats``/``eah`` on a generated trajectory CSV."""

    name: str
    generator: object  # (rng, **params) -> CSV text
    sizes: dict        # size name -> generator keyword arguments

    def input_path(self, workdir: Path) -> Path:
        return workdir / "trajectories.csv"

    def prepare(self, seed: int, workdir: Path, size: str) -> str:
        """Generate the input CSV from the seed; returns its digest."""
        text = self.generator(np.random.default_rng(seed), **self.sizes[size])
        write_atomically(self.input_path(workdir), text)
        return sha256_bytes(text.encode())

    def session(self, seed: int, workdir: Path, size: str) -> "AnalysisSession":
        return AnalysisSession(self.input_path(workdir), workdir)


class AnalysisSession:
    def __init__(self, input_path: Path, workdir: Path):
        # A path relative to the working directory keeps the JSON digest stable.
        infile = os.path.relpath(input_path)
        data = np.loadtxt(infile, delimiter=",", skiprows=1, ndmin=2)
        run_ids = data[:, 0].astype(np.int64)
        self.runs = int(run_ids.max()) + 1
        self.staircases = [staircase_of(data[run_ids == run, 1], data[run_ids == run, 2])
                           for run in range(self.runs)]
        self.expected_levels = attainment_levels(self.staircases)
        levels = ",".join(str(j) for j in range(self.runs))
        self.eaf_out = workdir / "out" / "levels.json"
        self.eah_out = workdir / "out" / "histogram.csv"
        self.eaf_out.parent.mkdir(parents=True, exist_ok=True)
        self.commands = {
            "eaf": ["eaf", "--in", infile, "--levels", levels,
                    "--out", os.path.relpath(self.eaf_out)],
            "stats": ["stats", "--in", infile, "--levels", levels, "--normalized"],
            "eah": ["eah", "--in", infile, "--buckets", "200x200", "--scale", "linear,log",
                    "--out", os.path.relpath(self.eah_out)],
        }

    def operation(self) -> dict:
        """One analysis pass; returns each command's wall time in seconds."""
        timings = {}
        self.stats_stdout = None
        for command, argv in self.commands.items():
            captured = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(captured):
                status = cli.main(argv)
            timings[command] = time.perf_counter() - start
            if status != 0:
                raise CheckFailed(f"bench {command} exited with status {status}")
            if command == "stats":
                self.stats_stdout = captured.getvalue()
        return timings

    def digests(self) -> dict:
        """sha256 of the level-set JSON, the histogram and the stats stdout."""
        return {
            "levels.json": sha256_file(self.eaf_out),
            "stats.tsv": sha256_bytes(self.stats_stdout.encode()),
            "histogram.csv": sha256_file(self.eah_out),
        }

    def verify(self) -> None:
        """Check the last pass's outputs against brute force and invariants."""
        with open(self.eaf_out, encoding="utf-8") as fh:
            document = json.load(fh)
        _require(document["group"]["runs"] == self.runs,
                 f"level sets report {document['group']['runs']} runs, expected {self.runs}")
        levels = document["levels"]
        _require([ls["level"] for ls in levels] == list(range(1, self.runs + 1)),
                 "level sets do not cover every level 1..m")
        # The brute-force levels are nested strict staircases, so equality checks those too.
        staircases = [np.asarray(ls["points"], dtype=float).reshape(-1, 2) for ls in levels]
        for k, (points, expected) in enumerate(zip(staircases, self.expected_levels), start=1):
            _require(np.array_equal(points, expected),
                     f"level {k} differs from the brute-force level set")
        self._check_stats(staircases)
        _check_histogram(self.eah_out, self.staircases, sign=1.0)

    def _check_stats(self, staircases) -> None:
        lines = self.stats_stdout.splitlines()
        _require(lines[0].startswith("# nadir\t") and lines[1] == "metric\tlevel\tvalue",
                 "stats output lacks its nadir and header lines")
        t_nadir, q_nadir = (float(v) for v in lines[0].split("\t")[1:])
        rows = [line.split("\t") for line in lines[2:]]
        surfaces = [float(r[2]) for r in rows if r[0] == "surface"]
        volumes = [float(r[2]) for r in rows if r[0] == "volume"]
        _require(len(surfaces) == self.runs and len(volumes) == 1,
                 f"stats printed {len(surfaces)} surfaces and {len(volumes)} volumes")
        # --normalized divides the summed surfaces by levels x ideal-to-nadir box.
        ideal_t = min(float(s[0, 0]) for s in staircases)
        ideal_q = min(float(s[-1, 1]) for s in staircases)
        box = (t_nadir - ideal_t) * (q_nadir - ideal_q)
        expected = sum(surfaces) / (len(surfaces) * box)
        _require(math.isclose(volumes[0], expected, rel_tol=1e-12),
                 f"volume {volumes[0]!r} is not the normalized sum of surfaces {expected!r}")


WORKLOADS = {w.name: w for w in (
    RunWorkload(
        name="run-random-continuous",
        config=dict(suite="continuous", problems=(1, 2), instances=(1, 2, 3),
                    dimensions=(10,), solver="random", loggers=("eaf", "eah", "flatfile")),
        sizes={"full": (2, 1000), "smoke": (2, 40)},
    ),
    RunWorkload(
        name="run-hill-boolean",
        config=dict(suite="pseudo-boolean", problems=(1, 2), instances=(1,),
                    dimensions=(64,), solver="hill", loggers=("eaf",)),
        sizes={"full": (2, 3000), "smoke": (2, 60)},
    ),
    AnalysisWorkload(
        name="analyze-staircase",
        generator=staircase_csv,
        sizes={"full": dict(runs=101, points=(40, 60), horizon=5000),
               "smoke": dict(runs=7, points=(4, 8), horizon=100)},
    ),
    AnalysisWorkload(
        name="analyze-raw",
        generator=raw_csv,
        sizes={"full": dict(runs=51, rows=2000), "smoke": dict(runs=5, rows=60)},
    ),
)}


def reference_digests(workload: str, size: str):
    """Digests recorded for (workload, size) at REFERENCE_SEED, or None."""
    if not REFERENCE_FILE.is_file():
        return None
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh).get(size, {}).get(workload)


def record_reference_digests(workload: str, size: str, digests: dict) -> None:
    table = {}
    if REFERENCE_FILE.is_file():
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            table = json.load(fh)
    table.setdefault(size, {})[workload] = dict(sorted(digests.items()))
    write_atomically(REFERENCE_FILE, json.dumps(table, indent=2, sort_keys=True) + "\n")
