"""File formats for run logs, trajectories, level sets and histograms.

Flat run logs
    One CSV per benchmark cell, named
    ``<suite>_f<problem>_d<dimension>_i<instance>.csv``. Line 1 is the
    header ``run,event,evaluations,<property names...>``; every following
    line is one logged event. Runs are zero-based, event indices are
    zero-based within their run, and the evaluation count is 1-based.
    Files are UTF-8 with ``\\n`` line endings. Absent readings render as
    ``NA``; numbers use the shortest decimal form that round-trips.

Trajectory files
    CSV with header ``run,evaluations,quality``, one row per recorded
    evaluation. Rows need not be improvement-filtered: ingestion applies
    the same strict-improvement filter trajectory capture uses. Evaluation
    counts below 1 and non-finite qualities are rejected.

Level-set export
    A JSON object with group metadata, the nadir in use, and ``levels``,
    an array of ``{level, points: [[time, quality], ...]}``.

Histogram export
    CSV body ``t_bucket,q_bucket,count`` preceded by ``#`` comment lines
    recording buckets, origin, extent and scale per axis.

Every writer replaces its target atomically, so a failure mid-write leaves
the earlier file in place.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .attainment import LevelSet, Trajectory, _minimizing, _points, _strict_improvements
from .histogram import Histogram
from .loggers import Store
from .problems import Direction, MetaData
from .properties import ABSENT, LoggedValue

#: Token standing in for an absent reading in delimited files.
NA = "NA"


def _render(value: float) -> str:
    # repr() of a Python float is the shortest decimal string that parses
    # back to the same bits.
    return repr(float(value))


@contextlib.contextmanager
def _atomic_writer(path: Path, what: str):
    """Text handle on a temporary file beside ``path`` that replaces ``path``
    only once fully written; on any error it is removed instead."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {what} {path}: {exc}") from exc


def cell_stem(cell) -> str:
    """``<suite>_f<problem>_d<dimension>_i<instance>``, the start of every per-cell file name."""
    return f"{cell.suite_name}_f{cell.problem_id}_d{cell.dimension}_i{cell.instance}"


def flat_file_name(cell) -> str:
    return f"{cell_stem(cell)}.csv"


def write_flat_files(store: Store, directory) -> list:
    """Write one CSV per benchmark cell recorded in the store.

    A watched property literally named ``evaluations`` feeds the fixed
    evaluations column instead of duplicating it. Returns the written paths.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = [n for n in store.property_names if n != "evaluations"]
    evaluations_watched = "evaluations" in store.property_names
    paths = []
    for cell in store.cells():
        path = directory / flat_file_name(cell)
        with _atomic_writer(path, "flat file") as fh:
            fh.write(",".join(["run", "event", "evaluations", *names]) + "\n")
            for run in store.runs(cell):
                for index, record in enumerate(store.events(cell, run)):
                    evaluations = (_cell_text(record.values["evaluations"]) if evaluations_watched
                                   else str(record.evaluations))
                    cells = [str(run), str(index), evaluations]
                    cells += [_cell_text(record.values[n]) for n in names]
                    fh.write(",".join(cells) + "\n")
        paths.append(path)
    return paths


def _cell_text(value: LoggedValue) -> str:
    return _render(value.value) if value.present else NA


@dataclass
class FlatRow:
    """One parsed flat-file event."""

    run: int
    event: int
    evaluations: float
    values: dict


def read_flat_file(path):
    """Parse a flat run log back into (property names, rows); a row with the
    wrong cell count or a non-numeric cell is rejected with a ``path:line`` message."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[:3] != ["run", "event", "evaluations"]:
                raise ValueError(f"{path}: not a flat run log (header {header!r})")
            names = header[3:]
            rows = []
            for line in reader:
                where = f"{path}:{reader.line_num}"
                if len(line) != len(header):
                    raise ValueError(f"{where}: row has {len(line)} cells, expected {len(header)}")
                try:
                    values = {name: ABSENT if text == NA else LoggedValue.of(float(text))
                              for name, text in zip(names, line[3:])}
                    rows.append(FlatRow(int(line[0]), int(line[1]), float(line[2]), values))
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
    except OSError as exc:
        raise OSError(f"cannot read flat file {path}: {exc}") from exc
    return names, rows


def write_trajectories(path, trajectories: Sequence[Trajectory]) -> None:
    """Write trajectories as a ``run,evaluations,quality`` CSV."""
    with _atomic_writer(Path(path), "trajectory file") as fh:
        fh.write("run,evaluations,quality\n")
        for traj in trajectories:
            fh.writelines(f"{traj.run},{p.time},{_render(p.quality)}\n" for p in traj.points)


_TRAJECTORY_ROW = np.dtype([("run", np.int64), ("evaluations", np.int64), ("quality", np.float64)])


def _row_error(path: Path, body: bytes, exc: Optional[ValueError]) -> ValueError:
    """Error for a trajectory body that ``np.loadtxt`` failed on, or of which
    it kept too few rows. loadtxt skips blank lines, so those are looked for
    first; without them data row r is file line r + 2, but numpy counts rows
    from 1 in column-count errors and from 0 in conversion errors."""
    for number, line in enumerate(body.splitlines(), start=2):
        if not line.strip():
            return ValueError(f"{path}:{number}: blank line")
    match = re.search(r"(?: but (\d+) were found)? at row (\d+)", str(exc))
    if match is None:
        return ValueError(f"{path}: {exc}")
    cells, row = match.groups()
    if cells is not None:
        return ValueError(f"{path}:{int(row) + 1}: expected 3 cells, got {cells}")
    return ValueError(f"{path}:{int(row) + 2}: {str(exc)[:match.start()]}")


def read_trajectories(path, direction: Direction = Direction.MINIMIZATION) -> list:
    """Read a ``run,evaluations,quality`` CSV into improvement-filtered trajectories.

    Rows are grouped by run id and sorted by evaluation count; the strict
    improvement filter reduces each group to its attainment staircase. Blank
    lines, rows without exactly three cells, evaluation counts below 1 and
    non-finite qualities are rejected with a ``path:line`` message. The
    trajectories carry placeholder metadata with the given direction.
    """
    path = Path(path)
    meta = MetaData("file", 1, 1, 1, direction)
    try:
        header, _, body = path.read_bytes().partition(b"\n")
    except OSError as exc:
        raise OSError(f"cannot read trajectory file {path}: {exc}") from exc
    if header.rstrip(b"\r") != b"run,evaluations,quality":
        header = header.decode(errors="replace")
        raise ValueError(f"{path}: not a trajectory file (header {header!r})")
    if not body:
        raise ValueError(f"{path}: no trajectory rows")
    if body.isspace():  # loadtxt would warn that it found no data
        raise _row_error(path, body, None)
    try:
        rows = np.loadtxt(io.BytesIO(body), dtype=_TRAJECTORY_ROW, delimiter=",",
                          comments=None, ndmin=1, encoding="utf-8")
    except ValueError as exc:
        raise _row_error(path, body, exc) from exc
    if len(rows) < body.count(b"\n") + (not body.endswith(b"\n")):
        raise _row_error(path, body, None)
    invalid = (rows["evaluations"] < 1) | ~np.isfinite(rows["quality"])
    if invalid.any():
        i = int(np.argmax(invalid))
        evaluations, quality = int(rows["evaluations"][i]), float(rows["quality"][i])
        problem = (f"evaluation count {evaluations} is below 1" if evaluations < 1
                   else f"quality {quality!r} is not finite")
        raise ValueError(f"{path}:{i + 2}: {problem}")
    kept = _strict_improvements(rows["run"], rows["evaluations"],
                                _minimizing(rows["quality"], meta.direction))
    runs, times, qualities = (rows[name][kept] for name in _TRAJECTORY_ROW.names)
    starts = np.flatnonzero(np.r_[True, runs[1:] != runs[:-1]]).tolist()
    times, qualities = times.tolist(), qualities.tolist()
    return [Trajectory(meta, int(runs[a]), _points(times[a:b], qualities[a:b]))
            for a, b in zip(starts, starts[1:] + [len(times)])]


def _json_points(points: Sequence) -> str:
    """A level's points as ``json.dump(..., indent=2)`` renders them in the document."""
    if not points:
        return "[]"
    times, qualities = zip(*points)
    # The compact encoder renders each number exactly as the indenting one does,
    # NaN and Infinity included, but in C.
    cells = zip(json.dumps(times)[1:-1].split(", "), json.dumps(qualities)[1:-1].split(", "))
    return ("[\n        [\n          "
            + "\n        ],\n        [\n          ".join(map(",\n          ".join, cells))
            + "\n        ]\n      ]")


def write_level_sets(path, level_sets: Sequence[LevelSet], nadir,
                     group: Optional[dict] = None) -> None:
    """Write level sets as JSON with group metadata and the nadir used.

    The bytes are those of ``json.dump(document, fh, indent=2)`` plus a final
    newline; the levels are formatted directly, one at a time.
    """
    sets = list(level_sets)
    head = json.dumps({
        "group": dict(group or {}),
        "direction": sets[0].direction.value if sets else None,
        "nadir": [nadir[0], nadir[1]],
    }, indent=2)
    with _atomic_writer(Path(path), "level sets") as fh:
        fh.write(head[:-2] + ',\n  "levels": [')
        for n, ls in enumerate(sets):
            fh.write(f'{"," if n else ""}\n    {{\n      "level": {ls.level},\n'
                     f'      "points": {_json_points(ls.points)}\n    }}')
        fh.write("\n  ]\n}\n" if sets else "]\n}\n")


def write_histogram(path, histogram: Histogram) -> None:
    """Write a histogram as CSV with a ``#`` header block describing the axes."""
    disc = histogram.discretization
    with _atomic_writer(Path(path), "histogram") as fh:
        fh.write("# axis,buckets,origin,extent,scale\n")
        for label, axis in (("time", disc.time), ("quality", disc.quality)):
            fh.write(f"# {label},{axis.buckets},{_render(axis.origin)},"
                     f"{_render(axis.extent)},{axis.scale}\n")
        fh.write(f"# runs,{histogram.runs}\n")
        fh.write("t_bucket,q_bucket,count\n")
        for i, row in enumerate(histogram.counts.astype(np.int64).tolist()):
            fh.write("".join(f"{i},{j},{count}\n" for j, count in enumerate(row)))
