"""File formats for run logs, trajectories, level sets and histograms.

Flat run logs
    One CSV per benchmark cell, named
    ``<suite>_f<problem>_d<dimension>_i<instance>.csv``. Line 1 is the
    header ``run,event,evaluations,<property names...>``; every following
    line is one logged event. Runs are zero-based, event indices are
    zero-based within their run, and the evaluation count is a 1-based integer;
    all three are written in ASCII digits only. Files are UTF-8 with ``\\n`` line
    endings, and no cell is ever quoted. An absent reading (``None``)
    renders as ``NA`` and reads back as ``None``; numbers, a present NaN
    included, use the shortest decimal form that round-trips.

Trajectory files
    CSV with header ``run,evaluations,quality``, one row per recorded
    evaluation. Rows need not be improvement-filtered: ingestion applies
    the same strict-improvement filter trajectory capture uses. Negative run
    ids, counts below 1, non-finite qualities and cells with surrounding
    whitespace are rejected; integer cells are ASCII digits.

Level-set export
    A JSON object with group metadata, the nadir in use, and ``levels``,
    an array of ``{level, points: [[time, quality], ...]}``.

Histogram export
    CSV body ``t_bucket,q_bucket,count`` preceded by ``#`` comment lines
    recording buckets, origin, extent and scale per axis.

Every writer replaces its target atomically, so a failure mid-write leaves
the earlier file in place. Both CSV readers count lines by LF, accept CRLF
line endings and reject a CR that no LF follows.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .attainment import LevelSet, Trajectory, _staircases
from .histogram import Histogram
from .loggers import Store
from .problems import Direction, MetaData

#: Token standing in for an absent reading in delimited files.
NA = "NA"


def _render(value: Optional[float]) -> str:
    # repr() of a Python float is the shortest decimal string that parses
    # back to the same bits; an absent reading renders as NA.
    return NA if value is None else repr(float(value))


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


def write_flat_files(store: Store, directory) -> list:
    """Write one CSV per benchmark cell recorded in the store; returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = ",".join(["run", "event", "evaluations", *store.property_names])
    paths = []
    for cell in store.cells():
        path = directory / f"{cell_stem(cell)}.csv"
        with _atomic_writer(path, "flat file") as fh:
            fh.write(header + "\n")
            for run in store.runs(cell):
                for index, (count, *readings) in enumerate(store.events(cell, run)):
                    cells = [str(run), str(index), str(count), *map(_render, readings)]
                    fh.write(",".join(cells) + "\n")
        paths.append(path)
    return paths


@dataclass
class FlatRow:
    """One parsed flat-file event."""

    run: int
    event: int
    evaluations: int
    values: dict


def read_flat_file(path):
    """Parse a flat run log back into (property names, rows), an ``NA`` cell as ``None``;
    a line that is not UTF-8 or holds a CR without a LF, a row with the wrong cell count,
    a non-numeric cell or an index or count out of range is rejected as ``path:line``.
    The format has no quoting: lines end at LF (after an optional CR), cells at ``,``."""
    path = Path(path)
    data = _read_bytes(path, "flat file")
    try:
        lines = data.decode("utf-8").replace("\r\n", "\n").split("\n")
    except UnicodeDecodeError:
        raise _not_utf8(path, data, 1) from None
    if lines[-1] == "":  # the LF that ends the last line
        lines.pop()
    header = lines[0].split(",") if lines else None
    if header is None or header[:3] != ["run", "event", "evaluations"]:
        raise ValueError(f"{path}: not a flat run log (header {header!r})")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            rows.append(_flat_row(line.split(",") if line else [], header))
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
    return header[3:], rows


def _digits(text: str) -> bool:
    """Whether ``text`` is ASCII digits only, the form every integer cell and flag takes."""
    return text.isascii() and text.isdecimal()


def _flat_row(cells: list, header: list) -> FlatRow:
    if len(cells) != len(header):
        raise ValueError(f"row has {len(cells)} cells, expected {len(header)}")
    values = {name: _reading(text) for name, text in zip(header[3:], cells[3:])}
    run, event = int(cells[0]), int(cells[1])
    # Older writers could render the count as ``1.0``.
    count = int(cells[2]) if _digits(cells[2]) else float(cells[2])
    for what, text, value, least in zip(("run", "event", "evaluation count"), cells,
                                        (run, event, count), (0, 0, 1)):
        if not (_digits(text.removesuffix(".0")) and value >= least):
            raise ValueError(f"{what} {text} is not an integer >= {least}")
    return FlatRow(run, event, int(count), values)


def _reading(text: str) -> Optional[float]:
    """A reading cell: ``NA`` or a float with neither ``_`` nor surrounding whitespace."""
    if text == NA:
        return None
    if "_" in text or text.strip() != text:
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _read_bytes(path: Path, what: str) -> bytes:
    """Contents of the ``what`` at ``path``; a CR that no LF follows is rejected,
    naming its line as counted by LF alone."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise OSError(f"cannot read {what} {path}: {exc}") from exc
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        line = data.count(b"\n", 0, re.search(b"\r(?!\n)", data).start()) + 1
        raise ValueError(f"{path}:{line}: carriage return without a line feed after it")
    return data


def _not_utf8(path: Path, data: bytes, first_line: int) -> ValueError:
    """Error naming the first line of ``data``, file line ``first_line`` on, that is not UTF-8."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        first_line += data.count(b"\n", 0, exc.start)
    return ValueError(f"{path}:{first_line}: not UTF-8 text")


def write_trajectories(path, trajectories: Sequence[Trajectory]) -> None:
    """Write trajectories as a ``run,evaluations,quality`` CSV."""
    with _atomic_writer(Path(path), "trajectory file") as fh:
        fh.write("run,evaluations,quality\n")
        for traj in trajectories:
            fh.writelines(f"{traj.run},{p.time},{_render(p.quality)}\n" for p in traj.points)


_TRAJECTORY_ROW = np.dtype([("run", np.int64), ("evaluations", np.int64), ("quality", np.float64)])


#: A line whose run or evaluation cell starts with ``+``, which loadtxt would accept.
_SIGNED = re.compile(rb"^(?:[^,\n]*,)?\+", re.MULTILINE)


def _text_fault(body: bytes) -> Optional[tuple]:
    """(line, problem) of a trajectory body's first blank line, padded cell or
    integer cell with a leading ``+``."""
    for number, line in enumerate(body.splitlines(), start=2):
        text = line.decode("utf-8", "replace")
        if not text.strip():
            return number, "blank line"
        cells = text.split(",")
        padded = [cell for cell in cells if cell != cell.strip()]
        if padded:
            return number, f"cell {padded[0]!r} has surrounding whitespace"
        signed = [cell for cell in cells[:2] if cell.startswith("+")]
        if signed:
            return number, f"integer cell {signed[0]!r} has a leading +"


def _row_error(path: Path, body: bytes, exc: Optional[ValueError]) -> ValueError:
    """Error for a trajectory body that ``np.loadtxt`` failed on, or that has a
    :func:`_text_fault`: whichever comes first of that fault and the row numpy
    names. The body has no lone CR, so ``splitlines`` breaks at LF alone.
    loadtxt skips empty lines and counts only the rows it reads, from 1 in
    column-count errors and from 0 in conversion errors."""
    lines, fault = list(enumerate(body.splitlines(), start=2)), _text_fault(body)
    match = re.search(r"(?: but (\d+) were found)? at row (\d+)", str(exc))
    if match is not None:
        cells, row = match.groups()
        number = [n for n, line in lines if line][int(row) - (cells is not None)]
        if fault is None or number < fault[0]:
            problem = (f"expected 3 cells, got {cells}" if cells is not None
                       else str(exc)[:match.start()])
            return ValueError(f"{path}:{number}: {problem}")
    if fault is not None:
        return ValueError(f"{path}:{fault[0]}: {fault[1]}")
    return ValueError(f"{path}: {exc}")


def read_trajectories(path, direction: Direction = Direction.MINIMIZATION) -> list:
    """Read a ``run,evaluations,quality`` CSV into improvement-filtered trajectories.

    Rows are grouped by run id and sorted by evaluation count; the strict
    improvement filter reduces each group to its attainment staircase. Lines
    that are not UTF-8 or hold a lone CR, blank lines, cells with surrounding whitespace,
    run or evaluation cells with a leading ``+``, rows without exactly three cells,
    negative run ids, evaluation counts below 1 and non-finite qualities are rejected
    as ``path:line``.
    The trajectories carry placeholder metadata with the given direction.
    """
    path = Path(path)
    meta = MetaData("file", 1, 1, 1, direction)
    # Only the body stays referenced: the whole file is not held beside it.
    header, _, body = _read_bytes(path, "trajectory file").partition(b"\n")
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
    except UnicodeDecodeError:
        raise _not_utf8(path, body, 2) from None
    except ValueError as exc:
        raise _row_error(path, body, exc) from exc
    # loadtxt skips blank lines, strips what str.strip strips from a cell and takes
    # a leading + on an integer: these scans find no such byte in a well-formed
    # body, and allocate nothing.
    suspect = (not body.isascii() or any(byte in body for byte in b" \t\v\f\x1c\x1d\x1e\x1f")
               or b"+" in body and _SIGNED.search(body) is not None)
    if len(rows) < body.count(b"\n") + (not body.endswith(b"\n")) or suspect and _text_fault(body):
        raise _row_error(path, body, None)
    invalid = (rows["evaluations"] < 1) | ~np.isfinite(rows["quality"])
    if invalid.any() or rows["run"].min() < 0:
        i = int(np.argmax(invalid | (rows["run"] < 0)))
        run, evaluations, quality = rows[i].item()
        problem = (f"run {run} is below 0" if run < 0
                   else f"evaluation count {evaluations} is below 1" if evaluations < 1
                   else f"quality {quality!r} is not finite")
        raise ValueError(f"{path}:{i + 2}: {problem}")
    return _staircases(meta, rows["run"], rows["evaluations"], rows["quality"])


def _json_points(times: np.ndarray, qualities) -> str:
    """A level's points, given its time column and an iterator that yields its rendered
    qualities, as ``json.dump(..., indent=2)`` renders them in the document."""
    if not len(times):
        return "[]"
    # zip asks times first, so it takes no quality past the level's last time.
    cells = zip(map(str, times.tolist()), qualities)
    return ("[\n        [\n          "
            + "\n        ],\n        [\n          ".join(map(",\n          ".join, cells))
            + "\n        ]\n      ]")


def write_level_sets(path, level_sets: Sequence[LevelSet], nadir,
                     group: Optional[dict] = None) -> None:
    """Write level sets as JSON with group metadata and the nadir used.

    The bytes are those of ``json.dump(document, fh, indent=2)`` plus a final
    newline; the levels are formatted directly, one at a time. Level sets are
    checked as :func:`~attainbench.attainment.surface` checks them, but may be empty.
    """
    sets = list(level_sets)
    columns = [ls._checked() for ls in sets]
    qualities = np.concatenate([ls._leave(q) for ls, (_, q) in zip(sets, columns)] or [[]])
    # Checked qualities are finite and a level set's zeros are 0.0, so each distinct
    # value is one bit pattern: the C encoder, which renders numbers exactly as the
    # indenting one does, runs once per value, and the strings are gathered by index.
    distinct = np.unique(qualities)
    rendered = np.array(json.dumps(distinct.tolist())[1:-1].split(", "), dtype=object)
    rendered = iter(rendered[np.searchsorted(distinct, qualities)].tolist())
    head = json.dumps({
        "group": dict(group or {}),
        "direction": sets[0].direction.value if sets else None,
        "nadir": [nadir[0], nadir[1]],
    }, indent=2)
    with _atomic_writer(Path(path), "level sets") as fh:
        fh.write(head[:-2] + ',\n  "levels": [')
        for n, (ls, (times, _)) in enumerate(zip(sets, columns)):
            fh.write(f'{"," if n else ""}\n    {{\n      "level": {ls.level},\n'
                     f'      "points": {_json_points(times, rendered)}\n    }}')
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
        # One format per row keeps the body's transient tuple and text to one row's worth.
        for i, row in enumerate(histogram.counts.astype(np.int64)):
            cells = np.column_stack((np.arange(len(row)), row))
            fh.write(f"{i},%d,%d\n" * len(row) % tuple(cells.ravel().tolist()))
