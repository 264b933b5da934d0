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
    included, use the shortest decimal form that round-trips. Property names
    are distinct and each one a :class:`~attainbench.properties.Property` may have.

Trajectory files
    CSV with header ``run,evaluations,quality``, one row per recorded
    evaluation. Rows need not be improvement-filtered: ingestion applies
    the same strict-improvement filter trajectory capture uses. The first bad
    line is named: runs are integers in [0, 2**63) and counts in [1, 2**63), in
    ASCII digits with an optional ``-``, and qualities finite numbers.

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
import math
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
from .properties import Property

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
    a line that is not UTF-8 or holds a CR without a LF, a bad or repeated property name,
    a row with the wrong cell count, a non-numeric cell or an index or count out of range
    is rejected as ``path:line``. The format has no quoting: lines end at LF (after an
    optional CR), cells at ``,``."""
    path = Path(path)
    data = _read_bytes(path, "flat file")
    try:
        lines = data.decode("utf-8").replace("\r\n", "\n").split("\n")
    except UnicodeDecodeError:
        raise _not_utf8(path, data) from None
    if lines[-1] == "":  # the LF that ends the last line
        lines.pop()
    header = lines[0].split(",") if lines else None
    if header is None or header[:3] != ["run", "event", "evaluations"]:
        raise ValueError(f"{path}: not a flat run log (header {header!r})")
    names = header[3:]
    try:
        for name in names:
            Property(name)
    except ValueError as exc:
        raise ValueError(f"{path}:1: {exc}") from None
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(f"{path}:1: duplicate property name(s): {duplicates}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            rows.append(_flat_row(line.split(",") if line else [], header))
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
    return names, rows


def _digits(text: str) -> bool:
    """Whether ``text`` is ASCII digits only, the form every integer cell and flag takes."""
    return text.isascii() and text.isdecimal()


def _flat_row(cells: list, header: list) -> FlatRow:
    if len(cells) != len(header):
        raise ValueError(f"row has {len(cells)} cells, expected {len(header)}")
    values = {name: _reading(text) for name, text in zip(header[3:], cells[3:])}
    for what, text, least in zip(("run", "event", "evaluation count"), cells, (0, 0, 1)):
        if not (_digits(text) and int(text) >= least):
            raise ValueError(f"{what} {text} is not an integer >= {least}")
    return FlatRow(int(cells[0]), int(cells[1]), int(cells[2]), values)


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


def _not_utf8(path: Path, data: bytes) -> ValueError:
    """Error naming the first line of the file ``data`` that is not UTF-8."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
    return ValueError(f"{path}:{line}: not UTF-8 text")


def write_trajectories(path, trajectories: Sequence[Trajectory]) -> None:
    """Write trajectories as a ``run,evaluations,quality`` CSV."""
    with _atomic_writer(Path(path), "trajectory file") as fh:
        fh.write("run,evaluations,quality\n")
        for traj in trajectories:
            fh.writelines(f"{traj.run},{p.time},{_render(p.quality)}\n" for p in traj.points)


_TRAJECTORY_ROW = np.dtype([("run", np.int64), ("evaluations", np.int64), ("quality", np.float64)])


#: A line whose run or evaluation cell starts with ``+``, which loadtxt would accept.
_SIGNED = re.compile(rb"^(?:[^,\n]*,)?\+", re.MULTILINE)

#: An integer cell as loadtxt reads one into int64, less the ``+`` that :data:`_SIGNED`
#: finds; past 19 significant digits it is out of range, so ``int`` never meets a long one.
_INTEGER = re.compile(r"-?0*[0-9]{1,19}")
#: What ``float`` reads as a number, short of ``inf`` and ``nan``: ASCII, no ``_``, no padding.
_NUMBER = re.compile(r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def _trajectory_fault(line: bytes) -> Optional[str]:
    """What is wrong with one trajectory line, as ``bytes.splitlines`` gives it, or None."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        return "not UTF-8 text"
    if not text.strip():
        return "blank line"
    cells = text.split(",")
    if len(cells) != 3:
        return f"expected 3 cells, got {len(cells)}"
    for what, cell, least in zip(("run", "evaluation count"), cells, (0, 1)):
        if not (_INTEGER.fullmatch(cell) and least <= int(cell) < 2**63):
            return f"{what} {cell!r} is not an integer in [{least}, 2**63)"
    if not (_NUMBER.fullmatch(cells[2]) and math.isfinite(float(cells[2]))):
        return f"quality {cells[2]!r} is not a finite number"
    return None


def read_trajectories(path, direction: Direction = Direction.MINIMIZATION) -> list:
    """Read a ``run,evaluations,quality`` CSV into improvement-filtered trajectories.

    Rows are grouped by run id and sorted by evaluation count; the strict
    improvement filter reduces each group to its attainment staircase. A lone
    CR and the first line :func:`_trajectory_fault` flags are rejected as
    ``path:line``, and a body numpy cannot read for any other reason as ``path``.
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
    rows = error = None
    if not body.isspace():  # loadtxt would warn that it found no data
        try:
            rows = np.loadtxt(io.BytesIO(body), dtype=_TRAJECTORY_ROW, delimiter=",",
                              comments=None, ndmin=1, encoding="utf-8")
        except ValueError as exc:  # a UnicodeDecodeError included
            error = exc
    # Only a body that loadtxt rejects or these checks find suspect meets the line rule.
    # loadtxt skips blank lines, strips what str.strip strips from a cell and takes a
    # leading + on an integer: the byte scans find none of these in a well-formed body,
    # and allocate nothing.
    if (rows is None or len(rows) < body.count(b"\n") + (not body.endswith(b"\n"))
            or not body.isascii() or any(byte in body for byte in b" \t\v\f\x1c\x1d\x1e\x1f")
            or b"+" in body and _SIGNED.search(body) is not None
            or ((rows["evaluations"] < 1) | ~np.isfinite(rows["quality"])).any()
            or rows["run"].min() < 0):
        # The body has no lone CR, so splitlines breaks at LF and drops a CRLF's CR.
        for number, line in enumerate(body.splitlines(), start=2):
            problem = _trajectory_fault(line)
            if problem is not None:
                raise ValueError(f"{path}:{number}: {problem}") from error
        if rows is None:
            raise ValueError(f"{path}: {error}") from error
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
