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
    the same strict-improvement filter trajectory capture uses. Runs are
    integers >= 0, counts integers >= 1 and qualities finite numbers.

Level-set export
    A JSON object with group metadata, the nadir in use, and ``levels``,
    an array of ``{level, points: [[time, quality], ...]}``.

Histogram export
    CSV body ``t_bucket,q_bucket,count`` preceded by ``#`` comment lines
    recording buckets, origin, extent and scale per axis.

Every writer replaces its target atomically, so a failure mid-write leaves
the earlier file in place. Both CSV readers count lines by LF, accept CRLF
line endings, reject a CR that no LF follows and name the first line that
:func:`_fields` flags. Their cells and every ``bench`` integer and number flag
take one grammar: integers in ASCII digits with an optional ``-``, below 2**63,
and numbers as ``float`` reads them from ASCII with no ``_`` or padding.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import numbers
import os
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .attainment import LevelSet, Trajectory, _runs, _staircases
from .histogram import Histogram
from .loggers import Store
from .problems import Direction, MetaData
from .properties import Property, _check_distinct

#: Token standing in for an absent reading in delimited files.
NA = "NA"


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


#: Rows of one run that :func:`write_flat_files` renders at a time. It bounds the
#: writer's transient strings and tuples, which add to the peak memory of a run.
_FLAT_BLOCK = 256


def _reprs(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float64 of ``values``, the shortest decimal text that reads back
    to the same bits, as an object array of their shape. Each distinct bit pattern is
    rendered once, so ``-0.0`` and ``0.0`` stay apart."""
    # return_index makes np.unique sort stably. Its default int64 sort pages in a kernel
    # that no other step of ``bench run`` uses, which raised peak RSS by about 0.25 MB.
    bits, _, index = np.unique(values.view(np.int64), return_index=True, return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return texts[index].reshape(values.shape)


def _rendered(columns: Sequence[Sequence[Optional[float]]]) -> list:
    """The readings of equal-length columns rendered by :func:`_reprs`, ``None`` as
    :data:`NA`, one list per column."""
    values = np.array(columns, dtype=float)  # None reads as NaN
    texts = _reprs(values)
    for column, row in np.argwhere(np.isnan(values)).tolist():
        if columns[column][row] is None:
            texts[column, row] = NA
    return texts.tolist()


#: The types a reading may have; a subclass of ``float`` is checked one reading at a time.
_READING_TYPES = frozenset({float, type(None)})


def _check_readings(path: Path, run: int, start: int, names: Sequence[str],
                    block: Sequence[Sequence]) -> None:
    """Reject a reading that is not a ``float`` or ``None`` in ``block``, the columns of
    ``run`` from event ``start`` on, naming the file, run, event and property."""
    for name, column in zip(names, block):
        if not _READING_TYPES.issuperset(map(type, column)):
            for event, reading in enumerate(column, start):
                if reading is not None and not isinstance(reading, float):
                    raise ValueError(f"{path}: run {run}, event {event}: property {name!r} "
                                     f"reading {reading!r} is not a float or None")


def write_flat_files(store: Store, directory) -> list:
    """Write one CSV per benchmark cell recorded in the store; returns the written paths.
    Each run is written from its columns, :data:`_FLAT_BLOCK` rows at a time. A reading
    that is not a ``float`` or ``None`` is rejected, and its cell's file not written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = store.property_names
    header = ",".join(["run", "event", "evaluations", *names])
    paths = []
    for cell in store.cells():
        path = directory / f"{cell_stem(cell)}.csv"
        with _atomic_writer(path, "flat file") as fh:
            fh.write(header + "\n")
            for run in store.runs(cell):
                counts, *readings = store.columns(cell, run)
                line = f"{run},%d,%d" + ",%s" * len(readings) + "\n"
                for start in range(0, len(counts), _FLAT_BLOCK):
                    stop = min(start + _FLAT_BLOCK, len(counts))
                    block = [column[start:stop] for column in readings]
                    _check_readings(path, run, start, names, block)
                    texts = _rendered(block) if block else ()
                    rows = zip(range(start, stop), counts[start:stop], *texts)
                    fh.write(line * (stop - start) % tuple(chain.from_iterable(rows)))
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
    """Parse a flat run log back into (property names, rows), an ``NA`` cell as ``None``.
    A header that is not UTF-8, or names a property twice or as no ``Property`` may, is
    rejected as ``path:1``; a lone CR and the first line :func:`_fields` flags as
    ``path:line``. There is no quoting: lines end at LF (after an optional CR), cells at ``,``."""
    path = Path(path)
    lines = _read_bytes(path, "flat file").splitlines()
    try:
        header = lines[0].decode("utf-8").split(",") if lines else None
    except UnicodeDecodeError:
        raise ValueError(f"{path}:1: not UTF-8 text") from None
    if header is None or header[:3] != ["run", "event", "evaluations"]:
        raise ValueError(f"{path}: not a flat run log (header {header!r})")
    names = header[3:]
    try:
        for name in names:
            Property(name)
        _check_distinct(names)
    except ValueError as exc:
        raise ValueError(f"{path}:1: {exc}") from None
    columns = [("run", _integer(0)), ("event", _integer(0)), ("evaluation count", _integer(1)),
               *((f"{name} reading", _na_or_float) for name in names)]
    return names, [FlatRow(run, event, count, dict(zip(names, readings)))
                   for run, event, count, *readings in _lines(path, lines[1:], columns)]


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


def write_trajectories(path, trajectories: Sequence[Trajectory]) -> None:
    """Write trajectories as a ``run,evaluations,quality`` CSV. They are checked as
    :func:`~attainbench.attainment.eaf_levels` checks them, and their run ids as the
    reader reads them, once each, so each trajectory reads back as written."""
    trajs, _, columns = _runs(trajectories, "write_trajectories")
    seen = set()
    for run in (traj.run for traj in trajs):
        if isinstance(run, bool) or not isinstance(run, numbers.Integral) or not 0 <= run < 2**63:
            raise ValueError(f"write_trajectories: run {run!r} is not an integer in [0, 2**63)")
        if run in seen:
            raise ValueError(f"write_trajectories: run {run} appears more than once")
        seen.add(run)
    with _atomic_writer(Path(path), "trajectory file") as fh:
        fh.write("run,evaluations,quality\n")
        for traj, (times, qualities) in zip(trajs, columns):
            fh.writelines(f"{traj.run},{time},{quality!r}\n" for time, quality
                          in zip(times.tolist(), traj._leave(qualities).tolist()))


_TRAJECTORY_ROW = np.dtype([("run", np.int64), ("evaluations", np.int64), ("quality", np.float64)])


#: A line whose run or evaluation cell starts with ``+``, which loadtxt would accept.
_SIGNED = re.compile(rb"^(?:[^,\n]*,)?\+", re.MULTILINE)

#: An integer cell as loadtxt reads one into int64, less the ``+`` that :data:`_SIGNED`
#: finds. At most 19 significant digits are captured, so ``int`` never meets a long text.
_INTEGER = re.compile(r"(-?)0*([0-9]{1,19})")
#: What ``float`` reads from ASCII text with no ``_`` and no padding, nan and inf included.
#: No two parts can match the same digits, so a long cell fails in linear time.
_NUMBER = re.compile(r"[-+]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
                     r"|(?i:nan|inf|infinity))")


def _integer(least: int):
    """Reader of an integer cell in [least, 2**63); a reader's ``ValueError`` names its rule."""
    def read(text: str) -> int:
        match = _INTEGER.fullmatch(text)
        if match and least <= (value := int(match[1] + match[2])) < 2**63:
            return value
        raise ValueError(f"an integer in [{least}, 2**63)")
    return read


def _finite(text: str) -> float:
    """Reader of a finite number cell."""
    if _NUMBER.fullmatch(text) and math.isfinite(value := float(text)):
        return value
    raise ValueError("a finite number")


def _na_or_float(text: str) -> Optional[float]:
    """Reader of a reading cell, ``NA`` as None."""
    if text != NA and not _NUMBER.fullmatch(text):
        raise ValueError("a number or NA")
    return None if text == NA else float(text)


_TRAJECTORY = (("run", _integer(0)), ("evaluation count", _integer(1)), ("quality", _finite))


def _fields(line: bytes, columns: Sequence[tuple]) -> list:
    """Values of one CSV line, as ``bytes.splitlines`` gives it, read by its columns'
    ``(name, reader)`` pairs, or a ``ValueError`` saying what is wrong with the line."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError("not UTF-8 text") from None
    if not text.strip():
        raise ValueError("blank line")
    cells = text.split(",")
    if len(cells) != len(columns):
        raise ValueError(f"expected {len(columns)} cells, got {len(cells)}")
    values = []
    for (name, read), cell in zip(columns, cells):
        try:
            values.append(read(cell))
        except ValueError as exc:
            raise ValueError(f"{name} {cell!r} is not {exc}") from None
    return values


def _lines(path: Path, lines: Sequence[bytes], columns: Sequence[tuple], cause=None,
           first: int = 2):
    """Each line's :func:`_fields`, numbered from ``first``; a bad one raises
    ``path:line: <problem>``."""
    for number, line in enumerate(lines, start=first):
        try:
            values = _fields(line, columns)
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from cause
        yield values


def _flagged(rows: np.ndarray) -> np.ndarray:
    """Mask of the trajectory rows whose values the line rule rejects."""
    return (rows["evaluations"] < 1) | ~np.isfinite(rows["quality"]) | (rows["run"] < 0)


def read_trajectories(path, direction: Direction = Direction.MINIMIZATION) -> list:
    """Read a ``run,evaluations,quality`` CSV into improvement-filtered trajectories.

    Rows are grouped by run id and sorted by evaluation count; the strict
    improvement filter reduces each group to its attainment staircase. A lone
    CR and the first line :func:`_fields` flags are rejected as
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
    plain = not (rows is None or len(rows) < body.count(b"\n") + (not body.endswith(b"\n"))
                 or not body.isascii()
                 or any(byte in body for byte in b" \t\v\f\x1c\x1d\x1e\x1f")
                 or b"+" in body and _SIGNED.search(body) is not None)
    if not plain or _flagged(rows).any():
        # Row i of a plain body is its line i, and no line before the first flagged row
        # is at fault. The mask is built again rather than kept: one held through
        # _staircases raised peak RSS by about 0.7 MB on a 102k-row file. The body has
        # no lone CR, so splitlines breaks at LF and drops a CRLF's CR.
        first = int(_flagged(rows).argmax()) if plain else 0
        for _ in _lines(path, body.splitlines()[first:], _TRAJECTORY, error, first + 2):
            pass
        if rows is None:
            raise ValueError(f"{path}: {error}") from error
    return _staircases(meta, rows["run"], rows["evaluations"], rows["quality"])


def _json_points(times: np.ndarray, qualities) -> str:
    """A level's points, given its time column and an iterator that yields its rendered
    qualities, as ``json.dump(..., indent=2)`` renders them in the document."""
    if not len(times):
        return "[]"
    point = "[\n          %d,\n          %s\n        ]"
    # zip asks times first, so it takes no quality past the level's last time.
    cells = chain.from_iterable(zip(times.tolist(), qualities))
    return "[\n        " + ",\n        ".join([point] * len(times)) % tuple(cells) + "\n      ]"


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
    rendered = iter(_reprs(qualities).tolist())
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
            fh.write(f"# {label},{axis.buckets},{axis.origin!r},{axis.extent!r},{axis.scale}\n")
        fh.write(f"# runs,{histogram.runs}\n")
        fh.write("t_bucket,q_bucket,count\n")
        # One format per row keeps the body's transient tuple and text to one row's worth.
        for i, row in enumerate(histogram.counts.astype(np.int64)):
            fh.write(f"{i},%d,%d\n" * len(row) % tuple(chain.from_iterable(enumerate(row.tolist()))))
