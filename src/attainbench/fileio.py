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
    :class:`FlatFile` writes each cell's file as its rows fire, keeping no record of
    them, and :func:`write_flat_files` replays the cells a :class:`Store` recorded
    through one; it writes a run through :func:`_write_run`, which walks each
    column of a piece of at most :data:`_FLAT_BLOCK` rows once, checking each reading's
    type and rendering it with ``float.__repr__``, once per run of one reading object.

Trajectory files
    CSV with header ``run,evaluations,quality``, one row per recorded
    evaluation. Rows need not be improvement-filtered: ingestion applies
    the same strict-improvement filter trajectory capture uses. Runs are
    integers >= 0, counts integers >= 1 and qualities finite numbers. The
    reader holds one block of lines and the rows that can still improve,
    not the whole file, and cuts again only the kept runs within the range of a
    block's run ids.

Level-set export
    A JSON object with group metadata, the nadir in use, and ``levels``,
    an array of ``{level, points: [[time, quality], ...]}``. Each distinct
    time and quality is rendered once, and a level's points are joined into
    its text at once.

Histogram export
    CSV body ``t_bucket,q_bucket,count`` preceded by ``#`` comment lines
    recording buckets, origin, extent and scale per axis. Each bucket index
    is rendered once, each distinct count once per block of grid rows, and a
    block's lines are assembled in numpy and written at once.

Every writer replaces its target atomically, from a temporary file of its own
created beside it, so a failure mid-write leaves the earlier file in place.
Both CSV readers count lines by LF, accept CRLF line endings, reject a CR that
no LF follows and name the first line that :func:`_fields` flags; the
trajectory reader does so block by block, so a fault in an earlier block is
named before a lone CR in a later one. Their cells and every ``bench``
integer and number flag take one grammar: integers
in ASCII digits with an optional ``-``, below 2**63, and numbers as ``float``
reads them from ASCII with no ``_`` or padding. An integer read from text
then meets the rule every count, index and id given as an object meets,
:func:`~attainbench.properties._whole`: at least its column's least value
and below 2**63, compared exactly. A finite number read from text meets the
rule every quality, nadir coordinate and axis bound given as an object meets,
:func:`~attainbench.properties._real`, and so does the span of a ``lo:hi`` flag.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass
from itertools import chain, count
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .attainment import (LevelSet, Trajectory, _common_direction, _improving, _minimizing,
                         _nadir_pair, _runs, _staircases)
from .histogram import Histogram
from .loggers import Store
from .problems import Direction, MetaData
from .properties import Property, _as_whole, _check_distinct, _quoted, _real, _whole

#: Token standing in for an absent reading in delimited files.
NA = "NA"


#: Numbers this process's temporary files, so that no two open writers share one.
_TMP_IDS = count()


@contextlib.contextmanager
def _atomic_writer(path: Path, what: str):
    """Text handle on a temporary file of its own beside ``path``, created exclusively,
    that replaces ``path`` only once fully written; on any error it is removed instead."""
    try:
        while True:
            # A str, not a Path: pathlib interns every name it parses, and each is new.
            tmp = os.path.join(path.parent, f".{path.name}.{os.getpid()}.{next(_TMP_IDS)}.tmp")
            with contextlib.suppress(FileExistsError):
                fh = open(tmp, "x", encoding="utf-8", newline="")
                break
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {what} {path}: {exc}") from exc


def cell_stem(cell) -> str:
    """``<suite>_f<problem>_d<dimension>_i<instance>``, the start of every per-cell file name."""
    return f"{cell.suite_name}_f{cell.problem_id}_d{cell.dimension}_i{cell.instance}"


#: Rows of one run that :func:`_write_run` checks, renders and writes at a time. It
#: bounds the writer's transient strings and tuples, which add to the peak memory of a run.
_FLAT_BLOCK = 256


def _table(keys: np.ndarray, render, dtype=object) -> tuple:
    """The distinct values of ``keys`` in order, and the texts ``render`` makes of them
    as an array of ``dtype``: each distinct value is rendered once."""
    # np.unique would also hold a flat copy of keys. The sort is a stable argsort, whose
    # kernel eaf_levels pages in already: the default int64 sort raised peak RSS by about
    # 0.25 MB, and np.sort(kind="stable") paged in 64 KB of code that nothing else runs.
    ordered = np.take(keys, np.argsort(keys, axis=None, kind="stable"))
    distinct = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    del ordered  # so that it does not add to the peak of rendering
    return distinct, np.array(render(distinct), dtype=dtype)


def _texts(table: tuple, keys: np.ndarray) -> np.ndarray:
    """The texts of a :func:`_table` that holds every value of ``keys``, each value read
    as the table's dtype, in ``keys``' shape."""
    distinct, texts = table
    return texts[np.searchsorted(distinct, keys.view(distinct.dtype))]


def _float_reprs(bits: np.ndarray) -> list:
    """``repr`` of each float64 whose bits ``bits`` holds as int64, the shortest decimal
    text that reads back to the same bits."""
    return list(map(repr, bits.view(np.float64).tolist()))


def _rendered(path: Path, run: int, start: int, names: Sequence[str],
              block: Sequence[Sequence]) -> list:
    """The texts of ``block``, the columns of ``run`` from event ``start`` on, one list
    per column: ``None`` as :data:`NA` and a ``float`` as ``float.__repr__`` gives it,
    the shortest text that reads back to its bits. A reading that is the object before
    it takes that object's text, so a run of one object is checked and rendered once.
    Any other reading is rejected, the first in property then event order, naming the
    file, run, event and property."""
    texts = []
    for name, column in zip(names, block):
        rendered, previous, text = [], None, NA
        for reading in column:
            if reading is not previous:
                if reading is not None and not isinstance(reading, float):
                    # The first occurrence of an object is the one checked; list.index
                    # would find an equal reading before it, as 1.0 for 1 or True.
                    event = start + next(i for i, r in enumerate(column) if r is reading)
                    raise ValueError(f"{path}: run {run}, event {event}: property "
                                     f"{_quoted(name)} reading {_quoted(reading)} is not a "
                                     "float or None")
                # float.__repr__, not repr: a float subclass or np.float64 has its own.
                previous, text = reading, NA if reading is None else float.__repr__(reading)
            rendered.append(text)
        texts.append(rendered)
    return texts


def _write_run(fh, path: Path, run: int, start: int, names: Sequence[str],
               columns: Sequence[Sequence]) -> None:
    """Write ``columns``, the counts and then the readings per property of ``run`` from
    event ``start`` on, as lines of the flat file at ``path``, :data:`_FLAT_BLOCK` rows
    at a time, each piece rendered by :func:`_rendered` before any of it is written."""
    counts, *readings = columns
    line = f"{run},%d,%d" + ",%s" * len(readings) + "\n"
    for first in range(0, len(counts), _FLAT_BLOCK):
        last = min(first + _FLAT_BLOCK, len(counts))
        # The slices are freed before the piece's text is formatted.
        texts = _rendered(path, run, start + first, names, [c[first:last] for c in readings])
        rows = zip(range(start + first, start + last), counts[first:last], *texts)
        fh.write(line * (last - first) % tuple(chain.from_iterable(rows)))


def write_flat_files(store: Store, directory) -> list:
    """Write one CSV per benchmark cell recorded in the store; returns the written paths,
    in cell order. The store's runs are replayed through a :class:`FlatFile` of its
    properties, cell by cell, so the bytes are those the logger writes as the rows
    fire. A reading that is not a ``float`` or ``None`` is rejected, and its cell's file
    not written; the files of the cells before it stay."""
    flat = FlatFile(directory, (), store.properties)
    for cell in store.cells():
        for run in store.runs(cell):
            flat._write(cell, run, 0, store.recorded(cell, run))
        flat.close()
    return flat.paths


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
        raise ValueError(f"{path}: not a flat run log (header {_quoted(header)})")
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
    """Contents of the ``what`` at ``path``, checked by :func:`_check_crs`."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise OSError(f"cannot read {what} {path}: {exc}") from exc
    _check_crs(path, data, 1)
    return data


def _check_crs(path: Path, data: bytes, first: int) -> None:
    """Reject a CR in ``data`` that no LF follows, naming its line as counted by LF
    alone, from ``first`` for the line ``data`` starts."""
    if b"\r" in data and (lone := re.search(rb"\r(?!\n)", data)):
        line = data.count(b"\n", 0, lone.start()) + first
        raise ValueError(f"{path}:{line}: carriage return without a line feed after it")


def write_trajectories(path, trajectories: Sequence[Trajectory]) -> None:
    """Write trajectories as a ``run,evaluations,quality`` CSV. They are checked as
    :func:`~attainbench.attainment.eaf_levels` checks them, and their run ids as the
    reader reads them, once each, so each trajectory reads back as written."""
    trajs, _, columns = _runs(trajectories, "write_trajectories")
    runs = [_as_whole("write_trajectories: run", traj.run, 0) for traj in trajs]
    seen = set()
    for run in runs:
        if run in seen:
            raise ValueError(f"write_trajectories: run {run} appears more than once")
        seen.add(run)
    with _atomic_writer(Path(path), "trajectory file") as fh:
        fh.write("run,evaluations,quality\n")
        for run, traj, (times, qualities) in zip(runs, trajs, columns):
            fh.writelines(f"{run},{time},{quality!r}\n" for time, quality
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
                     r"|(?i:nan|inf|infinity))", re.ASCII)


def _integer(least: int):
    """Reader of an integer cell in [least, 2**63); a reader's ``ValueError`` names its rule."""
    def read(text: str) -> int:
        match = _INTEGER.fullmatch(text)
        if match and _whole(value := int(match[1] + match[2]), least):
            return value
        raise ValueError(f"an integer in [{least}, 2**63)")
    return read


def _finite(text: str) -> float:
    """Reader of a finite number cell: text that :data:`_NUMBER` matches, read by ``float``
    into a value that :func:`~attainbench.properties._real` takes."""
    if _NUMBER.fullmatch(text) and _real(value := float(text)):
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
    ``(name, reader)`` pairs, or a ``ValueError`` saying what is wrong with the line and
    quoting a bad cell by :func:`~attainbench.properties._quoted`."""
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
            raise ValueError(f"{name} {_quoted(cell)} is not {exc}") from None
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


#: Bytes a trajectory file is read in, each block extended to the end of its last line.
_READ_BLOCK = 1 << 18


def _blocks(path: Path):
    """The trajectory file at ``path`` as blocks of whole lines, each :data:`_READ_BLOCK`
    bytes and the rest of the line they end in. A block is yielded, not bound, so the
    generator holds no block while the caller works on it."""
    try:
        with open(path, "rb") as fh:
            while True:
                yield fh.read(_READ_BLOCK) + fh.readline()
                if not fh.peek(1):
                    return
    except OSError as exc:
        raise OSError(f"cannot read trajectory file {path}: {exc}") from exc


def read_trajectories(path, direction: Direction = Direction.MINIMIZATION) -> list:
    """Read a ``run,evaluations,quality`` CSV into improvement-filtered trajectories.

    Rows are grouped by run id and sorted by evaluation count; the strict
    improvement filter reduces each group to its attainment staircase. The
    file is read in blocks of whole lines (see :data:`_READ_BLOCK`), and every
    block takes one path: :func:`~attainbench.attainment._improving` cuts it to
    its strictly improving rows, and from the second block on :func:`_union`
    cuts again the union of those rows with the rows kept so far. A row beaten in
    its block is beaten in the file and the first row to reach each running best
    is kept, so after the last block the kept rows are the file's filter, and
    memory holds one block and the rows that can still improve. Blocks are
    checked in file order: a lone CR and the first line :func:`_fields` flags
    are rejected as ``path:line``, and a body numpy cannot read for any other
    reason as ``path``, so of several faults in different blocks the first
    block's is named. The trajectories carry placeholder metadata with the
    given direction, read as :class:`~attainbench.problems.Direction` reads it, so
    ``"min"`` is minimization and ``"up"`` a ``ValueError``.
    """
    path, direction = Path(path), Direction(direction)
    kept, first = None, 1
    for block in _blocks(path):
        _check_crs(path, block, first)
        if first == 1:
            header, _, block = block.partition(b"\n")
            if header.rstrip(b"\r") != b"run,evaluations,quality":
                header = header.decode(errors="replace")
                raise ValueError(f"{path}: not a trajectory file (header {_quoted(header)})")
            first = 2
        if not block:
            continue
        # About 6x as fast as block.count(b"\n"), which takes about 1 ns a byte.
        lines = int(np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n")))
        rows = _block_rows(path, block, first, lines)
        first += lines
        del block  # so that its bytes do not add to the peak of the cut
        cut = _improving(rows["run"], rows["evaluations"], _minimizing(rows["quality"], direction))
        kept = cut if kept is None else _union(kept, cut)
    if kept is None:
        raise ValueError(f"{path}: no trajectory rows")
    return _staircases(MetaData("file", 1, 1, 1, direction), *kept)


def _union(kept: tuple, cut: tuple) -> tuple:
    """The rows kept so far with a block's cut, as :func:`_improving` would cut their
    union, these first. Only the kept runs whose ids lie in the range of the cut's are
    cut again: any other run is strict already, and its rows sort before or after."""
    a = np.searchsorted(kept[0], cut[0][0])
    b = np.searchsorted(kept[0], cut[0][-1], "right")
    recut = _improving(*(np.concatenate((k[a:b], c)) for k, c in zip(kept, cut)))
    return tuple(np.concatenate((k[:a], r, k[b:])) for k, r in zip(kept, recut))


def _block_rows(path: Path, body: bytes, first: int, lines: int) -> np.ndarray:
    """The trajectory rows of ``body``, whole lines numbered from ``first`` and holding
    ``lines`` LFs, checked by the line rule where numpy fails or a check finds them
    suspect."""
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
    plain = not (rows is None or len(rows) < lines + (not body.endswith(b"\n"))
                 or not body.isascii()
                 or any(byte in body for byte in b" \t\v\f\x1c\x1d\x1e\x1f")
                 or b"+" in body and _SIGNED.search(body) is not None)
    if not plain or (flagged := _flagged(rows)).any():
        # Row i of a plain body is its line i, and no line before the first flagged row
        # is at fault. The body has no lone CR, so splitlines breaks at LF and drops a
        # CRLF's CR.
        start = int(flagged.argmax()) if plain else 0
        for _ in _lines(path, body.splitlines()[start:], _TRAJECTORY, error, first + start):
            pass
        if rows is None:
            raise ValueError(f"{path}: {error}") from error
    return rows


def _json_points(times: list, qualities: list) -> str:
    """A level's points, given as their time and quality texts, as ``json.dump(...,
    indent=2)`` renders them in the document."""
    if not times:
        return "[]"
    # One join of a list of known size: joining a text per point was twice as slow and,
    # in one measured loop of analyze-raw operations, left the C heap 1.5 MB larger.
    cells = [None, ",\n          ", None, "\n        ],\n        [\n          "] * len(times)
    cells[0::4], cells[2::4], cells[-1] = times, qualities, "\n        ]\n      ]"
    return "[\n        [\n          " + "".join(cells)


def write_level_sets(path, level_sets: Sequence[LevelSet], nadir,
                     group: Optional[dict] = None) -> None:
    """Write level sets as JSON with group metadata and the nadir used.

    The bytes are those of ``json.dump(document, fh, indent=2)`` plus a final
    newline; the levels are formatted directly, one at a time, from the texts of
    every distinct time and quality, each rendered once. Level sets are
    checked as :func:`~attainbench.attainment.surface` checks them, but may be empty,
    each level by :func:`~attainbench.properties._whole` from 1, their directions to be
    one, and the nadir by :func:`~attainbench.attainment._nadir_pair`, all before the file
    is opened. No level set at all writes a ``null`` direction.
    """
    sets = list(level_sets)
    columns = [ls._checked() for ls in sets]
    levels = [_as_whole("level", ls.level, 1) for ls in sets]
    direction = (_common_direction((ls.direction for ls in sets), "level sets").value
                 if sets else None)
    times = _table(np.concatenate([t for t, _ in columns] or [np.empty(0, np.int64)]),
                   lambda distinct: list(map(str, distinct.tolist())))
    qualities = _table(np.concatenate([ls._leave(q) for ls, (_, q) in zip(sets, columns)]
                                      or [[]]).view(np.int64), _float_reprs)
    head = json.dumps({
        "group": dict(group or {}),
        "direction": direction,
        "nadir": _nadir_pair(nadir),
    }, indent=2)
    with _atomic_writer(Path(path), "level sets") as fh:
        fh.write(head[:-2] + ',\n  "levels": [')
        for n, (ls, level, (t, q)) in enumerate(zip(sets, levels, columns)):
            points = _json_points(_texts(times, t).tolist(),
                                  _texts(qualities, ls._leave(q)).tolist())
            fh.write(f'{"," if n else ""}\n    {{\n      "level": {level},\n'
                     f'      "points": {points}\n    }}')
        fh.write("\n  ]\n}\n" if sets else "]\n}\n")


#: Cells of the grid that :func:`write_histogram` assembles and writes at a time, in
#: whole grid rows and at least one. It bounds the writer's transient arrays to a block,
#: not the grid, whatever the number of quality buckets.
_HIST_CELLS = 6400


def write_histogram(path, histogram: Histogram) -> None:
    """Write a histogram as CSV with a ``#`` header block describing the axes. The body
    is assembled in blocks of whole grid rows, at most :data:`_HIST_CELLS` cells or one
    row each, from tables of bucket and count texts, each distinct one rendered once.

    Before the file is opened the histogram is checked: ``runs`` by
    :func:`~attainbench.properties._whole` from 0, and ``counts`` to be an integer
    array of shape (time buckets, quality buckets) whose every count is in [0, runs].
    A ``ValueError`` names the shape, the dtype, ``runs`` or the first bad cell."""
    disc = histogram.discretization
    counts, runs = np.asarray(histogram.counts), _as_whole("histogram runs", histogram.runs, 0)
    shape = (disc.time.buckets, disc.quality.buckets)
    if counts.shape != shape or counts.dtype.kind not in "iu":
        raise ValueError(f"histogram counts are {counts.dtype} of shape {counts.shape}, "
                         f"not integers of shape {shape}")
    # Two reductions allocate nothing, where a mask of the grid would add to the peak.
    if counts.min() < 0 or counts.max() > runs:
        t, q = divmod(int(((counts < 0) | (counts > runs)).argmax()), shape[1])
        raise ValueError(f"histogram count {counts[t, q]} at (t_bucket, q_bucket) = ({t}, {q}) "
                         f"is not in [0, {runs}]")
    ts, qs = (np.array([b"%d," % i for i in range(n)], dtype=bytes) for n in shape)
    with _atomic_writer(Path(path), "histogram") as fh:
        fh.write("# axis,buckets,origin,extent,scale\n")
        for label, axis in (("time", disc.time), ("quality", disc.quality)):
            fh.write(f"# {label},{axis.buckets},{axis.origin!r},{axis.extent!r},{axis.scale}\n")
        fh.write(f"# runs,{runs}\n")
        fh.write("t_bucket,q_bucket,count\n")
        rows = max(1, _HIST_CELLS // len(qs))
        for start in range(0, len(counts), rows):
            block = counts[start:start + rows].astype(np.int64, copy=False)
            cs = _texts(_table(block, lambda d: [b"%d\n" % c for c in d.tolist()], bytes), block)
            # Bucket and count texts side by side in fixed-width fields, row after row.
            slots = np.empty(block.shape, [("t", ts.dtype), ("q", qs.dtype), ("c", cs.dtype)])
            slots["t"], slots["q"], slots["c"] = ts[start:start + len(block), None], qs, cs
            # No text holds a NUL, so dropping the padding of the fixed-width fields is exact.
            fh.write(slots.tobytes().translate(None, b"\0").decode("ascii"))


# Last, since flatfile builds on this module's writers: ``fileio.FlatFile`` is the logger
# that write_flat_files replays a store through.
from .flatfile import FlatFile  # noqa: E402
