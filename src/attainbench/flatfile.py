"""The flat-file logger: flat run logs written as the rows fire.

:class:`FlatFile` writes through :mod:`attainbench.fileio`'s run writer and atomic
writer, and ``fileio`` gives it as ``fileio.FlatFile``, through which
:func:`~attainbench.fileio.write_flat_files` replays a store. It is a module of its own:
defined in ``fileio``, it raised the ``tracemalloc`` peak of compiling that module
from 1.35 to 1.77 MB (CPython 3.11), which a ``bench run`` with no bytecode cached pays
at import.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from .fileio import _atomic_writer, _write_run, cell_stem
from .loggers import Batch, CellKey, Logger
from .properties import Property, _quoted


class FlatFile(Logger):
    """Logger that writes the flat run log of each cell as its rows fire, keeping no
    record of them. :func:`~attainbench.fileio.write_flat_files` replays a
    :class:`~attainbench.loggers.Store` through one, so both write the same bytes of the
    same triggers and properties; this one in memory bounded by a batch.

    The rows of a batch that pass :meth:`~attainbench.loggers.Logger._gate` go to
    :meth:`_write`, which writes them by ``fileio._write_run`` to a temporary file of
    their cell, opened by ``fileio._atomic_writer`` on the cell's first such row, so a
    cell with no events writes no file; the directory is created with the logger. The
    file replaces the cell's file on ``attach`` of another cell and on :meth:`close`,
    and is removed on :meth:`abort` and on a reading the writer rejects. A cell's file
    is written once: a row for a cell whose file was closed is rejected, and the file is
    left as it is.
    """

    def __init__(self, directory, triggers: Sequence, properties: Sequence[Property] = ()):
        super().__init__(triggers, properties)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Paths of the files committed so far, in the order their cells were written.
        self.paths: list = []
        self._started: set = set()  # cells whose file was opened, the open one included
        self._open = self._path = self._writer = self._fh = None
        self._events = 0  # rows of the current run written so far

    def _on_attach(self, meta) -> None:
        if self._cell != self._open:
            self._end()

    def _on_reset(self) -> None:
        self._events = 0

    def _on_call(self, batch: Batch) -> None:
        columns = self._gate(batch)
        if columns:
            self._write(self._cell, self.current_run, self._events, columns)
            self._events += len(columns[0])

    def _write(self, cell: CellKey, run: int, start: int, columns: Sequence[Sequence]) -> None:
        """Write ``columns``, the counts and then the readings per property of ``run`` of
        ``cell`` from event ``start`` on, opening the cell's temporary file and writing its
        header if no file is open. A cell whose file was opened before is rejected, and
        on any error the open file is removed."""
        try:
            if self._writer is None:
                path = self.directory / f"{cell_stem(cell)}.csv"
                if cell in self._started:
                    raise ValueError(f"{path}: the flat file of {_quoted(cell)} is closed, and a "
                                     "FlatFile writes each cell's file once")
                writer = _atomic_writer(path, "flat file")
                self._fh = writer.__enter__()
                self._open, self._path, self._writer = cell, path, writer
                self._started.add(cell)
                self._fh.write(",".join(["run", "event", "evaluations", *self.property_names])
                               + "\n")
            _write_run(self._fh, self._path, run, start, self.property_names, columns)
        except BaseException as exc:
            self._end(exc)
            raise

    def _end(self, error: Optional[BaseException] = None) -> None:
        """Commit the open file, or remove it when ``error`` ends it."""
        writer, path = self._writer, self._path
        self._open = self._path = self._writer = self._fh = None
        self._events = 0
        if writer is not None and error is None:
            writer.__exit__(None, None, None)
            self.paths.append(path)
        elif writer is not None:
            writer.__exit__(type(error), error, error.__traceback__)

    def close(self) -> None:
        """Commit the open cell's file; the logger writes no further row of that cell."""
        self._end()

    def abort(self) -> None:
        """Remove the open cell's temporary file, leaving the cell's earlier file, if any,
        in place; the logger writes no further row of that cell."""
        self._end(RuntimeError("flat file aborted"))
