"""The flat-file logger: flat run logs written as the rows fire.

:class:`FlatFile` writes through :mod:`attainbench.fileio`'s run writer and atomic
writer, and ``fileio`` gives it as ``fileio.FlatFile``. It is a module of its own:
defined in ``fileio``, it raised the ``tracemalloc`` peak of compiling that module
from 1.35 to 1.77 MB (CPython 3.11), which a ``bench run`` with no bytecode cached pays
at import.
"""

from __future__ import annotations

from itertools import compress
from pathlib import Path
from typing import Optional, Sequence

from .fileio import _atomic_writer, _write_run, cell_stem
from .loggers import Batch, Gated
from .properties import Property


class FlatFile(Gated):
    """Logger that writes the flat run log of each cell as its rows fire, keeping no
    record of them: the bytes :func:`~attainbench.fileio.write_flat_files` writes of a
    :class:`~attainbench.loggers.Store` with the same triggers and properties, in
    memory bounded by a batch.

    A batch passes the gate a :class:`~attainbench.loggers.Watcher` records through,
    and its rows that fire are written by ``fileio._write_run`` to a temporary file of
    their cell, opened by ``fileio._atomic_writer`` on the cell's first such row, so a
    cell with no events writes no file. The file replaces the cell's file on
    ``attach`` of another cell and on :meth:`close`, and is removed on :meth:`abort`
    and on a reading the writer rejects. A cell's file is written once: a row for a
    cell whose file was closed is rejected, and the file is left as it is.
    """

    def __init__(self, directory, triggers: Sequence, properties: Sequence[Property] = ()):
        super().__init__(triggers, properties)
        self.directory = Path(directory)
        #: Paths of the files committed so far, in the order their cells were written.
        self.paths: list = []
        self._started: set = set()  # cells whose file was opened, the open one included
        self._open = self._path = self._writer = self._fh = None
        self._events = 0  # rows of the current run written so far

    def _on_attach(self, meta) -> None:
        super()._on_attach(meta)
        if self._cell != self._open:
            self._end()

    def _on_reset(self) -> None:
        super()._on_reset()
        self._events = 0

    def _on_call(self, batch: Batch) -> None:
        gated = self._gate(batch)
        if gated:
            fired, readings = gated
            columns = [list(compress(c, fired)) for c in (batch.evaluations, *readings)]
            try:
                if self._writer is None:
                    self._start()
                _write_run(self._fh, self._path, self.current_run, self._events,
                           self.property_names, columns)
            except BaseException as exc:
                self._end(exc)
                raise
            self._events += len(columns[0])

    def _start(self) -> None:
        """Open the current cell's temporary file and write its header; a cell whose file
        was opened before is rejected."""
        path = self.directory / f"{cell_stem(self._cell)}.csv"
        if self._cell in self._started:
            raise ValueError(f"{path}: the flat file of {self._cell} is closed, and a "
                             "FlatFile writes each cell's file once")
        self.directory.mkdir(parents=True, exist_ok=True)
        writer = _atomic_writer(path, "flat file")
        self._fh = writer.__enter__()
        self._open, self._path, self._writer = self._cell, path, writer
        self._started.add(self._cell)
        self._fh.write(",".join(["run", "event", "evaluations", *self.property_names]) + "\n")

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
