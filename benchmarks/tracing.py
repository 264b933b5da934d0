"""Run-time tracing of attainbench's layers, installed from outside the package.

:class:`Tracer` replaces the package's public callables with timing wrappers
while installed and puts the originals back on removal; nothing under
``src/`` is edited. Every wrapper records a span: its name, start, end and
the enclosing span. Per-evaluation spans (problem calls, triggers,
properties, logger calls) are only aggregated to a count, total and self
time per (name, parent name); the coarser spans are also kept one by one
and written out with :meth:`Tracer.dump`. A span's self time is its
duration minus the duration of its direct children.

Layer names are the modules of ``src/attainbench``; ``cli`` covers
``cli.main`` and ``cli.run_benchmark``.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

from attainbench import (attainment, cli, fileio, histogram, loggers, problems,
                         properties, solvers, triggers)
from workloads import count_lines

#: Per-layer metrics, in the order they are reported. Each is per operation.
METRICS = {
    "problems.call.count": "count",
    "problems.call.self_s": "s",
    "solvers.run.self_s": "s",
    "triggers.call.count": "count",
    "triggers.call.self_s": "s",
    "properties.call.count": "count",
    "properties.call.self_s": "s",
    "loggers.Combine.call.self_s": "s",
    "loggers.Store.call.self_s": "s",
    "loggers.Store.records": "count",
    "loggers.Store.bytes_per_record": "B/record",
    "attainment.TrajectoryLogger.call.self_s": "s",
    "attainment.TrajectoryLogger.kept_frac": "frac",
    "fileio.write_flat_files.self_s": "s",
    "fileio.write_flat_files.bytes": "B",
    "fileio.write_trajectories.self_s": "s",
    "fileio.write_histogram.self_s": "s",
    "fileio.read_trajectories.self_s": "s",
    "fileio.read_trajectories.rows": "count",
    "fileio.read_trajectories.kept_frac": "frac",
    "attainment.eaf_levels.self_s": "s",
    "attainment.eaf_levels.event_times": "count",
    "attainment.eaf_levels.points_out": "count",
    "attainment.volume.self_s": "s",
    "attainment.surface.count": "count",
    "attainment.surface.self_s": "s",
    "attainment.default_nadir.self_s": "s",
    "fileio.write_level_sets.self_s": "s",
    "fileio.write_level_sets.bytes": "B",
    "histogram.fit_discretization.self_s": "s",
    "histogram.eah.self_s": "s",
    "cli.self_s": "s",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
}

_PACKAGE_MODULES = (attainment, cli, fileio, histogram, loggers, problems,
                    properties, solvers, triggers)


def _call_methods(module, base) -> list:
    """Classes of ``module`` deriving from ``base`` that define ``__call__``."""
    return [cls for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, base) and "__call__" in vars(cls)]


class Tracer:
    """Span recorder; :meth:`install` wraps the package, :meth:`remove` unwraps it."""

    def __init__(self):
        self._patches = []   # (owner, key, original or _INHERITED)
        self._stack = []     # open spans: [name, span id or None, child seconds]
        self._next_id = 0
        self.spans = []      # coarse spans: (id, name, start, end, parent id)
        self.aggregate = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> count, total, self
        self.kept = []       # (name, args, result) of calls whose outputs are measured
        self.instances = []  # Store and TrajectoryLogger objects created while installed

    def reset(self) -> None:
        """Forget what the previous operation recorded (coarse spans are kept)."""
        self.aggregate.clear()
        self.kept.clear()
        self.instances.clear()

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, name: str, hot: bool, keep: bool = False):
        stack, aggregate, kept, spans = self._stack, self.aggregate, self.kept, self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None
            if not hot:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [name, span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                entry = aggregate[(name, parent[0] if parent else None)]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if not hot:
                    outer = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    spans.append((span_id, name, start, end, outer))
            if keep:
                kept.append((name, args, result))
            return result

        return traced

    def _observe_init(self, cls):
        original, instances = cls.__init__, self.instances

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            instances.append(obj)

        return init

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner).get(key, _INHERITED)))
            setattr(owner, key, value)

    def _replace_function(self, fn, name: str, keep: bool = False) -> None:
        """Point every package-level reference to ``fn`` at a traced wrapper."""
        traced = self._wrap(fn, name, hot=False, keep=keep)
        for module in _PACKAGE_MODULES + (sys.modules["attainbench"],):
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, key, traced)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            self._set(value, k, traced)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        methods = [("problems.call", problems.Problem, "__call__"),
                   ("loggers.Combine.call", loggers.Combine, "call"),
                   ("loggers.Store.call", loggers.Store, "call"),
                   ("attainment.TrajectoryLogger.call", attainment.TrajectoryLogger, "call")]
        methods += [("triggers.call", cls, "__call__")
                    for cls in _call_methods(triggers, triggers.Trigger)]
        methods += [("properties.call", cls, "__call__")
                    for cls in _call_methods(properties, properties.Property)]
        for name, cls, attr in methods:
            self._set(cls, attr, self._wrap(getattr(cls, attr), name, hot=True))
        for cls in (loggers.Store, attainment.TrajectoryLogger):
            self._set(cls, "__init__", self._observe_init(cls))
        for fn in (solvers.random_search, solvers.hill_climber):
            self._replace_function(fn, "solvers.run")
        for fn in (cli.main, cli.run_benchmark):
            self._replace_function(fn, "cli")
        for module, names in ((fileio, ("write_flat_files", "write_trajectories",
                                        "write_histogram", "read_trajectories",
                                        "write_level_sets")),
                              (attainment, ("eaf_levels", "volume", "surface", "default_nadir")),
                              (histogram, ("fit_discretization", "eah"))):
            for fn_name in names:
                name = f"{module.__name__.rsplit('.', 1)[1]}.{fn_name}"
                self._replace_function(getattr(module, fn_name), name, keep=name in _KEPT)

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            elif original is _INHERITED:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- per-operation metrics -------------------------------------------------

    def operation_metrics(self, wall_s: float) -> dict:
        """Layer metrics of the operation just traced, whose wall time was ``wall_s``."""
        count = defaultdict(int)
        self_s = defaultdict(float)
        roots = 0.0
        for (name, parent), (n, total, own) in self.aggregate.items():
            count[name] += n
            self_s[name] += own
            if parent is None:
                roots += total
        m = {}
        for metric in METRICS:
            span, _, kind = metric.rpartition(".")
            if kind in ("self_s", "count"):
                m[metric] = (self_s if kind == "self_s" else count)[span]

        records, record_bytes, kept_points = 0, 0.0, 0
        for obj in self.instances:
            if isinstance(obj, loggers.Store):
                runs = [(cell, run) for cell in obj.cells() for run in obj.runs(cell)]
                records += sum(len(obj.events(cell, run)) for cell, run in runs)
                if runs:
                    sample = obj.events(*runs[0])
                    record_bytes = deep_size(sample) / len(sample)
            else:
                kept_points += sum(len(t.points) for t in obj.trajectories())
        m["loggers.Store.records"] = records
        m["loggers.Store.bytes_per_record"] = record_bytes
        m["attainment.TrajectoryLogger.kept_frac"] = _ratio(
            kept_points, count["attainment.TrajectoryLogger.call"])

        rows = kept_rows = event_times = points_out = 0
        flat_bytes = level_bytes = 0
        for name, args, result in self.kept:
            if name == "fileio.read_trajectories":
                rows += _data_rows(args[0])
                kept_rows += sum(len(t.points) for t in result)
            elif name == "attainment.eaf_levels":
                event_times += len({p.time for t in args[0] for p in t.points})
                points_out += sum(len(ls.points) for ls in result)
            elif name == "fileio.write_flat_files":
                flat_bytes += sum(os.path.getsize(p) for p in result)
            elif name == "fileio.write_level_sets":
                level_bytes += os.path.getsize(args[0])
        m["fileio.read_trajectories.rows"] = rows
        m["fileio.read_trajectories.kept_frac"] = _ratio(kept_rows, rows)
        m["attainment.eaf_levels.event_times"] = event_times
        m["attainment.eaf_levels.points_out"] = points_out
        m["fileio.write_flat_files.bytes"] = flat_bytes
        m["fileio.write_level_sets.bytes"] = level_bytes
        m["trace.unattributed_frac"] = (wall_s - roots) / wall_s
        return m

    def dump(self, path, extra: dict) -> None:
        """Write the coarse spans (times relative to the first) and ``extra`` as JSON."""
        origin = min((s[2] for s in self.spans), default=0.0)
        spans = [{"id": i, "name": n, "start": s - origin, "end": e - origin, "parent": p}
                 for i, n, s, e, p in sorted(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": spans}, fh)
            fh.write("\n")


_INHERITED = object()
#: Traced functions whose arguments and results feed the per-layer counts.
_KEPT = {"fileio.write_flat_files", "fileio.read_trajectories",
         "fileio.write_level_sets", "attainment.eaf_levels"}


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


@functools.lru_cache(maxsize=8)
def _data_rows(path) -> int:
    return count_lines(path) - 1


def deep_size(obj) -> int:
    """Bytes held by ``obj`` and everything it references, each object once."""
    seen, total, todo = set(), 0, [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        if isinstance(o, dict):
            todo.extend(o.keys())
            todo.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            todo.extend(o)
        elif hasattr(o, "__dict__") and not isinstance(o, type):
            todo.append(vars(o))
    return total


def median_metrics(per_operation: list) -> dict:
    """Median of each metric over the traced operations."""
    return {name: statistics.median(m[name] for m in per_operation)
            for name in per_operation[0]}
