"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the production algorithms: attainment is
counted by direct dominance scans over raw points, minimal elements are
extracted from a coordinate grid, and areas are estimated by Monte-Carlo
hit counting. Agreement with the library is therefore evidence, not an
identity.
"""

from __future__ import annotations

import math
from itertools import compress
from pathlib import Path

import numpy as np

from attainbench.attainment import AttainmentPoint, Trajectory
from attainbench.fileio import NA, cell_stem
from attainbench.loggers import Batch, CellKey, Store
from attainbench.problems import Direction, MetaData

MIN = Direction.MINIMIZATION
MAX = Direction.MAXIMIZATION


def batch_of(*rows):
    """The batch whose rows are the given ``LogInfo`` rows, in order."""
    return Batch(*zip(*rows)) if rows else Batch((), (), (), (), ())


def improvement_count(values, direction):
    """Number of strict running-best improvements in a value sequence."""
    best = math.inf if direction is MIN else -math.inf
    count = 0
    for v in values:
        if (v < best) if direction is MIN else (v > best):
            best = v
            count += 1
    return count


def attain_count(runs_points, t, q, direction):
    """How many runs have a point reached no later than t with quality no worse than q."""
    count = 0
    for points in runs_points:
        for pt, pq in points:
            quality_ok = (pq <= q) if direction is MIN else (pq >= q)
            if pt <= t and quality_ok:
                count += 1
                break
    return count


def weakly_dominates(a, b):
    """True iff (time, quality) point ``a`` is no later and no worse than ``b``, minimizing."""
    return a[0] <= b[0] and a[1] <= b[1]


def attain_counts_grid(runs_points, direction):
    """Attainment counts at every observed-coordinate grid point.

    Returns (times ascending, qualities best-first, counts[i][j]).
    """
    times = sorted({p[0] for pts in runs_points for p in pts})
    best_first = sorted({p[1] for pts in runs_points for p in pts},
                        reverse=(direction is MAX))
    counts = [[attain_count(runs_points, t, q, direction) for q in best_first]
              for t in times]
    return times, best_first, counts


def minimal_from_grid(times, best_first, counts, level):
    """Minimal points of the region counted at >= level, from the counts grid.

    A grid point is minimal when it is attained but its earlier-time and
    better-quality neighbours are not; the attainment function only changes
    at observed coordinates, so all minimal points lie on the grid.
    """
    points = []
    for i, t in enumerate(times):
        for j, q in enumerate(best_first):
            if counts[i][j] >= level \
                    and (i == 0 or counts[i - 1][j] < level) \
                    and (j == 0 or counts[i][j - 1] < level):
                points.append((t, q))
    return sorted(points)


def eaf_levels_bruteforce(runs_points, level, direction):
    times, best_first, counts = attain_counts_grid(runs_points, direction)
    return minimal_from_grid(times, best_first, counts, level)


def eah_bruteforce(runs_points, discretization, direction):
    """Per-cell attainment counts against each cell's representative point."""
    t_axis, q_axis = discretization.time, discretization.quality
    clamped = []
    for points in runs_points:
        row = []
        for t, q in points:
            t = min(max(t, t_axis.origin), t_axis.origin + t_axis.extent)
            q = min(max(q, q_axis.origin), q_axis.origin + q_axis.extent)
            row.append((t, q))
        clamped.append(row)
    return [[attain_count(clamped, rt, rq, direction) for rq in q_axis.representatives]
            for rt in t_axis.representatives]


def surface_monte_carlo(points, nadir, direction, samples, rng):
    """Monte-Carlo estimate of the dominated area inside the nadir box."""
    tn, qn = nadir
    t0 = min(p[0] for p in points)
    if direction is MIN:
        q_lo, q_hi = min(p[1] for p in points), qn
    else:
        q_lo, q_hi = qn, max(p[1] for p in points)
    ts = rng.uniform(t0, tn, samples)
    qs = rng.uniform(q_lo, q_hi, samples)
    hit = np.zeros(samples, dtype=bool)
    for pt, pq in points:
        if direction is MIN:
            hit |= (ts >= pt) & (qs >= pq)
        else:
            hit |= (ts >= pt) & (qs <= pq)
    return (tn - t0) * (q_hi - q_lo) * hit.mean()


def random_staircases(rng, m=None, max_points=8, coord_max=20, direction=MIN):
    """Random strict-staircase point lists with integer coordinates."""
    if m is None:
        m = int(rng.integers(1, 6))
    runs = []
    for _ in range(m):
        k = int(rng.integers(1, max_points + 1))
        times = sorted(rng.choice(np.arange(1, coord_max + 1), size=k, replace=False).tolist())
        quals = sorted(rng.choice(np.arange(1, coord_max + 1), size=k, replace=False).tolist(),
                       reverse=(direction is MIN))
        runs.append([(int(t), float(q)) for t, q in zip(times, quals)])
    return runs


def as_trajectories(runs_points, direction, suite="oracle"):
    meta = MetaData(suite, 1, 1, 1, direction)
    return [Trajectory(meta, i, [AttainmentPoint(int(t), float(q)) for t, q in pts])
            for i, pts in enumerate(runs_points)]


def improvement_staircase_rowwise(pairs, direction):
    """Row-by-row strict-improvement filter, frozen from the pre-array implementation.

    Rows are taken in time order (ties in input order); a row is kept if it
    strictly improves the running best, replacing an earlier kept point at
    the same time.
    """
    points = []
    best = math.inf if direction is MIN else -math.inf
    for t, q in sorted(pairs, key=lambda row: row[0]):
        q = float(q)
        if (q < best) if direction is MIN else (q > best):
            best = q
            point = AttainmentPoint(int(t), q)
            if points and points[-1].time == point.time:
                points[-1] = point
            else:
                points.append(point)
    return points


def surface_sequential(points, nadir, direction):
    """Staircase area summed rectangle by rectangle, frozen from the pre-array loop.

    ``points`` must be a strict staircase weakly dominating ``nadir``.
    """
    sign = 1.0 if direction is MIN else -1.0
    points = sorted(points)
    tn, qn = nadir
    area = 0.0
    for i, (t, q) in enumerate(points):
        t_next = points[i + 1][0] if i + 1 < len(points) else tn
        area += (sign * qn - sign * q) * (t_next - t)
    return area


class TrajectoryLoggerFrozen:
    """Per-run improvement staircases, frozen from the logger that kept its own
    improvement gate, run indices and cell -> run grouping.

    The gate fires when ``transformed_y`` strictly improves on the best seen
    since the last attach or reset; a firing event records
    ``(evaluations, transformed_y_best)`` under the attached cell and its
    current run. Every reset advances the run of the attached cell.
    """

    def __init__(self):
        self._meta = None
        self._run_index = {}
        self._best = None
        self._metas = {}
        self._points = {}

    def _cell(self):
        m = self._meta
        return (m.suite_name, m.problem_id, m.dimension, m.instance)

    def attach(self, meta):
        self._meta = meta
        self._run_index.setdefault(self._cell(), 0)
        self._metas[self._cell()] = meta
        self._best = None

    def call(self, info):
        if self._meta is None:
            raise RuntimeError("call() before attach()")
        direction = self._meta.direction
        best = self._best if self._best is not None else direction.worst
        if direction.better(info.transformed_y, best):
            self._best = info.transformed_y
            runs = self._points.setdefault(self._cell(), {})
            point = AttainmentPoint(int(info.evaluations), float(info.transformed_y_best))
            runs.setdefault(self._run_index[self._cell()], []).append(point)

    def reset(self):
        if self._meta is not None:
            self._run_index[self._cell()] += 1
        self._best = None

    def cells(self):
        return sorted(self._points)

    def trajectories(self, cell):
        runs = self._points.get(cell, {})
        return [Trajectory(self._metas[cell], run, list(points))
                for run, points in sorted(runs.items())]


class StoreFrozen(Store):
    """A store keeping one ``(evaluations, *readings)`` tuple per event, frozen
    from the store before it kept one list per column."""

    def __init__(self, triggers, properties=()):
        super().__init__(triggers, properties)
        self._events = {}

    def _on_call(self, batch):
        fired = self.trigger(batch, self._meta)
        if True in fired:
            runs = self._events.setdefault(self._cell, {})
            runs.setdefault(self._run_index[self._cell], []).extend(compress(
                zip(batch.evaluations, *[p(batch) for p in self.properties]), fired))

    def cells(self):
        return sorted(self._events)

    def runs(self, cell):
        return sorted(self._events.get(cell, ()))

    def events(self, cell, run):
        return list(self._events.get(cell, {}).get(run, ()))

    def at(self, cursor, prop):
        name = prop if isinstance(prop, str) else prop.name
        cell = CellKey(cursor.suite_name, cursor.problem_id, cursor.dimension, cursor.instance)
        events = self._events.get(cell, {}).get(cursor.run)
        if not events or not 0 <= cursor.event_index < len(events):
            return None
        event = events[cursor.event_index]
        if name == "evaluations":
            return float(event[0])
        names = self.property_names
        return event[names.index(name) + 1] if name in names else None


def hill_climber_per_step(problem, budget, rng):
    """The hill climber drawing each step as it takes it, frozen from the solver
    before it drew its steps in blocks."""
    if budget < 1:
        return
    direction = problem.meta.direction
    best_x = (rng.integers(0, 2, size=problem.meta.dimension) if problem.domain == "boolean"
              else rng.uniform(problem.lower, problem.upper, size=problem.meta.dimension))
    best_y = problem(best_x)
    d = problem.meta.dimension
    for _ in range(budget - 1):
        if problem.domain == "boolean":
            candidate = best_x.copy()
            flip = rng.integers(0, d)
            candidate[flip] ^= 1
        else:
            candidate = np.clip(best_x + rng.normal(0.0, 0.3, size=d),
                                problem.lower, problem.upper)
        y = problem(candidate)
        if direction.better(y, best_y):
            best_x, best_y = candidate, y


def write_flat_files_per_row(store, directory):
    """The flat-file writer that renders each event's cells one at a time, frozen
    from the writer before it rendered whole columns."""
    def render(value):
        return NA if value is None else repr(float(value))

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = ",".join(["run", "event", "evaluations", *store.property_names])
    paths = []
    for cell in store.cells():
        path = directory / f"{cell_stem(cell)}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\n")
            for run in store.runs(cell):
                for index, (count, *readings) in enumerate(store.events(cell, run)):
                    cells = [str(run), str(index), str(count), *map(render, readings)]
                    fh.write(",".join(cells) + "\n")
        paths.append(path)
    return paths
