"""Cross-run attainment analysis: trajectories, level sets, surfaces.

One optimization run is summarized by its attainment trajectory, the
staircase of (evaluation count, best quality so far) pairs recorded at each
strict improvement. A (time, quality) target is *attained* by a run when
some trajectory point weakly dominates it: reached no later, with quality no
worse. Over m runs the attained fraction is a two-dimensional cumulative
distribution on the time/quality plane; this module computes its level
sets exactly — for each count k, the minimal points attained by at least k
runs — plus scalar surface and volume statistics over nadir-bounded
regions.

All quality comparisons respect the optimization direction; time comparisons
never flip. Internally the code canonicalizes to minimization by negating
qualities, and un-negates on output.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .loggers import CellKey, Watcher
from .problems import Direction, MetaData
from .properties import TransformedYBest
from .triggers import OnImprovement


class AttainmentPoint(NamedTuple):
    """A (time, quality) target; time is an evaluation count, so >= 1."""

    time: int
    quality: float


@dataclass
class Trajectory:
    """One run's weakly non-dominated (time, quality) improvement staircase.

    Under minimization, times are strictly increasing and qualities strictly
    decreasing along :attr:`points` (mirrored for maximization).
    """

    meta: MetaData
    run: int
    points: list


@dataclass
class LevelSet:
    """Minimal points of the region attained by at least ``level`` runs."""

    level: int
    points: list
    direction: Direction = Direction.MINIMIZATION


def _minimizing(qualities, direction: Direction) -> np.ndarray:
    """Qualities as float64, negated under maximization so that smaller is
    better. Negation is exact and its own inverse, so this also maps back."""
    qualities = np.asarray(qualities, dtype=float)
    return qualities if direction is Direction.MINIMIZATION else -qualities


def _points(times: Sequence, qualities: Sequence) -> list:
    # tuple.__new__ builds the named tuples without a Python-level call each.
    return list(map(tuple.__new__, repeat(AttainmentPoint), zip(times, qualities)))


def _columns(points: Sequence) -> tuple:
    """(times, qualities) arrays of a non-empty point list."""
    times, qualities = zip(*points)
    return np.array(times), np.array(qualities, dtype=float)


def _staircases(runs, times, qualities, direction: Direction) -> list:
    """(run id, staircase) of each run in non-empty row columns, by run id: the
    run's rows in time order that strictly improve on all earlier ones, the last
    (best) of several at one time. A run with no such row is left out."""
    order = np.lexsort((times, runs))
    by_run, by_time, minimized = runs[order], times[order], _minimizing(qualities, direction)[order]
    best_before = np.empty_like(minimized)
    bounds = np.flatnonzero(by_run[1:] != by_run[:-1]) + 1
    for start, stop in zip(np.r_[0, bounds], np.r_[bounds, len(runs)]):
        best_before[start] = math.inf
        np.fmin.accumulate(minimized[start:stop - 1], out=best_before[start + 1:stop])
    kept = np.flatnonzero(minimized < best_before)
    last = np.ones(len(kept), dtype=bool)
    last[:-1] = (by_run[kept[1:]] != by_run[kept[:-1]]) | (by_time[kept[1:]] != by_time[kept[:-1]])
    kept = order[kept[last]]
    del by_run, by_time, minimized, order, best_before  # before the output: less heap fragmentation
    points = _points(times[kept].astype(np.int64).tolist(), qualities[kept].tolist())
    runs = runs[kept]
    starts = np.flatnonzero(np.r_[True, runs[1:] != runs[:-1]]).tolist()
    return [(int(runs[a]), points[a:b]) for a, b in zip(starts, starts[1:] + [len(points)])]


class TrajectoryLogger(Watcher):
    """Logger capturing one attainment trajectory per run.

    A :class:`Watcher` that fires on strict improvement of the transformed
    quality and records the (evaluation count, best so far) pair. Data is
    grouped per benchmark cell and zero-based run index; run boundaries come
    from reset notifications, so the capture loop is: evaluate, reset, repeat.
    """

    def __init__(self):
        super().__init__([OnImprovement()], [TransformedYBest()])
        self._metas: dict = {}

    def _on_attach(self, meta) -> None:
        self._metas[self._cell] = meta
        super()._on_attach(meta)

    def trajectories(self, cell: Optional[CellKey] = None) -> list:
        """Trajectories of one cell (or of all cells, cell-major, run order)."""
        if cell is None:
            return [t for c in self.cells() for t in self.trajectories(c)]
        meta = self._metas[cell]
        runs = self._cells.get(cell, {})
        return [Trajectory(meta, run, list(map(AttainmentPoint._make, events)))
                for run, events in sorted(runs.items())]


def _common_direction(directions: Iterable[Direction], what: str) -> Direction:
    directions = set(directions)
    if len(directions) != 1:
        raise ValueError(f"{what} mix optimization directions: {sorted(d.value for d in directions)}")
    return directions.pop()


def _staircase(points: Sequence, direction: Direction, label: str) -> tuple:
    """Times and minimization qualities of ``points``, checked to form a
    strict staircase of finite qualities."""
    if not points:
        raise ValueError(f"{label} has an empty trajectory")
    times, qualities = _columns(points)
    qualities = _minimizing(qualities, direction)
    broken = ~np.isfinite(qualities)
    broken[1:] |= ~((times[1:] > times[:-1]) & (qualities[1:] < qualities[:-1]))
    if broken.any():
        raise ValueError(f"{label} is not a strict staircase of finite qualities "
                         f"at point {tuple(points[int(np.argmax(broken))])}")
    return times, qualities


def _runs(trajectories: Iterable[Trajectory], caller: str) -> tuple:
    """The trajectories as a non-empty list (else a ``caller:`` error), their
    common direction and the checked :func:`_staircase` columns of each."""
    trajs = list(trajectories)
    if not trajs:
        raise ValueError(f"{caller}: empty trajectory list")
    direction = _common_direction((t.meta.direction for t in trajs), "trajectories")
    return trajs, direction, [_staircase(t.points, direction, f"run {t.run}") for t in trajs]


def eaf_levels(trajectories: Sequence[Trajectory], levels: Optional[Iterable[int]] = None) -> list:
    """Attainment level sets over a group of runs.

    For each requested level k (1 <= k <= m, defaulting to all of them),
    returns the minimal (time, quality) points attained by at least k of the
    m trajectories. Level 1 is the best-case envelope, level m the
    worst-case. The sweep walks event times in ascending order, keeps the
    runs' bests so far sorted, and emits a point for level k whenever the
    k-th of them improves; a run improving from rank r_old to r_new shifts
    only the ranks in between, so only their levels are checked.

    Points tied across runs count each contributing run once, and the
    returned level sets are nested: the region attained at level k+1 is
    contained in the region attained at level k.
    """
    trajs, direction, columns = _runs(trajectories, "eaf_levels")
    m = len(trajs)
    ks = list(range(1, m + 1)) if levels is None else sorted({int(k) for k in levels})
    bad = [k for k in ks if not 1 <= k <= m]
    if bad:
        raise ValueError(f"attainment level(s) {bad} outside [1, {m}] for {m} run(s)")

    events = sorted((t, i, q) for i, (times, qualities) in enumerate(columns)
                    for t, q in zip(times.tolist(), qualities.tolist()))
    bests = [math.inf] * m
    ranked = [math.inf] * m                     # bests, sorted
    last = [math.inf] * (m + 1)                 # last emitted quality per level
    out_times = [[] for _ in range(m + 1)]      # emitted points per level
    out_qualities = [[] for _ in range(m + 1)]
    for t, group in groupby(events, key=itemgetter(0)):
        lo, hi = m, 0
        for _, i, q in group:
            r_old = bisect_left(ranked, bests[i])
            del ranked[r_old]
            r_new = bisect_right(ranked, q)
            ranked.insert(r_new, q)
            bests[i] = q
            lo, hi = min(lo, r_new), max(hi, r_old)
        for k in ks[bisect_left(ks, lo + 1):bisect_right(ks, hi + 1)]:
            if ranked[k - 1] < last[k]:
                last[k] = ranked[k - 1]
                out_times[k].append(t)
                out_qualities[k].append(last[k])
    return [LevelSet(k, _points(out_times[k], _minimizing(out_qualities[k], direction).tolist()),
                     direction) for k in ks]


class LevelSelector:
    """Selects attainment levels by zero-based index from a trajectory logger.

    Index j maps to level k = j + 1, so with m runs the indices
    {0, m // 2, m - 1} pick the best-case, median and worst-case envelopes.
    Level sets are computed per benchmark cell, in the cell's direction;
    merge trajectories yourself and call :func:`eaf_levels` otherwise.
    """

    def __init__(self, indices: Iterable[int]):
        self.indices = sorted({int(j) for j in indices})
        if not self.indices:
            raise ValueError("no level indices given")
        if self.indices[0] < 0:
            raise ValueError("level indices are zero-based and non-negative")

    def __call__(self, logger: TrajectoryLogger) -> dict:
        out = {}
        for cell in logger.cells():
            trajs = logger.trajectories(cell)
            m = len(trajs)
            bad = [j for j in self.indices if j >= m]
            if bad:
                raise ValueError(f"level index(es) {bad} out of range: cell {cell} has {m} run(s)")
            out[cell] = eaf_levels(trajs, [j + 1 for j in self.indices])
        return out


def default_nadir(trajectories: Sequence[Trajectory]) -> AttainmentPoint:
    """Componentwise worst corner over all trajectory points.

    The time coordinate is the largest observed time; the quality coordinate
    is the worst observed quality. Every trajectory point weakly dominates
    this corner, which makes it a valid default bound for surface and
    volume statistics. The input is checked as :func:`eaf_levels` checks it.
    """
    _, direction, columns = _runs(trajectories, "default_nadir")
    # A staircase starts at its worst quality and ends at its latest time.
    worst = max(qualities[0] for _, qualities in columns)
    return AttainmentPoint(max(times[-1] for times, _ in columns).item(),
                           _minimizing(worst, direction).item())


def surface(level_set: LevelSet, nadir) -> float:
    """Area of the region dominated by the level set, clipped at the nadir.

    The region is the set of (time, quality) points weakly dominated by some
    level-set point, intersected with the box whose worst corner is
    ``nadir``; for a staircase p_1 .. p_n sorted by time this is the sum of
    the rectangles (q_nadir - q_i) * (t_{i+1} - t_i) with t_{n+1} taken as
    the nadir time, added up from left to right. The nadir must be weakly
    dominated by every level-set point.
    """
    points = sorted(level_set.points)
    if not points:
        raise ValueError("surface of an empty level set")
    times, qualities = _staircase(points, level_set.direction, "level set")
    tn, qn = nadir
    q_nadir = _minimizing(qn, level_set.direction)
    outside = ~((times <= tn) & (qualities <= q_nadir))
    if outside.any():
        p = points[int(np.argmax(outside))]
        raise ValueError(f"nadir {(tn, qn)} is not weakly dominated by level-set point {tuple(p)}")
    rectangles = (q_nadir - qualities) * np.diff(times, append=tn)
    return float(np.add.accumulate(rectangles)[-1])


def volume(level_sets: Sequence[LevelSet], nadir, normalized: bool = False) -> float:
    """Sum of the level surfaces at a common nadir, added up in order.

    With ``normalized`` the sum is divided by (number of levels) * (area of
    the box between the ideal corner and the nadir), so a single level
    filling the whole box scores 1. The ideal corner is the componentwise
    best over all points of the given level sets, which must share one direction.
    """
    sets = list(level_sets)
    if not sets:
        raise ValueError("volume of an empty level-set collection")
    direction = _common_direction((ls.direction for ls in sets), "level sets")
    total = float(np.add.accumulate([surface(ls, nadir) for ls in sets])[-1])
    if not normalized:
        return total
    columns = [_columns(ls.points) for ls in sets]
    ideal_t = min(times.min() for times, _ in columns)
    ideal_q = min(_minimizing(qualities, direction).min() for _, qualities in columns)
    tn, qn = nadir
    box = (tn - ideal_t) * (_minimizing(qn, direction) - ideal_q)
    if box <= 0:
        raise ValueError("normalization box is degenerate (nadir equals the ideal corner)")
    return float(total / (len(sets) * box))
