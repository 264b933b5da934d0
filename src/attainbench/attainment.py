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
never flip. The kernels work on columns canonicalized to minimization by
negating qualities where points enter, and un-negate only on output.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .loggers import CellKey, Watcher
from .problems import Direction, MetaData, _as_direction
from .properties import TransformedYBest, _as_whole, _quoted, _real, _whole
from .triggers import OnImprovement

#: Distinct event times per block of the :func:`eaf_levels` sweep.
_BLOCK = 256


class AttainmentPoint(NamedTuple):
    """A (time, quality) target; time is an evaluation count, so >= 1."""

    time: int
    quality: float


class _Staircase:
    """Points held either as a list or as checked columns, int64 times and float64
    qualities negated under maximization, never both, so an edit of the list is what
    the next kernel reads. A kernel checks the list into columns; ingest and
    :func:`eaf_levels` pass ``_columns`` that are strict by construction instead.
    Reading ``points`` rebuilds the list from the columns, which drops them."""

    def _view(self) -> list:
        if self._points is None:
            times, qualities = self._columns
            self._assign(list(map(AttainmentPoint._make,
                                  zip(times.tolist(), self._leave(qualities).tolist()))))
        return self._points

    def _assign(self, points) -> None:
        self._points, self._columns = points, None

    points = property(_view, _assign)

    def _leave(self, qualities: np.ndarray) -> np.ndarray:
        return _minimizing(qualities, self._direction)

    def _checked(self) -> tuple:
        """(times, minimized qualities), checked from ``points`` unless held already."""
        if self._columns is None:
            self._columns, self._points = _check(self._points, self._direction, self._label), None
        return self._columns


@dataclass
class Trajectory(_Staircase):
    """One run's weakly non-dominated (time, quality) improvement staircase.

    Under minimization, times are strictly increasing and qualities strictly
    decreasing along :attr:`points` (mirrored for maximization).
    """

    meta: MetaData
    run: int
    points: list = field()
    _columns: tuple = field(default=None, kw_only=True, repr=False, compare=False)

    _direction = property(lambda self: self.meta.direction)
    _label = property(lambda self: f"run {_quoted(self.run)}")


@dataclass
class LevelSet(_Staircase):
    """Minimal points of the region attained by at least ``level`` runs. The direction
    is stored as :func:`~attainbench.problems._as_direction` reads it."""

    level: int
    points: list = field()
    direction: Direction = Direction.MINIMIZATION
    _columns: tuple = field(default=None, kw_only=True, repr=False, compare=False)

    _direction = property(lambda self: self.direction)
    _label = "level set"

    def __post_init__(self):
        self.direction = _as_direction(self.direction)

    def _leave(self, qualities: np.ndarray) -> np.ndarray:
        # 0.0 and -0.0 tie, so which one the sweep keeps is arbitrary: a level set has 0.0.
        return super()._leave(qualities) + 0.0


def _minimizing(qualities, direction: Direction) -> np.ndarray:
    """Qualities as float64, negated under maximization so that smaller is
    better. Negation is exact and its own inverse, so this also maps back."""
    qualities = np.asarray(qualities, dtype=float)
    return qualities if direction is Direction.MINIMIZATION else -qualities


def _pair(point) -> tuple:
    """The (time, quality) of a point, the time as an ``int``; a time that :func:`_whole`
    rejects from 1 on reads 0, a quality that :func:`_real` rejects NaN, and a point that
    is not a pair ``(0, nan)``, so that :func:`_check` flags each of them."""
    try:
        time, quality = point
    except (TypeError, ValueError):
        return 0, math.nan
    return int(time) if _whole(time, 1) else 0, quality if _real(quality) else math.nan


def _check(points: Sequence, direction: Direction, label: str) -> tuple:
    """``points``, each a (time, quality) pair, as int64 times and minimized qualities,
    checked to form a strict staircase of finite qualities at times that :func:`_whole`
    takes from 1 on."""
    pairs = list(map(_pair, points))
    t = np.array([time for time, _ in pairs], dtype=np.int64)
    qualities = _minimizing([quality for _, quality in pairs], direction)
    broken = (t < 1) | ~np.isfinite(qualities)
    broken[1:] |= ~((t[1:] > t[:-1]) & (qualities[1:] < qualities[:-1]))
    if broken.any():
        point = points[int(np.argmax(broken))]
        raise ValueError(f"{label} is not a strict staircase of finite qualities at integral "
                         f"times in [1, 2**63), at point "
                         f"{_quoted(tuple(point) if np.iterable(point) else point)}")
    return t, qualities


def _improving(runs, times, minimized) -> tuple:
    """The rows that strictly improve on every earlier row of their run, the last (best)
    of several at one time, as (runs, times, minimized) columns in order of run id, then
    time. Rows at one time count as earlier in the order they are given, so the first
    row to reach a quality is the one kept. ``minimized`` are the rows' qualities
    canonicalized to minimization."""
    order = np.lexsort((times, runs))
    by_run, ordered = runs[order], minimized[order]
    best_before = np.empty_like(ordered)
    bounds = (np.flatnonzero(by_run[1:] != by_run[:-1]) + 1).tolist()
    for start, stop in zip([0, *bounds], [*bounds, len(runs)]):
        best_before[start] = math.inf
        np.fmin.accumulate(ordered[start:stop - 1], out=best_before[start + 1:stop])
    kept = order[ordered < best_before]
    del order, by_run, ordered, best_before
    runs, times, minimized = runs[kept], times[kept], minimized[kept]
    last = np.append((runs[1:] != runs[:-1]) | (times[1:] != times[:-1]), True)
    return runs[last], times[last], minimized[last]


def _staircases(meta: MetaData, runs, times, minimized) -> list:
    """Trajectories of the columns that :func:`_improving` keeps, one per run id."""
    starts = np.flatnonzero(np.r_[True, runs[1:] != runs[:-1]]).tolist()
    return [Trajectory(meta, int(runs[a]), None, _columns=(times[a:b], minimized[a:b]))
            for a, b in zip(starts, starts[1:] + [len(runs)])]


class TrajectoryLogger(Watcher):
    """Logger capturing one attainment trajectory per run.

    A :class:`Watcher` that fires on strict improvement of the transformed
    quality and records the (evaluation count, best so far) pair. Data is
    grouped per benchmark cell and zero-based run index; run boundaries come
    from reset notifications, so the capture loop is: evaluate, reset, repeat.
    """

    def __init__(self):
        super().__init__([OnImprovement()], [TransformedYBest()])

    def trajectories(self, cell: Optional[CellKey] = None) -> list:
        """Trajectories of one cell (or of all cells, cell-major, run order)."""
        if cell is None:
            return [t for c in self.cells() for t in self.trajectories(c)]
        meta = self._metas[cell]
        return [Trajectory(meta, run, list(map(AttainmentPoint, *self.recorded(cell, run))))
                for run in self.runs(cell)]


def _common_direction(directions: Iterable[Direction], what: str) -> Direction:
    directions = set(directions)
    if len(directions) != 1:
        raise ValueError(f"{what} mix optimization directions: {sorted(d.value for d in directions)}")
    return directions.pop()


def _runs(trajectories: Iterable[Trajectory], caller: str) -> tuple:
    """The trajectories as a non-empty list (else a ``caller:`` error), their
    common direction and the checked, non-empty columns of each."""
    trajs = list(trajectories)
    if not trajs:
        raise ValueError(f"{caller}: empty trajectory list")
    direction = _common_direction((t.meta.direction for t in trajs), "trajectories")
    columns = []
    for traj in trajs:
        columns.append(traj._checked())
        if not len(columns[-1][0]):
            raise ValueError(f"{traj._label} has an empty trajectory")
    return trajs, direction, columns


def _bounds(columns) -> tuple:
    """(earliest time, latest time, best quality, worst quality) of checked staircase
    columns, each running from its earliest, worst point to its latest, best one."""
    return (min(t[0] for t, _ in columns), max(t[-1] for t, _ in columns),
            min(q[-1] for _, q in columns), max(q[0] for _, q in columns))


def eaf_levels(trajectories: Sequence[Trajectory], levels: Optional[Iterable[int]] = None) -> list:
    """Attainment level sets over a group of runs.

    For each requested level k (1 <= k <= m, defaulting to all of them),
    returns the minimal (time, quality) points attained by at least k of the
    m trajectories. Level 1 is the best-case envelope, level m the
    worst-case. The sweep takes the distinct event times in blocks: a block's
    rows hold every run's best so far at each of its times, the first row
    carrying the bests from before the block; sorting each row gives the k-th
    best at each time, and level k gets a point wherever that strictly drops.

    Points tied across runs count each contributing run once, and the
    returned level sets are nested: the region attained at level k+1 is
    contained in the region attained at level k.
    """
    trajs, direction, columns = _runs(trajectories, "eaf_levels")
    m = len(trajs)
    ks = list(range(1, m + 1)) if levels is None else list(levels)
    bad = [k for k in ks if not (_whole(k, 1) and k <= m)]
    if bad:
        raise ValueError(f"attainment level(s) {_quoted(bad)} outside [1, {m}] for {m} run(s)")
    ks = sorted(set(map(int, ks)))

    times = np.concatenate([t for t, _ in columns])
    order = np.argsort(times, kind="stable")
    times = times[order]
    first = np.r_[True, times[1:] != times[:-1]]
    event_times, rows = times[first], np.cumsum(first) - 1
    runs = np.repeat(np.arange(m), [len(t) for t, _ in columns])[order]
    qualities = np.concatenate([q for _, q in columns])[order]
    starts = range(0, len(event_times), _BLOCK)
    bounds = np.searchsorted(rows, [*starts, len(event_times)]).tolist()
    picked, carry, found = np.array(ks, dtype=np.intp) - 1, np.full(m, math.inf), []
    for start, a, b in zip(starts, bounds, bounds[1:]):
        bests = np.full((min(_BLOCK, len(event_times) - start) + 1, m), math.inf)
        bests[0] = carry
        bests[rows[a:b] - start + 1, runs[a:b]] = qualities[a:b]
        np.minimum.accumulate(bests, axis=0, out=bests)
        carry = bests[-1].copy()
        bests.sort(axis=1)
        ranked = bests[:, picked]
        level, row = np.nonzero((ranked[1:] < ranked[:-1]).T)  # by level, then time
        found.append((level, event_times[start + row], ranked[row + 1, level]))
    level, point_times, point_quals = (np.concatenate(column) for column in zip(*found))
    order = np.argsort(level, kind="stable")
    splits = np.searchsorted(level[order], np.arange(1, len(ks)))
    return [LevelSet(k, None, direction, _columns=columns) for k, columns in zip(
        ks, zip(np.split(point_times[order], splits), np.split(point_quals[order], splits)))]


class LevelSelector:
    """Selects attainment levels by zero-based index from a trajectory logger.

    Index j maps to level k = j + 1, so with m runs the indices
    {0, m // 2, m - 1} pick the best-case, median and worst-case envelopes.
    Level sets are computed per benchmark cell, in the cell's direction;
    merge trajectories yourself and call :func:`eaf_levels` otherwise.
    """

    def __init__(self, indices: Iterable[int]):
        self.indices = sorted({_as_whole("level index", j, 0) for j in indices})
        if not self.indices:
            raise ValueError("no level indices given")

    def __call__(self, logger: TrajectoryLogger) -> dict:
        return {cell: self.select(logger.trajectories(cell), f"cell {cell}")
                for cell in logger.cells()}

    def select(self, trajectories: Sequence[Trajectory], owner) -> list:
        """Level sets of the selected indices over the trajectories that ``owner`` holds;
        an index that is not below their number is rejected, naming ``owner``."""
        m = len(trajectories)
        bad = [j for j in self.indices if j >= m]
        if bad:
            raise ValueError(f"level index(es) {_quoted(bad)} out of range: {owner} has {m} run(s)")
        return eaf_levels(trajectories, [j + 1 for j in self.indices])


def default_nadir(trajectories: Sequence[Trajectory]) -> AttainmentPoint:
    """Componentwise worst corner over all trajectory points.

    The time coordinate is the largest observed time; the quality coordinate
    is the worst observed quality. Every trajectory point weakly dominates
    this corner, which makes it a valid default bound for surface and
    volume statistics. The input is checked as :func:`eaf_levels` checks it.
    """
    _, direction, columns = _runs(trajectories, "default_nadir")
    _, t_hi, _, worst = _bounds(columns)
    return AttainmentPoint(t_hi.item(), _minimizing(worst, direction).item())


def _nadir_pair(nadir) -> list:
    """``nadir`` as a list of two Python numbers, an integer as an ``int`` and any other
    real as a ``float``. Both coordinates must be finite reals that :func:`_real` takes;
    else a ``ValueError`` names the nadir, one that is not iterable included."""
    point = tuple(nadir) if np.iterable(nadir) else ()
    if len(point) != 2 or not all(map(_real, point)):
        raise ValueError(f"nadir {_quoted(nadir)} is not two finite real numbers")
    return [int(c) if isinstance(c, numbers.Integral) else float(c) for c in point]


def surface(level_set: LevelSet, nadir) -> float:
    """Area of the region dominated by the level set, clipped at the nadir.

    The region is the set of (time, quality) points weakly dominated by some
    level-set point, intersected with the box whose worst corner is
    ``nadir``; for a staircase p_1 .. p_n sorted by time this is the sum of
    the rectangles (q_nadir - q_i) * (t_{i+1} - t_i) with t_{n+1} taken as
    the nadir time, added up from left to right. The level set must be such
    a staircase, and the nadir two finite reals (:func:`_nadir_pair`) weakly
    dominated by every point.
    """
    times, qualities = level_set._checked()
    if not len(times):
        raise ValueError("surface of an empty level set")
    tn, qn = _nadir_pair(nadir)
    q_nadir = _minimizing(qn, level_set.direction)
    outside = ~((times <= tn) & (qualities <= q_nadir))
    if outside.any():
        p = level_set.points[int(np.argmax(outside))]
        raise ValueError(f"nadir {_quoted((tn, qn))} is not weakly dominated by level-set "
                         f"point {_quoted(tuple(p))}")
    rectangles = (q_nadir - qualities) * np.diff(times, append=tn)
    return float(np.add.accumulate(rectangles)[-1])


def volume(level_sets: Sequence[LevelSet], nadir, normalized: bool = False) -> float:
    """Sum of the level surfaces at a common nadir, added up in order.

    With ``normalized`` the sum is divided by (number of levels) * (area of
    the box between the ideal corner and the nadir), so a single level
    filling the whole box scores 1. The ideal corner is the componentwise
    best over all points of the given level sets, which must share one direction.
    The level sets and the nadir are checked as :func:`surface` checks them.
    """
    sets = list(level_sets)
    return _volume(sets, (surface(ls, nadir) for ls in sets), nadir, normalized)


def _volume(sets: list, surfaces: Iterable[float], nadir, normalized: bool) -> float:
    """:func:`volume` of ``sets`` whose surfaces at ``nadir`` are ``surfaces``, in
    the same order. They are read only once the sets pass the checks."""
    if not sets:
        raise ValueError("volume of an empty level-set collection")
    direction = _common_direction((ls.direction for ls in sets), "level sets")
    total = float(np.add.accumulate(list(surfaces))[-1])
    if not normalized:
        return total
    ideal_t, _, ideal_q, _ = _bounds([ls._checked() for ls in sets])
    tn, qn = _nadir_pair(nadir)
    # The time side as an exact int: a nadir time past int64 overflows an int64 difference.
    box = (tn - int(ideal_t)) * (_minimizing(qn, direction) - ideal_q)
    if box <= 0:
        raise ValueError("normalization box is degenerate (nadir equals the ideal corner)")
    return float(total / (len(sets) * box))
