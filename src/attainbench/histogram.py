"""Attainment histograms: level sets bucketed onto a fixed grid.

Where exact level sets track every distinct (time, quality) trade-off, the
histogram discretizes both axes into a fixed number of buckets and counts,
per cell, how many runs attain the cell's representative point. Each axis
maps a value y in [v, v+l] to a bucket edge: the lower edge on a linear
axis, the upper edge on a log axis (whose buckets grow geometrically in
1 + (y - v)).

Representatives are precomputed once per axis and bucket lookup is a binary
search over those exact floats, so discretization is idempotent in floating
point: an edge always falls back onto itself.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .attainment import Trajectory, _columns, _common_direction, _minimizing, _staircase

SCALES = ("linear", "log")


class Axis:
    """One histogram axis: bucket count, origin, extent and scale."""

    def __init__(self, buckets: int, origin: float, extent: float, scale: str = "linear"):
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        if not extent > 0:
            raise ValueError(f"extent must be positive, got {extent}")
        if scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
        self.buckets = int(buckets)
        self.origin = float(origin)
        self.extent = float(extent)
        self.scale = scale
        if scale == "linear":
            width = self.extent / self.buckets
            self.representatives = [self.origin + i * width for i in range(self.buckets)]
        else:
            step = math.log1p(self.extent) / self.buckets
            self.representatives = [math.expm1((i + 1) * step) + self.origin
                                    for i in range(self.buckets)]

    @property
    def top(self) -> float:
        return self.origin + self.extent

    def bucket_index(self, y: float, clamp: bool = True) -> int:
        """Bucket of ``y``; out-of-range values clamp into the boundary
        buckets, or are rejected when ``clamp`` is off. The in-range top
        boundary y = origin + extent always folds into the last bucket."""
        if not clamp and not self.origin <= y <= self.top:
            raise ValueError(f"value {y!r} outside axis range [{self.origin}, {self.top}]")
        if self.scale == "linear":
            i = bisect.bisect_right(self.representatives, y) - 1
        else:
            i = bisect.bisect_left(self.representatives, y)
        return min(max(i, 0), self.buckets - 1)

    def discretize(self, y: float, clamp: bool = True) -> float:
        """Representative edge of y's bucket (lower if linear, upper if log)."""
        return self.representatives[self.bucket_index(y, clamp)]

    def __repr__(self) -> str:
        return (f"Axis(buckets={self.buckets}, origin={self.origin}, "
                f"extent={self.extent}, scale={self.scale!r})")


def discretize_linear(y: float, axis: Axis) -> float:
    """Lower bucket edge of y on a linear axis; y must lie in [v, v+l]."""
    if axis.scale != "linear":
        raise ValueError(f"axis scale is {axis.scale!r}, expected 'linear'")
    return axis.discretize(y, clamp=False)


def discretize_log(y: float, axis: Axis) -> float:
    """Upper bucket edge of y on a log axis; y must lie in [v, v+l]."""
    if axis.scale != "log":
        raise ValueError(f"axis scale is {axis.scale!r}, expected 'log'")
    return axis.discretize(y, clamp=False)


@dataclass(frozen=True)
class Discretization:
    """Two-axis bucketing of the (time, quality) plane."""

    time: Axis
    quality: Axis


def fit_discretization(trajectories: Sequence[Trajectory],
                       buckets: Tuple[int, int] = (20, 20),
                       scales: Tuple[str, str] = ("linear", "linear")) -> Discretization:
    """Axes spanning the trajectories' bounding box.

    Origins are the observed minima and extents the observed spans, so no
    point falls outside the grid; a degenerate span (all values equal) is
    widened to 1 to keep the extent positive. Non-finite coordinates are
    rejected.
    """
    points = [p for t in trajectories for p in t.points]
    if not points:
        raise ValueError("cannot fit a discretization to empty trajectories")
    times, quals = _columns(points)
    infinite = ~(np.isfinite(times) & np.isfinite(quals))
    if infinite.any():
        raise ValueError(f"cannot fit a discretization to the non-finite point "
                         f"{tuple(points[int(np.argmax(infinite))])}")
    t_span = times.max() - times.min()
    q_span = quals.max() - quals.min()
    return Discretization(
        Axis(buckets[0], times.min(), t_span if t_span > 0 else 1.0, scales[0]),
        Axis(buckets[1], quals.min(), q_span if q_span > 0 else 1.0, scales[1]),
    )


@dataclass(eq=False)
class Histogram:
    """Per-cell attainment counts over a discretization grid.

    ``counts[i, j]`` is the number of runs attaining the representative
    point (time axis bucket i, quality axis bucket j); it never exceeds
    :attr:`runs` and is monotone non-decreasing toward the worse corner of
    the grid.
    """

    discretization: Discretization
    counts: np.ndarray
    runs: int


def eah(trajectories: Sequence[Trajectory], discretization: Discretization,
        clamp: bool = True) -> Histogram:
    """Attainment histogram of a group of runs.

    For every grid cell, counts the runs with a trajectory point weakly
    dominating the cell's representative (time edge, quality edge) point.
    With ``clamp`` (the default), trajectory points outside the grid's box
    are clamped into the boundary buckets; otherwise such points are
    rejected.
    """
    trajs = list(trajectories)
    if not trajs:
        raise ValueError("eah: empty trajectory list")
    direction = _common_direction(trajs)
    columns = [_staircase(t.points, direction, f"run {t.run}") for t in trajs]

    t_axis, q_axis = discretization.time, discretization.quality
    reps_t = np.asarray(t_axis.representatives)
    reps_q = _minimizing(q_axis.representatives, direction)
    q_lo, q_hi = np.sort(_minimizing([q_axis.origin, q_axis.top], direction))
    counts = np.zeros((t_axis.buckets, q_axis.buckets), dtype=int)

    for traj, (times, quals) in zip(trajs, columns):
        clipped = np.clip(times, t_axis.origin, t_axis.top), np.clip(quals, q_lo, q_hi)
        outside = (clipped[0] != times) | (clipped[1] != quals)
        if not clamp and outside.any():
            raise ValueError(f"run {traj.run}: point {tuple(traj.points[int(np.argmax(outside))])} "
                             f"outside the histogram box and clamping is disabled")
        times, quals = clipped
        # Best quality attained by each time representative: trajectories are
        # time-sorted with improving quality, so it is the quality of the last
        # point no later than the representative.
        idx = np.searchsorted(times, reps_t, side="right") - 1
        best = np.where(idx >= 0, quals[np.maximum(idx, 0)], math.inf)
        counts += best[:, None] <= reps_q[None, :]
    return Histogram(discretization, counts, len(trajs))
