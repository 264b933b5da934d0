"""Attainment histograms: level sets bucketed onto a fixed grid.

Where exact level sets track every distinct (time, quality) trade-off, the
histogram discretizes both axes into a fixed number of buckets and counts,
per cell, how many runs attain the cell's representative point. Each axis
maps a value y in [v, v+l] to a bucket edge: the lower edge on a linear
axis, the upper edge on a log axis (whose buckets grow geometrically in
1 + (y - v)). A value outside the axis clamps into the boundary bucket, and
NaN has no bucket.

Representatives are precomputed once per axis and bucket lookup is a binary
search over those exact floats, so discretization is idempotent in floating
point: an edge always falls back onto itself.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .attainment import Trajectory, _bounds, _minimizing, _runs
from .properties import _as_whole, _quoted, _real

SCALES = ("linear", "log")


class Axis:
    """One histogram axis: bucket count, origin, extent and scale.

    The bucket count meets :func:`~attainbench.properties._whole` from 1 on. The origin
    and the extent are finite reals that :func:`~attainbench.properties._real` takes,
    the extent above 0, and are stored as ``float``; else a ``ValueError`` names them.
    """

    def __init__(self, buckets: int, origin: float, extent: float, scale: str = "linear"):
        self.buckets = _as_whole("buckets", buckets, 1)
        if not (_real(origin) and _real(extent) and extent > 0):
            raise ValueError(f"need a finite origin and extent > 0, got {_quoted(origin)}, "
                             f"{_quoted(extent)}")
        if scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}, got {_quoted(scale)}")
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

    def bucket_index(self, y: float) -> int:
        """Bucket of ``y``; out-of-range values clamp into the boundary
        buckets, and the top boundary y = origin + extent folds into the last
        bucket. NaN has no bucket."""
        if math.isnan(y):
            raise ValueError("NaN has no bucket")
        if self.scale == "linear":
            i = bisect.bisect_right(self.representatives, y) - 1
        else:
            i = bisect.bisect_left(self.representatives, y)
        return min(max(i, 0), self.buckets - 1)

    def discretize(self, y: float) -> float:
        """Representative edge of y's bucket (lower if linear, upper if log)."""
        return self.representatives[self.bucket_index(y)]

    def __repr__(self) -> str:
        return (f"Axis(buckets={self.buckets}, origin={self.origin}, "
                f"extent={self.extent}, scale={self.scale!r})")


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
    widened to 1 to keep the extent positive. ``buckets`` and ``scales`` must each
    be a pair, a tuple or list of two, time's first; else a ``ValueError`` names the
    argument. The input is checked as :func:`~attainbench.attainment.eaf_levels`
    checks it.
    """
    for name, pair in (("buckets", buckets), ("scales", scales)):
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
            raise ValueError(f"fit_discretization: {name} must be a (time, quality) pair, "
                             f"got {_quoted(pair)}")
    _, direction, columns = _runs(trajectories, "fit_discretization")
    t_lo, t_hi, best, worst = _bounds(columns)
    q_lo, q_hi = np.sort(_minimizing([best, worst], direction))
    t_span, q_span = t_hi - t_lo, q_hi - q_lo
    return Discretization(
        Axis(buckets[0], t_lo, t_span if t_span > 0 else 1.0, scales[0]),
        Axis(buckets[1], q_lo, q_span if q_span > 0 else 1.0, scales[1]),
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


def eah(trajectories: Sequence[Trajectory], discretization: Discretization) -> Histogram:
    """Attainment histogram of a group of runs.

    For every grid cell, counts the runs with a trajectory point weakly
    dominating the cell's representative (time edge, quality edge) point.
    Trajectory points outside the grid's box are clamped into the boundary
    buckets. Memory is one count per grid cell, whatever the number of runs.
    """
    trajs, direction, columns = _runs(trajectories, "eah")

    t_axis, q_axis = discretization.time, discretization.quality
    reps_t = np.asarray(t_axis.representatives)
    reps_q = _minimizing(q_axis.representatives, direction)
    q_lo, q_hi = np.sort(_minimizing([q_axis.origin, q_axis.top], direction))
    order = np.argsort(reps_q, kind="stable")
    ascending, rows = reps_q[order], np.arange(t_axis.buckets)
    # One count per grid cell and none per run: at each time representative a run adds
    # one at the first quality representative, in ascending order, that it attains (the
    # last column if none), and a sum along the quality axis counts it at each worse one.
    counts = np.zeros((t_axis.buckets, q_axis.buckets + 1), dtype=np.intp)
    for times, quals in columns:
        # The best quality a run attains by a time representative is that of its last
        # point no later than it: trajectories are time-sorted with improving quality.
        idx = np.searchsorted(np.clip(times, t_axis.origin, t_axis.top), reps_t, side="right") - 1
        best = np.where(idx >= 0, np.clip(quals, q_lo, q_hi)[np.maximum(idx, 0)], math.inf)
        counts[rows, np.searchsorted(ascending, best)] += 1
    np.cumsum(counts, axis=1, out=counts)
    counts = counts[:, np.argsort(order)]
    return Histogram(discretization, counts, len(trajs))
