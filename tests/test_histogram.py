"""Attainment histograms: grid counting against the brute-force oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attainbench.attainment import AttainmentPoint, Trajectory, default_nadir, eaf_levels
from attainbench.histogram import Axis, Discretization, eah, fit_discretization
from attainbench.problems import Direction, MetaData

from oracles import as_trajectories, eah_bruteforce, random_staircases
from test_equivalence import staircase_groups

MIN = Direction.MINIMIZATION
MAX = Direction.MAXIMIZATION

RUNS_AB = [[(1, 10.0), (3, 5.0)], [(2, 8.0), (4, 2.0)]]


def test_two_run_reference_histogram_on_log_axes():
    trajs = as_trajectories(RUNS_AB, MIN)
    disc = fit_discretization(trajs, buckets=(2, 2), scales=("log", "log"))
    assert disc.time.representatives == pytest.approx([2.0, 4.0])
    assert disc.quality.representatives == pytest.approx([4.0, 10.0])
    hist = eah(trajs, disc)
    assert hist.counts.tolist() == [[0, 2], [1, 2]]
    assert hist.runs == 2


def test_two_run_reference_histogram_on_linear_axes():
    trajs = as_trajectories(RUNS_AB, MIN)
    disc = fit_discretization(trajs, buckets=(2, 2))
    # lower-edge representatives (1, 2.5) x (2, 6) are attained by nobody:
    # by evaluation 2.5 the best qualities are 10 and 8
    assert eah(trajs, disc).counts.tolist() == [[0, 0], [0, 0]]
    assert eah(trajs, disc).counts.tolist() == eah_bruteforce(RUNS_AB, disc, MIN)


def test_single_point_at_the_best_corner_fills_the_grid():
    trajs = as_trajectories([[(1, 5.0)]], MIN)
    disc = Discretization(Axis(3, 1.0, 9.0), Axis(3, 5.0, 9.0))
    assert eah(trajs, disc).counts.tolist() == [[1, 1, 1]] * 3


def test_single_interior_point():
    trajs = as_trajectories([[(5, 7.0)]], MIN)
    disc = Discretization(Axis(3, 1.0, 9.0), Axis(3, 5.0, 9.0))
    assert eah(trajs, disc).counts.tolist() == [[0, 0, 0], [0, 0, 0], [0, 1, 1]]


def test_counts_never_exceed_the_run_count():
    rng = np.random.default_rng(41)
    runs = random_staircases(rng, m=5)
    trajs = as_trajectories(runs, MIN)
    hist = eah(trajs, fit_discretization(trajs, buckets=(6, 6)))
    assert hist.counts.max() <= 5 and hist.counts.min() >= 0


def test_counts_are_monotone_toward_the_worse_corner():
    rng = np.random.default_rng(43)
    for direction in (MIN, MAX):
        runs = random_staircases(rng, m=4, direction=direction)
        trajs = as_trajectories(runs, direction)
        counts = eah(trajs, fit_discretization(trajs, buckets=(5, 7))).counts
        assert (np.diff(counts, axis=0) >= 0).all()  # later time never loses runs
        quality_diffs = np.diff(counts, axis=1)
        if direction is MIN:
            assert (quality_diffs >= 0).all()  # larger quality = worse = easier
        else:
            assert (quality_diffs <= 0).all()  # larger quality = better = harder


@pytest.mark.parametrize("direction", [MIN, MAX])
@pytest.mark.parametrize("scale", ["linear", "log"])
@pytest.mark.parametrize("buckets", [(1, 3), (4, 4), (7, 2)])
def test_matches_bruteforce_oracle(direction, scale, buckets):
    rng = np.random.default_rng(47)
    for _ in range(10):
        runs = random_staircases(rng, direction=direction)
        trajs = as_trajectories(runs, direction)
        disc = fit_discretization(trajs, buckets=buckets, scales=(scale, scale))
        assert eah(trajs, disc).counts.tolist() == eah_bruteforce(runs, disc, direction)


# Integer qualities on an axis whose representatives are those integers: runs
# tie with each other and with the cells they are counted against.
@settings(max_examples=200, deadline=None)
@given(group=staircase_groups(max_points=5, max_time=6, qualities=st.integers(0, 4).map(float)))
def test_matches_bruteforce_oracle_when_runs_tie(group):
    direction, runs = group
    disc = Discretization(Axis(6, 1.0, 6.0), Axis(5, 0.0, 5.0))
    assert eah(as_trajectories(runs, direction), disc).counts.tolist() == \
        eah_bruteforce(runs, disc, direction)


def with_times(points):
    """One minimization trajectory of raw (time, quality) points, bad ones included."""
    return [Trajectory(MetaData("oracle", 1, 1, 1, MIN), 0, [AttainmentPoint(*p) for p in points])]


class TestClamping:
    DISC = Discretization(Axis(2, 2.0, 2.0), Axis(2, 4.0, 4.0))

    def test_out_of_box_points_clamp_to_the_boundary(self):
        runs = [[(1, 3.0)]]  # earlier and better than the whole box
        hist = eah(as_trajectories(runs, MIN), self.DISC)
        assert hist.counts.tolist() == [[1, 1], [1, 1]]
        assert hist.counts.tolist() == eah_bruteforce(runs, self.DISC, MIN)


class TestValidation:
    @pytest.mark.parametrize("point", [(3, math.inf), (3, -math.inf), (3, math.nan)])
    def test_fit_rejects_non_finite_coordinates(self, point):
        trajs = as_trajectories([[(1, 10.0), point]], MIN)
        with pytest.raises(ValueError, match="finite qualities"):
            fit_discretization(trajs)

    @pytest.mark.parametrize("arguments, name", [
        ({"buckets": (20, 20, 20)}, "buckets"), ({"buckets": (20,)}, "buckets"),
        ({"buckets": 20}, "buckets"), ({"scales": "log"}, "scales"),
        ({"scales": "lo"}, "scales"), ({"scales": ("log",) * 3}, "scales")])
    def test_fit_requires_buckets_and_scales_to_be_pairs(self, arguments, name):
        trajs = as_trajectories(RUNS_AB, MIN)
        message = (f"fit_discretization: {name} must be a (time, quality) pair, "
                   f"got {arguments[name]!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_discretization(trajs, **arguments)

    def test_empty_inputs_are_rejected(self):
        with pytest.raises(ValueError, match="empty trajectory list"):
            eah([], Discretization(Axis(2, 0.0, 1.0), Axis(2, 0.0, 1.0)))
        with pytest.raises(ValueError, match="empty trajectory"):
            eah(as_trajectories([[]], MIN), Discretization(Axis(2, 0.0, 1.0), Axis(2, 0.0, 1.0)))

    def test_non_staircase_input_is_rejected(self):
        bad = as_trajectories([[(1, 5.0), (2, 6.0)]], MIN)
        with pytest.raises(ValueError, match="strict staircase"):
            eah(bad, Discretization(Axis(2, 0.0, 9.0), Axis(2, 0.0, 9.0)))

    @pytest.mark.parametrize("trajectories", [
        [],
        as_trajectories([[(1, 5.0)], []], MIN),
        as_trajectories([[(1, 5.0), (2, 5.0)]], MIN),
        as_trajectories([[(1, 5.0), (2, math.nan)]], MIN),
        as_trajectories([[(1, 5.0), (2, -math.inf)]], MIN),
        as_trajectories([[(1, 5.0)]], MIN) + as_trajectories([[(2, 3.0)]], MAX),
        with_times([(math.nan, 5.0)]),
        with_times([(1, 5.0), (math.inf, 3.0)]),
        with_times([(2.5, 5.0)]),
        with_times([(0, 5.0)]),
    ], ids=["no runs", "empty run", "not a staircase", "nan", "inf", "mixed directions",
            "nan time", "inf time", "2.5 time", "0 time"])
    def test_every_statistic_rejects_bad_input_alike(self, trajectories):
        disc = Discretization(Axis(2, 0.0, 9.0), Axis(2, 0.0, 9.0))
        statistics = {"eaf_levels": eaf_levels, "eah": lambda t: eah(t, disc),
                      "default_nadir": default_nadir, "fit_discretization": fit_discretization}
        messages = set()
        for name, statistic in statistics.items():
            with pytest.raises(ValueError) as error:
                statistic(trajectories)
            messages.add(str(error.value).removeprefix(f"{name}: "))
        assert len(messages) == 1, messages


class TestFitDiscretization:
    def test_axes_span_the_data(self):
        disc = fit_discretization(as_trajectories(RUNS_AB, MIN))
        assert (disc.time.origin, disc.time.extent) == (1.0, 3.0)
        assert (disc.quality.origin, disc.quality.extent) == (2.0, 8.0)
        assert disc.time.buckets == disc.quality.buckets == 20

    def test_degenerate_spans_are_widened(self):
        disc = fit_discretization(as_trajectories([[(3, 4.0)]], MIN))
        assert disc.time.extent == disc.quality.extent == 1.0

    def test_scales_are_passed_through(self):
        disc = fit_discretization(as_trajectories(RUNS_AB, MIN), scales=("log", "linear"))
        assert (disc.time.scale, disc.quality.scale) == ("log", "linear")

    def test_empty_input_is_rejected(self):
        with pytest.raises(ValueError):
            fit_discretization([])
