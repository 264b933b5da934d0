"""Axis bucketing: edge mapping, boundaries, exact idempotence."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from attainbench.histogram import Axis, Discretization


class TestLinearAxis:
    def test_maps_to_the_lower_bucket_edge(self):
        axis = Axis(10, 0.0, 10.0)
        assert axis.discretize(3.7) == 3.0
        assert axis.discretize(3.0) == 3.0
        assert axis.discretize(9.999) == 9.0

    def test_origin_maps_to_itself(self):
        axis = Axis(4, -2.0, 8.0)
        assert axis.discretize(-2.0) == -2.0

    def test_top_boundary_folds_into_the_last_bucket(self):
        axis = Axis(10, 0.0, 10.0)
        assert axis.discretize(10.0) == 9.0

    def test_representatives_are_evenly_spaced_lower_edges(self):
        axis = Axis(4, 1.0, 2.0)
        assert axis.representatives == [1.0, 1.5, 2.0, 2.5]
        assert axis.top == 3.0


class TestLogAxis:
    def test_single_bucket_maps_everything_to_the_top(self):
        axis = Axis(1, 0.0, math.e - 1.0, scale="log")
        got = axis.discretize(math.sqrt(math.e) - 1.0)
        assert got == axis.representatives[0]
        assert got == pytest.approx(math.e - 1.0, abs=1e-12)

    def test_maps_to_the_upper_bucket_edge(self):
        axis = Axis(2, 0.0, math.e - 1.0, scale="log")
        # bucket edges at e^(1/2)-1 and e-1; anything below the first edge
        # lands on it, anything between the edges lands on the second
        lo, hi = axis.representatives
        assert axis.discretize(0.0) == lo
        assert axis.discretize(lo) == lo
        assert axis.discretize(math.nextafter(lo, math.inf)) == hi

    def test_buckets_grow_geometrically_in_shifted_coordinates(self):
        axis = Axis(3, 5.0, 7.0, scale="log")
        ratios = [(r - 5.0 + 1.0) for r in axis.representatives]
        assert ratios[1] / ratios[0] == pytest.approx(ratios[2] / ratios[1])
        assert axis.representatives[-1] == pytest.approx(12.0)


class TestBucketIndex:
    def test_indices_cover_the_range(self):
        axis = Axis(5, 0.0, 5.0)
        assert [axis.bucket_index(v) for v in (0.0, 0.5, 1.0, 4.9, 5.0)] == [0, 0, 1, 4, 4]

    def test_clamping_pulls_outliers_into_boundary_buckets(self):
        axis = Axis(5, 0.0, 5.0)
        assert axis.discretize(-3.0) == axis.representatives[0]
        assert axis.discretize(99.0) == axis.representatives[-1]

    def test_nan_has_no_bucket(self):
        for scale in ("linear", "log"):
            axis = Axis(5, 0.0, 5.0, scale=scale)
            with pytest.raises(ValueError, match="NaN has no bucket"):
                axis.bucket_index(math.nan)
            with pytest.raises(ValueError, match="NaN has no bucket"):
                axis.discretize(float("nan"))


class TestValidation:
    @pytest.mark.parametrize("bad", [lambda: Axis(0, 0.0, 1.0),
                                     lambda: Axis(3, 0.0, 0.0),
                                     lambda: Axis(3, 0.0, -1.0),
                                     lambda: Axis(3, 0.0, 1.0, scale="sqrt"),
                                     lambda: Axis(3, math.nan, 1.0),
                                     lambda: Axis(3, -math.inf, 1.0),
                                     lambda: Axis(3, 0.0, math.inf),
                                     lambda: Axis(3, 0.0, math.nan)])
    def test_invalid_axes_are_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_discretization_bundles_two_axes(self):
        disc = Discretization(Axis(2, 0.0, 1.0), Axis(3, 0.0, 1.0, scale="log"))
        assert disc.time.buckets == 2 and disc.quality.scale == "log"


@pytest.mark.parametrize("scale", ["linear", "log"])
@given(data=st.data(),
       buckets=st.integers(1, 64),
       origin=st.floats(-50.0, 50.0),
       extent=st.floats(1e-3, 100.0))
def test_discretization_is_exactly_idempotent(scale, data, buckets, origin, extent):
    axis = Axis(buckets, origin, extent, scale=scale)
    fraction = data.draw(st.floats(0.0, 1.0))
    y = origin + fraction * extent
    once = axis.discretize(y)
    assert axis.discretize(once) == once


@given(y=st.floats(allow_nan=False, allow_infinity=False))
def test_clamped_discretization_is_total_and_idempotent(y):
    axis = Axis(7, -1.0, 3.0, scale="log")
    once = axis.discretize(y)
    assert axis.discretize(once) == once
