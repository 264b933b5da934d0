"""One number rule for every finite real the library takes: a staircase quality, a nadir
coordinate and an axis origin or extent is a ``numbers.Real`` that float64 reads as
finite, never a ``bool``, checked by ``properties._real``."""

import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from attainbench.attainment import (AttainmentPoint, LevelSet, Trajectory, eaf_levels, surface,
                                    volume)
from attainbench.fileio import write_level_sets
from attainbench.histogram import Axis
from attainbench.problems import Direction, MetaData
from attainbench.properties import _real, _whole

MIN = Direction.MINIMIZATION
META = MetaData("s", 1, 1, 1, MIN)
#: A staircase whose surface at the nadir (4, 12) is 10 * 2 + 11 * 1 = 31.
STAIRS = LevelSet(1, [AttainmentPoint(1, 2.0), AttainmentPoint(3, 1.0)], MIN)

BAD = [True, np.True_, "1", b"1", Decimal("1"), 1j, None, math.inf, -math.inf, math.nan,
       10**400]
#: The same 12 in each kind of real the rule takes.
TWELVES = [12, 12.0, np.int64(12), np.float32(12), Fraction(24, 2)]


def written_nadir(value, tmp_path):
    """The nadir that write_level_sets writes for the nadir (4, value); a rejected one
    must leave no file."""
    path = tmp_path / "l.json"
    try:
        write_level_sets(path, [STAIRS], (4, value))
    except ValueError:
        assert list(tmp_path.iterdir()) == []
        raise
    return json.loads(path.read_text(encoding="utf-8"))["nadir"]


def trajectory_quality(value, _):
    traj = Trajectory(META, 0, [AttainmentPoint(1, value)])
    return eaf_levels([traj])[0].points


def level_set_quality(value, _):
    return surface(LevelSet(1, [AttainmentPoint(1, value)], MIN), (4, 13))


#: Each entry point, with what it gives for each of :data:`TWELVES`.
SITES = {
    "surface nadir time": (lambda v, _: surface(STAIRS, (v, 12)), 119.0),
    "surface nadir quality": (lambda v, _: surface(STAIRS, (4, v)), 31.0),
    "volume nadir": (lambda v, _: volume([STAIRS], (4, v)), 31.0),
    "normalized volume nadir": (lambda v, _: volume([STAIRS], (4, v), normalized=True),
                                31.0 / 33.0),
    "write_level_sets nadir": (written_nadir, None),
    "Axis origin": (lambda v, _: Axis(5, v, 1).origin, 12.0),
    "Axis extent": (lambda v, _: Axis(5, 0, v).extent, 12.0),
    "trajectory quality": (trajectory_quality, [(1, 12.0)]),
    "level-set quality": (level_set_quality, 3.0),
}


@pytest.mark.filterwarnings("error")  # an infinite nadir once gave a normalized volume of NaN
@pytest.mark.parametrize("value", BAD, ids=repr)
@pytest.mark.parametrize("site", SITES)
def test_every_site_rejects_a_value_that_is_not_a_finite_real_naming_it(site, value, tmp_path):
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        SITES[site][0](value, tmp_path)


@pytest.mark.parametrize("nadir", [5, None], ids=repr)
@pytest.mark.parametrize("site", ["surface", "volume", "write_level_sets"])
def test_a_nadir_that_is_not_iterable_is_rejected_naming_it(site, nadir, tmp_path):
    calls = {"surface": lambda: surface(STAIRS, nadir),
             "volume": lambda: volume([STAIRS], nadir),
             "write_level_sets": lambda: write_level_sets(tmp_path / "l.json", [STAIRS], nadir)}
    with pytest.raises(ValueError, match=f"^nadir {nadir!r} is not two finite real numbers$"):
        calls[site]()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", TWELVES, ids=repr)
@pytest.mark.parametrize("site", SITES)
def test_every_site_takes_each_kind_of_real_alike(site, value, tmp_path):
    read, expected = SITES[site]
    if expected is None:  # a nadir is written as the Python number it equals
        expected = [4, 12 if isinstance(value, (int, np.integer)) else 12.0]
        assert repr(read(value, tmp_path)) == repr(expected)
    else:
        assert read(value, tmp_path) == expected


#: (value, _real(value), _whole(value, 0)), as a list: a dict would hold one key for
#: True and np.True_, and one for 2.0 and Fraction(4, 2).
REALS = [
    (np.True_, False, False),
    (np.uint64(2**63), True, False),
    (Fraction(10**400), False, False),
    (10**400, False, False),
    (2**63 - 1, True, True),
    (True, False, False),
    (1j, False, False),
    ("1", False, False),
    (b"1", False, False),
    (Decimal("1"), False, False),
    (None, False, False),
    (math.nan, False, False),
    (math.inf, False, False),
    (-math.inf, False, False),
    (2.0, True, True),
    (np.float32(2.5), True, False),
    (Fraction(4, 2), True, True),
    (-1, True, False),
]


@pytest.mark.parametrize("value, real, whole", REALS, ids=repr)
def test_real_and_whole_answer_by_one_rule(value, real, whole):
    assert (_real(value), _whole(value, 0)) == (real, whole)
