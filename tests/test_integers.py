"""One integer rule for every count, index and id the library takes: an ``int``, a
numpy integer or an integral real in [least, 2**63), compared exactly, stored as ``int``."""

import json
import math
import re

import numpy as np
import pytest

from attainbench.attainment import (AttainmentPoint, LevelSelector, LevelSet, Trajectory,
                                    default_nadir, eaf_levels)
from attainbench.fileio import cell_stem, read_trajectories, write_level_sets, write_trajectories
from attainbench.histogram import Axis
from attainbench.loggers import Cursor
from attainbench.problems import ContinuousSuite, Direction, MetaData, Sphere
from attainbench.triggers import At, During, Each

from oracles import as_trajectories

MIN = Direction.MINIMIZATION

REJECTED = [1.5, True, "3", math.nan, math.inf, 2**63, np.uint64(2**63)]
ACCEPTED = [2, np.int64(2), 2.0]


def written_run(run, tmp_path):
    """The run cell that write_trajectories writes for a trajectory of run id ``run``."""
    (traj,) = as_trajectories([[(1, 1.0)]], MIN)
    traj.run = run
    write_trajectories(tmp_path / "t.csv", [traj])
    row = (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()[1]
    return json.loads(row.split(",")[0])


def staircase_time(time, _):
    """The time of the one point of a level set over a trajectory holding one point at ``time``."""
    traj = Trajectory(MetaData("s", 1, 1, 1, MIN), 0, [AttainmentPoint(time, 1.0)])
    return eaf_levels([traj])[0].points[0].time


TWO_RUNS = as_trajectories([[(1, 2.0)]] * 2, MIN)
def written_level(level, tmp_path):
    """The level that write_level_sets writes for a level set of level ``level``."""
    write_level_sets(tmp_path / "l.json", [LevelSet(level, [AttainmentPoint(1, 1.0)])], (2, 2.0))
    return json.loads((tmp_path / "l.json").read_text(encoding="utf-8"))["levels"][0]["level"]


SITES = {
    "MetaData problem_id": lambda v, _: MetaData("s", v, 1, 1, MIN).problem_id,
    "MetaData instance": lambda v, _: MetaData("s", 1, v, 1, MIN).instance,
    "MetaData dimension": lambda v, _: MetaData("s", 1, 1, v, MIN).dimension,
    "Suite problem id": lambda v, _: ContinuousSuite([v], [1], [2]).problem_ids[0],
    "Suite instance": lambda v, _: ContinuousSuite([1], [v], [2]).instances[0],
    "Suite dimension": lambda v, _: ContinuousSuite([1], [1], [v]).dimensions[0],
    "At index": lambda v, _: next(iter(At([v]).indices)),
    "Each interval": lambda v, _: Each(v).interval,
    "Each start": lambda v, _: Each(1, v).start,
    "During start": lambda v, _: During([(v, 9)]).intervals[0][0],
    "During end": lambda v, _: During([(1, v)]).intervals[0][1],
    "Axis buckets": lambda v, _: Axis(v, 0.0, 1.0).buckets,
    "LevelSelector index": lambda v, _: LevelSelector([v]).indices[0],
    "eaf_levels level": lambda v, _: eaf_levels(TWO_RUNS, [v])[0].level,
    "write_trajectories run": written_run,
    "staircase time": staircase_time,
    "write_level_sets level": written_level,
    "Cursor problem_id": lambda v, _: Cursor("s", v, 1, 1).problem_id,
    "Cursor dimension": lambda v, _: Cursor("s", 1, v, 1).dimension,
    "Cursor instance": lambda v, _: Cursor("s", 1, 1, v).instance,
    "Cursor run": lambda v, _: Cursor("s", 1, 1, 1, run=v).run,
    "Cursor event_index": lambda v, _: Cursor("s", 1, 1, 1, event_index=v).event_index,
}


@pytest.mark.parametrize("site", SITES)
def test_every_site_takes_exact_integers_only_and_stores_an_int(site, tmp_path):
    for value in REJECTED:
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            SITES[site](value, tmp_path)
    for value in ACCEPTED:
        stored = SITES[site](value, tmp_path)
        assert type(stored) is int and stored == 2, (value, stored)


def test_an_integral_float_problem_id_names_its_file_as_an_int():
    assert cell_stem(Sphere(2.0).meta) == "adhoc_f2_d2_i1"
    message = "problem_id 1.5 is not an integer in [1, 2**63)"
    with pytest.raises(ValueError, match=re.escape(message)):
        Sphere(1.5)


#: Times that float64 cannot hold: 2**53 + 1 rounds onto 2**53, and 2**63 - 1 onto 2**63.
EXACT = "run,evaluations,quality\n0,9007199254740992,2.0\n0,9007199254740993,1.0\n" \
        "1,9223372036854775807,1.5\n"
LEVELS = [[(2**53, 2.0), (2**53 + 1, 1.0)], [(2**63 - 1, 1.5)]]


def level_points(trajectories):
    return [[(p.time, p.quality) for p in ls.points] for ls in eaf_levels(trajectories)]


class TestExactTimes:
    def test_points_at_times_float64_cannot_hold_are_a_staircase(self):
        trajs = as_trajectories([[(2**53, 2.0), (2**53 + 1, 1.0)], [(2**63 - 1, 1.5)]], MIN)
        assert level_points(trajs) == LEVELS
        assert default_nadir(trajs) == (2**63 - 1, 2.0)

    def test_read_trajectories_after_points_is_read(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(EXACT, encoding="utf-8")
        trajs = read_trajectories(path)
        assert [[tuple(p) for p in t.points] for t in trajs] == [
            [(2**53, 2.0), (2**53 + 1, 1.0)], [(2**63 - 1, 1.5)]]
        assert level_points(trajs) == LEVELS

    def test_write_trajectories_round_trips_byte_for_byte(self, tmp_path):
        path, again = tmp_path / "t.csv", tmp_path / "again.csv"
        path.write_text(EXACT, encoding="utf-8")
        trajs = read_trajectories(path)
        for traj in trajs:
            traj.points
        write_trajectories(again, trajs)
        assert again.read_bytes() == path.read_bytes()
