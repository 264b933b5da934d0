"""One quoting rule for every message: a rejected input appears as
``properties._quoted`` gives it, so an ``int`` past Python's 4,300-digit limit for
``repr`` still gets its site's own message, and a long input is cut to 10,000
characters with its full length stated."""

import pytest

from attainbench.attainment import LevelSelector, LevelSet, Trajectory, eaf_levels, surface
from attainbench.fileio import (read_flat_file, read_trajectories, write_flat_files,
                                write_trajectories)
from attainbench.histogram import Axis, fit_discretization
from attainbench.loggers import LogInfo, Store
from attainbench.problems import ContinuousSuite, Direction, MetaData
from attainbench.properties import External, Property
from attainbench.triggers import Always, At, Each

from oracles import as_trajectories, batch_of

MIN = Direction.MINIMIZATION
META = MetaData("s", 1, 1, 1, MIN)
TWO_RUNS = as_trajectories([[(1, 2.0)]] * 2, MIN)

#: An ``int`` whose ``repr`` raises, and how ``_quoted`` names it and a tuple holding it.
HUGE = 10**5000
INT, TUPLE = "<int whose repr raised ValueError>", "<tuple whose repr raised ValueError>"


def huge_run_id(tmp_path):
    (traj,) = as_trajectories([[(1, 1.0)]], MIN)
    traj.run = HUGE
    write_trajectories(tmp_path / "t.csv", [traj])


HUGE_CASES = {
    "Each": (lambda _: Each(HUGE), f"interval {INT} is not an integer in [1, 2**63)"),
    "At": (lambda _: At([HUGE]), f"evaluation index {INT} is not an integer in [1, 2**63)"),
    "Axis origin": (lambda _: Axis(3, HUGE, 1.0),
                    f"need a finite origin and extent > 0, got {INT}, 1.0"),
    "surface nadir": (lambda _: surface(LevelSet(1, [(1, 1.0)]), (HUGE, 1.0)),
                      f"nadir {TUPLE} is not two finite real numbers"),
    "write_trajectories run": (huge_run_id,
                               f"write_trajectories: run {INT} is not an integer in [0, 2**63)"),
    "eaf_levels time": (lambda _: eaf_levels([Trajectory(META, 0, [(HUGE, 1.0)])]),
                        "run 0 is not a strict staircase of finite qualities at integral times "
                        f"in [1, 2**63), at point {TUPLE}"),
}


@pytest.mark.parametrize("case", HUGE_CASES)
def test_an_int_past_the_digit_limit_gets_its_sites_own_message(case, tmp_path):
    call, message = HUGE_CASES[case]
    with pytest.raises(ValueError) as exc:
        call(tmp_path)
    assert str(exc.value) == message


LONG = "x" * 10**6


class Readings(Property):
    """Reads the same ``readings`` for every batch, however many rows it holds."""

    def __init__(self, name, readings):
        super().__init__(name)
        self.readings = readings

    def __call__(self, batch):
        return self.readings


def fed(prop):
    """A store of ``prop`` that has been fed one batch of one row."""
    store = Store([Always()], [prop])
    store.attach(META)
    store.call(batch_of(LogInfo(evaluations=1)))
    return store


def header_file(tmp_path, text):
    path = tmp_path / "h.csv"
    path.write_text(text, encoding="utf-8")
    return path


LONG_CASES = {
    "eaf_levels levels": (lambda _: eaf_levels(TWO_RUNS, range(3, 3 + 10**6)),
                          "attainment level(s) [3, 4, 5,"),
    "LevelSelector indices": (lambda _: LevelSelector(range(10**6)).select(TWO_RUNS, "two runs"),
                              "level index(es) [2, 3, 4,"),
    "Suite problem ids": (lambda _: ContinuousSuite(range(100, 100 + 10**6), [1], [2]),
                          "unknown problem id(s) [100, 101,"),
    "Axis scale": (lambda _: Axis(3, 0.0, 1.0, LONG),
                   "scale must be one of ('linear', 'log'), got 'xxx"),
    "fit_discretization pair": (lambda _: fit_discretization(TWO_RUNS, [1] * 10**6),
                                "fit_discretization: buckets must be a (time, quality) pair, "
                                "got [1, 1,"),
    "property name": (lambda _: External("," + LONG), "property name ',xxx"),
    "duplicate property names": (lambda _: Store([], [External(LONG), External(LONG)]),
                                 "duplicate property name(s): ['xxx"),
    "suite_name": (lambda _: MetaData("/" + LONG, 1, 1, 1, MIN),
                   "suite_name must be non-empty with no path separator or NUL, got '/xxx"),
    "property answering the wrong count": (lambda _: fed(Readings(LONG, ())), "property 'xxx"),
    "flat-file reading": (lambda tmp: write_flat_files(fed(Readings("y", (LONG,))), tmp),
                          "run 0, event 0: property 'y' reading 'xxx"),
    "trajectory header": (lambda tmp: read_trajectories(header_file(tmp, f"{LONG}\n0,1,1\n")),
                          "not a trajectory file (header 'xxx"),
    "flat-file header": (lambda tmp: read_flat_file(header_file(tmp, f"{LONG}\n")),
                         "not a flat run log (header ['xxx"),
}


@pytest.mark.parametrize("case", LONG_CASES)
def test_a_long_input_is_quoted_cut_with_its_length(case, tmp_path):
    call, start = LONG_CASES[case]
    with pytest.raises(ValueError) as exc:
        call(tmp_path)
    message = str(exc.value)
    assert start in message and "characters in all)" in message
    assert len(message) < 11_000
