"""Logged-property accessors, absence handling, and external bindings."""

import re

import pytest

from attainbench.loggers import LogInfo
from attainbench.properties import (
    External,
    Property,
    RawY,
    RawYBest,
    TransformedY,
    TransformedYBest,
)

from oracles import batch_of

INFO = batch_of(LogInfo(evaluations=7, raw_y=4.0, raw_y_best=2.0,
                        transformed_y=5.0, transformed_y_best=3.0))


def test_builtin_properties_read_their_fields():
    assert RawY()(INFO) == (4.0,)
    assert RawYBest()(INFO) == (2.0,)
    assert TransformedY()(INFO) == (5.0,)
    assert TransformedYBest()(INFO) == (3.0,)


def test_default_names_are_snake_case():
    assert TransformedYBest().name == "transformed_y_best"
    assert RawY(name="objective").name == "objective"


def test_empty_name_is_rejected():
    with pytest.raises(ValueError):
        RawY(name="")


@pytest.mark.parametrize("name", ["a,b", 'say "x"', "a\rb", "a\nb"])
def test_a_name_the_flat_file_header_cannot_carry_is_rejected(name):
    with pytest.raises(ValueError, match=re.escape(f"property name {name!r}")):
        External(name, lambda: 1.0)


def test_the_name_of_the_evaluation_count_is_reserved():
    with pytest.raises(ValueError, match="property name 'evaluations' is reserved"):
        RawY(name="evaluations")


def test_reads_do_not_mutate_the_record():
    before = [list(column) for column in INFO]
    TransformedYBest()(INFO)
    assert [list(column) for column in INFO] == before


class TestExternal:
    def test_reads_pull_current_value_each_event(self):
        holder = {"x": 0.0}
        prop = External("extra", lambda: holder["x"])
        holder["x"] = 3.5
        assert prop(INFO) == (3.5,)
        holder["x"] = -1.0
        assert prop(INFO) == (-1.0,)

    def test_detached_reads_are_absent(self):
        prop = External("extra", lambda: 1.0)
        prop.detach()
        assert prop.detached
        assert prop(INFO) == (None,)

    def test_rebind_tracks_the_new_target(self):
        prop = External("extra", lambda: 1.0)
        prop.rebind(lambda: 9.0)
        assert prop(INFO) == (9.0,)

    def test_rebind_reattaches(self):
        prop = External("extra", lambda: 1.0)
        prop.detach()
        prop.rebind(lambda: 2.0)
        assert prop(INFO) == (2.0,)

    def test_starts_detached_without_a_getter(self):
        prop = External("extra")
        assert prop.detached
        assert prop(INFO) == (None,)

    def test_rebind_rejects_none(self):
        prop = External("extra", lambda: 1.0)
        with pytest.raises(ValueError, match="detach"):
            prop.rebind(None)


def test_property_base_class_requires_a_reader():
    with pytest.raises(NotImplementedError):
        Property("anything")(INFO)
