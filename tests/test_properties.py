"""Logged-property accessors, absence handling, and external bindings."""

import math
import re
from fractions import Fraction

import numpy as np
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

    @pytest.mark.parametrize("value, reading", [
        (3, 3.0), (np.float32(0.5), 0.5), (np.int64(-2), -2.0), (Fraction(1, 4), 0.25),
        (math.inf, math.inf), (-math.inf, -math.inf)])
    def test_a_real_number_is_read_as_a_float(self, value, reading):
        (read,) = External("extra", lambda: value)(INFO)
        assert type(read) is float and read == reading

    def test_a_nan_is_a_present_reading(self):
        (read,) = External("extra", lambda: math.nan)(INFO)
        assert type(read) is float and math.isnan(read)

    @pytest.mark.parametrize("value", ["3.5", "nan", "abc", b"2", True, np.True_, None,
                                       [1.0], 10**400],
                             ids=["numeric text", "nan text", "text", "bytes", "bool",
                                  "numpy bool", "None", "list", "int beyond float64"])
    def test_a_value_that_is_not_a_real_number_float64_holds_is_rejected_naming_it(
            self, value):
        message = f"property 'extra' read {value!r}, which is not a real number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)} that float64 holds$"):
            External("extra", lambda: value)(INFO)

    @pytest.mark.parametrize("value, quoted", [
        (10**5000, "<int whose repr raised ValueError>"),
        (type("Opaque", (), {"__repr__": lambda self: 1 / 0})(),
         "<Opaque whose repr raised ZeroDivisionError>"),
    ], ids=["int past the digit limit", "repr that raises"])
    def test_a_value_whose_repr_raises_is_named_by_its_type(self, value, quoted):
        message = f"property 'extra' read {quoted}, which is not a real number that float64 holds"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            External("extra", lambda: value)(INFO)

    def test_rebind_rejects_none(self):
        prop = External("extra", lambda: 1.0)
        with pytest.raises(ValueError, match="detach"):
            prop.rebind(None)


def test_property_base_class_requires_a_reader():
    with pytest.raises(NotImplementedError):
        Property("anything")(INFO)
