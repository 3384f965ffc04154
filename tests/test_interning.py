"""Names are hash-consed like process nodes: every name with the same fields
is one object, so ``==`` and ``hash`` are identity and address."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from fuseforge.pi import Name, fresh, inp, lit, name, normalize, nu, out, par
from fuseforge.pi import congruence, process


def test_equal_names_are_one_object():
    assert name("a") is name("a")
    assert lit(3) is lit(3)
    assert name("a") is not name("b")


def test_names_that_differ_in_any_field_differ():
    assert lit(1) is not lit(True) and lit(1) != lit(True)
    assert fresh() is not fresh()
    assert fresh("a") is not name("a")
    assert lit("a") is not name("'a'")


def test_keyword_and_positional_construction_give_one_object():
    assert Name("a") is Name(text="a") is Name("a", None, None, False) is name("a")
    assert Name(text="3", value=3, is_literal=True) is Name("3", None, 3, True) is lit(3)
    assert dataclasses.replace(name("a"), text="b") is name("b")
    with pytest.raises(TypeError):
        Name(fresh_id=1)
    with pytest.raises(TypeError):
        Name("a", colour="red")


def test_names_stay_frozen_and_print_as_before():
    with pytest.raises(dataclasses.FrozenInstanceError):
        name("a").text = "b"
    f = fresh("x")
    assert [repr(n) for n in (name("a"), lit(3), lit("s"), f)] == \
        ["a", "#3", "#'s'", f"x~{f.fresh_id}"]


def test_a_name_nothing_refers_to_leaves_the_table():
    """Once the memos are cleared, a name that only a normalized term used
    is freed, so the table holds no more names than are alive."""
    congruence.clear_caches()
    gc.collect()
    size = len(process._NODES)
    unused = name("used once")
    normalize(nu(name("k"), par(out(unused, lit(1)), inp(name("k"), unused))))
    dropped = weakref.ref(unused)
    del unused
    congruence.clear_caches()
    gc.collect()
    assert dropped() is None and len(process._NODES) == size
