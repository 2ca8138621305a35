"""Value identity, templates, and fact equality."""

import pytest
from hypothesis import given, strategies as st

from rulesense.facts import (
    DuplicateSlot,
    DuplicateTemplate,
    Fact,
    NIL,
    Symbol,
    Template,
    TemplateRegistry,
    UnknownSlot,
    UnknownTemplate,
    facts_equal,
    is_slot_value,
    make_fact,
    value_key,
    values_equal,
)

symbols = st.builds(Symbol, st.text(min_size=1, max_size=8))
texts = st.text(max_size=8)
ints = st.integers(min_value=-(2**63), max_value=2**63)
floats = st.floats(allow_nan=False)
slot_values = st.one_of(symbols, texts, ints, floats)


def test_symbol_identity():
    assert Symbol("730") == Symbol("730")
    assert Symbol("730") != Symbol("740")
    assert str(Symbol("dummyLoc")) == "dummyLoc"
    assert NIL == Symbol("nil")


def test_type_strict_equality():
    # the four kinds never collide, even on equal surface forms
    assert not values_equal(Symbol("730"), "730")
    assert not values_equal(20, 20.0)
    assert not values_equal("20", 20)
    assert values_equal(20.0, 20.0)
    assert values_equal(Symbol("a"), Symbol("a"))


def test_bool_is_not_a_slot_value():
    assert not is_slot_value(True)
    assert not is_slot_value(None)
    with pytest.raises(TypeError):
        value_key(True)


@given(a=slot_values, b=slot_values)
def test_value_key_agrees_with_equality(a, b):
    assert (value_key(a) == value_key(b)) == values_equal(a, b)


@given(v=slot_values)
def test_value_key_reflexive(v):
    assert values_equal(v, v)


@given(x=ints)
def test_int_float_never_cross(x):
    assert not values_equal(x, float(x))


def test_registry_define_and_get():
    reg = TemplateRegistry()
    t = reg.define("Person", ["name", "deviceAddress"])
    assert t.has_slot("name") and not t.has_slot("age")
    assert reg.get("Person") is t
    assert "Person" in reg and len(reg) == 1
    with pytest.raises(DuplicateTemplate):
        reg.define("Person", ["x"])
    with pytest.raises(DuplicateSlot):
        reg.define("Bad", ["a", "a"])
    with pytest.raises(UnknownTemplate):
        reg.get("Nope")


def test_make_fact_fills_nil_and_validates():
    t = Template("T", ("a", "b"))
    f = make_fact(t, {"a": 1})
    assert f.values["b"] == NIL
    assert f.id is None
    with pytest.raises(UnknownSlot):
        make_fact(t, {"c": 1})
    with pytest.raises(TypeError):
        make_fact(t, {"a": [1]})
    with pytest.raises(TypeError):
        make_fact(t, {"a": True})


def test_fact_equality_ignores_ids():
    t = Template("T", ("a",))
    f1 = Fact(t, (1,), id=1)
    f2 = Fact(t, (1,), id=2)
    f3 = Fact(t, (1.0,), id=1)
    assert facts_equal(f1, f2)
    assert not facts_equal(f1, f3)  # Integer 1 vs Float 1.0


def test_fact_value_access():
    t = Template("T", ("a",))
    f = make_fact(t, {"a": Symbol("x")})
    assert f.value("a") == Symbol("x")
    with pytest.raises(UnknownSlot):
        f.value("b")


@given(v=floats)
def test_float_key_distinguishes_bit_patterns(v):
    # 0.0 and -0.0 are different slot values on purpose: the key is the bit
    # pattern, not numeric equality
    assert values_equal(v, v)


def test_negative_zero_distinct():
    assert not values_equal(0.0, -0.0)
