"""Value identity, templates, and fact equality."""

import copy
import gc
import pickle
import struct
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from conftest import FIXTURES
from rulesense import facts
from rulesense.engine import decode_value, encode_value
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
    is_slot_value,
    make_fact,
    value_key,
)
from rulesense.ingest import load_registry, parse_record, translate
from rulesense.lang import parse_program

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


def test_one_symbol_per_name_from_every_source():
    (assertion,) = parse_program("(assert (T (a zone-17)))")
    parsed = assertion.facts[0].slots[0][1].value
    rec = {"t": 1, "sensor": "btReader", "reader_location": "zone-17", "payload": {"bt_address": "A1B2"}}
    translated = translate(parse_record(rec, 1), load_registry(FIXTURES / "registry_s1.json"))["location"]
    decoded = decode_value(encode_value(parsed))
    assert type(parsed) is Symbol
    assert parsed is translated is decoded is Symbol("zone-17")


def test_copy_and_pickle_give_back_the_interned_symbol():
    s = Symbol("730")
    assert copy.copy(s) is s
    assert copy.deepcopy(s) is s
    assert copy.deepcopy([s, (s,)])[1][0] is s
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(s, protocol)) is s


def test_symbol_is_immutable():
    s = Symbol("730")
    with pytest.raises(AttributeError):
        s.name = "740"
    with pytest.raises(AttributeError):
        del s.name
    with pytest.raises(AttributeError):
        s.other = 1
    assert s.name == "730" and Symbol("730") is s


def test_symbol_name_must_be_a_str():
    for bad in (5, None, b"730"):
        with pytest.raises(TypeError):
            Symbol(bad)


def test_symbol_never_equals_text():
    assert Symbol("730") != "730"
    assert "730" != Symbol("730")
    assert Symbol("730") in {Symbol("730")} and "730" not in {Symbol("730")}


def test_unreferenced_symbol_leaves_the_table():
    name = "only-this-test-makes-me"
    s = Symbol(name)
    assert facts._symbols.get(name) is s
    del s
    gc.collect()
    assert name not in facts._symbols


def test_threads_making_one_new_name_get_one_symbol():
    names = [f"threaded-{i}" for i in range(1000)]
    workers = 8
    start = threading.Barrier(workers, timeout=30)
    made = [[] for _ in range(workers)]

    def make(k):
        start.wait()
        # half the threads walk the names backwards, so each name sees contention
        for name in names if k % 2 else reversed(names):
            made[k].append(Symbol(name))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=make, args=(k,)) for k in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    by_name = {}
    for objs in made:
        assert len(objs) == len(names)
        for s in objs:
            by_name.setdefault(s.name, set()).add(id(s))
    assert sorted(by_name) == sorted(names)
    assert all(len(ids) == 1 for ids in by_name.values())


def same_value(a, b) -> bool:
    return value_key(a) == value_key(b)


def test_type_strict_equality():
    # the four kinds never collide, even on equal surface forms
    assert not same_value(Symbol("730"), "730")
    assert not same_value(20, 20.0)
    assert not same_value("20", 20)
    assert same_value(20.0, 20.0)
    assert same_value(Symbol("a"), Symbol("a"))


def test_bool_is_not_a_slot_value():
    assert not is_slot_value(True)
    assert not is_slot_value(None)
    with pytest.raises(TypeError):
        value_key(True)


@given(a=slot_values, b=slot_values)
def test_value_key_agrees_with_equality(a, b):
    # equal keys exactly when the kinds match and the values do (a Float
    # bit for bit)
    if type(a) is not type(b):
        want = False
    elif type(a) is float:
        want = struct.pack(">d", a) == struct.pack(">d", b)
    else:
        want = a == b
    assert same_value(a, b) == want


@given(v=slot_values)
def test_value_key_reflexive(v):
    assert same_value(v, v)


@given(x=ints)
def test_int_float_never_cross(x):
    assert not same_value(x, float(x))


def test_registry_define_and_get():
    reg = TemplateRegistry()
    t = reg.define("Person", ["name", "deviceAddress"])
    assert t.slots == ("name", "deviceAddress")
    assert reg.get("Person") is t
    assert "Person" in reg and "Place" not in reg
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
    assert f1.key == f2.key
    assert f1.key != f3.key  # Integer 1 vs Float 1.0


@given(v=floats)
def test_float_key_distinguishes_bit_patterns(v):
    # 0.0 and -0.0 are different slot values on purpose: the key is the bit
    # pattern, not numeric equality
    assert same_value(v, v)


def test_negative_zero_distinct():
    assert not same_value(0.0, -0.0)
