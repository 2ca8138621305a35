"""Registry loading, record parsing, and replay statistics."""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import record_line
from rulesense.engine import Engine
from rulesense.facts import Symbol
from rulesense.ingest import (
    DUMMY_LOC,
    MAX_T,
    DuplicateDevice,
    FeedStats,
    MalformedRecord,
    MalformedRegistry,
    Registry,
    bootstrap,
    initial_facts,
    load_registry,
    parse_record,
    replay,
    translate,
)
from rulesense.lang import parse_program
from rulesense.tracking import build_tracking_kb

KB = parse_program(build_tracking_kb())

GOOD = {
    "persons": [
        {"name": "Pete", "deviceAddress": "A1B2"},
        {"name": "Maya", "deviceAddress": "C3D4"},
    ],
    "corridors": [{"enda": "730", "endb": "740", "length": 20}],
}


def fresh_engine(reg):
    e = Engine(KB)
    bootstrap(e, reg)
    e.run()
    return e


# ------------------------------------------------------------
# registry
# ------------------------------------------------------------


def test_load_registry_from_dict():
    reg = load_registry(GOOD)
    assert [p.name for p in reg.persons] == ["Pete", "Maya"]
    assert reg.by_device == {"A1B2": "Pete", "C3D4": "Maya"}
    c = reg.corridors[0]
    assert (c.enda, c.endb) == ("730", "740")
    assert c.length == 20.0 and type(c.length) is float


def test_device_index_is_built_once():
    reg = load_registry(GOOD)
    assert reg.by_device is reg.by_device


def test_load_registry_from_json_text_and_path(tmp_path, registry_s1):
    assert load_registry(json.dumps(GOOD)) == load_registry(GOOD)
    p = tmp_path / "reg.json"
    p.write_text(json.dumps(GOOD), encoding="utf-8")
    assert load_registry(p) == load_registry(GOOD)
    assert registry_s1.persons[0].deviceAddress == "A1B2"


def test_empty_registry_is_fine():
    assert load_registry({}) == Registry((), ())


@pytest.mark.parametrize(
    "mutation,error",
    [
        (lambda r: r["persons"].append({"name": "Eve", "deviceAddress": "A1B2"}), DuplicateDevice),
        (lambda r: r["persons"].append({"name": "Pete", "deviceAddress": "ZZZZ"}), MalformedRegistry),
        (lambda r: r["persons"].append({"name": "", "deviceAddress": "E5F6"}), MalformedRegistry),
        (lambda r: r["persons"].append({"deviceAddress": "E5F6"}), MalformedRegistry),
        (lambda r: r["persons"].append("Pete"), MalformedRegistry),
        (lambda r: r["corridors"].append({"enda": "x", "endb": "x", "length": 1}), MalformedRegistry),
        (lambda r: r["corridors"].append({"enda": "730", "endb": "740", "length": 5}), MalformedRegistry),
        (lambda r: r["corridors"].append({"enda": "a", "endb": "b", "length": 0}), MalformedRegistry),
        (lambda r: r["corridors"].append({"enda": "a", "endb": "b", "length": True}), MalformedRegistry),
        (lambda r: r["corridors"].append({"enda": "a", "endb": "b", "length": "20"}), MalformedRegistry),
        (lambda r: r.update(persons={}), MalformedRegistry),
    ],
)
def test_registry_rejections(mutation, error):
    raw = json.loads(json.dumps(GOOD))
    mutation(raw)
    with pytest.raises(error):
        load_registry(raw)


def test_load_registry_from_long_json_text():
    # longer than a file name may be: the text must not be tried as a path
    raw = {"persons": [{"name": f"P{i}", "deviceAddress": f"D{i:04d}"} for i in range(20)], "corridors": []}
    text = json.dumps(raw)
    assert len(text) > 255 and "/" not in text
    assert load_registry(text) == load_registry(raw)
    assert load_registry("  \n" + text) == load_registry(raw)


def test_registry_file_that_is_not_utf8(tmp_path):
    p = tmp_path / "reg.json"
    p.write_bytes(b'{"persons": [{"name": "P\xff", "deviceAddress": "D1"}]}')
    with pytest.raises(MalformedRegistry):
        load_registry(p)


def test_registry_nested_too_deep():
    with pytest.raises(MalformedRegistry):
        load_registry('{"a":' * 1000 + "1" + "}" * 1000)


def test_registry_garbage_sources():
    with pytest.raises(MalformedRegistry):
        load_registry("this is not json and not a path")
    with pytest.raises(MalformedRegistry):
        load_registry('["top", "level", "array"]')


def test_initial_facts_order_and_shape():
    reg = load_registry(GOOD)
    facts = initial_facts(reg)
    assert [t for t, _ in facts] == ["Person", "Person", "Corridor", "is-currently-at", "is-currently-at"]
    assert facts[0][1] == {"name": "Pete", "deviceAddress": "A1B2"}
    assert facts[2][1] == {"enda": Symbol("730"), "endb": Symbol("740"), "length": 20.0}
    assert facts[3][1] == {"name": "Pete", "location": DUMMY_LOC, "tStart": 0, "tFinish": 0}


def test_bootstrap_seeds_the_engine():
    reg = load_registry(GOOD)
    e = fresh_engine(reg)
    assert len(e.facts("Person")) == 2
    assert len(e.facts("Corridor")) == 1
    assert len(e.facts("is-currently-at")) == 2


# ------------------------------------------------------------
# record parsing and translation
# ------------------------------------------------------------


def test_parse_rfid_record():
    r = parse_record(json.loads(record_line(1000, "730")), 1)
    assert (r.t, r.sensor, r.reader_location, r.address, r.ir_code, r.motion) == (
        1000, "rfidReader", "R1", "A1B2", "730", True,
    )


def test_parse_bt_record():
    r = parse_record(json.loads(record_line(2000, "999", tag="C3D4", sensor="btReader", reader="740")), 1)
    assert (r.t, r.sensor, r.reader_location, r.address) == (2000, "btReader", "740", "C3D4")
    assert r.ir_code is None and r.motion is None


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"t": -5, "sensor": "rfidReader", "reader_location": "R1", "payload": {}},
        {"t": True, "sensor": "rfidReader", "reader_location": "R1", "payload": {}},
        {"t": 1.5, "sensor": "rfidReader", "reader_location": "R1", "payload": {}},
        {"t": 1, "sensor": "sonar", "reader_location": "R1", "payload": {}},
        {"t": 1, "sensor": "rfidReader", "reader_location": "", "payload": {}},
        {"t": 1, "sensor": "rfidReader", "reader_location": "R1"},
        {"t": 1, "sensor": "rfidReader", "reader_location": "R1", "payload": {"ir_code": "730", "motion": True}},
        {"t": 1, "sensor": "rfidReader", "reader_location": "R1", "payload": {"tag_id": "A", "ir_code": "73", "motion": True}},
        {"t": 1, "sensor": "rfidReader", "reader_location": "R1", "payload": {"tag_id": "A", "ir_code": "730", "motion": 1}},
        {"t": 1, "sensor": "btReader", "reader_location": "R1", "payload": {}},
        {"t": MAX_T + 1, "sensor": "btReader", "reader_location": "R1", "payload": {"bt_address": "A"}},
    ],
)
def test_parse_record_rejections(obj):
    with pytest.raises(MalformedRecord) as ei:
        parse_record(obj, 7)
    assert "line 7" in str(ei.value)


def test_parse_record_takes_t_up_to_the_last_renderable_instant():
    # 9999-12-31T23:59:59.999Z; one ms later a row's HH:MM:SS would fail
    assert MAX_T == 253_402_300_799_999
    assert parse_record(json.loads(record_line(MAX_T, "730")), 1).t == MAX_T


def test_translate_rfid_uses_ir_code():
    reg = load_registry(GOOD)
    r = parse_record(json.loads(record_line(1000, "730")), 1)
    assert translate(r, reg) == {"location": Symbol("730"), "address": "A1B2", "time": 1000}


def test_translate_bt_uses_reader_location():
    reg = load_registry(GOOD)
    r = parse_record(json.loads(record_line(1000, "999", tag="C3D4", sensor="btReader", reader="740")), 1)
    assert translate(r, reg) == {"location": Symbol("740"), "address": "C3D4", "time": 1000}


def test_translate_unknown_device():
    reg = load_registry(GOOD)
    r = parse_record(json.loads(record_line(1000, "730", tag="XXXX")), 1)
    assert translate(r, reg) is None


# ------------------------------------------------------------
# replay
# ------------------------------------------------------------


def test_replay_stats_accounting():
    reg = load_registry(GOOD)
    e = fresh_engine(reg)
    t0 = 1_700_000_000_000
    lines = [
        record_line(t0, "730"),
        record_line(t0, "730"),          # exact duplicate in the same cohort
        "",                               # blank: skipped, not counted
        record_line(t0 + 2000, "740"),
        record_line(t0 + 1000, "000"),    # out of order
        record_line(t0 + 4000, "730", tag="XXXX"),  # unknown device
        "{not json",                      # malformed json
        json.dumps({"t": t0 + 5000, "sensor": "sonar", "reader_location": "R1", "payload": {}}),
        record_line(t0 + 6000, "740"),
    ]
    stats = replay(lines, reg, e)
    assert stats == FeedStats(records=8, facts=3, duplicates=1, unknown_devices=1, out_of_order=1, malformed=2)
    assert stats.consistent()
    assert e.facts("MobileTrace") == []  # every accepted reading was consumed


def test_replay_cohorts_by_timestamp():
    reg = load_registry(GOOD)
    e = fresh_engine(reg)
    t0 = 1_700_000_000_000
    cycles = []
    lines = [
        record_line(t0, "730"),
        record_line(t0, "740", tag="C3D4"),   # same instant, same cohort
        record_line(t0 + 2000, "740"),
        record_line(t0 + 4000, "730", tag="C3D4"),
    ]
    replay(lines, reg, e, on_cycle=lambda eng: cycles.append(len(eng.facts("is-currently-at"))))
    assert len(cycles) == 3
    assert cycles[-1] == 2  # one open interval per person, always


def test_replay_from_path_matches_canonical_counts(registry_s1, s1_replay_path):
    e = fresh_engine(registry_s1)
    stats = replay(s1_replay_path, registry_s1, e)
    assert stats == FeedStats(records=7, facts=7)
    assert stats.consistent()


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_replay_from_path_ends_lines_as_text_files_do(registry_s1, s1_replay_path, tmp_path, newline):
    feed = tmp_path / "feed.jsonl"
    feed.write_bytes(newline.join(s1_replay_path.read_bytes().splitlines()) + newline)
    stats = replay(feed, registry_s1, fresh_engine(registry_s1))
    assert stats == FeedStats(records=7, facts=7)


def test_replay_of_a_list_and_of_a_file_skip_the_same_blank_lines(tmp_path):
    # only JSON whitespace makes a line blank; U+3000 and \x0b are not it
    reg = load_registry(GOOD)
    lines = [record_line(1000, "730"), "\u3000", "\x0b", " \t", record_line(3000, "740")]
    feed = tmp_path / "feed.jsonl"
    feed.write_bytes("\n".join(lines).encode("utf-8") + b"\n")
    from_list = replay(lines, reg, fresh_engine(reg))
    from_file = replay(feed, reg, fresh_engine(reg))
    assert from_list == from_file == FeedStats(records=4, facts=2, malformed=2)


def test_replay_speed_scales_recorded_gaps(monkeypatch):
    naps = []
    monkeypatch.setattr(time, "sleep", lambda s: naps.append(s))
    reg = load_registry(GOOD)
    e = fresh_engine(reg)
    t0 = 1_700_000_000_000
    lines = [record_line(t0, "730"), record_line(t0 + 2000, "740"), record_line(t0 + 5000, "730")]
    replay(lines, reg, e, speed=2.0)
    assert naps == [1.0, 1.5]


def test_replay_speed_max_never_sleeps(monkeypatch):
    def boom(_):
        raise AssertionError("slept at speed=max")

    monkeypatch.setattr(time, "sleep", boom)
    reg = load_registry(GOOD)
    e = fresh_engine(reg)
    replay([record_line(1000, "730"), record_line(9000, "740")], reg, e, speed="max")


@pytest.mark.parametrize("speed", [0, -1, "fast", "nan"])
def test_replay_rejects_bad_speed(speed):
    reg = load_registry(GOOD)
    e = fresh_engine(reg)
    with pytest.raises(ValueError):
        replay([], reg, e, speed=speed)


@st.composite
def streams(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    lines = []
    t = 1_700_000_000_000
    for _ in range(n):
        t += draw(st.integers(min_value=-1500, max_value=3000))
        tag = draw(st.sampled_from(["A1B2", "C3D4", "XXXX"]))
        code = draw(st.sampled_from(["730", "740", "000"]))
        lines.append(record_line(t, code, tag=tag))
    return lines


@settings(max_examples=50, deadline=None)
@given(streams())
def test_replay_accounting_always_balances(lines):
    reg = load_registry(GOOD)
    e = fresh_engine(reg)
    stats = replay(lines, reg, e)
    assert stats.consistent()
    assert stats.records == len(lines)
    assert e.facts("MobileTrace") == []
    assert len(e.facts("is-currently-at")) == len(reg.persons)


def test_replay_counts_a_line_nested_too_deep():
    reg = load_registry(GOOD)
    e = fresh_engine(reg)
    deep = '{"a":' * 1000 + "1" + "}" * 1000
    stats = replay([deep, record_line(1_700_000_000_000, "730")], reg, e)
    assert stats.malformed == 1
    assert stats.facts == 1
    assert stats.consistent()
    (cur,) = [f for f in e.facts("is-currently-at") if f.value("name") == "Pete"]
    assert cur.value("location") == Symbol("730")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["t", "sensor", "payload", "x"]), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def any_lines(draw):
    t = 1_700_000_000_000
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("record", "record", "json", "text", "deep")))
        if kind == "record":
            t += draw(st.integers(-1500, 3000))
            code = draw(st.sampled_from(["730", "740", "000"]))
            lines.append(record_line(t, code, tag=draw(st.sampled_from(["A1B2", "C3D4", "XXXX"]))))
        elif kind == "json":
            lines.append(json.dumps(draw(_JSON)))
        elif kind == "text":
            lines.append(draw(st.text(max_size=30)))
        else:
            opener, closer = draw(st.sampled_from((("[", "]"), ('{"a":', "}"))))
            depth = draw(st.integers(1, 3000))
            lines.append(opener * depth + "1" + closer * draw(st.integers(0, depth)))
    return lines


@settings(max_examples=100, deadline=None)
@given(any_lines())
def test_replay_of_any_lines_stays_consistent(lines):
    reg = load_registry(GOOD)
    stats = replay(lines, reg, fresh_engine(reg))
    assert stats.consistent()
