"""Scenario validation, the seeded feed generator, and ground truth."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, unreadable_scenarios
from rulesense.ingest import MAX_T, load_registry
from rulesense.simulator import (
    InvalidScenario,
    Lcg,
    Room,
    Scenario,
    Walk,
    Waypoint,
    generate,
    load_scenario,
    true_traversals,
)
from rulesense.tracking import run_pipeline, shaped_query

REG = load_registry(
    {
        "persons": [
            {"name": "Pete", "deviceAddress": "A1B2"},
            {"name": "Maya", "deviceAddress": "C3D4"},
        ],
        "corridors": [{"enda": "730", "endb": "740", "length": 20}],
    }
)

R730 = Room("730", has_locator=True)
R740 = Room("740", has_locator=True)
R999 = Room("999", has_locator=False)


def scenario(walks, rooms=(R730, R740, R999), **kw):
    return Scenario(tuple(rooms), REG, tuple(walks), **kw)


def parse_lines(text):
    return [json.loads(line) for line in text.splitlines()]


# ------------------------------------------------------------
# the RNG
# ------------------------------------------------------------


def test_lcg_matches_the_written_formula():
    a, c = 6364136223846793005, 1442695040888963407
    state = 42
    expected = []
    for _ in range(5):
        state = (a * state + c) % (1 << 64)
        expected.append((state >> 11) / float(1 << 53))
    rng = Lcg(42)
    assert [rng.uniform() for _ in range(5)] == expected


def test_lcg_draws_stay_in_unit_interval():
    rng = Lcg(7)
    for _ in range(1000):
        assert 0.0 <= rng.uniform() < 1.0


def test_lcg_seed_wraps_to_64_bits():
    a, b = Lcg(5), Lcg((1 << 64) + 5)
    assert [a.uniform() for _ in range(3)] == [b.uniform() for _ in range(3)]


# ------------------------------------------------------------
# scenario loading
# ------------------------------------------------------------


def base_scenario_obj():
    return {
        "rooms": [
            {"code": "730", "has_locator": True},
            {"code": "740", "has_locator": True},
        ],
        "walks": [
            {
                "person": "Pete",
                "waypoints": [
                    {"location": "730", "arrive_t": 0, "depart_t": 4000},
                    {"location": "740", "arrive_t": 8000, "depart_t": 12000},
                ],
            }
        ],
    }


def test_load_scenario_from_dict():
    s = load_scenario(base_scenario_obj(), registry=REG)
    assert s.broadcast_interval_ms == 2000 and s.los_probability == 1.0 and s.seed == 0
    assert s.bt_interval_ms is None
    assert s.walks[0].waypoints[1] == Waypoint("740", 8000, 12000)


def test_load_scenario_resolves_registry_relative_to_file():
    s = load_scenario(FIXTURES / "s1_scenario.json")
    assert [p.name for p in s.registry.persons] == ["Pete"]
    assert s.seed == 42 and len(s.rooms) == 3


@pytest.mark.parametrize(
    "mutation,needle",
    [
        (lambda o: o.update(rooms=[]), "rooms"),
        (lambda o: o["rooms"].append({"code": "73", "has_locator": True}), "3-character"),
        (lambda o: o["rooms"].append({"code": "730", "has_locator": True}), "duplicate"),
        (lambda o: o["rooms"].append({"code": "750"}), "has_locator"),
        (lambda o: o["rooms"].append({"code": "750", "has_locator": True, "bt_reader": 1}), "bt_reader"),
        (lambda o: o.__delitem__("walks"), "walks"),
        (lambda o: o["walks"].append({"person": "Ghost", "waypoints": []}), "Ghost"),
        (lambda o: o["walks"].append({"person": "Maya", "waypoints": []}), "waypoints"),
        (lambda o: o["walks"][0]["waypoints"].append({"location": "999", "arrive_t": 20000, "depart_t": 21000}), "999"),
        (lambda o: o["walks"][0]["waypoints"].append({"location": "730", "arrive_t": 20000, "depart_t": 19000}), "depart_t"),
        (lambda o: o["walks"][0]["waypoints"].append({"location": "730", "arrive_t": 9000, "depart_t": 30000}), "overlaps"),
        (lambda o: o["walks"][0]["waypoints"].__setitem__(0, {"location": "730", "arrive_t": -1, "depart_t": 0}), "arrive_t"),
        (lambda o: o.update(broadcast_interval_ms=0), "broadcast_interval_ms"),
        (lambda o: o.update(los_probability=1.5), "los_probability"),
        (lambda o: o.update(los_probability=True), "los_probability"),
        (lambda o: o.update(seed="x"), "seed"),
        (lambda o: o.update(bt_interval_ms=0), "bt_interval_ms"),
        (lambda o: [o], "top level must be a JSON object"),
        (lambda o: o["rooms"].append("750"), "rooms[2]: must be an object"),
        (lambda o: o["walks"].append("Maya"), "walks[1]: must be an object"),
        (lambda o: o["walks"][0]["waypoints"].append("730"), "waypoints[2]: must be an object"),
    ],
)
def test_scenario_rejections(mutation, needle):
    # a mutation changes the scenario in place, or returns its replacement
    obj = base_scenario_obj()
    obj = mutation(obj) or obj
    with pytest.raises(InvalidScenario) as ei:
        load_scenario(obj, registry=REG)
    assert needle in str(ei.value)


def test_scenario_requires_registry_reference():
    obj = base_scenario_obj()
    with pytest.raises(InvalidScenario) as ei:
        load_scenario(obj)  # dict source and no registry= given
    assert "registry" in str(ei.value)


def test_scenario_unreadable_path():
    with pytest.raises(InvalidScenario):
        load_scenario("/nonexistent/scenario.json")


def test_scenario_the_decoder_cannot_read_is_invalid(tmp_path):
    for path in unreadable_scenarios(tmp_path):
        with pytest.raises(InvalidScenario, match="^unreadable scenario: "):
            load_scenario(path)


def test_walk_may_end_at_max_t_and_no_later():
    obj = base_scenario_obj()
    for wp in obj["walks"][0]["waypoints"]:  # 730 then 740, ending at 12000
        wp["arrive_t"] += MAX_T - 12000
        wp["depart_t"] += MAX_T - 12000
    s = load_scenario(obj, registry=REG)
    engine, stats = run_pipeline(REG, generate(s)[0].splitlines())
    assert stats.malformed == 0
    (row,) = shaped_query(engine, "find_journeys", {"name": "Pete"})
    assert (row["endA"], row["endB"], row["tFinish"]) == ("730", "740", MAX_T - 4000)
    obj["walks"][0]["waypoints"][1]["depart_t"] = MAX_T + 8000
    with pytest.raises(InvalidScenario, match=r"waypoints\[1\]: depart_t past"):
        load_scenario(obj, registry=REG)


# ------------------------------------------------------------
# feed generation
# ------------------------------------------------------------


def test_grid_is_anchored_at_first_arrival():
    s = scenario([Walk("Pete", (Waypoint("730", 0, 10000),))])
    recs = parse_lines(generate(s)[0])
    assert [r["t"] for r in recs] == [0, 2000, 4000, 6000, 8000, 10000]
    assert {r["payload"]["ir_code"] for r in recs} == {"730"}
    assert recs[0]["payload"]["tag_id"] == "A1B2"
    assert recs[0]["sensor"] == "rfidReader" and recs[0]["reader_location"] == "R1"
    assert recs[0]["payload"]["motion"] is True


def test_transit_and_locator_less_rooms_read_000():
    s = scenario(
        [
            Walk(
                "Pete",
                (
                    Waypoint("730", 0, 4000),
                    Waypoint("999", 8000, 10000),
                    Waypoint("740", 14000, 18000),
                ),
            )
        ]
    )
    recs = parse_lines(generate(s)[0])
    codes = [r["payload"]["ir_code"] for r in recs]
    assert codes == ["730", "730", "730", "000", "000", "000", "000", "740", "740", "740"]


def test_zero_los_probability_blinds_every_locator():
    s = scenario([Walk("Pete", (Waypoint("730", 0, 10000),))], los_probability=0.0)
    recs = parse_lines(generate(s)[0])
    assert [r["payload"]["ir_code"] for r in recs] == ["000"] * 6


def test_record_grid_does_not_depend_on_los_probability():
    walks = [Walk("Pete", (Waypoint("730", 0, 6000), Waypoint("740", 10000, 16000)))]
    texts = {p: generate(scenario(walks, los_probability=p, seed=9))[0] for p in (0.0, 0.5, 1.0)}
    grids = {p: [(r["t"], r["payload"]["tag_id"]) for r in parse_lines(t)] for p, t in texts.items()}
    assert grids[0.0] == grids[0.5] == grids[1.0]


def test_same_seed_same_bytes_different_seed_different_codes():
    walks = [Walk("Pete", (Waypoint("730", 0, 40000),))]
    a = generate(scenario(walks, los_probability=0.5, seed=1))
    b = generate(scenario(walks, los_probability=0.5, seed=1))
    c = generate(scenario(walks, los_probability=0.5, seed=2))
    assert a == b
    assert a[0] != c[0]
    assert a[1] == c[1]  # ground truth is scripted, not drawn


def test_walks_merge_sorted_and_stable():
    s = scenario(
        [
            Walk("Pete", (Waypoint("730", 0, 4000),)),
            Walk("Maya", (Waypoint("740", 0, 4000),)),
        ]
    )
    recs = parse_lines(generate(s)[0])
    assert [r["t"] for r in recs] == [0, 0, 2000, 2000, 4000, 4000]
    # scenario order breaks timestamp ties
    assert [r["payload"]["tag_id"] for r in recs[:2]] == ["A1B2", "C3D4"]


def test_bt_records_come_from_bt_rooms():
    rooms = (R730, Room("750", has_locator=False, bt_reader=True))
    s = scenario(
        [Walk("Pete", (Waypoint("750", 0, 4000),))],
        rooms=rooms,
        bt_interval_ms=2000,
    )
    recs = parse_lines(generate(s)[0])
    assert [r["sensor"] for r in recs] == ["rfidReader", "btReader"] * 3
    bt = [r for r in recs if r["sensor"] == "btReader"]
    assert [r["t"] for r in bt] == [0, 2000, 4000]
    assert {r["reader_location"] for r in bt} == {"750"}
    assert {r["payload"]["bt_address"] for r in bt} == {"A1B2"}
    # rfid still broadcasts, but the room has no IR locator
    assert {r["payload"]["ir_code"] for r in recs if r["sensor"] == "rfidReader"} == {"000"}


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=10**7),
    dwell=st.integers(min_value=0, max_value=10**5),
    interval=st.integers(min_value=1, max_value=10**4),
)
def test_grid_count_and_spacing(start, dwell, interval):
    s = scenario(
        [Walk("Pete", (Waypoint("730", start, start + dwell),))],
        broadcast_interval_ms=interval,
    )
    recs = parse_lines(generate(s)[0])
    assert len(recs) == dwell // interval + 1
    assert [r["t"] for r in recs] == [start + k * interval for k in range(len(recs))]


# ------------------------------------------------------------
# ground truth
# ------------------------------------------------------------


def test_true_traversals_match_corridor_direction():
    forward = scenario([Walk("Pete", (Waypoint("730", 0, 4000), Waypoint("740", 42000, 50000)))])
    (row,) = true_traversals(forward)
    assert row == {
        "kind": "traversal",
        "person": "Pete",
        "endA": "730",
        "endB": "740",
        "true_depart_ms": 4000,
        "true_arrive_ms": 42000,
        "true_tTaken_ms": 38000,
    }
    backward = scenario([Walk("Pete", (Waypoint("740", 0, 4000), Waypoint("730", 42000, 50000)))])
    assert true_traversals(backward) == []


def test_locator_less_dwell_does_not_break_a_pair():
    s = scenario(
        [
            Walk(
                "Pete",
                (
                    Waypoint("730", 0, 4000),
                    Waypoint("999", 6000, 8000),
                    Waypoint("740", 10000, 14000),
                ),
            )
        ]
    )
    (row,) = true_traversals(s)
    assert (row["endA"], row["endB"]) == ("730", "740")
    assert row["true_tTaken_ms"] == 6000  # 730 departure to 740 arrival


def test_truth_file_layout():
    s = load_scenario(FIXTURES / "s1_scenario.json")
    rows = parse_lines(generate(s)[1])
    kinds = [r["kind"] for r in rows]
    assert kinds == ["waypoint"] * 7 + ["traversal"] * 2
    assert all(r["true_tTaken_ms"] == 4000 for r in rows[7:])


def test_s1_fixtures_regenerate_byte_identically():
    s = load_scenario(FIXTURES / "s1_scenario.json")
    replay_text, truth_text = generate(s)
    assert replay_text == (FIXTURES / "s1_replay.jsonl").read_text(encoding="utf-8")
    assert truth_text == (FIXTURES / "s1_truth.jsonl").read_text(encoding="utf-8")
