"""The location-tracking pipeline end to end, plus row shaping."""

import pytest

from conftest import firelog_entries, kb_without, record_line, undecodable_feed
from rulesense import lang
from rulesense.facts import Symbol
from rulesense.tracking import (
    build_tracking_kb,
    hms,
    load_engine,
    run_pipeline,
    shaped_query,
)

T0 = 1_700_000_000_000


# ------------------------------------------------------------
# KB loading
# ------------------------------------------------------------


def test_load_engine_exposes_the_shipped_rules():
    e = load_engine()
    assert e.rule_names == [
        "seen_at",
        "was_at",
        "update_current_loc",
        "find_corridor_events",
        "drop_cyclic_journeys",
        "sweep_stale_sightings",
    ]
    queries = [c.name for c in lang.parse_program(build_tracking_kb()) if isinstance(c, lang.QueryDef)]
    assert sorted(queries) == ["find_journeys", "location_history", "where_is"]


# ------------------------------------------------------------
# the canonical single-person walk
# ------------------------------------------------------------


def test_s1_walk_yields_exactly_two_journeys(registry_s1, s1_replay_path):
    engine, stats = run_pipeline(registry_s1, s1_replay_path)
    assert stats.records == 7 and stats.facts == 7 and stats.consistent()

    rows = shaped_query(engine, "find_journeys", {"name": "Pete"})
    assert len(rows) == 2
    for row in rows:
        assert (row["endA"], row["endB"]) == ("730", "740")
        assert row["tTaken"] == 4000
        assert row["distance"] == 20.0
        assert row["velocity"] == 5.0
    assert rows[0]["tStart"] == T0 and rows[0]["tFinish"] == T0 + 4000
    assert rows[1]["tStart"] == T0 + 8000 and rows[1]["tFinish"] == T0 + 12000
    assert len(engine.facts("was-tracked")) == 2


def test_s1_without_cycle_cleanup_keeps_the_containing_journey(registry_s1, s1_replay_path):
    engine, _ = run_pipeline(registry_s1, s1_replay_path, kb_text=kb_without("drop_cyclic_journeys"))
    assert "drop_cyclic_journeys" not in engine.rule_names and len(engine.rule_names) == 5
    rows = shaped_query(engine, "find_journeys", {"name": "Pete"})
    assert len(rows) == 3
    spans = sorted(r["tFinish"] - r["tStart"] for r in rows)
    assert spans == [4000, 4000, 12000]  # the 12s one spans the whole loop


def test_s1_quiescent_working_memory(registry_s1, s1_replay_path):
    engine, _ = run_pipeline(registry_s1, s1_replay_path)
    assert engine.facts("MobileTrace") == []
    assert engine.facts("is-seen-at") == []
    (cur,) = engine.facts("is-currently-at")
    assert cur.values["location"] == Symbol("740")
    assert cur.values["tStart"] == T0 + 12000


def test_s1_where_is(registry_s1, s1_replay_path):
    engine, _ = run_pipeline(registry_s1, s1_replay_path)
    (row,) = shaped_query(engine, "where_is", {"name": "Pete"})
    assert row["location"] == "740"
    assert row["tFinish"] == T0 + 12000
    assert row["tFinish_hms"] == hms(T0 + 12000)


def test_s1_location_history_hides_the_bootstrap_row(registry_s1, s1_replay_path):
    engine, _ = run_pipeline(registry_s1, s1_replay_path)
    rows = shaped_query(engine, "location_history", {"name": "Pete"})
    assert [r["location"] for r in rows] == ["730", "000", "740", "000", "730", "000"]
    # chronological and non-overlapping
    for a, b in zip(rows, rows[1:]):
        assert a["tStart"] <= a["tFinish"] <= b["tStart"]
    with_dummy = shaped_query(engine, "location_history", {"name": "Pete"}, include_dummy=True)
    assert len(with_dummy) == 7
    assert with_dummy[0]["location"] == "dummyLoc" and with_dummy[0]["tStart"] == 0


def test_reverse_walk_reports_no_journey(registry_s1):
    lines = [
        record_line(T0, "740"),
        record_line(T0 + 2000, "000"),
        record_line(T0 + 4000, "730"),
    ]
    engine, _ = run_pipeline(registry_s1, lines)
    assert shaped_query(engine, "find_journeys", {"name": "Pete"}) == []


def test_zero_time_traversal_is_no_journey_and_no_error(registry_s1):
    # readings at both corridor ends in one millisecond mean the readers
    # overlapped. Recency fires the later reading of the cohort first, so
    # the 730 interval closes at T0+4000 just as the 740 one opens: a move
    # that takes no time, which must not reach the velocity division
    lines = [
        record_line(T0, "730"),
        record_line(T0 + 4000, "740"),
        record_line(T0 + 4000, "730"),
        record_line(T0 + 8000, "740"),
    ]
    engine, stats = run_pipeline(registry_s1, lines, firelog=[])
    assert stats.facts == 4
    assert [e["error"] for e in firelog_entries(engine) if "error" in e] == []
    assert shaped_query(engine, "find_journeys", {"name": "Pete"}) == []
    assert engine.fire_counts["find_corridor_events"] == 0


@pytest.mark.parametrize("t", [10**17, 10**20])
def test_a_reading_past_year_9999_is_malformed_and_the_feed_goes_on(registry_s1, s1_replay_lines, t):
    # such a t cannot be rendered as HH:MM:SS, and as the latest t seen it
    # would make every later line out of order
    lines = s1_replay_lines[:3] + [record_line(t, "730")] + s1_replay_lines[3:]
    engine, stats = run_pipeline(registry_s1, lines)
    assert (stats.malformed, stats.out_of_order, stats.facts) == (1, 0, 7)
    (row,) = shaped_query(engine, "where_is", {"name": "Pete"})
    assert row["location"] == "740" and row["tStart"] == T0 + 12000


def test_a_line_that_is_not_utf8_is_malformed_and_spoils_no_other(registry_s1, tmp_path):
    # the lines around it decode, even those read in the same chunk as it
    engine, stats = run_pipeline(registry_s1, undecodable_feed(tmp_path / "feed.jsonl"))
    assert (stats.records, stats.facts, stats.malformed) == (3, 2, 1)
    (row,) = shaped_query(engine, "where_is", {"name": "Pete"})
    assert row["location"] == "740" and row["tStart"] == 3000


# ------------------------------------------------------------
# the timed walk (known corridor times)
# ------------------------------------------------------------


def test_timed_walk_recovers_exact_corridor_times(registry_s1, timed_replay_path):
    engine, stats = run_pipeline(registry_s1, timed_replay_path)
    assert stats.records == 16 and stats.facts == 16
    rows = shaped_query(engine, "find_journeys", {"name": "Pete"})
    assert [r["tTaken"] for r in rows] == [42000, 39000, 43000, 35000]
    assert [(r["tStart_hms"], r["tFinish_hms"]) for r in rows] == [
        ("13:30:44", "13:31:26"),
        ("13:36:21", "13:37:00"),
        ("13:59:25", "14:00:08"),
        ("14:13:41", "14:14:16"),
    ]
    for r in rows:
        assert r["velocity"] == 20.0 / (r["tTaken"] / 1000.0)


def test_delay_correction_is_presentation_only(registry_s1, timed_replay_path):
    engine, _ = run_pipeline(registry_s1, timed_replay_path)
    rows = shaped_query(engine, "find_journeys", {"name": "Pete"}, delay_correction_ms=2000)
    assert [r["corrected_tTaken"] for r in rows] == [38000, 35000, 39000, 31000]
    assert [r["tTaken"] for r in rows] == [42000, 39000, 43000, 35000]  # facts untouched
    # a correction bigger than the journey clamps at zero
    clamped = shaped_query(engine, "find_journeys", {"name": "Pete"}, delay_correction_ms=30000)
    assert [r["corrected_tTaken"] for r in clamped] == [0, 0, 0, 0]


def test_negative_delay_correction_rejected():
    with pytest.raises(ValueError):
        shaped_query(load_engine(), "find_journeys", {"name": "Pete"}, delay_correction_ms=-1)


# ------------------------------------------------------------
# shaping helpers
# ------------------------------------------------------------


def test_hms_renders_utc():
    assert hms(0) == "00:00:00"
    assert hms(1_577_885_440_000) == "13:30:40"


def test_shaped_query_generic_fallback(registry_s1):
    kb = build_tracking_kb() + (
        "\n(defquery traces-for (declare (variables ?address))"
        " ?m <- (MobileTrace (location ?location) (address ?address) (time ?time)))\n"
    )
    engine, _ = run_pipeline(registry_s1, [], kb_text=kb)
    fid = engine.assert_fact(
        "MobileTrace", {"location": Symbol("730"), "address": "ZZZZ", "time": 5}
    ).fact_id
    rows = shaped_query(engine, "traces-for", {"address": "ZZZZ"})
    assert rows == [
        {
            "bindings": {"address": "ZZZZ", "location": "730", "m": fid, "time": 5},
            "fact_ids": [fid],
        }
    ]
