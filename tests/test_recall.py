"""The simulator's ground truth as a recall oracle for the shipped KB.

A random scenario is generated into a feed and replayed through the whole
pipeline; every true traversal (`simulator.true_traversals`) must then be
reported once, within its timing bound, by the same matcher the benchmark
uses (`perfbench/checks.py::match_truth`). Reported journeys that match no
true traversal are counted by the matcher but not asserted on here: the
shipped KB still reports some journeys that were never walked.
"""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rulesense.ingest import load_registry
from rulesense.simulator import Room, Scenario, Walk, Waypoint, generate, true_traversals
from rulesense.tracking import run_pipeline, shaped_query

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from checks import match_truth  # noqa: E402

T0 = 1_700_000_000_000
BROADCAST_MS = 2000
BT_MS = 3000


@st.composite
def scenarios(draw) -> Scenario:
    """3-6 locator rooms, some with a Bluetooth reader; each ordered room
    pair a corridor with probability 0.6; 1-3 walkers of 2-8 waypoints, free
    to revisit a room; line of sight always. A dwell lasts at least one
    broadcast interval, so every waypoint is read at least once."""
    codes = [f"{100 + i}" for i in range(draw(st.integers(3, 6)))]
    rooms = tuple(Room(c, True, draw(st.booleans())) for c in codes)
    corridors = [
        {"enda": a, "endb": b, "length": float(draw(st.integers(5, 40)))}
        for a in codes
        for b in codes
        if a != b and draw(st.integers(0, 9)) < 6
    ]
    walks = []
    persons = []
    for k in range(draw(st.integers(1, 3))):
        t = T0 + draw(st.integers(0, 5000))
        path = [draw(st.sampled_from(codes))]
        for _ in range(draw(st.integers(1, 7))):
            path.append(draw(st.sampled_from([c for c in codes if c != path[-1]])))
        waypoints = []
        for code in path:
            depart = t + draw(st.integers(BROADCAST_MS, 5 * BROADCAST_MS))
            waypoints.append(Waypoint(code, t, depart))
            t = depart + draw(st.integers(1, 3 * BROADCAST_MS))
        walks.append(Walk(f"W{k}", tuple(waypoints)))
        persons.append({"name": f"W{k}", "deviceAddress": f"D{k:03d}"})
    reg = load_registry({"persons": persons, "corridors": corridors})
    bt = BT_MS if any(r.bt_reader for r in rooms) else None
    return Scenario(rooms, reg, tuple(walks), BROADCAST_MS, 1.0, bt_interval_ms=bt)


@settings(max_examples=100, deadline=None)
@given(s=scenarios())
def test_every_true_traversal_is_reported_within_its_bound(s):
    replay_text, _ = generate(s)
    engine, stats = run_pipeline(s.registry, replay_text.splitlines())
    assert stats.malformed == 0
    rows = [r for w in s.walks for r in shaped_query(engine, "find_journeys", {"name": w.person})]
    corridors = {(c.enda, c.endb): c.length for c in s.registry.corridors}
    errs, _unmatched = match_truth(rows, true_traversals(s), BROADCAST_MS, corridors)
    assert errs == []
