"""Self-tests of the benchmark's checks: each one accepts a right output and
rejects a deliberately wrong one.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import gen  # noqa: E402

CORRIDORS = {("730", "740"): 20.0, ("101", "102"): 12.0}


def _row(name="P0", a="730", b="740", t_start=1000, t_finish=202000, distance=20.0):
    taken = t_finish - t_start
    return {"name": name, "endA": a, "endB": b, "tStart": t_start, "tFinish": t_finish, "distance": distance, "tTaken": taken, "velocity": distance / (taken / 1000)}


def test_stats_one_off():
    want = {"records": 10, "facts": 8, "duplicates": 1, "unknown_devices": 1, "out_of_order": 0, "malformed": 0}
    assert checks.stats(dict(want), want) == []
    for key in want:
        got = dict(want)
        got[key] += 1
        assert checks.stats(got, want), key


def test_velocity_formula():
    row = _row()
    assert checks.velocity(row) == []
    row["velocity"] *= 1 + 1e-9
    assert checks.velocity(row)


def test_journey_row_properties():
    assert checks.journey_row(_row(), CORRIDORS) == []
    assert checks.journey_row(_row(a="740", b="730"), CORRIDORS)  # unregistered direction
    assert checks.journey_row(_row(distance=21.0), CORRIDORS)
    bad = _row()
    bad["tTaken"] += 1000
    assert checks.journey_row(bad, CORRIDORS)
    assert checks.journey_row(_row(t_start=5000, t_finish=5000 - 1), CORRIDORS)


def test_exact_journeys_off_by_one_interval():
    want = [("730", "740", 1000, 202000)]
    assert checks.exact_journeys([_row()], want, CORRIDORS) == []
    assert checks.exact_journeys([_row(t_finish=203000)], want, CORRIDORS)
    assert checks.exact_journeys([], want, CORRIDORS)  # a cycle without its journey


TRUTH = [
    {"kind": "traversal", "person": "W01", "endA": "101", "endB": "102", "true_depart_ms": 10_000, "true_arrive_ms": 11_500, "true_tTaken_ms": 1500},
    {"kind": "traversal", "person": "W01", "endA": "101", "endB": "102", "true_depart_ms": 30_000, "true_arrive_ms": 31_500, "true_tTaken_ms": 1500},
]


def test_match_truth():
    ok = [_row("W01", "101", "102", 9_500, 12_000, 12.0), _row("W01", "101", "102", 30_000, 31_500, 12.0)]
    assert checks.match_truth(ok, TRUTH, 1000, CORRIDORS) == ([], 0)
    # tTaken off by one broadcast interval: starts a whole interval early
    late = [ok[0], _row("W01", "101", "102", 29_000, 31_500, 12.0)]
    errs, unmatched = checks.match_truth(late, TRUTH, 1000, CORRIDORS)
    assert errs and unmatched == 1
    # a true traversal nobody reported
    errs, unmatched = checks.match_truth(ok[:1], TRUTH, 1000, CORRIDORS)
    assert errs and unmatched == 0
    # the same traversal reported twice
    errs, _ = checks.match_truth(ok + ok[:1], TRUTH, 1000, CORRIDORS)
    assert errs
    # a journey that went the long way round matches nothing: a failed
    # operation, not a wrong output
    spurious = _row("W01", "101", "102", 12_000, 29_000, 12.0)
    assert checks.match_truth(ok + [spurious], TRUTH, 1000, CORRIDORS) == ([], 1)


def _where(loc, t_start, t_finish):
    return {"name": "P0", "location": loc, "tStart": t_start, "tFinish": t_finish}


def test_where_is_previous_location():
    runs = gen.runs([(1, "730"), (2, "730"), (3, "000"), (4, "740"), (5, "740")])
    assert runs == [("730", 1, 2), ("000", 3, 3), ("740", 4, 5)]
    assert checks.where_is([_where("740", 4, 5)], runs[-1]) == []
    assert checks.where_is([_where("000", 3, 3)], runs[-1])
    assert checks.where_is([_where("740", 4, 4)], runs[-1])
    assert checks.where_is([], runs[-1])


def test_history():
    want = [("730", 1, 2), ("000", 3, 3)]
    assert checks.history([_where(*x) for x in want], want) == []
    assert checks.history([_where(*want[0])], want)
    assert checks.history([_where(*x) for x in reversed(want)], want)


def _fact(fid, name, loc="101"):
    return {"id": fid, "template": "is-currently-at", "values": {"name": name, "location": loc, "tStart": 5, "tFinish": 9}}


def test_one_fact_per_person():
    persons = ["A", "B"]
    assert checks.one_fact_per_person([_fact(1, "A"), _fact(2, "B")], persons) == []
    assert checks.one_fact_per_person([_fact(1, "A")], persons)
    assert checks.one_fact_per_person([_fact(1, "A"), _fact(2, "B"), _fact(3, "B")], persons)


RULES = {"seen_at", "update_current_loc"}


def _tree():
    leaf = lambda fid, t: {"fact_id": fid, "template": t, "values": {}, "rule": None, "seq": fid, "children": []}  # noqa: E731
    seen = {"fact_id": 7, "template": "is-seen-at", "values": {}, "rule": "seen_at", "seq": 8, "children": [leaf(1, "Person"), leaf(6, "MobileTrace")]}
    root = {"fact_id": 3, "template": "is-currently-at", "values": _fact(3, "A")["values"], "rule": "update_current_loc", "seq": 9, "children": [leaf(3, "is-currently-at"), seen]}
    return root


def test_explain_tree():
    fact = _fact(3, "A")
    errs, nodes = checks.explain_tree(_tree(), fact, RULES)
    assert errs == [] and nodes == 5
    wrong_root = _tree()
    wrong_root["values"]["location"] = "102"
    assert checks.explain_tree(wrong_root, fact, RULES)[0]
    base_with_children = _tree()
    base_with_children["children"][0]["children"] = [copy.deepcopy(base_with_children["children"][1])]
    assert checks.explain_tree(base_with_children, fact, RULES)[0]
    derived_leaf = _tree()
    derived_leaf["children"][1]["children"] = []
    assert checks.explain_tree(derived_leaf, fact, RULES)[0]
    unknown_rule = _tree()
    unknown_rule["rule"] = "no_such_rule"
    assert checks.explain_tree(unknown_rule, fact, RULES)[0]


def test_rule_names_from_kb_text():
    kb = (Path(__file__).resolve().parents[1] / "src" / "rulesense" / "kb" / "tracking.clp").read_text(encoding="utf-8")
    assert gen.rule_names(kb) == {"seen_at", "was_at", "update_current_loc", "find_corridor_events", "drop_cyclic_journeys", "sweep_stale_sightings"}


@pytest.mark.parametrize("name", sorted(gen.BUILDERS))
def test_round_shape_does_not_depend_on_seed(name):
    """Every round must attempt the same operations whatever the seed, so
    that failed operations are the same share of attempted ones."""
    a, b = gen.BUILDERS[name](1), gen.BUILDERS[name](2)
    assert a.lines != b.lines
    assert a.stats == b.stats and len(a.lines) == len(b.lines)
    assert len(a.truth) == len(b.truth) and len(a.persons) == len(b.persons)
    assert sorted(a.polls) == sorted(b.polls)
    assert {k: len(v) for k, v in a.journeys.items()} == {k: len(v) for k, v in b.journeys.items()}
