"""Provenance on the facts: flat memory over long feeds, and explain trees
that any depth of derivation cannot fail, served from the snapshot."""

import gc
import http.client
import json
import sys
import tracemalloc

import pytest

from rulesense.engine import Engine
from rulesense.ingest import load_registry
from rulesense.lang import parse_program
from rulesense.service import QueryService, explain_to_obj
from rulesense.tracking import run_pipeline


def get_raw(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def parse_deep(data: bytes):
    """json.loads recurses once per level: the client, not the server, gets
    the room to parse a deep tree."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        return json.loads(data)
    finally:
        sys.setrecursionlimit(limit)


@pytest.fixture()
def serve():
    services = []

    def start(engine):
        svc = QueryService(engine)
        services.append(svc)
        return svc, svc.start()[1]

    yield start
    for svc in services:
        svc.stop()


# ------------------------------------------------------------
# memory does not grow with the feed
# ------------------------------------------------------------


# Each person walks 100 -> 730 -> 740 (one journey) in the first 800
# readings, then dwells at 740: both measuring points see the same WM.
_WALK = [("100", 300), ("000", 100), ("730", 300), ("000", 100)]


def _code(i: int) -> str:
    for code, n in _WALK:
        if i < n:
            return code
        i -= n
    return "740"


def _bulk_lines(total: int, persons: int = 5):
    """The criterion-9 feed shape: long dwells, one reading per person per
    second, every line its own replay cycle."""
    t0 = 1_700_000_000_000
    for i in range(total // persons):
        code = _code(i)
        for p in range(persons):
            yield json.dumps(
                {
                    "t": t0 + i * 1000 + p * 150,
                    "sensor": "rfidReader",
                    "reader_location": "R1",
                    "payload": {"tag_id": f"D{p}", "ir_code": code, "motion": True},
                }
            )


def test_retained_memory_is_flat_in_feed_length():
    reg = load_registry(
        {
            "persons": [{"name": f"P{p}", "deviceAddress": f"D{p}"} for p in range(5)],
            "corridors": [{"enda": "730", "endb": "740", "length": 20.0}],
        }
    )
    retained = {}
    wm = {}
    cycles = 0

    def on_cycle(engine):
        nonlocal cycles
        cycles += 1
        if cycles in (10_000, 40_000):
            gc.collect()
            retained[cycles] = tracemalloc.get_traced_memory()[0]
            wm[cycles] = len(engine.facts())

    tracemalloc.start()
    try:
        engine, stats = run_pipeline(reg, _bulk_lines(40_000), on_cycle=on_cycle)
    finally:
        tracemalloc.stop()
    assert stats.facts == 40_000 and len(engine.facts("was-tracked")) == 5
    assert wm[10_000] == wm[40_000]
    grown = retained[40_000] - retained[10_000]
    assert grown < 256 * 1024, f"retained memory grew {grown} bytes from 10k to 40k records"


# ------------------------------------------------------------
# deep explain over HTTP
# ------------------------------------------------------------


def test_deep_modify_chain_explains_folded(serve):
    engine = Engine(
        parse_program(
            """
            (deftemplate C (slot n))
            (defrule bump ?c <- (C (n ?n)) (test (< ?n 5000)) => (modify ?c (n (+ ?n 1))))
            (assert (C (n 0)))
            """
        )
    )
    engine.run()
    (c,) = engine.facts("C")
    _, port = serve(engine)
    limit = sys.getrecursionlimit()
    status, data = get_raw(port, f"/explain/{c.id}")
    assert sys.getrecursionlimit() == limit
    assert status == 200, data[:200]
    tree = json.loads(data)
    assert tree["values"] == {"n": 5000} and tree["rule"] == "bump"
    assert tree["folded"] == 4999
    (opener,) = tree["children"]
    assert opener == {
        "fact_id": c.id, "template": "C", "values": {"n": 0}, "rule": None, "seq": 0, "folded": 0, "children": []
    }


def test_deep_assert_chain_explains_in_full(serve):
    engine = Engine(
        parse_program(
            """
            (deftemplate N (slot n))
            (defrule next (N (n ?n)) (test (< ?n 3000)) => (assert (N (n (+ ?n 1)))))
            (assert (N (n 0)))
            """
        )
    )
    engine.run()
    last = engine.facts("N")[-1]
    assert last.values["n"] == 3000
    _, port = serve(engine)
    limit = sys.getrecursionlimit()
    status, data = get_raw(port, f"/explain/{last.id}")
    assert sys.getrecursionlimit() == limit
    assert status == 200, data[:200]
    node = parse_deep(data)
    for n in range(3000, 0, -1):
        assert (node["values"], node["rule"], node["folded"]) == ({"n": n}, "next", 0)
        (node,) = node["children"]
    assert (node["values"], node["rule"], node["children"]) == ({"n": 0}, None, [])


def _step_engine(n: int) -> Engine:
    """Every step joins both outputs of the step before, so each version
    has two parents and the unshared tree doubles per level."""
    engine = Engine(
        parse_program(
            f"""
            (deftemplate A (slot n))
            (deftemplate B (slot n))
            (defrule step (A (n ?n)) (B (n ?n)) (test (< ?n {n}))
              => (assert (A (n (+ ?n 1)))) (assert (B (n (+ ?n 1)))))
            (assert (A (n 0)) (B (n 0)))
            """
        )
    )
    engine.run()
    return engine


def test_shared_versions_are_written_once():
    sizes = {}
    for n in (8, 16):
        engine = _step_engine(n)
        (top,) = [f for f in engine.facts("A") if f.values["n"] == n]
        text = explain_to_obj(engine.explain(top.id))
        sizes[n] = len(text)
        # every inner version in full once, each later occurrence a stub
        # naming one written before it
        full, stubs = set(), 0
        stack = [json.loads(text)]
        while stack:
            node = stack.pop()
            if node.get("repeat"):
                assert node == {"fact_id": node["fact_id"], "seq": node["seq"], "repeat": True}
                assert (node["fact_id"], node["seq"]) in full
                stubs += 1
                continue
            if node["children"]:
                assert (node["fact_id"], node["seq"]) not in full
                full.add((node["fact_id"], node["seq"]))
            stack.extend(reversed(node["children"]))
        assert (len(full), stubs) == (2 * n - 1, 2 * n - 4)
    assert sizes[16] < 2.5 * sizes[8], sizes


def test_a_version_reached_twice_on_one_path_is_one_node():
    # P consumes C and A, and A was made from C: the explain walk meets C
    # again while A still waits on it
    engine = Engine(
        parse_program(
            """
            (deftemplate X (slot n))
            (deftemplate C (slot n))
            (deftemplate A (slot n))
            (deftemplate P (slot n))
            (defrule c (X (n ?n)) => (assert (C (n ?n))))
            (defrule a (C (n ?n)) => (assert (A (n ?n))))
            (defrule p (C (n ?n)) (A (n ?n)) => (assert (P (n ?n))))
            (assert (X (n 1)))
            """
        )
    )
    engine.run()
    (p,) = engine.facts("P")
    tree = engine.explain(p.id)
    c, a = tree.children
    (c_in_a,) = a.children
    assert c_in_a is c
    assert (c.template, a.template, c.children[0].template) == ("C", "A", "X")
    obj = json.loads(explain_to_obj(tree))
    c_obj, a_obj = obj["children"]
    assert (c_obj["template"], [x["template"] for x in c_obj["children"]]) == ("C", ["X"])
    assert a_obj["children"] == [{"fact_id": c.fact_id, "seq": c.seq, "repeat": True}]


# ------------------------------------------------------------
# explain answers from the snapshot
# ------------------------------------------------------------


def test_served_tree_holds_until_the_next_refresh(serve):
    engine = Engine(
        parse_program(
            """
            (deftemplate C (slot n))
            (deftemplate Tick (slot k))
            (defrule count ?c <- (C (n ?n)) ?t <- (Tick (k ?k)) => (retract ?t) (modify ?c (n (+ ?n 1))))
            (assert (C (n 0)))
            """
        )
    )

    def ticks(ks):
        for k in ks:
            engine.assert_fact("Tick", {"k": k})
            engine.run()

    ticks(range(3))
    (c,) = engine.facts("C")
    svc, port = serve(engine)

    def explain():
        status, data = get_raw(port, f"/explain/{c.id}")
        return status, json.loads(data)

    status, served = explain()
    assert status == 200
    assert (served["values"], served["folded"]) == ({"n": 3}, 2)
    assert [ch["values"] for ch in served["children"]] == [{"n": 0}, {"k": 2}]

    ticks(range(3, 5))  # the rule modifies the fact twice more
    assert explain() == (200, served)
    engine.modify_fact(c.id, {"n": 100})
    assert explain() == (200, served)

    svc.refresh()
    status, tree = explain()
    assert status == 200
    assert (tree["values"], tree["rule"], tree["children"]) == ({"n": 100}, None, [])

    ticks([5])
    svc.refresh()
    status, tree = explain()
    assert (tree["values"], tree["folded"]) == ({"n": 101}, 0)
    assert [ch["values"] for ch in tree["children"]] == [{"n": 100}, {"k": 5}]

    engine.retract_fact(c.id)
    assert explain() == (200, tree)
    svc.refresh()
    assert explain()[0] == 404

