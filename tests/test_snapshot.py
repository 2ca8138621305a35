"""Snapshot publishing: delta-chained views against a full-copy oracle."""

import gc
import sys
import threading
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from rulesense.ingest import bootstrap, replay
from rulesense.engine import Engine, WmView, WouldDuplicate
from rulesense.facts import Symbol
from rulesense.lang import parse_program
from rulesense.tracking import load_engine, run_pipeline

# `grow` modifies, `finish` asserts and `consume` retracts, so run() makes
# every kind of change, including facts born and retracted in one cycle.
KB = """
(deftemplate Item (slot kind) (slot n))
(deftemplate Done (slot kind))
(defrule finish (Item (kind ?k) (n ?n)) (test (>= ?n 3)) => (assert (Done (kind ?k))))
(defrule grow ?i <- (Item (kind b) (n ?n)) (test (< ?n 3)) => (modify ?i (n (+ ?n 1))))
(defrule consume ?d <- (Done (kind c)) => (retract ?d))
"""
KINDS = ("a", "b", "c")
TEMPLATES = ("Item", "Done")

ops = st.lists(
    st.one_of(
        st.tuples(st.just("assert"), st.sampled_from(KINDS), st.integers(0, 4)),
        st.tuples(st.just("modify"), st.integers(0, 3), st.integers(0, 4)),
        st.tuples(st.just("retract"), st.integers(0, 3)),
        st.just(("run",)),
        st.just(("snapshot",)),
    ),
    max_size=80,
)


def same_wm(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def check_view(view: WmView, oracle: dict, first: int = 0) -> None:
    """Check every read of `view` against `oracle`, starting with read
    `first` (0: facts, 1: facts by template, 2: fact), so that each of them is
    sometimes the read that copies a delta view."""

    def whole():
        assert len(view) == len(oracle)
        assert view.facts() == [oracle[i] for i in sorted(oracle)]

    def by_template():
        for t in TEMPLATES:
            want = sorted(i for i, f in oracle.items() if f.template.name == t)
            assert view.facts(t) == [oracle[i] for i in want]

    def each():
        for fid, f in oracle.items():
            assert view.fact(fid) is f

    reads = [whole, by_template, each]
    for read in reads[first:] + reads[:first]:
        read()


def apply(e: Engine, op: tuple) -> None:
    kind = op[0]
    live = sorted(e._wm)
    if kind == "assert":
        e.assert_fact("Item", {"kind": Symbol(op[1]), "n": op[2]})
    elif kind == "modify" and live:
        fid = live[op[1] % len(live)]
        if e._wm[fid].template.name == "Item":
            try:
                e.modify_fact(fid, {"n": op[2]})
            except WouldDuplicate:
                pass
    elif kind == "retract" and live:
        e.retract_fact(live[op[1] % len(live)])
    elif kind == "run":
        e.run()


@settings(max_examples=200, deadline=None)
@given(ops, st.data())
def test_views_match_full_copy_oracle_in_any_read_order(program, data):
    e = Engine(parse_program(KB))
    # enough standing facts for delta chains several views long
    for k in range(8):
        e.assert_fact("Item", {"kind": Symbol(f"s{k}"), "n": 0})
    views: list[WmView] = []
    oracles: list[dict] = []
    for op in program + [("snapshot",)]:
        if op[0] == "snapshot":
            views.append(e.snapshot())
            oracles.append(dict(e._wm))
        else:
            apply(e, op)
    for i in range(1, len(views)):
        # an unchanged WM republishes the same view
        assert (views[i] is views[i - 1]) == same_wm(oracles[i], oracles[i - 1])
    order = data.draw(st.permutations(range(len(views))))
    for i in order:
        check_view(views[i], oracles[i], data.draw(st.integers(0, 2)))
    for i in order:  # a second read answers from the materialized copy
        check_view(views[i], oracles[i])


def test_one_view_read_from_many_threads():
    e = Engine(parse_program(KB))
    views, oracles = [], []
    for n in range(40):
        e.assert_fact("Item", {"kind": Symbol("a"), "n": n})
        e.snapshot()
    for n in range(40):
        fid = sorted(e._wm)[n]
        e.modify_fact(fid, {"n": 100 + n})
        views.append(e.snapshot())
        oracles.append(dict(e._wm))
    assert all(v._parent is not None for v in views[1:])  # unread delta views
    barrier = threading.Barrier(4)
    errors: list[Exception] = []

    def read(order):
        try:
            barrier.wait(timeout=10)
            for i in order:
                check_view(views[i], oracles[i])
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    orders = [list(range(40)), list(range(39, -1, -1)), list(range(0, 40, 3)) + list(range(40)), [39] * 3]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(o,)) for o in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_unread_snapshots_hold_bounded_memory():
    """20k unread snapshots of a 1,000-fact WM, one modify apart, hold about
    one WM's worth of delta entries (and the fact versions they name),
    however many snapshots were taken."""
    size = 1000

    def fresh():
        # no rules: activations that are never run would grow the agenda
        e = Engine(parse_program("(deftemplate Item (slot kind) (slot n))"))
        fids = [e.assert_fact("Item", {"kind": Symbol(f"k{i}"), "n": 0}).fact_id for i in range(size)]
        e.snapshot()
        return e, fids

    def held_by_snapshots(rounds):
        # what the snapshotting engine holds beyond an engine that made the
        # same changes without snapshots (both keep their fire logs)
        held = []
        for snapshot in (False, True):
            e, fids = fresh()
            gc.collect()
            tracemalloc.start()
            try:
                for r in range(rounds):
                    e.modify_fact(fids[r % size], {"n": r})
                    if snapshot:
                        e.snapshot()
                gc.collect()
                held.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
        return held[1] - held[0]

    e, _ = fresh()
    tracemalloc.start()
    try:
        copy = WmView(dict(e._wm), {k: set(v) for k, v in e._by_template.items()})
        full_copy = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del copy

    # 999 past a full copy, so the delta chain is at its longest in both
    at_10k = held_by_snapshots(9_999)
    at_20k = held_by_snapshots(19_999)
    assert at_20k < 16 * full_copy
    assert at_20k < at_10k + full_copy


def test_replay_without_refresh_keeps_no_born_and_retracted_facts(registry_s1, s1_replay_path):
    # never snapshotted: every retracted MobileTrace and is-seen-at was born
    # since the last view, so the pending changes are exactly the live WM
    engine, stats = run_pipeline(registry_s1, s1_replay_path)
    assert stats.facts > 0
    assert engine._changes.keys() == engine._wm.keys()

    # one view after bootstrap, as the service publishes at start: only
    # facts that view saw may be recorded as retracted
    engine = load_engine()
    bootstrap(engine, registry_s1)
    engine.run()
    first = engine.snapshot()
    seen = dict(engine._wm)
    replay(s1_replay_path, registry_s1, engine)
    assert all(fid in engine._wm if f is not None else fid in seen for fid, f in engine._changes.items())
    assert len(engine._changes) <= len(engine._wm) + len(seen)
    check_view(first, seen)
    check_view(engine.snapshot(), dict(engine._wm))
