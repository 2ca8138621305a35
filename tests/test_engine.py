"""Engine semantics: evaluation, matching, agenda order, logging, queries."""

import functools
import gc
import io
import itertools
import statistics
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import firelog_entries
from rulesense.engine import (
    DuplicateRuleName,
    Engine,
    FireLogWriter,
    MissingParameter,
    NotDerived,
    RuntimeEvalError,
    UnknownFactId,
    UnknownParameter,
    UnknownQuery,
    ValidationFailed,
    WouldDuplicate,
    decode_value,
    encode_value,
    eval_expr,
    replay_firelog,
    wm_to_canonical_json,
)
from rulesense.facts import Symbol, UnknownSlot, UnknownTemplate, value_key
from rulesense.lang import FuncCall, Literal, RuleDef, Var, parse_program


def eng(text):
    return Engine(parse_program(text), firelog=[])


# ------------------------------------------------------------
# expression evaluation
# ------------------------------------------------------------


def call(op, *args):
    return FuncCall(op, tuple(Literal(a) if not isinstance(a, (FuncCall, Var)) else a for a in args))


def test_arithmetic_folds_left():
    assert eval_expr(call("+", 1, 2, 3), {}) == 6
    assert eval_expr(call("-", 10, 1, 2), {}) == 7
    assert eval_expr(call("*", 2, 3, 4), {}) == 24


def test_division_is_always_float():
    v = eval_expr(call("/", 8, 2), {})
    assert v == 4.0 and type(v) is float
    assert eval_expr(call("/", 10, 4), {}) == 2.5


def test_mixed_numeric_arithmetic():
    assert eval_expr(call("+", 1, 2.5), {}) == 3.5


@pytest.mark.parametrize(
    "expr",
    [
        call("/", 1, 0),
        call("+", 1),
        call("+", Symbol("x"), 1),
        call("*", "two", 3),
        call("+", 10**400, 0.5),  # int too big for the float domain
        call("*", 10**400, 1.5, 2),  # the same past two operands
    ],
)
def test_arithmetic_errors(expr):
    with pytest.raises(RuntimeEvalError):
        eval_expr(expr, {})


def test_comparisons_chain():
    assert eval_expr(call("<", 1, 2, 3), {}) is True
    assert eval_expr(call("<", 1, 3, 2), {}) is False
    assert eval_expr(call("<=", 1, 1, 2), {}) is True
    assert eval_expr(call(">", 3, 2, 1), {}) is True
    assert eval_expr(call(">=", 2, 3), {}) is False


def test_comparisons_on_non_numbers_are_false():
    assert eval_expr(call("<", Symbol("a"), Symbol("b")), {}) is False
    assert eval_expr(call(">", "9", 1), {}) is False


def test_eq_neq_are_type_strict():
    assert eval_expr(call("eq", 1, 1.0), {}) is False
    assert eval_expr(call("neq", 1, 1.0), {}) is True
    assert eval_expr(call("eq", Symbol("730"), "730"), {}) is False
    assert eval_expr(call("eq", Symbol("730"), Symbol("730")), {}) is True
    # neq means: every later argument differs from the first
    assert eval_expr(call("neq", 1, 2, 1), {}) is False


def test_eq_rejects_non_slot_values():
    with pytest.raises(RuntimeEvalError):
        eval_expr(FuncCall("eq", (Var("b"), Literal(1))), {"b": True})


def test_unbound_variable_raises():
    with pytest.raises(RuntimeEvalError):
        eval_expr(Var("missing"), {})


# A two-operand arithmetic, comparison or eq/neq compiles to one closure that
# reads an operand bound to a fact slot itself and calls the compiled value
# of any other; with three operands it takes the n-ary path. Each shape must
# agree with eval_expr of the same expression over plain bindings: two slots,
# a slot and a literal either way round, a slot and a nested call, two nested
# calls, and three slots.
_OPS = ("<", ">", "<=", ">=", "eq", "neq")
SLOT_TESTS = (
    [f"({op} ?a ?b)" for op in _OPS]
    + [f"({op} ({ar} ?a ?b) ?c)" for ar in ("-", "/") for op in _OPS]
    + ["(< ?a 2)", "(eq 2.5 ?b)"]
    + [f"({op} ?c (- ?a (+ ?b 1)))" for op in _OPS]
    + [f"({op} (* ?a 2) (/ ?b ?c))" for op in ("<", "eq")]
    + ["(< ?a ?b ?c)", "(eq ?a ?b ?c)"]
)
# a value of every kind, with a zero of each number kind for the divisions
KIND_SAMPLES = [Symbol("a"), "a", 2, 0, 2.5, 0.0]
ANY_VALUE = st.one_of(
    st.sampled_from([Symbol("a"), Symbol("730"), Symbol("nil")]),
    st.text(max_size=3),
    st.integers(-(10**6), 10**6) | st.sampled_from([0, 10**400]),
    st.floats() | st.sampled_from([0.0, -0.0]),
)


@functools.cache
def _slot_test_engine(test: str) -> tuple:
    kb = f"""
        (deftemplate X (slot a) (slot c))
        (deftemplate Y (slot b))
        (defrule r (X (a ?a) (c ?c)) (Y (b ?b)) (test {test}) => )
        """
    constructs = parse_program(kb)
    (rule,) = [c for c in constructs if isinstance(c, RuleDef)]
    return Engine(constructs), rule.lhs[-1].expr


def _slot_test_agrees(test: str, a, b, c) -> None:
    e, expr = _slot_test_engine(test)
    try:
        want = eval_expr(expr, {"a": a, "b": b, "c": c}) is True
    except RuntimeEvalError:
        want = False
    x = e.assert_fact("X", {"a": a, "c": c}).fact_id
    y = e.assert_fact("Y", {"b": b}).fact_id
    fired = e.run()
    e.retract_fact(x)
    e.retract_fact(y)
    assert fired == int(want), (test, a, b, c)


@pytest.mark.parametrize("test", SLOT_TESTS)
def test_slot_tests_agree_with_eval_expr_on_every_kind_pair(test):
    for a, b in itertools.product(KIND_SAMPLES, repeat=2):
        for c in KIND_SAMPLES if "?c" in test else [0]:
            _slot_test_agrees(test, a, b, c)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(test=st.sampled_from(SLOT_TESTS), a=ANY_VALUE, b=ANY_VALUE, c=ANY_VALUE)
def test_slot_tests_agree_with_eval_expr(test, a, b, c):
    _slot_test_agrees(test, a, b, c)


# ------------------------------------------------------------
# working memory primitives
# ------------------------------------------------------------

ITEMS = """
(deftemplate Item (slot kind) (slot n))
(deftemplate Done (slot kind))
(defrule finish (Item (kind ?k) (n ?n)) (test (>= ?n 3)) => (assert (Done (kind ?k))))
"""


def test_assert_ids_ascend_and_duplicates_are_rejected():
    e = eng(ITEMS)
    r1 = e.assert_fact("Item", {"kind": Symbol("a"), "n": 1})
    r2 = e.assert_fact("Item", {"kind": Symbol("a"), "n": 2})
    assert (r1.created, r2.created) == (True, True)
    assert r2.fact_id == r1.fact_id + 1
    logged = len(e.firelog)
    dup = e.assert_fact("Item", {"kind": Symbol("a"), "n": 1})
    assert not dup.created and dup.fact_id == r1.fact_id
    assert len(e.firelog) == logged  # duplicate asserts leave no trace
    assert len(e.snapshot()) == 2


def test_retract_then_reassert_gets_fresh_id():
    e = eng(ITEMS)
    r1 = e.assert_fact("Item", {"kind": Symbol("a"), "n": 1})
    e.retract_fact(r1.fact_id)
    r2 = e.assert_fact("Item", {"kind": Symbol("a"), "n": 1})
    assert r2.created and r2.fact_id != r1.fact_id


def test_unknown_ids_raise():
    e = eng(ITEMS)
    with pytest.raises(UnknownFactId):
        e.retract_fact(99)
    with pytest.raises(UnknownFactId):
        e.modify_fact(99, {"n": 1})
    with pytest.raises(UnknownFactId):
        e.fact(99)


def test_modify_validates_slot_and_value():
    e = eng(ITEMS)
    fid = e.assert_fact("Item", {"kind": Symbol("a"), "n": 1}).fact_id
    with pytest.raises(UnknownSlot):
        e.modify_fact(fid, {"nope": 1})
    with pytest.raises(TypeError):
        e.modify_fact(fid, {"n": True})


def test_empty_modify_is_a_silent_noop():
    e = eng(ITEMS)
    fid = e.assert_fact("Item", {"kind": Symbol("a"), "n": 5}).fact_id
    e.run()
    logged = len(e.firelog)
    e.modify_fact(fid, {})
    assert len(e.firelog) == logged
    assert e.run() == 0  # no re-activation either


def test_modify_collision_raises_and_changes_nothing():
    e = eng(ITEMS)
    a = e.assert_fact("Item", {"kind": Symbol("a"), "n": 1}).fact_id
    b = e.assert_fact("Item", {"kind": Symbol("a"), "n": 2}).fact_id
    with pytest.raises(WouldDuplicate):
        e.modify_fact(b, {"n": 1})
    assert e.fact(a).values["n"] == 1
    assert e.fact(b).values["n"] == 2


def test_bad_template_name_raises():
    e = eng(ITEMS)
    with pytest.raises(UnknownTemplate):
        e.assert_fact("Nope", {})


# ------------------------------------------------------------
# firing, refraction, conflict resolution
# ------------------------------------------------------------


def rule_fires(e):
    return [x["rule"] for x in firelog_entries(e) if x["rule"] is not None]


def test_basic_fire_produces_fact():
    e = eng(ITEMS)
    fid = e.assert_fact("Item", {"kind": Symbol("a"), "n": 5}).fact_id
    assert e.run() == 1
    (entry,) = [x for x in firelog_entries(e) if x["rule"] == "finish"]
    assert entry["consumed"] == [fid]
    assert len(entry["produced"]) == 1
    assert e.fact(entry["produced"][0]).values["kind"] == Symbol("a")


def test_refraction_blocks_refire():
    e = eng(ITEMS)
    e.assert_fact("Item", {"kind": Symbol("a"), "n": 5})
    assert e.run() == 1
    assert e.run() == 0
    # an unrelated assert must not resurrect the old activation
    e.assert_fact("Item", {"kind": Symbol("b"), "n": 1})
    assert e.run() == 0


def test_retraction_cancels_pending_activation():
    kept, e = eng(ITEMS), eng(ITEMS)
    for x in (kept, e):
        fid = x.assert_fact("Item", {"kind": Symbol("a"), "n": 5}).fact_id
    e.retract_fact(fid)
    assert kept.run() == 1  # the sibling without the retract fires
    assert e.run() == 0


def test_modify_reopens_refraction():
    e = eng(ITEMS)
    fid = e.assert_fact("Item", {"kind": Symbol("a"), "n": 3}).fact_id
    assert e.run() == 1
    e.modify_fact(fid, {"n": 4})
    assert e.run() == 1  # same ids, fresh version: allowed to fire again
    # the duplicate Done from the refire is silently dropped
    assert len(e.facts("Done")) == 1


def test_modify_to_same_values_still_rematches():
    e = eng(ITEMS)
    fid = e.assert_fact("Item", {"kind": Symbol("a"), "n": 3}).fact_id
    e.run()
    e.modify_fact(fid, {"n": 3})
    assert e.run() == 1


def test_salience_strictly_dominates_recency():
    e = eng(
        """
        (deftemplate A (slot x))
        (deftemplate B (slot x))
        (deftemplate Log (slot who))
        (defrule low (A (x ?x)) => (assert (Log (who low))))
        (defrule high (declare (salience 10)) (B (x ?x)) => (assert (Log (who high))))
        """
    )
    e.assert_fact("A", {"x": 1})  # earlier fact would win on recency
    e.assert_fact("B", {"x": 2})
    e.run()
    assert rule_fires(e) == ["high", "low"]


def test_recency_breaks_salience_ties():
    e = eng(ITEMS)
    e.assert_fact("Item", {"kind": Symbol("a"), "n": 5})
    newer = e.assert_fact("Item", {"kind": Symbol("b"), "n": 5}).fact_id
    e.run()
    first = [x for x in firelog_entries(e) if x["rule"]][0]
    assert first["consumed"] == [newer]


def test_newest_activation_fires_first_on_ties():
    # Depth strategy: equal salience and recency resolve to the newest
    # activation. Within one mutation event activations are numbered in
    # (definition index, ids) order, so the later-defined rule pops first.
    e = eng(
        """
        (deftemplate T (slot x))
        (deftemplate Log (slot who))
        (defrule defined-first (T (x ?x)) => (assert (Log (who b))))
        (defrule defined-second (T (x ?x)) => (assert (Log (who a))))
        """
    )
    e.assert_fact("T", {"x": 1})
    e.run()
    assert rule_fires(e) == ["defined-second", "defined-first"]


def test_run_limit_leaves_rest_on_agenda():
    e = eng(
        """
        (deftemplate C (slot n))
        (defrule grow ?c <- (C (n ?n)) (test (< ?n 5)) => (modify ?c (n (+ ?n 1))))
        """
    )
    e.assert_fact("C", {"n": 0})
    assert e.run(limit=2) == 2
    assert e.fact(1).values["n"] == 2
    assert e.run() == 3
    assert e.fact(1).values["n"] == 5


def test_zero_pattern_rule_fires_once_at_startup():
    e = eng(
        """
        (deftemplate Done (slot kind))
        (defrule boot => (assert (Done (kind start))))
        (defrule never (test (< 2 1)) => (assert (Done (kind no))))
        """
    )
    assert e.run() == 1
    assert [f.values["kind"] for f in e.facts("Done")] == [Symbol("start")]
    assert e.run() == 0


def test_top_level_asserts_seed_wm_and_log():
    e = eng(ITEMS + '(assert (Item (kind seed) (n 9)))')
    assert [f.values["kind"] for f in e.facts("Item")] == [Symbol("seed")]
    first = firelog_entries(e)[0]
    assert first["rule"] is None and first["produced"] == [1]
    assert e.run() == 1


# ------------------------------------------------------------
# joins
# ------------------------------------------------------------

CHAIN = """
(deftemplate A2 (slot x))
(deftemplate B2 (slot x) (slot y))
(deftemplate C2 (slot y))
(deftemplate D2 (slot x) (slot y))
(defrule chain (A2 (x ?x)) (B2 (x ?x) (y ?y)) (C2 (y ?y)) => (assert (D2 (x ?x) (y ?y))))
"""


def test_three_way_join_in_every_assert_order():
    facts = [("A2", {"x": 1}), ("B2", {"x": 1, "y": 2}), ("C2", {"y": 2})]
    for order in itertools.permutations(facts):
        e = eng(CHAIN)
        for tname, vals in order:
            e.assert_fact(tname, vals)
        e.run()
        (d,) = e.facts("D2")
        assert (d.values["x"], d.values["y"]) == (1, 2)


def test_join_requires_consistent_values():
    e = eng(CHAIN)
    e.assert_fact("A2", {"x": 1})
    e.assert_fact("B2", {"x": 1, "y": 2})
    e.assert_fact("C2", {"y": 3})
    e.run()
    assert e.facts("D2") == []


def test_literal_constraints_are_type_strict():
    e = eng(
        """
        (deftemplate L (slot kind))
        (deftemplate Out (slot kind))
        (defrule litmatch (L (kind a)) => (assert (Out (kind a))))
        """
    )
    e.assert_fact("L", {"kind": "a"})  # string, not the symbol the rule names
    e.run()
    assert e.facts("Out") == []
    e.assert_fact("L", {"kind": Symbol("a")})
    e.run()
    assert len(e.facts("Out")) == 1


def test_repeated_variable_inside_one_pattern():
    e = eng(
        """
        (deftemplate Pair (slot x) (slot y))
        (deftemplate Eq2 (slot x))
        (defrule same (Pair (x ?v) (y ?v)) => (assert (Eq2 (x ?v))))
        """
    )
    e.assert_fact("Pair", {"x": 1, "y": 1.0})  # int vs float: no match
    e.assert_fact("Pair", {"x": 2, "y": 2})
    e.run()
    assert [f.values["x"] for f in e.facts("Eq2")] == [2]


@pytest.mark.parametrize("churn", ["retract", "modify"])
def test_partner_churn_keeps_join_memory_flat(churn):
    """The partial matches a long-lived fact makes with a partner that keeps
    going (retract) or changing (modify) leave the join memory with it."""
    e = Engine(
        parse_program(
            """
            (deftemplate A (slot k))
            (deftemplate B (slot k) (slot n))
            (deftemplate C (slot k))
            (defrule r (A (k ?k)) (B (k ?k) (n ?n)) (C (k ?k)) => )
            (assert (A (k 1)))
            """
        )
    )
    b = e.assert_fact("B", {"k": 1, "n": 0}).fact_id
    retained = {}
    tracemalloc.start()
    try:
        for i in range(1, 20_001):
            if churn == "retract":
                e.retract_fact(b)
                b = e.assert_fact("B", {"k": 1, "n": i}).fact_id
            else:
                e.modify_fact(b, {"n": i})
            e.run()
            if i in (10_000, 20_000):
                gc.collect()
                retained[i] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    grown = retained[20_000] - retained[10_000]
    assert grown < 64 * 1024, f"retained memory grew {grown} bytes from 10k to 20k cycles"


# A retracted `Go` joins `n` facts under its key: the `A` facts of the
# partial matches before it (the last of 2 patterns), or the `C` facts after
# it (the second of 3). Every test fails, so no activation piles up.
RETRACT_CASES = {
    "last of 2": (
        "A",
        """
        (deftemplate A (slot k) (slot v))
        (deftemplate Go (slot k) (slot n))
        (defrule r (A (k ?k) (v ?v)) (Go (k ?k) (n ?n)) (test (< ?v ?n)) => )
        """,
    ),
    "second of 3": (
        "C",
        """
        (deftemplate A (slot k))
        (deftemplate Go (slot k) (slot n))
        (deftemplate C (slot k) (slot v))
        (defrule r (A (k ?k)) (Go (k ?k) (n ?n)) (C (k ?k) (v ?v)) (test (< ?v ?n)) => )
        (assert (A (k 1)))
        """,
    ),
}


def _median_retract_s(many: str, kb: str, n: int) -> float:
    e = Engine(parse_program(kb))
    for v in range(n):
        e.assert_fact(many, {"k": 1, "v": v})
    times = []
    for _ in range(21):
        fid = e.assert_fact("Go", {"k": 1, "n": -1}).fact_id
        t0 = time.perf_counter()
        e.retract_fact(fid)
        times.append(time.perf_counter() - t0)
    assert e.run() == 0
    return statistics.median(times)


@pytest.mark.parametrize("many, kb", RETRACT_CASES.values(), ids=RETRACT_CASES.keys())
def test_retract_time_does_not_grow_with_the_matches_under_its_key(many, kb):
    """A fact taken out at a level past which nothing is stored costs the
    same whatever it joined with (aim 1: cost per record flat in WM size)."""
    few, lots = _median_retract_s(many, kb, 10), _median_retract_s(many, kb, 20_000)
    assert lots < 50 * few, f"median retract {lots * 1e6:.1f} us at 20k matches, {few * 1e6:.1f} us at 10"


KINDS = """
(deftemplate L (slot n) (slot k) (slot w))
(deftemplate R (slot n) (slot k) (slot w))
(deftemplate Hit (slot l) (slot r))
(defrule pair (L (n ?l) (k ?k)) (R (n ?r) (k ?k)) => (assert (Hit (l ?l) (r ?r))))
"""


def _hits(e):
    e.run()
    return sorted((h.values["l"], h.values["r"]) for h in e.facts("Hit"))


def test_float_identity_is_bitwise():
    e = eng(KINDS)
    zero = e.assert_fact("R", {"k": 0.0})
    negzero = e.assert_fact("R", {"k": -0.0})
    assert zero.created and negzero.created and zero.fact_id != negzero.fact_id
    nan = e.assert_fact("R", {"k": float("nan")})
    again = e.assert_fact("R", {"k": float("nan")})
    assert nan.created and not again.created and again.fact_id == nan.fact_id


@pytest.mark.parametrize("a, b", [(1, 1.0), (Symbol("a"), "a")], ids=["int-float", "symbol-text"])
def test_values_of_different_kinds_never_duplicate_or_join(a, b):
    e = eng(KINDS)
    # the same n, so only the differing kinds keep the two facts apart
    ra = e.assert_fact("R", {"n": 1, "k": a})
    rb = e.assert_fact("R", {"n": 1, "k": b})
    assert ra.created and rb.created and ra.fact_id != rb.fact_id
    e.assert_fact("L", {"n": 1, "k": a})
    e.assert_fact("L", {"n": 2, "k": b})
    # each L joins only the R of its own kind: one activation each
    e.run()
    assert e.fire_counts["pair"] == 2


@pytest.mark.parametrize("k", [7, Symbol("s")], ids=["int", "symbol"])
def test_a_fact_with_a_float_joins_one_without(k):
    # a Float sends every slot of its fact's key through value_key, which
    # keeps Integers and Symbols raw, so they meet the keys of Float-free facts
    e = eng(KINDS)
    e.assert_fact("L", {"n": 1, "k": k, "w": 0.5})
    e.assert_fact("R", {"n": 1, "k": k})
    assert _hits(e) == [(1, 1)]
    e.assert_fact("R", {"n": 2, "k": k, "w": 2.5})
    e.assert_fact("L", {"n": 2, "k": k})
    assert _hits(e) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_a_live_fact_version_stays_compact():
    """A fact version stores its values once and its key shares the value
    tuple. A live 4-slot fact, with its place in the WM, retains about 590
    bytes on CPython 3.11; a values dict beside a key of tagged per-slot
    tuples retains about 1,000, which the bound rejects."""
    e = Engine(parse_program("(deftemplate R (slot name) (slot location) (slot tStart) (slot tFinish))"))
    n = 20_000
    names = [f"P{i % 50}" for i in range(n)]
    locations = [Symbol(str(700 + i % 40)) for i in range(n)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            t = 1_700_000_000_000 + i
            e.assert_fact("R", {"name": names[i], "location": locations[i], "tStart": t, "tFinish": t + i})
        gc.collect()
        per_fact = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert len(e.facts("R")) == n
    assert per_fact < 800, f"{per_fact:.0f} bytes retained per live fact"
    f = e.facts("R")[0]
    assert f.key[1] is f.vals


# ------------------------------------------------------------
# RHS failure handling
# ------------------------------------------------------------


def test_rhs_error_aborts_but_keeps_prior_effects():
    e = eng(
        """
        (deftemplate Item (slot kind) (slot n))
        (deftemplate Done (slot kind))
        (defrule bad (Item (kind ?k) (n ?n))
          =>
          (assert (Done (kind ?k)))
          (bind ?z (/ ?n 0))
          (assert (Done (kind other))))
        """
    )
    e.assert_fact("Item", {"kind": Symbol("a"), "n": 1})
    assert e.run() == 1
    (entry,) = [x for x in firelog_entries(e) if x["rule"] == "bad"]
    assert "RuntimeEvalError" in entry["error"]
    assert [f.values["kind"] for f in e.facts("Done")] == [Symbol("a")]


def test_double_retract_of_same_address_aborts():
    e = eng(
        """
        (deftemplate Item (slot kind))
        (defrule eat ?i <- (Item (kind ?k)) => (retract ?i ?i))
        """
    )
    fid = e.assert_fact("Item", {"kind": Symbol("a")}).fact_id
    e.run()
    (entry,) = [x for x in firelog_entries(e) if x["rule"] == "eat"]
    assert entry["retracted"] == [fid]
    assert "UnknownFactId" in entry["error"]
    assert e.facts() == []


def test_rule_level_modify_collision_is_logged_not_raised():
    e = eng(
        """
        (deftemplate Item (slot kind) (slot n))
        (defrule clash ?a <- (Item (kind ?k) (n 2)) => (modify ?a (n 1)))
        """
    )
    e.assert_fact("Item", {"kind": Symbol("a"), "n": 1})
    b = e.assert_fact("Item", {"kind": Symbol("a"), "n": 2}).fact_id
    e.run()
    (entry,) = [x for x in firelog_entries(e) if x["rule"] == "clash"]
    assert "WouldDuplicate" in entry["error"]
    assert e.fact(b).values["n"] == 2  # failed modify left the fact alone


@pytest.mark.parametrize(
    "rhs, error",
    [
        ("(bind ?z (/ ?n 0))", "RuntimeEvalError: division by zero"),
        ("(bind ?z (+ ?n ?k))", "RuntimeEvalError: arithmetic on non-number a"),
        ("(bind ?z (* ?n \"two\"))", "RuntimeEvalError: arithmetic on non-number 'two'"),
        ("(bind ?z (+ 1" + "0" * 400 + " 0.5))", "RuntimeEvalError: arithmetic overflow"),
        ("(bind ?z (eq (< ?n 2) ?n))", "RuntimeEvalError: eq on non-slot-value True"),
        ("(bind ?z (neq ?n ?n (> ?n 2)))", "RuntimeEvalError: neq on non-slot-value False"),
        ("(assert (Item (kind (< ?n 2))))", "RuntimeEvalError: not a slot value: True"),
        ("(modify ?i (n (eq ?k ?k)))", "RuntimeEvalError: not a slot value: True"),
        ("(bind ?z (< 1 2)) (assert (Item (n ?z)))", "RuntimeEvalError: not a slot value: True"),
        # every operand is evaluated before the operator checks any of them
        ("(bind ?z (eq (< 1 2) (+ 1 \"x\")))", "RuntimeEvalError: arithmetic on non-number 'x'"),
        ("(bind ?z (+ ?k (/ ?n 0)))", "RuntimeEvalError: division by zero"),
        ("(bind ?z (< (+ 1 ?k) \"x\"))", "RuntimeEvalError: arithmetic on non-number a"),
        ("(retract ?i ?i)", "UnknownFactId: no live fact 1"),
        ("(retract ?i) (modify ?i (n 3))", "UnknownFactId: no live fact 1"),
        ("(modify ?i (n 2))", "WouldDuplicate: update of fact 1 collides with live fact 2"),
    ],
)
def test_rhs_error_text_in_the_fire_log(rhs, error):
    e = eng(
        f"""
        (deftemplate Item (slot kind) (slot n))
        (defrule bad ?i <- (Item (kind ?k) (n ?n)) (test (eq ?n 1)) => {rhs})
        """
    )
    e.assert_fact("Item", {"kind": Symbol("a"), "n": 1})
    e.assert_fact("Item", {"kind": Symbol("a"), "n": 2})
    e.run()
    (entry,) = [x for x in firelog_entries(e) if x["rule"] == "bad"]
    assert entry["error"] == error


@pytest.mark.parametrize(
    "kb, bad",
    [
        pytest.param("(defrule bad ?i <- (Item (kind ?k) (n ?n)) => (bind ?z (- ?n)))", "(- ?n)", id="bind-(- ?n)"),
        pytest.param("(defrule bad ?i <- (Item (kind ?k) (n ?n)) => (bind ?z (< ?n)))", "(< ?n)", id="bind-(< ?n)"),
        pytest.param("(defrule bad ?i <- (Item (kind ?k) (n ?n)) => (bind ?z (eq ?n)))", "(eq ?n)", id="bind-(eq ?n)"),
        pytest.param("(defrule bad (Item (n ?n)) (test (< ?n)) => )", "(< ?n)", id="test-(< ?n)"),
        pytest.param("(defrule bad ?i <- (Item (n ?n)) => (modify ?i (n (+ 1 (* ?n)))))", "(* ?n)", id="modify-(* ?n)"),
        pytest.param("(defquery bad (declare (variables ?n)) (Item (n ?n)) (test (neq ?n)))", "(neq ?n)", id="query-(neq ?n)"),
        pytest.param("(assert (Item (n (/ 4))))", "(/ 4)", id="assert-(/ 4)"),
    ],
)
def test_one_operand_operator_fails_validation(kb, bad):
    with pytest.raises(ValidationFailed) as ei:
        eng("(deftemplate Item (slot kind) (slot n))" + kb)
    (d,) = ei.value.diagnostics
    assert d.kind == "operator-arity"
    assert d.message == f"{bad} needs at least 2 operands"


# ------------------------------------------------------------
# fire log and replay
# ------------------------------------------------------------

CHATTY = """
(deftemplate Raw (slot tag) (slot v))
(deftemplate Cooked (slot tag) (slot v))
(deftemplate Count (slot n))
(defrule cook ?r <- (Raw (tag ?t) (v ?v)) => (retract ?r) (assert (Cooked (tag ?t) (v (* ?v 2)))))
(defrule tally ?c <- (Count (n ?n)) ?k <- (Cooked (tag ?t) (v ?v)) => (retract ?k) (modify ?c (n (+ ?n 1))))
(assert (Count (n 0)))
"""


def drive_chatty(e):
    e.assert_fact("Raw", {"tag": Symbol("a"), "v": 1})
    e.run()
    e.assert_fact("Raw", {"tag": Symbol("b"), "v": 2})
    e.run()
    e.modify_fact(e.facts("Count")[0].id, {"n": 100})
    fid = e.assert_fact("Cooked", {"tag": Symbol("c"), "v": 9}).fact_id
    e.retract_fact(fid)  # cancels the pending tally activation
    e.run()


def test_firelog_replay_reproduces_final_wm():
    e = eng(CHATTY)
    drive_chatty(e)
    replayed = replay_firelog("".join(e.firelog))
    assert replay_firelog("\n".join(e.firelog)) == replayed  # blank lines are skipped
    live = {
        f.id: (f.template.name, {s: value_key(v) for s, v in f.values.items()})
        for f in e.facts()
    }
    assert {fid: (t, {s: value_key(v) for s, v in vals.items()}) for fid, (t, vals) in replayed.items()} == live


def test_decode_value_round_trips_every_kind():
    for v in (Symbol("730"), "730", 730, 7.5, -0.0):
        back = decode_value(encode_value(v))
        assert type(back) is type(v) and value_key(back) == value_key(v)
    assert decode_value({"s": "730"}) is Symbol("730")


@pytest.mark.parametrize(
    "obj",
    [
        {},  # no name
        {"t": "730"},  # no name, another key
        {"s": 5},  # not a str
        {"s": None},
        {"s": ""},  # empty
        {"s": "730", "t": 1},  # an extra key
        True,
        None,
        [1],
    ],
)
def test_decode_value_rejects_malformed_encodings(obj):
    with pytest.raises(ValueError):
        decode_value(obj)


def test_firelog_seq_is_dense_and_ts_monotonic():
    e = eng(CHATTY)
    drive_chatty(e)
    entries = firelog_entries(e)
    assert [x["seq"] for x in entries] == list(range(len(entries)))
    ts = [x["ts"] for x in entries]
    assert all(a <= b for a, b in zip(ts, ts[1:]))


def test_firelog_writer_streams_each_entry_as_it_is_made():
    stream = io.StringIO()
    streamed = Engine(parse_program(CHATTY), firelog=FireLogWriter(stream))
    kept = eng(CHATTY)
    assert stream.getvalue() == "".join(kept.firelog) != ""  # the initial Count fact
    for e in (streamed, kept):
        e.assert_fact("Raw", {"tag": Symbol("a"), "v": 1})
    assert stream.getvalue() == "".join(kept.firelog)
    drive_chatty(streamed)
    drive_chatty(kept)
    assert stream.getvalue() == "".join(kept.firelog)


def test_fire_counts_and_the_default_log():
    counted = Engine(parse_program(CHATTY))
    logged = eng(CHATTY)
    for e in (counted, logged):
        drive_chatty(e)
    assert counted.fire_counts == logged.fire_counts == {"cook": 2, "tally": 2}
    assert len(counted.firelog) == 0 and list(counted.firelog) == []
    assert counted.run() == 0 and len(counted.firelog) == 0
    # provenance does not depend on the log being kept
    for c in counted.facts():
        assert counted.explain(c.id) == logged.explain(c.id)


def test_identical_histories_serialize_identically():
    logs = []
    for _ in range(2):
        e = eng(CHATTY)
        drive_chatty(e)
        logs.append("".join(e.firelog))
        wm = wm_to_canonical_json(e)
    assert logs[0] == logs[1]
    assert wm == wm_to_canonical_json(e)


EVENTS = """
(deftemplate Count (slot n) (slot note))
(deftemplate Raw (slot tag) (slot v))
(deftemplate Cooked (slot tag) (slot v))
(deftemplate Alarm (slot v))
(defrule cook ?c <- (Count (n ?n)) ?r <- (Raw (tag ?t) (v ?v))
  => (retract ?r) (modify ?c (n (+ ?n 1))) (assert (Cooked (tag ?t) (v (* ?v 2.5)))))
(defrule overflow (Cooked (tag ?t) (v ?v)) (test (> ?v 10))
  => (assert (Alarm (v ?v))) (bind ?z (/ ?v 0)) (assert (Alarm (v ?z))))
"""

EVENTS_LOG = """\
{"seq":0,"rule":null,"consumed":[],"produced":[1],"retracted":[],"ts":2,"facts":{"1":{"template":"Count","values":{"n":0,"note":"start"}}}}
{"seq":1,"rule":null,"consumed":[],"produced":[2],"retracted":[],"ts":3,"facts":{"2":{"template":"Raw","values":{"tag":{"s":"a"},"v":1}}}}
{"seq":2,"rule":"cook","consumed":[1,2],"produced":[1,3],"retracted":[2],"ts":6,"facts":{"1":{"template":"Count","values":{"n":1,"note":"start"}},"3":{"template":"Cooked","values":{"tag":{"s":"a"},"v":2.5}}}}
{"seq":3,"rule":null,"consumed":[],"produced":[1],"retracted":[],"ts":7,"facts":{"1":{"template":"Count","values":{"n":1,"note":"reset"}}}}
{"seq":4,"rule":null,"consumed":[],"produced":[4],"retracted":[],"ts":8,"facts":{"4":{"template":"Raw","values":{"tag":{"s":"b"},"v":6}}}}
{"seq":5,"rule":"cook","consumed":[1,4],"produced":[1,5],"retracted":[4],"ts":11,"facts":{"1":{"template":"Count","values":{"n":2,"note":"reset"}},"5":{"template":"Cooked","values":{"tag":{"s":"b"},"v":15.0}}}}
{"seq":6,"rule":"overflow","consumed":[5],"produced":[6],"retracted":[],"ts":12,"facts":{"6":{"template":"Alarm","values":{"v":15.0}}},"error":"RuntimeEvalError: division by zero"}
{"seq":7,"rule":null,"consumed":[],"produced":[],"retracted":[3],"ts":13}
{"seq":8,"rule":null,"consumed":[],"produced":[7],"retracted":[],"ts":14,"facts":{"7":{"template":"Alarm","values":{"v":1}}}}
{"seq":9,"rule":null,"consumed":[],"produced":[],"retracted":[7],"ts":15}
"""


def test_external_changes_and_firings_log_byte_for_byte():
    # external asserts, modifies and retracts share the log with firings;
    # a duplicate assert, an empty modify and a failed modify log nothing
    e = eng(EVENTS)
    c = e.assert_fact("Count", {"n": 0, "note": "start"}).fact_id
    assert not e.assert_fact("Count", {"n": 0, "note": "start"}).created
    e.modify_fact(c, {})
    e.assert_fact("Raw", {"tag": Symbol("a"), "v": 1})
    e.run()  # cook retracts, modifies and asserts
    e.modify_fact(c, {"note": "reset"})
    e.assert_fact("Raw", {"tag": Symbol("b"), "v": 6})
    e.run()  # then overflow asserts before its RHS error
    e.retract_fact(e.facts("Cooked")[0].id)
    a = e.assert_fact("Alarm", {"v": 1}).fact_id
    with pytest.raises(WouldDuplicate):
        e.modify_fact(a, {"v": 15.0})
    with pytest.raises(UnknownSlot):
        e.modify_fact(a, {"w": 2})
    with pytest.raises(TypeError):
        e.modify_fact(a, {"v": None})
    e.retract_fact(a)
    assert "".join(e.firelog) == EVENTS_LOG


# ------------------------------------------------------------
# queries
# ------------------------------------------------------------

QUERYABLE = ITEMS + """
(defquery items-of (declare (variables ?k)) ?i <- (Item (kind ?k) (n ?n)))
"""


def test_query_rows_carry_bindings_and_ids():
    e = eng(QUERYABLE)
    fid = e.assert_fact("Item", {"kind": Symbol("a"), "n": 1}).fact_id
    e.assert_fact("Item", {"kind": Symbol("b"), "n": 2})
    rows = e.run_query("items-of", {"k": Symbol("a")})
    assert len(rows) == 1
    assert rows[0].fact_ids == (fid,)
    assert rows[0].bindings["n"] == 1
    assert rows[0].bindings["i"] == fid  # the address variable binds the id


def test_query_parameter_checking():
    e = eng(QUERYABLE)
    with pytest.raises(UnknownQuery):
        e.run_query("nope", {})
    with pytest.raises(MissingParameter):
        e.run_query("items-of", {})
    with pytest.raises(UnknownParameter):
        e.run_query("items-of", {"k": Symbol("a"), "extra": 1})
    with pytest.raises(TypeError):
        e.run_query("items-of", {"k": True})
    assert e.run_query("items-of", {"k": Symbol("a")}) == []  # k is its one parameter
    with pytest.raises(UnknownQuery):
        e.run_query("finish", {})  # a rule is not a query


def test_query_against_snapshot_ignores_later_mutations():
    e = eng(QUERYABLE)
    e.assert_fact("Item", {"kind": Symbol("a"), "n": 1})
    snap = e.snapshot()
    e.assert_fact("Item", {"kind": Symbol("a"), "n": 2})
    assert len(e.run_query("items-of", {"k": Symbol("a")}, view=snap)) == 1
    assert len(e.run_query("items-of", {"k": Symbol("a")})) == 2


def test_query_parameters_are_type_strict():
    e = eng(QUERYABLE)
    e.assert_fact("Item", {"kind": Symbol("1"), "n": 1})
    assert e.run_query("items-of", {"k": 1}) == []


# ------------------------------------------------------------
# explanation trees
# ------------------------------------------------------------


def test_explain_external_fact_is_a_leaf():
    e = eng(ITEMS)
    fid = e.assert_fact("Item", {"kind": Symbol("a"), "n": 5}).fact_id
    node = e.explain(fid)
    assert node.rule is None and node.children == ()
    assert node.values == {"kind": Symbol("a"), "n": 5}


def test_explain_derived_fact_points_at_rule_and_inputs():
    e = eng(ITEMS)
    fid = e.assert_fact("Item", {"kind": Symbol("a"), "n": 5}).fact_id
    e.run()
    (done,) = e.facts("Done")
    node = e.explain(done.id)
    assert node.rule == "finish"
    assert [c.fact_id for c in node.children] == [fid]
    assert node.children[0].rule is None


def test_explain_follows_modify_chains():
    e = eng(
        """
        (deftemplate C (slot n))
        (defrule bump ?c <- (C (n ?n)) (test (< ?n 3)) => (modify ?c (n (+ ?n 1))))
        """
    )
    fid = e.assert_fact("C", {"n": 0}).fact_id
    e.run()
    node = e.explain(fid)
    # three bumps fold into one node that points at the version opening the chain
    assert node.values["n"] == 3 and node.rule == "bump" and node.folded == 2
    (opener,) = node.children
    assert opener.fact_id == fid and opener.values["n"] == 0
    assert opener.rule is None and opener.folded == 0 and opener.children == ()


def test_folded_chain_keeps_the_latest_steps_other_inputs():
    e = eng(
        """
        (deftemplate C (slot n))
        (deftemplate Tick (slot k))
        (defrule seed (Tick (k 0)) => (assert (C (n 0))))
        (defrule count ?c <- (C (n ?n)) ?t <- (Tick (k ?k)) (test (> ?k 0)) => (retract ?t) (modify ?c (n (+ ?n ?k))))
        """
    )
    seed = e.assert_fact("Tick", {"k": 0}).fact_id
    e.run()
    (c,) = e.facts("C")
    for k in (1, 2, 3):
        last = e.assert_fact("Tick", {"k": k}).fact_id
        e.run()
    node = e.explain(c.id)
    assert node.values["n"] == 6 and node.rule == "count" and node.folded == 2
    opener, tick = node.children
    assert (opener.fact_id, opener.values["n"], opener.rule) == (c.id, 0, "seed")
    assert [ch.fact_id for ch in opener.children] == [seed]
    assert (tick.fact_id, tick.values["k"], tick.rule) == (last, 3, None)  # retracted, still explained
    # an external modify starts a new chain: the fact becomes a leaf again
    e.modify_fact(c.id, {"n": 100})
    node = e.explain(c.id)
    assert node.rule is None and node.children == () and node.folded == 0
    e.assert_fact("Tick", {"k": 4})
    e.run()
    node = e.explain(c.id)
    assert node.folded == 0 and [ch.values for ch in node.children] == [{"n": 100}, {"k": 4}]


def test_explain_respects_before_bound():
    """The bound is a snapshot: explain answers for the versions a view holds,
    whatever the engine did after it was taken."""
    e = eng(ITEMS)
    empty = e.snapshot()
    fid = e.assert_fact("Item", {"kind": Symbol("a"), "n": 1}).fact_id
    before = e.snapshot()
    e.modify_fact(fid, {"n": 7})
    assert e.explain(fid).values["n"] == 7
    assert e.explain(fid, view=before).values["n"] == 1
    assert e.explain(fid, view=before).seq == 0
    with pytest.raises(NotDerived):
        e.explain(fid, view=empty)
    e.retract_fact(fid)
    with pytest.raises(NotDerived):
        e.explain(fid)
    assert e.explain(fid, view=before).values["n"] == 1


def test_explain_unknown_fact():
    e = eng(ITEMS)
    with pytest.raises(NotDerived):
        e.explain(123)


# ------------------------------------------------------------
# construction-time validation
# ------------------------------------------------------------


def test_constructor_rejects_unknown_template():
    with pytest.raises(UnknownTemplate):
        eng("(defrule r (U) => )")


def test_constructor_rejects_a_pattern_on_an_unknown_slot():
    with pytest.raises(UnknownSlot):
        eng("(deftemplate T (slot a))(defrule r (T (b 1)) => )")


def test_constructor_rejects_duplicate_rule_names():
    with pytest.raises(DuplicateRuleName):
        eng("(deftemplate T (slot a))(defrule r (T) => )(defrule r (T) => )")


def test_constructor_rejects_unbound_variables():
    with pytest.raises(ValidationFailed) as ei:
        eng("(deftemplate T (slot a))(defrule r (T) => (assert (T (a ?x))))")
    assert ei.value.diagnostics
