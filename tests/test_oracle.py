"""Random small programs, each driven through the engine and the naive oracle.

Criterion 5 drives random fact sequences through the shipped KB; this drives
random valid programs: 0-3 patterns per rule with shared and repeated
variables, leading constant tests, 2- and 3-operand tests over nested
arithmetic and eq/neq, RHS assert/retract/modify/bind (expressions that fail
included), saliences, and a query with a test. The fire sequence, the final
WM and the query rows must agree, and retracting every fact must leave the
engine's join memories empty.
"""

from functools import cache

from hypothesis import given, note, settings
from hypothesis import strategies as st

from naive import NaiveEngine
from rulesense import lang
from rulesense.engine import Engine
from rulesense.facts import Symbol
from rulesense.lang import (
    AssertAction,
    AssertSpec,
    BindAction,
    FuncCall,
    Literal,
    ModifyAction,
    Pattern,
    QueryDef,
    RetractAction,
    RuleDef,
    TemplateDef,
    Var,
)
from test_acceptance import _canon_engine_wm, _canon_rows, _fires

SLOTS = ("x", "y")
TEMPLATES = ("A", "B")
VARS = ("a", "b", "c")
# pairwise distinct under type-strict equality (1 and 1.0 differ); the
# non-numbers and 0 make arithmetic fail, and 1 and 2 are drawn most often so
# that joins and tests often succeed
VALUES = (1, 2, 0, 3, 1.0, 0.5, Symbol("a"), "a")
RUN_LIMIT = 12  # rules may assert or modify forever; both sides stop alike

values = st.sampled_from(VALUES[:2] * 4 + VALUES)


@cache
def _exprs(bound: tuple[str, ...], depth: int):
    leaves = values.map(Literal)
    if bound:
        leaves = st.one_of(leaves, st.sampled_from(bound).map(Var))
    if depth == 0:
        return leaves
    inner = _exprs(bound, depth - 1)
    arith = st.builds(
        FuncCall,
        st.sampled_from(("+", "-", "/")),
        st.lists(inner, min_size=2, max_size=3).map(tuple),
    )
    # one non-literal factor at most: a rule that modifies a fact with
    # (* ?x ?x) in a loop would square it on every fire
    product = st.builds(
        lambda e, ks: FuncCall("*", (e, *ks)),
        inner,
        st.lists(values.map(Literal), min_size=1, max_size=2),
    )
    return st.one_of(leaves, leaves, arith, product)


@cache
def _tests(bound: tuple[str, ...]):
    return st.builds(
        FuncCall,
        st.sampled_from(("<", ">", "<=", ">=", "eq", "neq")),
        st.lists(_exprs(bound, 1), min_size=2, max_size=3).map(tuple),
    )


@cache
def _slot_exprs(bound: tuple[str, ...]):
    # a comparison yields a boolean, which is not a slot value
    return st.one_of(_exprs(bound, 1), _exprs(bound, 1), _exprs(bound, 1), _tests(bound))


@st.composite
def _pattern(draw, address: str | None):
    template = draw(st.sampled_from(TEMPLATES))
    slots = []
    for slot in SLOTS:
        kind = draw(st.sampled_from(("var", "var", "var", "literal", "none")))
        if kind == "var":
            slots.append((slot, Var(draw(st.sampled_from(VARS)))))
        elif kind == "literal":
            slots.append((slot, Literal(draw(values))))
    return Pattern(template, tuple(slots), address)


@st.composite
def _rule(draw, index: int):
    lhs: list = []
    bound: tuple[str, ...] = ()
    addresses: list[str] = []
    if draw(st.integers(0, 4)) == 0:
        lhs.append(lang.Test(draw(_tests(()))))  # constant test ahead of any pattern
    for i in range(draw(st.sampled_from((0, 1, 1, 2, 2, 3)))):
        address = f"f{i}" if draw(st.booleans()) else None
        pat = draw(_pattern(address))
        lhs.append(pat)
        if address:
            addresses.append(address)
        bound += tuple(dict.fromkeys(c.name for _, c in pat.slots if type(c) is Var and c.name not in bound))
        if bound and draw(st.integers(0, 2)) == 0:
            lhs.append(lang.Test(draw(_tests(bound))))
    rhs = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("assert", "assert", "retract", "modify", "bind")))
        if kind == "retract" and addresses:
            rhs.append(RetractAction((draw(st.sampled_from(addresses)),)))
        elif kind == "modify" and addresses:
            slot = draw(st.sampled_from(SLOTS))
            rhs.append(ModifyAction(draw(st.sampled_from(addresses)), ((slot, draw(_slot_exprs(bound))),)))
        elif kind == "bind":
            # a comparison or eq/neq binds a boolean: a later slot use fails
            rhs.append(BindAction("z", draw(st.one_of(_exprs(bound, 2), _tests(bound)))))
            if "z" not in bound:
                bound += ("z",)
        else:
            template = draw(st.sampled_from(TEMPLATES))
            slots = tuple((slot, draw(_slot_exprs(bound))) for slot in SLOTS if draw(st.booleans()))
            rhs.append(AssertAction((AssertSpec(template, slots),)))
    salience = draw(st.sampled_from((0, 0, 1, -1)))
    return RuleDef(f"r{index}", salience, tuple(lhs), tuple(rhs))


@st.composite
def _query(draw):
    slot, other = draw(st.permutations(SLOTS))
    lhs = [Pattern(draw(st.sampled_from(TEMPLATES)), ((slot, Var("p")), (other, Var("a"))))]
    if draw(st.booleans()):
        lhs.append(draw(_pattern(None)))
    bound = tuple(sorted({"p"} | {c.name for pat in lhs for _, c in pat.slots if type(c) is Var}))
    lhs.append(lang.Test(draw(_tests(bound))))
    return QueryDef("q", ("p",), tuple(lhs))


def _fact(draw):
    return dict(zip(SLOTS, (draw(values), draw(values))))


@st.composite
def _programs(draw):
    constructs = [TemplateDef(t, SLOTS) for t in TEMPLATES]
    constructs += [draw(_rule(i)) for i in range(draw(st.integers(1, 3)))]
    constructs.append(draw(_query()))
    initial = [
        AssertSpec(draw(st.sampled_from(TEMPLATES)), tuple((s, Literal(v)) for s, v in _fact(draw).items()))
        for _ in range(draw(st.integers(0, 4)))
    ]
    if initial:
        constructs.append(AssertAction(tuple(initial)))
    return constructs


@st.composite
def _ops(draw):
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("assert", "assert", "assert", "retract", "modify", "run")))
        if kind == "assert":
            ops.append(("assert", draw(st.sampled_from(TEMPLATES)), _fact(draw)))
        elif kind in ("retract", "modify"):
            # a position among the live facts, resolved when the op runs
            ops.append((kind, draw(st.integers(0, 7)), {draw(st.sampled_from(SLOTS)): draw(values)}))
        else:
            ops.append(("run",))
    return ops


@settings(max_examples=200, deadline=None, derandomize=True)
@given(program=_programs(), ops=_ops())
def test_random_programs_match_the_naive_oracle(program, ops):
    assert lang.validate_program(program) == []
    note(lang.format_program(program))
    eng = Engine(program, firelog=[])
    ora = NaiveEngine(program)
    for op in ops:
        if op[0] == "assert":
            r_eng = eng.assert_fact(op[1], op[2])
            r_ora = ora.assert_fact(op[1], op[2])
            assert (r_eng.fact_id if r_eng.created else None) == r_ora
        elif op[0] == "run":
            eng.run(RUN_LIMIT)
            ora.run(RUN_LIMIT)
        elif ora.wm:
            fid = sorted(ora.wm)[op[1] % len(ora.wm)]
            if op[0] == "retract":
                eng.retract_fact(fid)
                ora.retract_fact(fid)
            else:
                eng_ok = ora_ok = True
                try:
                    eng.modify_fact(fid, op[2])
                except Exception:
                    eng_ok = False
                try:
                    ora.modify_fact(fid, op[2])
                except KeyError:
                    ora_ok = False
                assert eng_ok == ora_ok
    eng.run(RUN_LIMIT)
    ora.run(RUN_LIMIT)
    assert _fires(eng) == ora.fire_sequence
    assert eng.fire_counts == {r: sum(1 for f, _ in ora.fire_sequence if f == r) for r in eng.rule_names}
    assert _canon_engine_wm(eng) == ora.canonical_wm()
    for v in VALUES:
        got = _canon_rows((r.fact_ids, r.bindings) for r in eng.run_query("q", {"p": v}))
        want = _canon_rows(ora.run_query("q", {"p": v}))
        assert got == want, v
    # a fact leaves the join memories by the joins it entered them by, so
    # with every fact retracted no rule holds a match or a fact
    for f in eng.facts():
        eng.retract_fact(f.id)
    for rule in eng._rules:
        assert not any(rule.left) and not any(rule.right), rule.name
