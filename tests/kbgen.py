"""Random program generators for round-trip and fuzz testing.

Everything produced here must survive format_program -> parse_program
structurally unchanged. Names steer clear of words the parser treats as
keywords in some position, and string literals stay ASCII so the lexer's
typographic-quote folding cannot touch them.
"""

import string

from hypothesis import strategies as st

from rulesense.facts import Symbol
from rulesense.lang import (
    OPS,
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
    Test,
    Var,
)

_RESERVED = frozenset(
    "deftemplate defrule defquery assert retract modify bind test declare"
    " salience variables slot".split()
) | frozenset(OPS)

_FIRST = string.ascii_letters
_REST = string.ascii_letters + string.digits + "-_"

names = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from(_FIRST),
    st.text(alphabet=_REST, max_size=8),
).filter(lambda s: s not in _RESERVED)

# "test" and "declare" open keyword forms inside a rule body, so a pattern
# on a template with either name would not parse back as a pattern.
template_names = names.filter(lambda s: s not in ("test", "declare"))

literals = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet=string.printable, max_size=12),
    names.map(Symbol),
)

constraints = st.one_of(literals.map(Literal), names.map(Var))

exprs = st.recursive(
    st.one_of(literals.map(Literal), names.map(Var)),
    lambda sub: st.builds(FuncCall, st.sampled_from(OPS), st.lists(sub, max_size=3).map(tuple)),
    max_leaves=8,
)

funcalls = st.builds(FuncCall, st.sampled_from(OPS), st.lists(exprs, max_size=3).map(tuple))

patterns = st.builds(
    Pattern,
    template_names,
    st.lists(st.tuples(names, constraints), max_size=3).map(tuple),
    st.one_of(st.none(), names),
)

condition_elements = st.one_of(patterns, st.builds(Test, funcalls))

assert_specs = st.builds(
    AssertSpec, names, st.lists(st.tuples(names, exprs), max_size=3).map(tuple)
)

# an RHS assert and a top-level one are the same node
asserts = st.builds(AssertAction, st.lists(assert_specs, min_size=1, max_size=2).map(tuple))

actions = st.one_of(
    asserts,
    st.builds(RetractAction, st.lists(names, min_size=1, max_size=3).map(tuple)),
    st.builds(ModifyAction, names, st.lists(st.tuples(names, exprs), min_size=1, max_size=2).map(tuple)),
    st.builds(BindAction, names, exprs),
)

templates = st.builds(TemplateDef, names, st.lists(names, max_size=4).map(tuple))

rules = st.builds(
    RuleDef,
    names,
    st.integers(min_value=-100, max_value=100),
    st.lists(condition_elements, max_size=4).map(tuple),
    st.lists(actions, max_size=3).map(tuple),
)

queries = st.builds(
    QueryDef,
    names,
    st.lists(names, min_size=1, max_size=3).map(tuple),
    st.lists(condition_elements, max_size=3).map(tuple),
)

programs = st.lists(st.one_of(templates, rules, queries, asserts), max_size=6)
