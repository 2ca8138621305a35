"""Tokenizer, parser, pretty-printer, and validator tests."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbgen import programs
from rulesense.engine import Engine, ValidationFailed
from rulesense.facts import KbError, Symbol, TemplateRegistry
from rulesense.lang import (
    ADDR,
    ARROW,
    EOF,
    FLOAT,
    INT,
    LP,
    MAX_NESTING,
    PUNCT,
    RP,
    STR,
    SYM,
    VAR,
    AssertAction,
    AssertSpec,
    BindAction,
    FuncCall,
    LexError,
    Literal,
    ModifyAction,
    ParseError,
    Pattern,
    QueryDef,
    RetractAction,
    RuleDef,
    TemplateDef,
    Test as CeTest,
    Var,
    format_construct,
    format_program,
    parse_number,
    parse_program,
    tokenize,
    validate_program,
    validate_rule,
)

# ------------------------------------------------------------
# tokenizer
# ------------------------------------------------------------


def test_basic_token_kinds():
    toks = tokenize('(Person (name "Pete") (age 42) (score 3.5) ?x => <- & | ~)')
    assert [t.kind for t in toks] == [
        LP, SYM, LP, SYM, STR, RP, LP, SYM, INT, RP, LP, SYM, FLOAT, RP,
        VAR, ARROW, ADDR, PUNCT, PUNCT, PUNCT, RP, EOF,
    ]


def test_number_forms():
    toks = tokenize("42 -7 +3 3.5 1e3 .5 -1.2e-4")
    assert [t.value for t in toks[:-1]] == [42, -7, 3, 3.5, 1000.0, 0.5, -0.00012]
    assert [t.kind for t in toks[:3]] == [INT, INT, INT]
    assert [t.kind for t in toks[3:-1]] == [FLOAT, FLOAT, FLOAT, FLOAT]


def test_token_positions():
    toks = tokenize("(foo\n  ?bar)")
    assert [(t.line, t.col) for t in toks] == [(1, 1), (1, 2), (2, 3), (2, 7), (2, 8)]


@pytest.mark.parametrize(
    "text,positions",
    [
        ('(a "x\ny" b)', [(1, 1), (1, 2), (1, 4), (2, 4), (2, 5), (2, 6)]),  # raw newline in a string
        ("a\r\nb\r\n", [(1, 1), (2, 1), (3, 1)]),  # CRLF: the \r is one more column
        ("\tx\t?y", [(1, 2), (1, 4), (1, 6)]),  # a tab is one column
        ("a ; the end", [(1, 1), (1, 12)]),  # a comment at end of input
    ],
)
def test_token_positions_across_line_ends_tabs_and_comments(text, positions):
    assert [(t.line, t.col) for t in tokenize(text)] == positions


_STRAIGHT_QUOTES = str.maketrans("\u201c\u201d\u2018\u2019", "\"\"''")
_WORD_AT = re.compile(r"""[^ \t\r\n()"';&|~?]+""")
_LEX_PIECES = (
    "(", ")", " ", "\t", "\n", "\r\n", "; note\n", ";", '"a\nb"', "'it\\'s'", '"\\\\"', "?x", "?", "=>", "<-",
    "sym", "-2", "1.5e3", ".5", "&", "~", "\u201cq\u201d", "\x0b", "\xa0",
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(alphabet=st.sampled_from(' \t\r\n()"\';&|~?\\ab1.-=>\u201c\u201d\u2018\u2019\x0b\xa0'), max_size=60),
        st.lists(st.sampled_from(_LEX_PIECES), max_size=30).map("".join),
    )
)
def test_each_token_position_points_at_its_first_character(text):
    try:
        toks = tokenize(text)
    except LexError:
        return
    src = text.translate(_STRAIGHT_QUOTES)
    line_starts = [0] + [i + 1 for i, c in enumerate(src) if c == "\n"]
    offsets = []
    for t in toks:
        assert 1 <= t.line <= len(line_starts) and t.col >= 1
        at = line_starts[t.line - 1] + t.col - 1
        assert t.line == len(line_starts) or at < line_starts[t.line]
        offsets.append(at)
        if t.kind == EOF:
            assert at == len(src)
        elif t.kind == STR:
            assert src[at] in "\"'"
        elif t.kind == VAR:
            assert src.startswith("?" + t.value, at)
        elif t.kind in (INT, FLOAT):
            assert parse_number(_WORD_AT.match(src, at)[0]) == t.value
        else:
            assert src.startswith(t.value, at)
    assert offsets == sorted(set(offsets))


def test_comments_run_to_end_of_line():
    toks = tokenize("a ; the rest is (ignored ?junk\nb")
    assert [(t.kind, t.value) for t in toks[:2]] == [(SYM, "a"), (SYM, "b")]
    assert toks[1].line == 2


def test_string_quoting_and_escapes():
    toks = tokenize('"a\\"b" \'it\\\'s\' "n\\nt\\tslash\\\\"')
    assert all(t.kind == STR for t in toks[:3])
    assert [t.value for t in toks[:3]] == ['a"b', "it's", "n\nt\tslash\\"]


def test_typographic_quotes_normalize():
    assert tokenize("“hello”")[0].value == "hello"
    assert tokenize("‘hi’")[0].value == "hi"


def test_unterminated_string_reports_open_quote():
    with pytest.raises(LexError) as ei:
        tokenize('ok "abc')
    assert (ei.value.line, ei.value.column) == (1, 4)


def test_lone_question_mark_rejected():
    with pytest.raises(LexError):
        tokenize("(retract ? )")


def test_connective_characters_lex_separately():
    toks = tokenize("?x&~?y")
    assert [(t.kind, t.value) for t in toks[:-1]] == [
        (VAR, "x"), (PUNCT, "&"), (PUNCT, "~"), (VAR, "y"),
    ]


def test_dotted_word_is_a_symbol():
    t = tokenize("3.5.7")[0]
    assert (t.kind, t.value) == (SYM, "3.5.7")


def test_integer_literal_too_long_is_a_lex_error():
    with pytest.raises(LexError) as ei:
        tokenize("(assert (A (n " + "9" * 5000 + ")))")
    assert (ei.value.line, ei.value.column) == (1, 15)
    assert "too long" in ei.value.message


# ------------------------------------------------------------
# parser
# ------------------------------------------------------------

SMALL_KB = """
; a tiny program exercising every construct
(deftemplate Reading (slot device) (slot value) (slot t))
(deftemplate Alarm (slot device) (slot level))

(defrule high-reading
  (declare (salience 5))
  ?r <- (Reading (device ?d) (value ?v))
  (test (> ?v 100))
  =>
  (retract ?r)
  (bind ?lvl (/ ?v 10))
  (assert (Alarm (device ?d) (level ?lvl))))

(defquery alarms-for
  (declare (variables ?d))
  (Alarm (device ?d) (level ?lvl)))

(assert (Reading (device "a") (value 120) (t 0)))
"""


def test_parse_structure():
    prog = parse_program(SMALL_KB)
    assert prog == [
        TemplateDef("Reading", ("device", "value", "t")),
        TemplateDef("Alarm", ("device", "level")),
        RuleDef(
            "high-reading",
            5,
            (
                Pattern("Reading", (("device", Var("d")), ("value", Var("v"))), address="r"),
                CeTest(FuncCall(">", (Var("v"), Literal(100)))),
            ),
            (
                RetractAction(("r",)),
                BindAction("lvl", FuncCall("/", (Var("v"), Literal(10)))),
                AssertAction((AssertSpec("Alarm", (("device", Var("d")), ("level", Var("lvl")))),)),
            ),
        ),
        QueryDef(
            "alarms-for",
            ("d",),
            (Pattern("Alarm", (("device", Var("d")), ("level", Var("lvl")))),),
        ),
        AssertAction(
            (AssertSpec("Reading", (("device", Literal("a")), ("value", Literal(120)), ("t", Literal(0)))),),
        ),
    ]


def test_salience_defaults_to_zero():
    (rule,) = parse_program("(defrule r (T) => )")
    assert rule.salience == 0
    assert rule.lhs == (Pattern("T", ()),)
    assert rule.rhs == ()


def test_bare_words_in_slots_are_symbols():
    (rule,) = parse_program("(defrule r (T (loc 730)) (U (loc abc)) => )")
    assert rule.lhs[0] == Pattern("T", (("loc", Literal(730)),))
    assert rule.lhs[1] == Pattern("U", (("loc", Literal(Symbol("abc"))),))


def test_connective_constraint_rejected():
    with pytest.raises(ParseError) as ei:
        parse_program("(defrule r (T (s ?x&?y)) => )")
    assert "connective" in ei.value.expected
    assert (ei.value.line, ei.value.column) == (1, 20)


@pytest.mark.parametrize(
    "text,expected_bit",
    [
        ("(foo bar)", "deftemplate"),
        ("(defrule r (T)", "=>"),
        ("(defrule r ~(T) => )", "pattern"),
        ("(defrule r (declare (salience 1.5)) => )", "integer salience"),
        ("(defrule r => (retract))", "fact-address"),
        ("(defrule r ?f <- (T) => (modify ?f))", "(slot expr)"),
        ("(defrule r => (assert))", "to assert"),
        ("(defrule r => (launch))", "assert, retract, modify, or bind"),
        ("(defrule r (test (foo 1 2)) => )", "an operator"),
        ("(defquery q (declare (variables)) (T))", "?parameter"),
        ("(deftemplate T (s a))", "slot"),
        ("(deftemplate T", ")"),
        ("(assert)", "to assert"),
    ],
)
def test_parse_errors(text, expected_bit):
    with pytest.raises(ParseError) as ei:
        parse_program(text)
    assert expected_bit in ei.value.expected


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as ei:
        parse_program("(defrule r\n  (T (s 1|2)) => )")
    assert (ei.value.line, ei.value.column) == (2, 10)


def _nested_rule(depth):
    """A rule whose test nests `depth` operator calls; it asserts the value of
    the `depth - 1` inner ones."""
    e = "?n"
    for _ in range(depth - 1):
        e = f"(+ {e} 1)"
    return f"""
        (deftemplate A (slot n))
        (deftemplate B (slot n))
        (defrule deep (A (n ?n)) (test (< {e} 1000000)) => (assert (B (n {e}))))
        """


def test_nesting_deeper_than_the_limit_is_a_parse_error():
    text = "(deftemplate A (slot n))\n(defrule r (A (n ?n)) (test " + "(< " * 3000 + "1 2" + ")" * 3000 + ") => )"
    with pytest.raises(ParseError) as ei:
        parse_program(text)
    assert (ei.value.line, ei.value.column) == (2, 29 + 3 * MAX_NESTING)
    with pytest.raises(ParseError):
        parse_program(_nested_rule(MAX_NESTING + 1))


def test_rule_nested_at_the_limit_loads_and_fires():
    e = Engine(parse_program(_nested_rule(MAX_NESTING)), firelog=[])
    e.assert_fact("A", {"n": 1})
    assert e.run() == 1
    assert [f.values["n"] for f in e.facts("B")] == [MAX_NESTING]


_KB_WORDS = (
    "(", ")", "(", ")", "deftemplate", "defrule", "defquery", "assert", "retract", "modify", "bind",
    "slot", "test", "declare", "salience", "variables", "=>", "<-", "?x", "?", "+", "<", "eq", "T",
    "s", "1", "-2", "1.5", "1e400", '"a"', "'b", "&", ";", "\n", "9" * 5000,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=60), st.lists(st.sampled_from(_KB_WORDS), max_size=40).map(" ".join)))
def test_any_text_fails_only_with_kb_errors(text):
    try:
        parse_program(text)
    except KbError:
        pass


# ------------------------------------------------------------
# pretty-printer round trips
# ------------------------------------------------------------


def test_format_round_trips_fixed_program():
    prog = parse_program(SMALL_KB)
    assert parse_program(format_program(prog)) == prog


def test_shipped_kb_round_trips_and_validates(kb_constructs):
    assert parse_program(format_program(kb_constructs)) == kb_constructs
    assert validate_program(kb_constructs) == []


def test_string_literal_formatting_escapes():
    c = AssertAction((AssertSpec("T", (("s", Literal('a"b\\c\nd')),)),))
    (back,) = parse_program(format_construct(c))
    assert back == c


@settings(max_examples=200, deadline=None)
@given(programs)
def test_random_programs_round_trip(prog):
    assert parse_program(format_program(prog)) == prog


# ------------------------------------------------------------
# validation
# ------------------------------------------------------------

T2 = "(deftemplate T (slot a) (slot b))\n"


def diag_kinds(text):
    return [d.kind for d in validate_program(parse_program(text))]


def test_validate_clean_rule():
    text = T2 + "(defrule r ?f <- (T (a ?x)) (test (> ?x 0)) => (modify ?f (b (+ ?x 1))))"
    assert diag_kinds(text) == []


def test_validate_bind_introduces_binding():
    text = T2 + "(defrule r (T (a ?v)) => (bind ?y (+ ?v 1)) (assert (T (a ?y))))"
    assert diag_kinds(text) == []


@pytest.mark.parametrize(
    "tail,kinds",
    [
        ("(defrule r (U (a 1)) => )", ["unknown-template"]),
        ("(defrule r (T (z 1)) => )", ["unknown-slot"]),
        ("(defrule r ?f <- (T) => (modify ?f (z 1)))", ["unknown-slot"]),
        ("(defrule r (T) (test (> ?x 0)) => )", ["unbound-variable"]),
        ("(defrule r (T) => (assert (T (a ?x))))", ["unbound-variable"]),
        ("(defrule r (T) => (bind ?y (+ ?x 1)))", ["unbound-variable"]),
        ("(defrule r (T (a ?x)) => (retract ?x))", ["not-fact-address"]),
        ("(defrule r (T (a ?x)) => (modify ?x (a 1)))", ["not-fact-address"]),
        ("(defrule r ?f <- (T) (test (> ?f 0)) => )", ["address-in-expression"]),
        ("(defrule r ?f <- (T) (T (a ?f)) => )", ["address-in-expression"]),
        ("(defrule r ?f <- (T) ?f <- (T (a 1)) => )", ["address-in-expression"]),
        ("(defrule r ?f <- (T) => (assert (T (a ?f))))", ["address-in-expression"]),
        ("(defrule r ?f <- (T) => (bind ?f 1))", ["address-in-expression"]),
        ("(defrule r (T) => )(defrule r (T) => )", ["duplicate-rule"]),
        ("(defrule r (T) => )(defquery r (declare (variables ?p)) (T (a ?p)))", ["duplicate-rule"]),
        ("(deftemplate T (slot a))", ["duplicate-template"]),
        ("(defquery q (declare (variables ?p)) (T (a ?x)))", ["unbound-parameter"]),
        ("(defquery q (declare (variables ?p)) (T (a ?x)) (test (> ?x ?p)))", ["unbound-parameter"]),
        ("(assert (T (a ?x)))", ["top-level-variable"]),
        ("(assert (U (a 1)))", ["unknown-template"]),
        ("(deftemplate A (slot x) (slot x))", ["duplicate-slot"]),
        ("(deftemplate A)", ["empty-template"]),
    ],
)
def test_validate_flags(tail, kinds):
    assert diag_kinds(T2 + tail) == kinds


@pytest.mark.parametrize(
    "tail,where",
    [
        ("(defrule r (T (a 1) (a 2)) => )", "r"),
        ("(defrule r (T) => (assert (T (a 1) (b 2) (a 3))))", "r"),
        ("(assert (T (a 1) (a 2)))", "(assert)"),
        ("(defrule r ?f <- (T) => (modify ?f (b 1) (b 2)))", "r"),
    ],
)
def test_slot_given_twice_is_reported(tail, where):
    diags = validate_program(parse_program(T2 + tail))
    assert [(d.kind, d.target) for d in diags] == [("duplicate-slot", where)]
    with pytest.raises(ValidationFailed):
        Engine(parse_program(T2 + tail))


def test_validate_query_param_in_pattern_is_clean():
    assert diag_kinds(T2 + "(defquery q (declare (variables ?p)) (T (a ?p)))") == []


def test_validate_rule_direct():
    reg = TemplateRegistry()
    reg.define("T", ["a"])
    (rule,) = parse_program("(defrule r (T (a ?x)) => (retract ?x))")
    diags = validate_rule(rule, reg)
    assert [d.kind for d in diags] == ["not-fact-address"]
    assert "r:" in str(diags[0])


def test_validate_reports_multiple_problems():
    text = T2 + "(defrule r (U (a 1)) (test (> ?q 0)) => (retract ?nope))"
    assert set(diag_kinds(text)) == {"unknown-template", "unbound-variable", "not-fact-address"}
