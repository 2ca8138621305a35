"""The rule language: tokenizer, parser, validator, and pretty-printer.

A strict CLIPS-style subset: deftemplate with simple slots, defrule with an
optional salience declaration, defquery with declared parameters, and
top-level assert. Slot constraints are a literal or a single variable;
connective constraints and not/exists/or condition elements are out of scope.

The lexer is one regular expression with a named alternative per token kind.
The parser, the printer and the validator each read a `(slot value)` list in
one place, whether it belongs to a pattern, an asserted fact or a modify.
`validate_program` reports every problem it finds, in source order, so the
same text always gives the same diagnostics in the same order.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .facts import DuplicateSlot, KbError, Symbol, SlotValue, TemplateRegistry

OPS = ("+", "-", "*", "/", "<", ">", "<=", ">=", "eq", "neq")

# ============================================================
# errors
# ============================================================


class LexError(KbError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"{line}:{column}: {message}")


class ParseError(KbError):
    def __init__(self, line: int, column: int, expected: str, found: str):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        super().__init__(f"{line}:{column}: expected {expected}, found {found}")


# ============================================================
# tokens
# ============================================================

LP = "lp"
RP = "rp"
SYM = "sym"
VAR = "var"
INT = "int"
FLOAT = "float"
STR = "str"
ARROW = "arrow"  # =>
ADDR = "addr"  # <-
PUNCT = "punct"  # & | ~ — reserved, always rejected by the parser
EOF = "eof"


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    value: object
    line: int
    col: int

    def show(self) -> str:
        if self.kind == EOF:
            return "end of input"
        if self.kind == STR:
            return f'"{self.value}"'
        return str(self.value)


_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_FLOAT_RE = re.compile(
    r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\Z|[+-]?[0-9]+[eE][+-]?[0-9]+\Z"
)


def parse_number(word: str) -> int | float | None:
    """The int or float a bare word denotes in KB syntax, or None if it is
    not a number there."""
    if _INT_RE.match(word):
        return int(word)
    if _FLOAT_RE.match(word):
        return float(word)
    return None


# Typographic quotes normalize to their straight forms before lexing; the
# replacements are all single characters so token positions stay true.
_QUOTE_NORMALIZATION = str.maketrans({"\u201c": '"', "\u201d": '"', "\u2018": "'", "\u2019": "'"})

# One alternative per token kind, named after the kind it yields; a word
# becomes a symbol, a number or an arrow. A word runs up to the next of exactly
# these breakers, so \x0b, \x0c and \xa0 are word characters. A quote that
# never closes is the only text no alternative matches.
_WORD = r"""[^ \t\r\n()"';&|~?]"""
_TOKEN_RE = re.compile(
    rf"""(?P<skip>[ \t\r\n]+|;[^\n]*)
    |(?P<lp>\()|(?P<rp>\))|(?P<punct>[&|~])
    |(?P<str>"[^"\\]*(?:\\.[^"\\]*)*"|'[^'\\]*(?:\\.[^'\\]*)*')
    |\?(?P<var>{_WORD}*)
    |(?P<word>{_WORD}+)""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def tokenize(text: str) -> list[Token]:
    """Lex `text` into tokens. Raises LexError with line/column on bad input."""
    src = text.translate(_QUOTE_NORMALIZATION)
    toks: list[Token] = []
    line, line_start = 1, 0  # the line at `pos`, and the offset where it starts
    pos, n = 0, len(src)
    while pos < n:
        m = _TOKEN_RE.match(src, pos)
        col = pos - line_start + 1
        if m is None:
            raise LexError(line, col, "unterminated string")
        start, pos, kind = pos, m.end(), m.lastgroup
        value = m[kind]
        if kind == "word":
            if value == "=>":
                kind = ARROW
            elif value == "<-":
                kind = ADDR
            else:
                try:
                    num = parse_number(value)
                except ValueError:  # more digits than Python's int conversion takes
                    raise LexError(line, col, f"integer literal too long ({len(value)} characters)") from None
                if num is None:
                    kind = SYM
                else:
                    kind, value = INT if type(num) is int else FLOAT, num
        elif kind == VAR and not value:
            raise LexError(line, col, "expected a variable name after ?")
        elif kind == STR:
            value = _ESCAPE_RE.sub(lambda e: _ESCAPES.get(e[1], e[1]), value[1:-1])
        if kind != "skip":
            toks.append(Token(kind, value, line, col))
        if kind == "skip" or kind == STR:  # the only matches that can span lines
            last = src.rfind("\n", start, pos)
            if last >= 0:
                line += src.count("\n", start, pos)
                line_start = last + 1
    toks.append(Token(EOF, None, line, n - line_start + 1))
    return toks


# ============================================================
# AST
# ============================================================


@dataclass(frozen=True, slots=True)
class Literal:
    value: SlotValue


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class FuncCall:
    op: str
    args: tuple  # of Expr


Expr = Literal | Var | FuncCall


@dataclass(frozen=True, slots=True)
class Pattern:
    template: str
    slots: tuple  # of (slot name, Literal | Var)
    address: str | None = None


@dataclass(frozen=True, slots=True)
class Test:
    expr: FuncCall


ConditionElement = Pattern | Test


@dataclass(frozen=True, slots=True)
class AssertSpec:
    template: str
    slots: tuple  # of (slot name, Expr)


@dataclass(frozen=True, slots=True)
class AssertAction:
    facts: tuple  # of AssertSpec


@dataclass(frozen=True, slots=True)
class RetractAction:
    variables: tuple  # of str


@dataclass(frozen=True, slots=True)
class ModifyAction:
    variable: str
    updates: tuple  # of (slot name, Expr)


@dataclass(frozen=True, slots=True)
class BindAction:
    variable: str
    expr: Expr


Action = AssertAction | RetractAction | ModifyAction | BindAction


@dataclass(frozen=True, slots=True)
class TemplateDef:
    name: str
    slots: tuple  # of str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class RuleDef:
    name: str
    salience: int
    lhs: tuple  # of ConditionElement
    rhs: tuple  # of Action
    line: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class QueryDef:
    name: str
    parameters: tuple  # of str
    lhs: tuple  # of ConditionElement
    line: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class TopLevelAssert:
    facts: tuple  # of AssertSpec
    line: int = field(default=0, compare=False)


Construct = TemplateDef | RuleDef | QueryDef | TopLevelAssert


# ============================================================
# parser
# ============================================================


# Operator calls may nest this deep. The parser, the validator and the
# engine's compiled closures all recurse once or twice per level, so this
# keeps a KB that parses well inside Python's default recursion limit of 1,000.
MAX_NESTING = 100


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0
        self.depth = 0  # operator calls open around the current token

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != EOF:
            self.i += 1
        return t

    def fail(self, expected: str, tok: Token | None = None) -> ParseError:
        t = tok or self.peek()
        return ParseError(t.line, t.col, expected, t.show())

    def expect(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise self.fail(what, t)
        return self.next()

    def expect_word(self, word: str) -> Token:
        t = self.peek()
        if t.kind != SYM or t.value != word:
            raise self.fail(word, t)
        return self.next()

    # ---- program

    def program(self) -> list[Construct]:
        out: list[Construct] = []
        while self.peek().kind != EOF:
            out.append(self.construct())
        return out

    def construct(self) -> Construct:
        lp = self.expect(LP, "(")
        head = self.peek()
        if head.kind != SYM:
            raise self.fail("deftemplate, defrule, defquery, or assert", head)
        if head.value == "deftemplate":
            return self.template_def(lp)
        if head.value == "defrule":
            return self.rule_def(lp)
        if head.value == "defquery":
            return self.query_def(lp)
        if head.value == "assert":
            return self.top_assert(lp)
        raise self.fail("deftemplate, defrule, defquery, or assert", head)

    def template_def(self, lp: Token) -> TemplateDef:
        self.next()  # deftemplate
        name = self.expect(SYM, "template name")
        slots: list[str] = []
        while self.peek().kind == LP:
            self.next()
            self.expect_word("slot")
            slots.append(self.expect(SYM, "slot name").value)
            self.expect(RP, ")")
        self.expect(RP, ")")
        return TemplateDef(name.value, tuple(slots), line=lp.line)

    def rule_def(self, lp: Token) -> RuleDef:
        self.next()  # defrule
        name = self.expect(SYM, "rule name")
        salience = 0
        if self._at_declare():
            salience = self.declare_salience()
        lhs: list[ConditionElement] = []
        while self.peek().kind != ARROW:
            if self.peek().kind == EOF:
                raise self.fail("=>")
            lhs.append(self.condition_element())
        self.next()  # =>
        rhs: list[Action] = []
        while self.peek().kind != RP:
            rhs.append(self.action())
        self.next()  # )
        return RuleDef(name.value, salience, tuple(lhs), tuple(rhs), line=lp.line)

    def _at_declare(self) -> bool:
        return (
            self.peek().kind == LP
            and self.peek(1).kind == SYM
            and self.peek(1).value == "declare"
        )

    def declare_salience(self) -> int:
        self.next()  # (
        self.next()  # declare
        self.expect(LP, "(")
        self.expect_word("salience")
        t = self.expect(INT, "integer salience")
        self.expect(RP, ")")
        self.expect(RP, ")")
        return t.value

    def query_def(self, lp: Token) -> QueryDef:
        self.next()  # defquery
        name = self.expect(SYM, "query name")
        self.expect(LP, "(")
        self.expect_word("declare")
        self.expect(LP, "(")
        self.expect_word("variables")
        params: list[str] = []
        while self.peek().kind == VAR:
            params.append(self.next().value)
        if not params:
            raise self.fail("at least one ?parameter")
        self.expect(RP, ")")
        self.expect(RP, ")")
        lhs: list[ConditionElement] = []
        while self.peek().kind != RP:
            lhs.append(self.condition_element())
        self.next()  # )
        return QueryDef(name.value, tuple(params), tuple(lhs), line=lp.line)

    def top_assert(self, lp: Token) -> TopLevelAssert:
        self.next()  # assert
        facts = self.assert_specs()
        self.expect(RP, ")")
        return TopLevelAssert(tuple(facts), line=lp.line)

    # ---- condition elements

    def condition_element(self) -> ConditionElement:
        t = self.peek()
        if t.kind == VAR:
            addr = self.next().value
            self.expect(ADDR, "<-")
            pat = self.pattern()
            return Pattern(pat.template, pat.slots, address=addr)
        if t.kind == LP:
            if self.peek(1).kind == SYM and self.peek(1).value == "test":
                self.next()
                self.next()
                call = self.funcall()
                self.expect(RP, ")")
                return Test(call)
            return self.pattern()
        raise self.fail("a pattern or (test ...)", t)

    def pattern(self) -> Pattern:
        self.expect(LP, "(")
        tmpl = self.expect(SYM, "template name")
        slots = self.slots(self.constraint)
        self.expect(RP, ")")
        return Pattern(tmpl.value, slots)

    def constraint(self) -> Literal | Var:
        c = self.term("a literal or a single variable")
        nxt = self.peek()
        if nxt.kind == PUNCT:
            raise self.fail("') — connective constraints are not supported", nxt)
        if nxt.kind != RP:
            raise self.fail("') — slot takes a single literal or variable", nxt)
        return c

    def slots(self, value: Callable[[], Expr]) -> tuple:
        """`(slot value)` pairs up to the first token that is not `(`; `value`
        reads each value."""
        out: list[tuple[str, Expr]] = []
        while self.peek().kind == LP:
            self.next()
            slot = self.expect(SYM, "slot name")
            out.append((slot.value, value()))
            self.expect(RP, ")")
        return tuple(out)

    # ---- actions

    def action(self) -> Action:
        self.expect(LP, "(")
        head = self.expect(SYM, "assert, retract, modify, or bind")
        if head.value == "assert":
            facts = self.assert_specs()
            self.expect(RP, ")")
            return AssertAction(tuple(facts))
        if head.value == "retract":
            variables: list[str] = []
            while self.peek().kind == VAR:
                variables.append(self.next().value)
            if not variables:
                raise self.fail("at least one ?fact-address")
            self.expect(RP, ")")
            return RetractAction(tuple(variables))
        if head.value == "modify":
            var = self.expect(VAR, "?fact-address").value
            updates = self.slots(self.expr)
            if not updates:
                raise self.fail("at least one (slot expr)")
            self.expect(RP, ")")
            return ModifyAction(var, updates)
        if head.value == "bind":
            var = self.expect(VAR, "?variable").value
            e = self.expr()
            self.expect(RP, ")")
            return BindAction(var, e)
        raise self.fail("assert, retract, modify, or bind", head)

    def assert_specs(self) -> list[AssertSpec]:
        specs: list[AssertSpec] = []
        while self.peek().kind == LP:
            self.next()
            tmpl = self.expect(SYM, "template name")
            slots = self.slots(self.expr)
            self.expect(RP, ")")
            specs.append(AssertSpec(tmpl.value, slots))
        if not specs:
            raise self.fail("at least one (Template ...) to assert")
        return specs

    # ---- expressions

    def expr(self) -> Expr:
        if self.peek().kind == LP:
            return self.funcall()
        return self.term("an expression")

    def term(self, expected: str) -> Literal | Var:
        """A variable or a literal; a bare word is a symbol."""
        t = self.peek()
        if t.kind == VAR:
            return Var(self.next().value)
        if t.kind in (INT, FLOAT, STR, SYM):
            self.next()
            return Literal(Symbol(t.value) if t.kind == SYM else t.value)
        raise self.fail(expected, t)

    def funcall(self) -> FuncCall:
        lp = self.expect(LP, "(")
        if self.depth == MAX_NESTING:
            raise self.fail(f"at most {MAX_NESTING} nested operator calls", lp)
        op = self.peek()
        if op.kind != SYM or op.value not in OPS:
            raise self.fail("an operator (" + " ".join(OPS) + ")", op)
        self.next()
        args: list[Expr] = []
        self.depth += 1
        while self.peek().kind != RP:
            args.append(self.expr())
        self.depth -= 1
        self.next()  # )
        return FuncCall(op.value, tuple(args))


def parse_program(text: str) -> list[Construct]:
    """Parse KB text into constructs in source order."""
    return _Parser(tokenize(text)).program()


# ============================================================
# pretty-printer
# ============================================================


def _fmt_literal(v: SlotValue) -> str:
    t = type(v)
    if t is Symbol:
        return v.name
    if t is str:
        body = v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
        return f'"{body}"'
    return repr(v)  # int and float round-trip through repr


def _fmt_expr(e: Expr) -> str:
    if isinstance(e, Literal):
        return _fmt_literal(e.value)
    if isinstance(e, Var):
        return f"?{e.name}"
    return "(" + " ".join([e.op] + [_fmt_expr(a) for a in e.args]) + ")"


def _fmt_form(head: str, slots: tuple) -> str:
    """`(head (slot value)...)`: a pattern, an asserted fact or a modify."""
    return "(" + " ".join([head] + [f"({s} {_fmt_expr(e)})" for s, e in slots]) + ")"


def _fmt_ce(ce: ConditionElement) -> str:
    if isinstance(ce, Test):
        return f"(test {_fmt_expr(ce.expr)})"
    body = _fmt_form(ce.template, ce.slots)
    return body if ce.address is None else f"?{ce.address} <- {body}"


def _fmt_action(a: Action) -> str:
    if isinstance(a, AssertAction):
        return "(assert " + " ".join(_fmt_form(s.template, s.slots) for s in a.facts) + ")"
    if isinstance(a, RetractAction):
        return "(retract " + " ".join(f"?{v}" for v in a.variables) + ")"
    if isinstance(a, ModifyAction):
        return _fmt_form(f"modify ?{a.variable}", a.updates)
    return f"(bind ?{a.variable} {_fmt_expr(a.expr)})"


def format_construct(c: Construct) -> str:
    if isinstance(c, TemplateDef):
        lines = [f"(deftemplate {c.name}"]
        lines += [f"  (slot {s})" for s in c.slots]
        return "\n".join(lines) + ")"
    if isinstance(c, RuleDef):
        lines = [f"(defrule {c.name}"]
        if c.salience != 0:
            lines.append(f"  (declare (salience {c.salience}))")
        lines += [f"  {_fmt_ce(ce)}" for ce in c.lhs]
        lines.append("  =>")
        lines += [f"  {_fmt_action(a)}" for a in c.rhs]
        return "\n".join(lines) + ")"
    if isinstance(c, QueryDef):
        lines = [f"(defquery {c.name}"]
        lines.append("  (declare (variables " + " ".join(f"?{p}" for p in c.parameters) + "))")
        lines += [f"  {_fmt_ce(ce)}" for ce in c.lhs]
        return "\n".join(lines) + ")"
    if isinstance(c, TopLevelAssert):
        return _fmt_action(AssertAction(c.facts))
    raise TypeError(f"not a construct: {c!r}")


def format_program(constructs: list[Construct]) -> str:
    return "\n\n".join(format_construct(c) for c in constructs) + "\n"


# ============================================================
# validation
# ============================================================


@dataclass(frozen=True, slots=True)
class Diagnostic:
    kind: str  # unknown-template | unknown-slot | duplicate-slot | unbound-variable | not-fact-address | address-in-expression | duplicate-rule | duplicate-template | empty-template | unbound-parameter | top-level-variable | operator-arity
    target: str  # rule/query/construct name
    message: str

    def __str__(self) -> str:
        return f"{self.target}: {self.kind}: {self.message}"


def _check_arity(name: str, e: Expr, diags: list[Diagnostic]) -> list[str]:
    """Every operator takes at least two operands; nested calls included.
    Returns the variables `e` reads, in order of first occurrence."""
    seen: dict[str, None] = {}
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Var):
            seen[e.name] = None
        elif isinstance(e, FuncCall):
            if len(e.args) < 2:
                diags.append(Diagnostic("operator-arity", name, f"{_fmt_expr(e)} needs at least 2 operands"))
            stack.extend(reversed(e.args))
    return list(seen)


def _check_expr(
    name: str, e: Expr, where: str, bound: set[str], addresses: dict[str, str], diags: list[Diagnostic]
) -> None:
    """Arity, and every variable `e` reads: not a fact address, and bound
    already. `where` names the test or action that holds `e`."""
    unbound = "by an earlier pattern" if where == "a test" else f"({where})"
    for v in _check_arity(name, e, diags):
        if v in addresses:
            diags.append(Diagnostic("address-in-expression", name, f"fact address ?{v} used in {where}"))
        elif v not in bound:
            diags.append(Diagnostic("unbound-variable", name, f"?{v} is not bound {unbound}"))


def _check_slots(name: str, template: str, slots: tuple, registry: TemplateRegistry, diags: list[Diagnostic]) -> None:
    """Template and slot existence, and no slot given twice, for one pattern,
    asserted fact or modify."""
    if template not in registry:
        diags.append(Diagnostic("unknown-template", name, f"unknown template {template}"))
    else:
        t = registry.get(template)
        for s, _ in slots:
            if s not in t.slots:
                diags.append(Diagnostic("unknown-slot", name, f"template {template} has no slot {s}"))
    for s, k in Counter(s for s, _ in slots).items():
        if k > 1:
            diags.append(Diagnostic("duplicate-slot", name, f"slot {s} is given {k} times in one {template}"))


def _validate_lhs(
    name: str, lhs: tuple, registry: TemplateRegistry, diags: list[Diagnostic], pre_bound: set[str] = frozenset()
) -> tuple[set[str], dict[str, str]]:
    """Walk condition elements left to right.

    Returns (the slot variables the patterns bind, address variable ->
    template); tests may also read `pre_bound`. Diagnostics for unknown or
    repeated templates/slots, tests on unbound variables, and address
    variables leaking into expressions.
    """
    bound: set[str] = set(pre_bound)
    binds: set[str] = set()
    addresses: dict[str, str] = {}
    for ce in lhs:
        if isinstance(ce, Pattern):
            _check_slots(name, ce.template, ce.slots, registry, diags)
            if ce.address is not None:
                if ce.address in bound or ce.address in addresses:
                    diags.append(
                        Diagnostic(
                            "address-in-expression",
                            name,
                            f"?{ce.address} is already bound and cannot re-bind as a fact address",
                        )
                    )
                addresses[ce.address] = ce.template
            for _, c in ce.slots:
                if isinstance(c, Var):
                    if c.name in addresses:
                        diags.append(
                            Diagnostic(
                                "address-in-expression",
                                name,
                                f"fact address ?{c.name} used as a slot value",
                            )
                        )
                    bound.add(c.name)
                    binds.add(c.name)
        else:  # Test
            _check_expr(name, ce.expr, "a test", bound, addresses, diags)
    return binds, addresses


def validate_rule(rule: RuleDef, registry: TemplateRegistry) -> list[Diagnostic]:
    """Template/slot existence, binding discipline, address-variable usage."""
    diags: list[Diagnostic] = []
    bound, addresses = _validate_lhs(rule.name, rule.lhs, registry, diags)
    for a in rule.rhs:
        if isinstance(a, AssertAction):
            for spec in a.facts:
                _check_slots(rule.name, spec.template, spec.slots, registry, diags)
                for _, e in spec.slots:
                    _check_expr(rule.name, e, "assert", bound, addresses, diags)
        elif isinstance(a, RetractAction):
            for v in a.variables:
                if v not in addresses:
                    diags.append(Diagnostic("not-fact-address", rule.name, f"retract of non-address ?{v}"))
        elif isinstance(a, ModifyAction):
            tname = addresses.get(a.variable)
            if tname is None:
                diags.append(Diagnostic("not-fact-address", rule.name, f"modify of non-address ?{a.variable}"))
            elif tname in registry:  # an unknown template is reported at its pattern
                _check_slots(rule.name, tname, a.updates, registry, diags)
            for _, e in a.updates:
                _check_expr(rule.name, e, "modify", bound, addresses, diags)
        elif isinstance(a, BindAction):
            _check_expr(rule.name, a.expr, "bind", bound, addresses, diags)
            if a.variable in addresses:
                diags.append(
                    Diagnostic("address-in-expression", rule.name, f"bind re-targets fact address ?{a.variable}")
                )
            bound.add(a.variable)
    return diags


def validate_query(query: QueryDef, registry: TemplateRegistry) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    binds, _ = _validate_lhs(query.name, query.lhs, registry, diags, pre_bound=set(query.parameters))
    for p in query.parameters:
        if p not in binds:
            diags.append(Diagnostic("unbound-parameter", query.name, f"parameter ?{p} occurs in no pattern"))
    return diags


def validate_program(constructs: list[Construct]) -> list[Diagnostic]:
    """Validate a whole program in source order (templates must precede use)."""
    diags: list[Diagnostic] = []
    registry = TemplateRegistry()
    rule_names: set[str] = set()
    for c in constructs:
        if isinstance(c, TemplateDef):
            if c.name in registry:
                diags.append(Diagnostic("duplicate-template", c.name, f"template {c.name} redefined"))
            else:
                try:
                    registry.define(c.name, list(c.slots))
                except DuplicateSlot as e:
                    diags.append(Diagnostic("duplicate-slot", c.name, str(e)))
                except KbError as e:  # the one other error: no slots
                    diags.append(Diagnostic("empty-template", c.name, str(e)))
        elif isinstance(c, RuleDef):
            if c.name in rule_names:
                diags.append(Diagnostic("duplicate-rule", c.name, f"rule {c.name} redefined"))
            rule_names.add(c.name)
            diags.extend(validate_rule(c, registry))
        elif isinstance(c, QueryDef):
            if c.name in rule_names:
                diags.append(Diagnostic("duplicate-rule", c.name, f"name {c.name} redefined"))
            rule_names.add(c.name)
            diags.extend(validate_query(c, registry))
        elif isinstance(c, TopLevelAssert):
            for spec in c.facts:
                _check_slots("(assert)", spec.template, spec.slots, registry, diags)
                for _, e in spec.slots:
                    for v in _check_arity("(assert)", e, diags):
                        diags.append(
                            Diagnostic("top-level-variable", "(assert)", f"?{v} cannot appear outside a rule")
                        )
    return diags
