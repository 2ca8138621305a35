"""Forward-chaining inference engine.

Working memory with set semantics, incremental left-to-right matching, an
agenda ordered by salience / recency / insertion sequence, a replayable fire
log, on-demand queries, and derivation trees.

A match is the tuple of the fact versions it matched and nothing else: each
rule variable compiles once to a read at a fixed position of that tuple (its
environment, which an RHS `bind` extends). Matching keeps one memory shape on
both sides of every join (as in Rete/UL): a rule's `right[lvl]` holds the
facts that match pattern `lvl`, its `left[lvl]` the partial matches of
patterns 1..`lvl`, each under a join key read from `Fact.key`, whose values
are the fact's own value tuple unless a slot holds a Float. No complete match
is stored. `Engine.__init__` compiles this network once: each pattern gets an
add and a remove closure, filed under its template, with its rule's
memories, key readers, tests and next join step bound. A fact leaves the
memories by the joins it entered them by (as in Forgy's Rete), so no index
of entries is kept, and the walk stops where nothing is stored: a fact
removed at a rule's last pattern k leaves `right[k]` only, and a partial
match removed at level k-1 leaves `left[k-1]` only, since `run` cancels the
activations they were part of.

Every event, a firing or one external assert, modify or retract, takes the
next fire-log seq and makes one `FireLogEntry` from the fact versions it
produced. The log is a sink the caller chooses: a list keeps every entry, a
`FireLogWriter` streams them to a file, and None (the default) keeps
nothing; per-rule counts are in `fire_counts` either way. Provenance lives
on the facts, not in the log: each fact version's `why` names the rule, the
seq and the consumed versions that made it, and a rule's modify of a fact it
consumed folds the chain behind it. What no live fact reaches is freed, so
the engine's memory follows its working memory, not the length of the feed,
and a snapshot explains its own facts.

Refraction (an activation fires at most once) needs no memory of fired
activations. Every activation a mutation creates contains the mutated fact:
an assert's fact has a fresh id, so its combinations are new, and a modify
takes the old version out of every memory before the new one goes in, so
every combination it creates holds the new version. No mutation can
re-create an activation that already fired. An activation carries the fact
versions it matched, and is cancelled once one is no longer in the WM.

Determinism contract: insertion sequence is a pure function of history. After
every primitive WM mutation (one assert, retract, or modify), all activations
created by that mutation are sorted by (rule definition index, fact-id tuple)
and numbered in that order. Given the same knowledge base and the same ordered
assertion sequence, the fire log and final WM are identical run to run.
"""

from __future__ import annotations

import json
import operator
import threading
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter
from typing import Iterable, Mapping

from . import lang
from .facts import (
    NIL,
    SLOT_TYPES,
    Fact,
    KbError,
    SlotValue,
    Symbol,
    Template,
    TemplateRegistry,
    UnknownSlot,
    UnknownTemplate,
    Why,
    is_slot_value,
    make_fact,
    value_key,
)

# ============================================================
# errors
# ============================================================


class DuplicateRuleName(KbError):
    pass


class UnknownFactId(KbError):
    pass


class WouldDuplicate(KbError):
    pass


class UnknownQuery(KbError):
    pass


class MissingParameter(KbError):
    pass


class UnknownParameter(KbError):
    pass


class NotDerived(KbError):
    pass


class RuntimeEvalError(KbError):
    pass


class ValidationFailed(KbError):
    def __init__(self, diagnostics: list[lang.Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


# ============================================================
# expression evaluation
# ============================================================

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_CMP = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def eval_expr(e: lang.Expr, bindings: Mapping[str, object]) -> object:
    """Evaluate an expression under bindings.

    Arithmetic on non-numeric operands raises RuntimeEvalError; comparisons on
    non-numeric operands are plain false. Division always yields float.
    """
    where = {name: (pos, None) for pos, name in enumerate(bindings)}
    return _compile_value(e, where)(tuple(bindings.values()))


_ADDRESS = "<-"  # the slot index of a fact address in `where`


def _read(where: dict, name: str):
    """Read variable `name` from an environment (a match's facts, then the
    values its RHS binds) through `where`: name -> (position, slot index),
    where index None means the position holds the value itself and
    `_ADDRESS` means the fact's id."""
    if name not in where:

        def unbound(env):
            raise RuntimeEvalError(f"unbound variable ?{name}")

        return unbound
    pos, i = where[name]
    if i is None:
        return lambda env: env[pos]
    if i == _ADDRESS:
        return lambda env: env[pos].id
    return lambda env: env[pos].vals[i]


def _operand(a: lang.Expr, where: dict) -> tuple:
    """How a two-operand operator reads operand `a`: (position, slot index)
    if `a` is a variable bound to a fact slot, which the operator's closure
    reads in place, else (compiled value, None)."""
    if type(a) is lang.Var and a.name in where:
        pos, i = where[a.name]
        if type(i) is int:
            return pos, i
    return _compile_value(a, where), None


def _compile_value(e: lang.Expr, where: dict):
    """Close an expression into a function of an environment (`_read`): the
    engine's one evaluator, for tests, RHS actions and top-level asserts alike.

    Every operand is evaluated, left to right, before the operator checks
    any of them, so the first error an expression raises does not depend on
    its operator. Arithmetic, comparisons and eq/neq on two operands, which
    are nearly all LHS tests, compile to one closure each, whatever the
    operands are: it reads an operand bound to a fact slot itself and calls
    the compiled value of any other.
    """
    if type(e) is lang.Literal:
        v = e.value
        return lambda b: v
    if type(e) is lang.Var:
        return _read(where, e.name)
    op = e.op
    known = op in _ARITH or op in _CMP or op in ("eq", "neq")
    if known and len(e.args) == 2:
        (ga, ia), (gb, ib) = _operand(e.args[0], where), _operand(e.args[1], where)
        if op in _ARITH:

            def arith2(b, ga=ga, ia=ia, gb=gb, ib=ib, fn=_ARITH[op]):
                x = ga(b) if ia is None else b[ga].vals[ia]
                y = gb(b) if ib is None else b[gb].vals[ib]
                if type(x) not in (int, float):
                    raise RuntimeEvalError(f"arithmetic on non-number {x!r}")
                if type(y) not in (int, float):
                    raise RuntimeEvalError(f"arithmetic on non-number {y!r}")
                try:
                    return fn(x, y)
                except ZeroDivisionError:
                    raise RuntimeEvalError("division by zero") from None
                except OverflowError:
                    raise RuntimeEvalError("arithmetic overflow") from None

            return arith2
        if op in _CMP:

            def cmp2(b, ga=ga, ia=ia, gb=gb, ib=ib, cmp=_CMP[op]):
                x = ga(b) if ia is None else b[ga].vals[ia]
                y = gb(b) if ib is None else b[gb].vals[ib]
                if type(x) not in (int, float) or type(y) not in (int, float):
                    return False
                return cmp(x, y)

            return cmp2

        def eq2(b, ga=ga, ia=ia, gb=gb, ib=ib, want=op == "eq", op=op):
            x = ga(b) if ia is None else b[ga].vals[ia]
            y = gb(b) if ib is None else b[gb].vals[ib]
            t = type(x)
            # values of one of these kinds are their own keys (value_key)
            if t is type(y) and (t is Symbol or t is int or t is str):
                return (x == y) is want
            # a slot operand passes: a fact's slots hold slot values only
            for a in (x, y):
                if not is_slot_value(a):
                    raise RuntimeEvalError(f"{op} on non-slot-value {a!r}")
            return (value_key(x) == value_key(y)) is want

        return eq2
    gets = tuple(_compile_value(a, where) for a in e.args)
    if not known or len(gets) < 2:
        msg = f"{op} needs at least 2 arguments" if op in lang.OPS else f"unknown operator {op}"

        def fail(b, gets=gets, msg=msg):
            for g in gets:
                g(b)
            raise RuntimeEvalError(msg)

        return fail
    if op in _ARITH:

        def arith(b, gets=gets, fn=_ARITH[op]):
            args = [g(b) for g in gets]
            for a in args:
                if type(a) not in (int, float):
                    raise RuntimeEvalError(f"arithmetic on non-number {a!r}")
            acc = args[0]
            try:
                for a in args[1:]:
                    acc = fn(acc, a)
            except ZeroDivisionError:
                raise RuntimeEvalError("division by zero") from None
            except OverflowError:
                raise RuntimeEvalError("arithmetic overflow") from None
            return acc

        return arith
    if op in _CMP:

        def cmpn(b, gets=gets, cmp=_CMP[op]):
            args = [g(b) for g in gets]
            for a in args:
                if type(a) not in (int, float):
                    return False
            return all(cmp(x, y) for x, y in zip(args, args[1:]))

        return cmpn

    def eqn(b, gets=gets, want=op == "eq", op=op):
        keys = []
        for a in [g(b) for g in gets]:
            if not is_slot_value(a):
                raise RuntimeEvalError(f"{op} on non-slot-value {a!r}")
            keys.append(value_key(a))
        if want:
            return all(k == keys[0] for k in keys[1:])
        return all(k != keys[0] for k in keys[1:])

    return eqn


def _tests_ok(tests: tuple, env: tuple) -> bool:
    # An eval error inside an LHS test filters the match; it never aborts a run.
    try:
        for t in tests:
            if t(env) is not True:
                return False
    except RuntimeEvalError:
        return False
    return True


def _slot_value(v: object) -> SlotValue:
    if type(v) not in SLOT_TYPES:
        raise RuntimeEvalError(f"not a slot value: {v!r}")
    return v


def _compile_slots(t: Template, slots: tuple, where: dict) -> tuple:
    """(slot index, compiled value) per slot of an assert or modify of a
    `t` fact, in source order, which is the order they are evaluated in."""
    return tuple((t.slots.index(slot), _compile_value(e, where)) for slot, e in slots)


def _compile_rhs(rhs: tuple, templates: TemplateRegistry, where: dict, patterns: list) -> tuple:
    """Lower RHS actions to dispatch tuples. Retract and modify name pattern
    positions; a bind appends its value to the environment (one fact per
    pattern so far), and the actions after it read that position."""
    size = len(patterns)
    where = dict(where)
    prog: list[tuple] = []
    for a in rhs:
        if isinstance(a, lang.AssertAction):
            specs = []
            for s in a.facts:
                t = templates.get(s.template)
                specs.append((t, _compile_slots(t, s.slots, where)))
            prog.append(("assert", tuple(specs)))
        elif isinstance(a, lang.RetractAction):
            prog.append(("retract", tuple(where[v][0] for v in a.variables)))
        elif isinstance(a, lang.ModifyAction):
            pos = where[a.variable][0]
            t = templates.get(patterns[pos].template)
            prog.append(("modify", pos, _compile_slots(t, a.updates, where)))
        else:
            prog.append(("bind", _compile_value(a.expr, where)))
            where[a.variable] = (size, None)
            size += 1
    return tuple(prog)


# ============================================================
# compiled rules and queries
# ============================================================


class _CPattern:
    """One pattern at a fixed environment position, compiled against the
    `Fact.key` of its template: `ok(fk)` checks a fact's key for the
    pattern's literals and repeated variables (None if it has neither),
    `rkey(fk)` reads its join key from a fact's key, and `lkey(env)` reads
    the same key from the facts of the earlier patterns."""

    __slots__ = ("template", "ok", "rkey", "lkey")

    def __init__(self, p: lang.Pattern, pos: int, where: dict, templates: TemplateRegistry):
        self.template = p.template
        slots = templates.get(p.template).slots
        lits = []  # (slot index, value key)
        same = []  # (slot index, slot index of the variable's first use here)
        join = []  # (slot index, earlier position, slot index there)
        here: dict[str, int] = {}
        for slot, c in p.slots:
            i = slots.index(slot)
            if isinstance(c, lang.Literal):
                lits.append((i, value_key(c.value)))
            elif c.name in here:
                same.append((i, here[c.name]))
            else:
                here[c.name] = i
                if c.name in where:
                    join.append((i, *where[c.name]))
                else:
                    where[c.name] = (pos, i)
        if p.address is not None:
            where[p.address] = (pos, _ADDRESS)
        # an itemgetter gives a value for one index and a tuple for more
        self.ok = None
        if lits:
            gl = itemgetter(*[i for i, _ in lits])
            want = lits[0][1] if len(lits) == 1 else tuple(k for _, k in lits)
            self.ok = lambda fk: gl(fk) == want
        if same:
            ga, gb, lits_ok = itemgetter(*[i for i, _ in same]), itemgetter(*[j for _, j in same]), self.ok
            self.ok = lambda fk: ga(fk) == gb(fk) and (lits_ok is None or lits_ok(fk))
        self.rkey = itemgetter(*[i for i, _, _ in join]) if join else lambda fk: ()
        if len(join) == 1:
            ((_, wpos, wi),) = join
            self.lkey = lambda env: env[wpos].key[1][wi]
        elif len(join) == 2:
            (_, p1, i1), (_, p2, i2) = join
            self.lkey = lambda env: (env[p1].key[1][i1], env[p2].key[1][i2])
        else:  # () without a join
            self.lkey = lambda env: tuple([env[wpos].key[1][wi] for _, wpos, wi in join])


def _compile_lhs(lhs: tuple, templates: TemplateRegistry, where: dict, pos: int) -> tuple[list[_CPattern], tuple]:
    """Patterns, at environment positions from `pos` on, and the compiled
    tests to run as each join level completes (index 0 holds the tests of a
    rule without patterns). `where` gains each variable the patterns bind."""
    patterns: list[_CPattern] = []
    tests: list[list] = [[]]
    for ce in lhs:
        if isinstance(ce, lang.Pattern):
            patterns.append(_CPattern(ce, pos + len(patterns), where, templates))
            tests.append([])
        else:
            tests[-1].append(_compile_value(ce.expr, where))
    if patterns:
        # constant tests ahead of the first pattern gate the first join level
        tests[1][0:0] = tests[0]
        tests[0] = []
    return patterns, tuple(tuple(ts) for ts in tests)


class _CRule:
    __slots__ = ("name", "index", "salience", "patterns", "tests", "prog", "k", "left", "right")

    def __init__(self, index: int, r: lang.RuleDef, templates: TemplateRegistry):
        self.name = r.name
        self.index = index
        self.salience = r.salience
        where: dict = {}
        self.patterns, self.tests = _compile_lhs(r.lhs, templates, where, 0)
        self.k = len(self.patterns)
        self.prog = _compile_rhs(r.rhs, templates, where, self.patterns)
        # join memories by level (module docstring)
        self.left: list[dict] = [{} for _ in range(self.k + 1)]
        self.right: list[dict] = [{} for _ in range(self.k + 1)]


def _compile_joins(rule: _CRule, emit) -> list[tuple[str, object, object]]:
    """Compile `rule`'s join network once: (template, add, remove) per
    pattern, in pattern order, with the memories, key readers, tests and
    next step bound. `add(fact)` joins a new fact in and `emit`s each match
    it completes; `remove(fact)` takes an old one out, and is None where the
    fact is in no memory (the only pattern of a rule)."""
    extend = retire = None
    out = []
    for lvl in range(rule.k, 0, -1):
        extend = _extend_step(rule, lvl, emit, extend)
        if lvl < rule.k:
            retire = _retire_step(rule, lvl, retire)
        out.append((rule.patterns[lvl - 1].template, *_fact_steps(rule, lvl, extend, retire)))
    return out[::-1]


def _extend_step(rule: _CRule, lvl: int, emit, nxt):
    """The step a new match of patterns 1..`lvl` takes: run level `lvl`'s
    tests, then `emit` it as an activation if it is complete, else store it
    in `left[lvl]` and pass each join with `right[lvl + 1]` to `nxt`. Join
    order does not matter: _flush_pending orders the activations."""
    tests, index = rule.tests[lvl], rule.index
    last = lvl == rule.k
    mem = ones_by_key = lkey = None
    if not last:
        mem, ones_by_key, lkey = rule.left[lvl], rule.right[lvl + 1], rule.patterns[lvl].lkey

    def extend(facts: tuple) -> None:
        if tests:
            # an eval error inside an LHS test filters the match
            try:
                for t in tests:
                    if t(facts) is not True:
                        return
            except RuntimeEvalError:
                return
        if last:
            emit((index, tuple([f.id for f in facts]), facts))
            return
        key = lkey(facts)
        bucket = mem.get(key)
        if bucket is None:
            mem[key] = {facts: None}
        else:
            bucket[facts] = None
        ones = ones_by_key.get(key)
        if ones:
            for one in ones:
                nxt(facts + one)

    return extend


def _retire_step(rule: _CRule, lvl: int, nxt):
    """The step a going match of patterns 1..`lvl` (`lvl` < k) takes: out of
    `left[lvl]`, then each join with `right[lvl + 1]` to `nxt`, the next
    level's step, which is None at level k - 1, as no complete match is
    stored. A match not in `left[lvl]` never passed its tests, so nothing
    was built on it."""
    mem, ones_by_key, lkey = rule.left[lvl], rule.right[lvl + 1], rule.patterns[lvl].lkey

    def retire(facts: tuple) -> None:
        key = lkey(facts)
        if _drop(mem, key, facts) and nxt is not None:
            ones = ones_by_key.get(key)
            if ones:
                for one in ones:
                    nxt(facts + one)

    return retire


def _fact_steps(rule: _CRule, lvl: int, extend, retire) -> tuple:
    """(add, remove) for a fact version at pattern `lvl`. Past the alpha
    check a first-level fact is a match of its own; a later one is stored
    in `right[lvl]` and joined with the partial matches in `left[lvl - 1]`
    under its key. A fact removed at the last pattern leaves `right[k]`
    only: `run` cancels the activations it was part of."""
    pat = rule.patterns[lvl - 1]
    ok = pat.ok
    if lvl == 1:

        def add_first(fact: Fact) -> None:
            if ok is None or ok(fact.key[1]):
                extend((fact,))

        return add_first, None if retire is None else lambda fact: retire((fact,))
    rkey, mem, partials_by_key = pat.rkey, rule.right[lvl], rule.left[lvl - 1]

    def add(fact: Fact) -> None:
        fk = fact.key[1]
        if ok is not None and not ok(fk):
            return
        key = rkey(fk)
        one = (fact,)
        bucket = mem.get(key)
        if bucket is None:
            mem[key] = {one: None}
        else:
            bucket[one] = None
        partials = partials_by_key.get(key)
        if partials:
            for p in partials:
                extend(p + one)

    def remove(fact: Fact) -> None:
        # a fact that failed the alpha check is in no bucket
        key = rkey(fact.key[1])
        one = (fact,)
        if _drop(mem, key, one) and retire is not None:
            partials = partials_by_key.get(key)
            if partials:
                for p in partials:
                    retire(p + one)

    return add, remove


class _CQuery:
    __slots__ = ("name", "parameters", "arguments", "patterns", "tests", "row")

    def __init__(self, q: lang.QueryDef, templates: TemplateRegistry):
        self.name = q.name
        self.parameters = q.parameters
        # the arguments are one fact at position 0, of a template named after
        # the query with the parameters as slots
        self.arguments = Template(q.name, q.parameters)
        where = {p: (0, i) for i, p in enumerate(q.parameters)}
        self.patterns, self.tests = _compile_lhs(q.lhs, templates, where, 1)
        # a row's bindings: the parameters, then each pattern's new variables
        # and its address, in the order `where` gained them
        self.row = tuple((name, _read(where, name)) for name in where)


# ============================================================
# runtime records
# ============================================================


class AssertResult:
    """Outcome of an assert: fresh id, or the id of the existing equal fact."""

    __slots__ = ("fact_id", "created")

    def __init__(self, fact_id: int, created: bool):
        self.fact_id = fact_id
        self.created = created

    def __repr__(self) -> str:
        return f"AssertResult({'new' if self.created else 'duplicate'} {self.fact_id})"


@dataclass(slots=True)
class FireLogEntry:
    """One fire (or one external mutation, rule None).

    `facts` holds the content of every version the event produced, as
    (id, template name, slot -> value dict in slot order), a dict built from
    the version's value tuple when the entry is made; it makes the log
    replayable against an empty WM. `ts` is a logical mutation tick, not wall
    clock.
    """

    seq: int
    rule: str | None
    consumed: tuple[int, ...]
    produced: tuple[int, ...]
    retracted: tuple[int, ...]
    ts: int
    facts: tuple = ()
    error: str | None = None


@dataclass(frozen=True, slots=True)
class QueryRow:
    bindings: dict
    fact_ids: tuple


@dataclass(frozen=True, slots=True)
class ExplainNode:
    fact_id: int
    template: str
    values: dict
    rule: str | None  # None: externally asserted (leaf)
    seq: int
    folded: int  # earlier modify-chain steps folded into this node
    children: tuple


# Serializes WmView materialization: HTTP handler threads may read the same
# view at once, and each delta view must be copied once.
_materialize_lock = threading.Lock()


class WmView:
    """Immutable working-memory view for snapshot queries.

    A view is either full (it owns a fact dict and per-template id sets) or a
    delta: a parent view plus the facts changed since it (fid -> Fact, or
    None for a retraction). A delta view becomes full the first time it is
    read, by copying its nearest full ancestor and applying the deltas on the
    way down, oldest first; it then drops its parent link.
    """

    __slots__ = ("_facts", "_by_template", "_parent", "_delta", "_size")

    def __init__(
        self,
        facts: dict[int, Fact] | None = None,
        by_template: dict[str, set[int]] | None = None,
        *,
        parent: WmView | None = None,
        delta: dict[int, Fact | None] | None = None,
        size: int | None = None,
    ):
        self._facts = facts
        self._by_template = by_template
        self._parent = parent
        self._delta = delta
        self._size = len(facts) if size is None else size

    def _materialize(self) -> None:
        with _materialize_lock:
            if self._parent is None:  # another reader got here first
                return
            deltas = []
            v = self
            while v._parent is not None:
                deltas.append(v._delta)
                v = v._parent
            facts = dict(v._facts)
            by_template = {k: set(ids) for k, ids in v._by_template.items()}
            for delta in reversed(deltas):
                for fid, f in delta.items():
                    if f is None:
                        by_template[facts.pop(fid).template.name].discard(fid)
                    else:
                        facts[fid] = f
                        by_template.setdefault(f.template.name, set()).add(fid)
            self._facts = facts
            self._by_template = by_template
            # readers test _parent without the lock: clear it last
            self._delta = None
            self._parent = None

    def fact(self, fid: int) -> Fact:
        if self._parent is not None:
            self._materialize()
        return self._facts[fid]

    def facts(self, template: str | None = None) -> list[Fact]:
        if self._parent is not None:
            self._materialize()
        if template is None:
            return [self._facts[i] for i in sorted(self._facts)]
        return [self._facts[i] for i in sorted(self._by_template.get(template, ()))]

    def __len__(self) -> int:
        return self._size


# ============================================================
# the engine
# ============================================================


class Engine:
    """One knowledge base plus its working memory. Single-writer."""

    def __init__(self, constructs: list[lang.Construct], firelog=None):
        """Validate and compile `constructs`. `firelog` is the fire-log sink,
        any object with `append` (a list keeps every entry); None keeps none."""
        diags = lang.validate_program(constructs)
        if diags:
            first = diags[0]
            if first.kind == "unknown-template":
                raise UnknownTemplate(str(first))
            if first.kind == "unknown-slot":
                raise UnknownSlot(str(first))
            if first.kind in ("duplicate-rule", "duplicate-template"):
                raise DuplicateRuleName(str(first))
            raise ValidationFailed(diags)

        self.templates = TemplateRegistry()
        self._rules: list[_CRule] = []
        self._queries: dict[str, _CQuery] = {}
        staged: list[lang.AssertSpec] = []
        for c in constructs:
            if isinstance(c, lang.TemplateDef):
                self.templates.define(c.name, list(c.slots))
            elif isinstance(c, lang.RuleDef):
                self._rules.append(_CRule(len(self._rules), c, self.templates))
            elif isinstance(c, lang.QueryDef):
                self._queries[c.name] = _CQuery(c, self.templates)
            else:
                staged.extend(c.facts)

        # agenda, and the activations the mutation in progress has made
        self._agenda: list = []
        self._act_seq = 0
        self._pending: list = []

        # the join network, compiled once: template name -> the add and the
        # remove steps of every pattern of that template, in rule order
        adds: dict[str, list] = {}
        removes: dict[str, list] = {}
        for cr in self._rules:
            for template, add, remove in _compile_joins(cr, self._pending.append):
                adds.setdefault(template, []).append(add)
                if remove is not None:
                    removes.setdefault(template, []).append(remove)
        self._adds = {t: tuple(fs) for t, fs in adds.items()}
        self._removes = {t: tuple(fs) for t, fs in removes.items()}

        # working memory
        self._wm: dict[int, Fact] = {}
        self._by_template: dict[str, set[int]] = {}
        self._dup: dict[tuple, int] = {}
        self._next_id = 1

        # snapshot publishing: the facts changed since the last published
        # view (fid -> Fact, None for a retraction), the first id born after
        # that view, and the delta entries published since the last full copy
        self._view: WmView | None = None
        self._changes: dict[int, Fact | None] = {}
        self._view_next_id = 1
        self._delta_entries = 0

        # fire log: the sink (iterable with len() when there is none), the
        # next entry's seq, and fires per rule
        self.firelog = () if firelog is None else firelog
        self._log = None if firelog is None else firelog.append
        self._seq = 0
        self.fire_counts: dict[str, int] = {r.name: 0 for r in self._rules}
        self._tick = 0

        # rules with no positive patterns activate once at load
        self._tick += 1
        for cr in self._rules:
            if cr.k == 0 and _tests_ok(cr.tests[0], ()):
                self._pending.append((cr.index, (), ()))
        self._flush_pending()

        # top-level asserts become initial facts, in source order, after the
        # whole network is built (so no rule misses them)
        for spec in staged:
            values = {slot: _slot_value(_compile_value(e, {})(())) for slot, e in spec.slots}
            self.assert_fact(spec.template, values)

    # ---------------- public API ----------------

    def assert_fact(self, template: str, values: Mapping[str, SlotValue]) -> AssertResult:
        """Add a fact. Equal live fact present -> Duplicate, WM unchanged."""
        fact = make_fact(self.templates.get(template), values)
        fact.why = Why(None, self._seq)
        res = self._assert_internal(fact)
        if res.created:
            self._event(None, (), (fact,), ())
        return res

    def retract_fact(self, fid: int) -> None:
        self.fact(fid)  # UnknownFactId unless live
        self._write(fid, None)
        self._event(None, (), (), (fid,))

    def modify_fact(self, fid: int, updates: Mapping[str, SlotValue]) -> None:
        old = self.fact(fid)
        if not updates:
            return  # no-op, no re-activation
        vals = make_fact(old.template, {**old.values, **updates}).vals
        new = self._modify_internal(fid, vals, Why(None, self._seq))
        self._event(None, (), (new,), ())

    def run(self, limit: int | None = None) -> int:
        """Fire until the agenda empties (or `limit` firings); returns the
        number of firings."""
        fired = 0
        agenda = self._agenda
        wm = self._wm
        while agenda and (limit is None or fired < limit):
            neg_sal, neg_rec, neg_seq, ri, ids, facts = heappop(agenda)
            for f in facts:
                if wm.get(f.id) is not f:
                    break  # cancelled: a fact it matched is gone or modified
            else:
                fired += 1
                self._fire(ri, ids, facts)
        return fired

    def run_query(self, name: str, arguments: Mapping[str, SlotValue], view: WmView | None = None) -> list[QueryRow]:
        """Enumerate all fact combinations satisfying the query. WM untouched."""
        q = self._queries.get(name)
        if q is None:
            raise UnknownQuery(f"unknown query {name}")
        for p in q.parameters:
            if p not in arguments:
                raise MissingParameter(f"query {name} needs ?{p}")
        for a in arguments:
            if a not in q.parameters:
                raise UnknownParameter(f"query {name} has no parameter ?{a}")
        for a, v in arguments.items():
            if not is_slot_value(v):
                raise TypeError(f"parameter ?{a}: not a slot value: {v!r}")
        if view is None:
            view = WmView(self._wm, self._by_template)
        # the matches of patterns 1..lvl, level by level, in fact-id order
        envs = [(Fact(q.arguments, tuple([arguments[p] for p in q.parameters])),)]
        for pat, tests in zip(q.patterns, q.tests[1:]):
            facts = view.facts(pat.template)
            if pat.ok is not None:
                facts = [f for f in facts if pat.ok(f.key[1])]
            extended = []
            for env in envs:
                key = pat.lkey(env)
                for f in facts:
                    if pat.rkey(f.key[1]) == key and _tests_ok(tests, env + (f,)):
                        extended.append(env + (f,))
            envs = extended
        return [QueryRow({name: read(env) for name, read in q.row}, tuple(f.id for f in env[1:])) for env in envs]

    def explain(self, fid: int, view: WmView | None = None) -> ExplainNode:
        """Derivation tree of live fact `fid` in `view` (default: the live WM),
        built from the `why` each fact version carries. Externally asserted
        facts are leaves; a folded modify chain is one node whose children are
        the version that opened the chain and the latest step's other inputs.
        """
        try:
            root = self._wm[fid] if view is None else view.fact(fid)
        except KeyError:
            raise NotDerived(f"no live fact {fid}") from None
        # iterative post-order, so arbitrarily deep derivations cannot
        # overflow the stack; versions shared by several parents are built once
        memo: dict[int, ExplainNode] = {}
        stack = [root]
        while stack:
            f = stack[-1]
            if id(f) in memo:
                stack.pop()
                continue
            why = f.why
            todo = [c for c in why.inputs if id(c) not in memo]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            memo[id(f)] = ExplainNode(
                fact_id=f.id,
                template=f.template.name,
                values=dict(zip(f.template.slots, f.vals)),
                rule=why.rule,
                seq=why.seq,
                folded=why.folded,
                children=tuple(memo[id(c)] for c in why.inputs),
            )
        return memo[id(root)]

    def snapshot(self) -> WmView:
        """Immutable view; later engine mutations are invisible to it.

        Costs O(facts changed since the previous snapshot): the view is a
        delta on that one, copied in full when first read. A full copy is
        taken here instead once the delta entries published since the last
        one reach the WM size, so unread chains hold at most about one WM's
        worth of entries.
        """
        changes = self._changes
        if self._view is not None and not changes:
            return self._view
        self._delta_entries += len(changes)
        if self._view is None or self._delta_entries >= len(self._wm):
            view = WmView(dict(self._wm), {k: set(v) for k, v in self._by_template.items()})
            self._delta_entries = 0
        else:
            view = WmView(parent=self._view, delta=changes, size=len(self._wm))
        self._view = view
        self._changes = {}
        self._view_next_id = self._next_id
        return view

    def fact(self, fid: int) -> Fact:
        f = self._wm.get(fid)
        if f is None:
            raise UnknownFactId(f"no live fact {fid}")
        return f

    def facts(self, template: str | None = None) -> list[Fact]:
        return WmView(self._wm, self._by_template).facts(template)

    @property
    def rule_names(self) -> list[str]:
        return [r.name for r in self._rules]

    # ---------------- internals ----------------

    def _event(self, rule: str | None, consumed: tuple, produced, retracted, error: str | None = None) -> None:
        """Close one event, a firing of `rule` or an external change (rule None):
        take the next seq, which the `why` of each version it produced names."""
        seq = self._seq
        self._seq += 1
        if self._log is not None:
            self._log(
                FireLogEntry(
                    seq=seq,
                    rule=rule,
                    consumed=consumed,
                    produced=tuple([f.id for f in produced]),
                    retracted=tuple(retracted),
                    ts=self._tick,
                    facts=tuple([(f.id, f.template.name, f.values) for f in produced]),
                    error=error,
                )
            )

    def _fire(self, ri: int, ids: tuple, facts: tuple) -> None:
        rule = self._rules[ri]
        self.fire_counts[rule.name] += 1
        why = Why(rule.name, self._seq, facts)
        env = list(facts)
        produced: list[Fact] = []
        retracted: list[int] = []
        error: str | None = None
        try:
            for step in rule.prog:
                kind = step[0]
                if kind == "assert":
                    for t, slots in step[1]:
                        vals = [NIL] * len(t.slots)
                        for i, get in slots:
                            vals[i] = _slot_value(get(env))
                        fact = Fact(t, tuple(vals), why=why)
                        if self._assert_internal(fact).created:
                            produced.append(fact)
                elif kind == "retract":
                    for pos in step[1]:
                        fid = facts[pos].id
                        self.fact(fid)  # UnknownFactId unless live
                        self._write(fid, None)
                        retracted.append(fid)
                elif kind == "modify":
                    fid = facts[step[1]].id
                    vals = list(self.fact(fid).vals)
                    for i, get in step[2]:
                        vals[i] = _slot_value(get(env))
                    # validation makes every modified fact a consumed one
                    produced.append(self._modify_internal(fid, tuple(vals), _fold(why, ids.index(fid))))
                else:  # bind
                    env.append(step[1](env))
        except (RuntimeEvalError, UnknownFactId, WouldDuplicate) as exc:
            # abort this firing; effects already applied stay applied
            error = f"{type(exc).__name__}: {exc}"
        self._event(rule.name, ids, produced, retracted, error)

    # ----- primitive mutations -----

    def _assert_internal(self, fact: Fact) -> AssertResult:
        existing = self._dup.get(fact.key)
        if existing is not None:
            return AssertResult(existing, False)
        fid = fact.id = self._next_id
        self._next_id += 1
        self._write(fid, fact)
        return AssertResult(fid, True)

    def _modify_internal(self, fid: int, vals: tuple, why: Why) -> Fact:
        new = Fact(self._wm[fid].template, vals, id=fid, why=why)
        hit = self._dup.get(new.key)
        if hit is not None and hit != fid:
            raise WouldDuplicate(f"update of fact {fid} collides with live fact {hit}")
        self._write(fid, new)
        return new

    def _write(self, fid: int, new: Fact | None) -> None:
        """The one working-memory write: put `new` at `fid` (an assert, or a
        modify, which keeps the fact's place in the WM), or retract `fid` if
        `new` is None. Keeps the indexes and the changes since the last view,
        takes the old version out of the join memories and propagates the new
        one."""
        wm = self._wm
        old = wm.get(fid)
        if old is not None:
            del self._dup[old.key]
            for remove in self._removes.get(old.template.name, ()):
                remove(old)
        self._tick += 1
        if new is None:
            del wm[fid]
            self._by_template[old.template.name].discard(fid)
            if fid >= self._view_next_id:
                del self._changes[fid]  # born since the last view, which never saw it
            else:
                self._changes[fid] = None
            return  # retraction creates no activations
        if old is None:
            self._by_template.setdefault(new.template.name, set()).add(fid)
        wm[fid] = new
        self._dup[new.key] = fid
        self._changes[fid] = new
        for add in self._adds.get(new.template.name, ()):
            add(new)
        if self._pending:
            self._flush_pending()

    def _flush_pending(self) -> None:
        pending = self._pending
        if len(pending) > 1:
            pending.sort(key=lambda p: (p[0], p[1]))
        for ri, ids, facts in pending:
            self._act_seq += 1
            # max() with a default keyword costs more than the rest of the push
            heappush(self._agenda, (-self._rules[ri].salience, -max(ids) if ids else 0, -self._act_seq, ri, ids, facts))
        pending.clear()


def _drop(mem: dict, key, entry: tuple) -> bool:
    """Take `entry` out of a join memory; False if it was not there."""
    bucket = mem.get(key)
    if bucket is None or entry not in bucket:
        return False
    del bucket[entry]
    if not bucket:
        del mem[key]
    return True


def _fold(why: Why, pos: int) -> Why:
    """Provenance of the version a firing makes by modifying the fact it
    consumed at `pos`. If that consumed version was itself made by modifying
    its fact (its own inputs hold an older version of the same id), fold it:
    point at the version that opened the chain and count one more step."""
    prev = why.inputs[pos]
    pw = prev.why
    for opener in pw.inputs:
        if opener.id == prev.id:
            inputs = why.inputs[:pos] + (opener,) + why.inputs[pos + 1 :]
            return Why(why.rule, why.seq, inputs, pw.folded + 1)
    return why


# ============================================================
# canonical serialization (determinism fixtures, fire log files)
# ============================================================


def encode_value(v: SlotValue) -> object:
    """JSON-safe lossless encoding: Symbol -> {"s": name}, others native."""
    if type(v) is Symbol:
        return {"s": v.name}
    return v


def decode_value(obj: object) -> SlotValue:
    if isinstance(obj, dict):
        name = obj.get("s")
        if len(obj) != 1 or type(name) is not str or not name:
            raise ValueError(f"not an encoded Symbol: {obj!r}")
        return Symbol(name)
    if isinstance(obj, bool):
        raise ValueError("boolean is not a slot value")
    if isinstance(obj, (str, int, float)):
        return obj
    raise ValueError(f"not an encoded slot value: {obj!r}")


def _entry_to_obj(e: FireLogEntry) -> dict:
    obj: dict = {
        "seq": e.seq,
        "rule": e.rule,
        "consumed": list(e.consumed),
        "produced": list(e.produced),
        "retracted": list(e.retracted),
        "ts": e.ts,
    }
    if e.facts:
        fmap = {}
        for fid, tname, values in e.facts:
            fmap[str(fid)] = {"template": tname, "values": {s: encode_value(v) for s, v in values.items()}}
        obj["facts"] = fmap
    if e.error:
        obj["error"] = e.error
    return obj


def _entry_line(e: FireLogEntry) -> str:
    return json.dumps(_entry_to_obj(e), separators=(",", ":")) + "\n"


def firelog_to_jsonl(entries: Iterable[FireLogEntry]) -> str:
    return "".join(_entry_line(e) for e in entries)


class FireLogWriter:
    """Fire-log sink that writes each entry to a text stream as one JSON line
    the moment it is made, in the format of `firelog_to_jsonl`."""

    __slots__ = ("_write",)

    def __init__(self, stream):
        self._write = stream.write

    def append(self, e: FireLogEntry) -> None:
        self._write(_entry_line(e))


def replay_firelog(jsonl: str) -> dict[int, tuple[str, dict]]:
    """Re-apply a serialized log to an empty WM: {id: (template, values)}."""
    wm: dict[int, tuple[str, dict]] = {}
    for line in jsonl.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        for fid in obj["retracted"]:
            wm.pop(fid, None)
        fmap = obj.get("facts", {})
        for fid in obj["produced"]:
            rec = fmap[str(fid)]
            wm[fid] = (rec["template"], {s: decode_value(v) for s, v in rec["values"].items()})
    return wm


def wm_to_canonical_json(view: WmView | Engine) -> str:
    """Stable JSON of the live WM, sorted by fact id."""
    facts = view.facts()
    out = []
    for f in facts:
        out.append(
            {
                "id": f.id,
                "template": f.template.name,
                "values": {s: encode_value(v) for s, v in zip(f.template.slots, f.vals)},
            }
        )
    return json.dumps(out, separators=(",", ":"), sort_keys=False)
