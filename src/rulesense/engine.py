"""Forward-chaining inference engine.

Working memory with set semantics, incremental two-phase matching (per-template
alpha filtering on literal constraints, then left-to-right beta joins on shared
variables with per-join memories), an agenda ordered by salience / recency /
insertion sequence, refraction, a replayable fire log, on-demand queries, and
derivation trees.

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
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Mapping

from . import lang
from .facts import (
    Fact,
    KbError,
    SlotValue,
    Symbol,
    TemplateRegistry,
    UnknownSlot,
    UnknownTemplate,
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

_ARITH = ("+", "-", "*", "/")
_CMP = ("<", ">", "<=", ">=")


def _numeric(v: object) -> bool:
    return type(v) in (int, float)


def eval_expr(e: lang.Expr, bindings: Mapping[str, object]) -> object:
    """Evaluate an expression under bindings.

    Arithmetic on non-numeric operands raises RuntimeEvalError; comparisons on
    non-numeric operands are plain false. Division always yields float.
    """
    if isinstance(e, lang.Literal):
        return e.value
    if isinstance(e, lang.Var):
        try:
            return bindings[e.name]
        except KeyError:
            raise RuntimeEvalError(f"unbound variable ?{e.name}") from None
    op = e.op
    args = [eval_expr(a, bindings) for a in e.args]
    if op in _ARITH:
        if len(args) < 2:
            raise RuntimeEvalError(f"{op} needs at least 2 arguments")
        for a in args:
            if not _numeric(a):
                raise RuntimeEvalError(f"arithmetic on non-number {a!r}")
        try:
            if op == "+":
                acc = args[0]
                for a in args[1:]:
                    acc = acc + a
            elif op == "-":
                acc = args[0]
                for a in args[1:]:
                    acc = acc - a
            elif op == "*":
                acc = args[0]
                for a in args[1:]:
                    acc = acc * a
            else:  # / always float
                acc = args[0]
                for a in args[1:]:
                    acc = acc / a
                acc = float(acc)
        except ZeroDivisionError:
            raise RuntimeEvalError("division by zero") from None
        except OverflowError:
            raise RuntimeEvalError("arithmetic overflow") from None
        return acc
    if op in _CMP:
        if len(args) < 2:
            raise RuntimeEvalError(f"{op} needs at least 2 arguments")
        for a in args:
            if not _numeric(a):
                return False
        for x, y in zip(args, args[1:]):
            if op == "<" and not x < y:
                return False
            if op == ">" and not x > y:
                return False
            if op == "<=" and not x <= y:
                return False
            if op == ">=" and not x >= y:
                return False
        return True
    if op in ("eq", "neq"):
        if len(args) < 2:
            raise RuntimeEvalError(f"{op} needs at least 2 arguments")
        keys = []
        for a in args:
            if not is_slot_value(a):
                raise RuntimeEvalError(f"{op} on non-slot-value {a!r}")
            keys.append(value_key(a))
        if op == "eq":
            return all(k == keys[0] for k in keys[1:])
        return all(k != keys[0] for k in keys[1:])
    raise RuntimeEvalError(f"unknown operator {op}")


def _test_passes(expr: lang.FuncCall, bindings: Mapping[str, object]) -> bool:
    # An eval error inside an LHS test filters the match; it never aborts a run.
    try:
        return eval_expr(expr, bindings) is True
    except RuntimeEvalError:
        return False


def _compile_value(e: lang.Expr):
    """Close an expression into a thunk of the bindings.

    Variable reads and literals cover nearly every RHS slot, so they get
    direct closures; anything else defers to eval_expr and must behave
    identically to it.
    """
    if type(e) is lang.Literal:
        v = e.value
        return lambda b: v
    if type(e) is lang.Var:
        name = e.name

        def read(b, name=name):
            try:
                return b[name]
            except KeyError:
                raise RuntimeEvalError(f"unbound variable ?{name}") from None

        return read
    return lambda b, e=e: eval_expr(e, b)


def _compile_slot_value(e: lang.Expr):
    get = _compile_value(e)

    def slot_value(b, get=get):
        v = get(b)
        if v is True or v is False or not is_slot_value(v):
            raise RuntimeEvalError(f"not a slot value: {v!r}")
        return v

    return slot_value


_CMP_FUNCS = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def _compile_test(expr: lang.FuncCall):
    """Specialize the common two-operand tests; anything else falls back to
    the evaluator, keeping _test_passes the single source of truth."""
    args = expr.args
    if len(args) == 2 and all(type(a) in (lang.Var, lang.Literal) for a in args):
        ga = _compile_value(args[0])
        gb = _compile_value(args[1])
        cmp = _CMP_FUNCS.get(expr.op)
        if cmp is not None:

            def cmp_test(b, ga=ga, gb=gb, cmp=cmp):
                try:
                    x = ga(b)
                    y = gb(b)
                except RuntimeEvalError:
                    return False
                if type(x) not in (int, float) or type(y) not in (int, float):
                    return False
                return cmp(x, y)

            return cmp_test
        if expr.op in ("eq", "neq"):
            want = expr.op == "eq"

            def eq_test(b, ga=ga, gb=gb, want=want):
                try:
                    x = ga(b)
                    y = gb(b)
                except RuntimeEvalError:
                    return False
                if not is_slot_value(x) or not is_slot_value(y):
                    return False
                same = value_key(x) == value_key(y)
                return same if want else not same

            return eq_test
    return lambda b, expr=expr: _test_passes(expr, b)


def _compile_action(action, templates: TemplateRegistry):
    """Lower one RHS action to a dispatch tuple with slot thunks resolved."""
    if isinstance(action, lang.AssertAction):
        specs = tuple(
            (
                templates.get(spec.template),
                tuple((slot, _compile_slot_value(e)) for slot, e in spec.slots),
            )
            for spec in action.facts
        )
        return ("assert", specs)
    if isinstance(action, lang.RetractAction):
        return ("retract", tuple(action.variables))
    if isinstance(action, lang.ModifyAction):
        updates = tuple((slot, _compile_slot_value(e)) for slot, e in action.updates)
        return ("modify", action.variable, updates)
    return ("bind", action.variable, _compile_value(action.expr))


# ============================================================
# compiled rules and queries
# ============================================================


class _CPattern:
    __slots__ = ("template", "literals", "var_slots", "address", "jvars", "jslots")

    def __init__(self, p: lang.Pattern):
        self.template = p.template
        self.literals: list[tuple[str, tuple]] = []
        self.var_slots: list[tuple[str, str]] = []
        self.address = p.address
        for slot, c in p.slots:
            if isinstance(c, lang.Var):
                self.var_slots.append((slot, c.name))
            else:
                self.literals.append((slot, value_key(c.value)))
        # join spec filled in by the rule compiler
        self.jvars: tuple[str, ...] = ()
        self.jslots: tuple[str, ...] = ()

    def match(self, fact: Fact) -> dict | None:
        vals = fact.values
        for slot, key in self.literals:
            if value_key(vals[slot]) != key:
                return None
        b: dict[str, object] = {}
        for slot, var in self.var_slots:
            v = vals[slot]
            if var in b:
                if value_key(b[var]) != value_key(v):
                    return None
            else:
                b[var] = v
        if self.address is not None:
            b[self.address] = fact.id
        return b


def _compile_lhs(lhs: tuple) -> tuple[list[_CPattern], dict[int, list[lang.FuncCall]]]:
    patterns: list[_CPattern] = []
    tests: dict[int, list[lang.FuncCall]] = {}
    level = 0
    for ce in lhs:
        if isinstance(ce, lang.Pattern):
            level += 1
            patterns.append(_CPattern(ce))
        else:
            tests.setdefault(level, []).append(ce.expr)
    if patterns and 0 in tests:
        # constant tests ahead of the first pattern gate the first join level
        tests.setdefault(1, [])[0:0] = tests.pop(0)
    # join variables: those of each pattern already bound by earlier patterns
    bound: set[str] = set()
    for pat in patterns:
        seen: list[str] = []
        slots: list[str] = []
        for slot, var in pat.var_slots:
            if var in bound and var not in seen:
                seen.append(var)
                slots.append(slot)
        pat.jvars = tuple(seen)
        pat.jslots = tuple(slots)
        bound.update(v for _, v in pat.var_slots)
    return patterns, tests


class _CRule:
    __slots__ = ("name", "index", "salience", "patterns", "tests", "ctests", "prog", "k")

    def __init__(self, index: int, r: lang.RuleDef, templates: TemplateRegistry):
        self.name = r.name
        self.index = index
        self.salience = r.salience
        self.patterns, self.tests = _compile_lhs(r.lhs)
        self.ctests = {lvl: tuple(_compile_test(t) for t in ts) for lvl, ts in self.tests.items()}
        self.prog = tuple(_compile_action(a, templates) for a in r.rhs)
        self.k = len(self.patterns)


class _CQuery:
    __slots__ = ("name", "parameters", "patterns", "tests")

    def __init__(self, q: lang.QueryDef):
        self.name = q.name
        self.parameters = q.parameters
        self.patterns, self.tests = _compile_lhs(q.lhs)


# ============================================================
# runtime records
# ============================================================


class AssertResult:
    """Outcome of an assert: fresh id, or the id of the existing equal fact."""

    __slots__ = ("fact_id", "created")

    def __init__(self, fact_id: int, created: bool):
        self.fact_id = fact_id
        self.created = created

    @property
    def duplicate(self) -> bool:
        return not self.created

    def __repr__(self) -> str:
        return f"AssertResult({'new' if self.created else 'duplicate'} {self.fact_id})"


@dataclass(slots=True)
class FireLogEntry:
    """One fire (or one external mutation, rule None).

    `facts` snapshots every produced id's content at that moment —
    (id, template name, values in slot order) — which makes the log replayable
    against an empty WM. `ts` is a logical mutation tick, not wall clock.
    """

    seq: int
    rule: str | None
    consumed: tuple[int, ...]
    produced: tuple[int, ...]
    retracted: tuple[int, ...]
    ts: int
    facts: tuple = ()
    error: str | None = None


@dataclass(slots=True)
class RunResult:
    fired: int
    entries: list


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
    children: tuple


class _Token:
    __slots__ = ("ri", "lvl", "ids", "bindings", "key", "dead")

    def __init__(self, ri: int, lvl: int, ids: tuple, bindings: dict, key: tuple):
        self.ri = ri
        self.lvl = lvl
        self.ids = ids
        self.bindings = bindings
        self.key = key
        self.dead = False


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

    def ids_for_template(self, name: str) -> Iterable[int]:
        if self._parent is not None:
            self._materialize()
        return self._by_template.get(name, ())

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

    def __init__(self, constructs: list[lang.Construct]):
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
        self._rules_by_name: dict[str, _CRule] = {}
        self._queries: dict[str, _CQuery] = {}
        staged: list[lang.AssertSpec] = []
        for c in constructs:
            if isinstance(c, lang.TemplateDef):
                self.templates.define(c.name, list(c.slots))
            elif isinstance(c, lang.RuleDef):
                cr = _CRule(len(self._rules), c, self.templates)
                self._rules.append(cr)
                self._rules_by_name[c.name] = cr
            elif isinstance(c, lang.QueryDef):
                self._queries[c.name] = _CQuery(c)
            else:
                staged.extend(c.facts)

        # pattern subscriptions: template name -> [(rule index, level)]
        self._subs: dict[str, list[tuple[int, int]]] = {}
        for cr in self._rules:
            for lvl, pat in enumerate(cr.patterns, start=1):
                self._subs.setdefault(pat.template, []).append((cr.index, lvl))

        # working memory
        self._wm: dict[int, Fact] = {}
        self._by_template: dict[str, set[int]] = {}
        self._dup: dict[tuple, int] = {}
        self._versions: dict[int, int] = {}
        self._next_id = 1

        # snapshot publishing: the facts changed since the last published
        # view (fid -> Fact, None for a retraction), the first id born after
        # that view, and the delta entries published since the last full copy
        self._view: WmView | None = None
        self._changes: dict[int, Fact | None] = {}
        self._view_next_id = 1
        self._delta_entries = 0

        # match network state
        self._alpha_idx: dict[tuple[int, int], dict[tuple, set[int]]] = {}
        self._beta_idx: dict[tuple[int, int], dict[tuple, set[_Token]]] = {}
        self._fact_alpha: dict[int, list[tuple[int, int, tuple]]] = {}
        self._fact_tokens: dict[int, list[_Token]] = {}

        # agenda and refraction
        self._agenda: list = []
        self._act_seq = 0
        self._fired: set[tuple[int, tuple]] = set()
        self._fired_by_fact: dict[int, set[tuple[int, tuple]]] = {}
        self._pending: list = []

        # fire log
        self.firelog: list[FireLogEntry] = []
        self._produced_seqs: dict[int, list[int]] = {}
        self._tick = 0

        # rules with no positive patterns activate once at load
        self._tick += 1
        self._pending = []
        for cr in self._rules:
            if cr.k == 0:
                ok = all(_test_passes(t, {}) for t in cr.tests.get(0, []))
                if ok:
                    self._pending.append((cr.index, (), {}))
        self._flush_pending()

        # top-level asserts become initial facts, in source order, after the
        # whole network is built (so no rule misses them)
        for spec in staged:
            values = {slot: self._rhs_value(e, {}) for slot, e in spec.slots}
            self.assert_fact(spec.template, values)

    # ---------------- public API ----------------

    def assert_fact(self, template: str, values: Mapping[str, SlotValue]) -> AssertResult:
        """Add a fact. Equal live fact present -> Duplicate, WM unchanged."""
        t = self.templates.get(template)
        fact = make_fact(t, values)
        res = self._assert_internal(fact)
        if res.created:
            f = self._wm[res.fact_id]
            self._append_log(
                rule=None,
                consumed=(),
                produced=(res.fact_id,),
                retracted=(),
                facts=((res.fact_id, t.name, tuple(f.values[s] for s in t.slots)),),
            )
        return res

    def retract_fact(self, fid: int) -> None:
        if fid not in self._wm:
            raise UnknownFactId(f"no live fact {fid}")
        self._retract_internal(fid)
        self._append_log(rule=None, consumed=(), produced=(), retracted=(fid,), facts=())

    def modify_fact(self, fid: int, updates: Mapping[str, SlotValue]) -> None:
        if fid not in self._wm:
            raise UnknownFactId(f"no live fact {fid}")
        if not updates:
            return  # no-op, no re-activation
        old = self._wm[fid]
        t = old.template
        new_values = dict(old.values)
        for slot, v in updates.items():
            if slot not in t.slots:
                raise UnknownSlot(f"template {t.name} has no slot {slot}")
            if not is_slot_value(v):
                raise TypeError(f"slot {slot}: not a slot value: {v!r}")
            new_values[slot] = v
        self._modify_internal(fid, new_values)
        f = self._wm[fid]
        self._append_log(
            rule=None,
            consumed=(),
            produced=(fid,),
            retracted=(),
            facts=((fid, t.name, tuple(f.values[s] for s in t.slots)),),
        )

    def run(self, limit: int | None = None) -> RunResult:
        """Fire until the agenda empties (or `limit` firings)."""
        fired = 0
        log_start = len(self.firelog)
        agenda = self._agenda
        while agenda and (limit is None or fired < limit):
            neg_sal, neg_rec, neg_seq, ri, ids, vers, bindings = heappop(agenda)
            live = True
            for fid, ver in zip(ids, vers):
                if self._versions.get(fid) != ver:
                    live = False
                    break
            if not live:
                continue
            fired += 1
            self._fire(ri, ids, bindings)
        return RunResult(fired, self.firelog[log_start:])

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
        rows: list[QueryRow] = []
        k = len(q.patterns)
        base = {p: arguments[p] for p in q.parameters}

        def walk(lvl: int, bindings: dict, ids: tuple) -> None:
            if lvl > k:
                rows.append(QueryRow(bindings, ids))
                return
            pat = q.patterns[lvl - 1]
            tests = q.tests.get(lvl, ())
            for fid in sorted(view.ids_for_template(pat.template)):
                b2 = _match_under(pat, view.fact(fid), bindings)
                if b2 is None:
                    continue
                if tests and not all(_test_passes(t, b2) for t in tests):
                    continue
                walk(lvl + 1, b2, ids + (fid,))

        walk(1, base, ())
        return rows

    def explain(self, fid: int, before: int | None = None) -> ExplainNode:
        """Derivation tree: how `fid` came to be. Externally asserted -> leaf.

        `before` bounds the search to log entries with seq < before (a
        snapshot's log length), defaulting to the whole log.
        """
        memo: dict[tuple[int, int], ExplainNode] = {}

        def producer_seq(f: int, before: int) -> int:
            seqs = self._produced_seqs.get(f)
            if not seqs:
                raise NotDerived(f"fact {f} never appears in the fire log as produced")
            pos = bisect_left(seqs, before) - 1
            if pos < 0:
                raise NotDerived(f"fact {f} has no producer before log entry {before}")
            return seqs[pos]

        def build(f: int, before: int) -> ExplainNode:
            # iterative post-order so long modify chains cannot overflow the stack
            root_key = (f, producer_seq(f, before))
            stack: list[tuple[int, int]] = [root_key]
            while stack:
                f2, s2 = stack[-1]
                if (f2, s2) in memo:
                    stack.pop()
                    continue
                entry = self.firelog[s2]
                child_keys = []
                ready = True
                if entry.rule is not None:
                    for c in entry.consumed:
                        ck = (c, producer_seq(c, s2))
                        child_keys.append(ck)
                        if ck not in memo:
                            stack.append(ck)
                            ready = False
                if not ready:
                    continue
                stack.pop()
                tname, values = _entry_fact(entry, f2)
                t = self.templates.get(tname)
                memo[(f2, s2)] = ExplainNode(
                    fact_id=f2,
                    template=tname,
                    values=dict(zip(t.slots, values)),
                    rule=entry.rule,
                    seq=entry.seq,
                    children=tuple(memo[ck] for ck in child_keys),
                )
            return memo[root_key]

        return build(fid, len(self.firelog) if before is None else before)

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
        if template is None:
            return [self._wm[i] for i in sorted(self._wm)]
        return [self._wm[i] for i in sorted(self._by_template.get(template, ()))]

    def has_query(self, name: str) -> bool:
        return name in self._queries

    def query_parameters(self, name: str) -> tuple[str, ...]:
        q = self._queries.get(name)
        if q is None:
            raise UnknownQuery(f"unknown query {name}")
        return q.parameters

    @property
    def rule_names(self) -> list[str]:
        return [r.name for r in self._rules]

    @property
    def query_names(self) -> list[str]:
        return list(self._queries)

    def agenda_size(self) -> int:
        # live activations only (the heap may hold cancelled ones)
        n = 0
        for _, _, _, ri, ids, vers, _ in self._agenda:
            if all(self._versions.get(f) == v for f, v in zip(ids, vers)):
                n += 1
        return n

    # ---------------- internals ----------------

    def _append_log(self, rule, consumed, produced, retracted, facts, error=None) -> FireLogEntry:
        e = FireLogEntry(
            seq=len(self.firelog),
            rule=rule,
            consumed=consumed,
            produced=produced,
            retracted=retracted,
            ts=self._tick,
            facts=facts,
            error=error,
        )
        self.firelog.append(e)
        for fid in produced:
            self._produced_seqs.setdefault(fid, []).append(e.seq)
        return e

    def _rhs_value(self, e: lang.Expr, bindings: Mapping[str, object]) -> SlotValue:
        v = eval_expr(e, bindings)
        if v is True or v is False or not is_slot_value(v):
            raise RuntimeEvalError(f"not a slot value: {v!r}")
        return v

    def _fire(self, ri: int, ids: tuple, bindings: dict) -> None:
        rule = self._rules[ri]
        key = (ri, ids)
        self._fired.add(key)
        for fid in ids:
            self._fired_by_fact.setdefault(fid, set()).add(key)
        local = dict(bindings)
        produced: list[int] = []
        retracted: list[int] = []
        snaps: list = []
        error: str | None = None
        try:
            for step in rule.prog:
                kind = step[0]
                if kind == "assert":
                    for t, slots in step[1]:
                        values = {slot: get(local) for slot, get in slots}
                        res = self._assert_internal(make_fact(t, values))
                        if res.created:
                            f = self._wm[res.fact_id]
                            produced.append(res.fact_id)
                            snaps.append((res.fact_id, t.name, tuple(f.values[s] for s in t.slots)))
                elif kind == "retract":
                    for var in step[1]:
                        fid = local[var]
                        if fid not in self._wm:
                            raise UnknownFactId(f"no live fact {fid}")
                        self._retract_internal(fid)
                        retracted.append(fid)
                elif kind == "modify":
                    fid = local[step[1]]
                    if fid not in self._wm:
                        raise UnknownFactId(f"no live fact {fid}")
                    old = self._wm[fid]
                    t = old.template
                    new_values = dict(old.values)
                    for slot, get in step[2]:
                        new_values[slot] = get(local)
                    self._modify_internal(fid, new_values)
                    f = self._wm[fid]
                    produced.append(fid)
                    snaps.append((fid, t.name, tuple(f.values[s] for s in t.slots)))
                else:  # bind
                    local[step[1]] = step[2](local)
        except (RuntimeEvalError, UnknownFactId, WouldDuplicate) as exc:
            # abort this firing; effects already applied stay applied
            error = f"{type(exc).__name__}: {exc}"
        self._append_log(
            rule=rule.name,
            consumed=ids,
            produced=tuple(produced),
            retracted=tuple(retracted),
            facts=tuple(snaps),
            error=error,
        )

    # ----- primitive mutations (each is one event) -----

    def _assert_internal(self, fact: Fact) -> AssertResult:
        existing = self._dup.get(fact.key)
        if existing is not None:
            return AssertResult(existing, False)
        fid = self._next_id
        self._next_id += 1
        fact.id = fid
        self._wm[fid] = fact
        self._by_template.setdefault(fact.template.name, set()).add(fid)
        self._changes[fid] = fact
        self._dup[fact.key] = fid
        self._versions[fid] = 1
        self._tick += 1
        self._pending = []
        self._propagate(fact)
        self._flush_pending()
        return AssertResult(fid, True)

    def _retract_internal(self, fid: int) -> None:
        fact = self._wm.pop(fid)
        self._by_template[fact.template.name].discard(fid)
        if fid >= self._view_next_id:
            del self._changes[fid]  # born since the last view, which never saw it
        else:
            self._changes[fid] = None
        del self._dup[fact.key]
        del self._versions[fid]
        self._tick += 1
        self._teardown(fid)
        # retraction creates no activations

    def _modify_internal(self, fid: int, new_values: dict) -> None:
        old = self._wm[fid]
        new = Fact(old.template, new_values, id=fid)
        hit = self._dup.get(new.key)
        if hit is not None and hit != fid:
            raise WouldDuplicate(f"update of fact {fid} collides with live fact {hit}")
        del self._dup[old.key]
        self._dup[new.key] = fid
        self._wm[fid] = new
        self._changes[fid] = new
        self._versions[fid] += 1
        self._tick += 1
        self._teardown(fid)
        self._pending = []
        self._propagate(new)
        self._flush_pending()

    def _teardown(self, fid: int) -> None:
        """Remove fid from refraction memory, alpha buckets, and join tokens."""
        for key in self._fired_by_fact.pop(fid, ()):
            self._fired.discard(key)
        for ri, lvl, akey in self._fact_alpha.pop(fid, ()):
            idx = self._alpha_idx.get((ri, lvl))
            if idx is not None:
                bucket = idx.get(akey)
                if bucket is not None:
                    bucket.discard(fid)
                    if not bucket:
                        del idx[akey]
        for tok in self._fact_tokens.pop(fid, ()):
            if tok.dead:
                continue
            tok.dead = True
            idx = self._beta_idx.get((tok.ri, tok.lvl))
            if idx is not None:
                bucket = idx.get(tok.key)
                if bucket is not None:
                    bucket.discard(tok)
                    if not bucket:
                        del idx[tok.key]

    # ----- incremental matching -----

    def _propagate(self, fact: Fact) -> None:
        subs = self._subs.get(fact.template.name)
        if not subs:
            return
        fid = fact.id
        vals = fact.values
        rules = self._rules
        pending = self._pending
        for ri, lvl in subs:
            rule = rules[ri]
            pat = rule.patterns[lvl - 1]
            contrib = pat.match(fact)
            if contrib is None:
                continue
            if lvl == 1:
                if not self._tests_ok(rule, 1, contrib):
                    continue
                if rule.k == 1:
                    pending.append((ri, (fid,), contrib))
                else:
                    self._store_token(rule, 1, (fid,), contrib)
            else:
                akey = tuple(value_key(vals[s]) for s in pat.jslots)
                self._alpha_idx.setdefault((ri, lvl), {}).setdefault(akey, set()).add(fid)
                self._fact_alpha.setdefault(fid, []).append((ri, lvl, akey))
                parents = self._beta_idx.get((ri, lvl - 1), {}).get(akey)
                if parents:
                    for parent in list(parents):
                        if parent.dead:
                            continue
                        merged = {**parent.bindings, **contrib}
                        if not self._tests_ok(rule, lvl, merged):
                            continue
                        ids = parent.ids + (fid,)
                        if lvl == rule.k:
                            self._pending.append((ri, ids, merged))
                        else:
                            self._store_token(rule, lvl, ids, merged)

    def _store_token(self, rule: _CRule, lvl: int, ids: tuple, bindings: dict) -> None:
        """Store a partial match at `lvl` and join it with the next alpha level."""
        nxt_pat = rule.patterns[lvl]  # pattern at level lvl+1
        key = tuple(value_key(bindings[v]) for v in nxt_pat.jvars)
        tok = _Token(rule.index, lvl, ids, bindings, key)
        self._beta_idx.setdefault((rule.index, lvl), {}).setdefault(key, set()).add(tok)
        for fid in ids:
            self._add_token_handle(fid, tok)
        nxt = lvl + 1
        bucket = self._alpha_idx.get((rule.index, nxt), {}).get(key)
        if not bucket:
            return
        for fid2 in sorted(bucket):
            fact2 = self._wm[fid2]
            contrib = nxt_pat.match(fact2)
            if contrib is None:
                continue
            merged = {**bindings, **contrib}
            if not self._tests_ok(rule, nxt, merged):
                continue
            ids2 = ids + (fid2,)
            if nxt == rule.k:
                self._pending.append((rule.index, ids2, merged))
            else:
                self._store_token(rule, nxt, ids2, merged)

    def _add_token_handle(self, fid: int, tok: _Token) -> None:
        lst = self._fact_tokens.setdefault(fid, [])
        lst.append(tok)
        # long-lived facts accumulate dead handles as partners churn; compact
        if len(lst) > 16:
            dead = sum(1 for t in lst if t.dead)
            if dead * 2 > len(lst):
                self._fact_tokens[fid] = [t for t in lst if not t.dead]

    def _tests_ok(self, rule: _CRule, lvl: int, bindings: dict) -> bool:
        tests = rule.ctests.get(lvl)
        if not tests:
            return True
        for t in tests:
            if not t(bindings):
                return False
        return True

    def _flush_pending(self) -> None:
        pending = self._pending
        if not pending:
            return
        self._pending = []
        pending.sort(key=lambda p: (p[0], p[1]))
        for ri, ids, bindings in pending:
            if (ri, ids) in self._fired:
                continue
            self._act_seq += 1
            rec = max(ids) if ids else 0
            vers = tuple(self._versions[f] for f in ids)
            rule = self._rules[ri]
            heappush(self._agenda, (-rule.salience, -rec, -self._act_seq, ri, ids, vers, bindings))


def _match_under(pat: _CPattern, fact: Fact, bindings: dict) -> dict | None:
    """Pattern match extending existing bindings (query evaluation path)."""
    vals = fact.values
    for slot, key in pat.literals:
        if value_key(vals[slot]) != key:
            return None
    b = dict(bindings)
    for slot, var in pat.var_slots:
        v = vals[slot]
        if var in b:
            if value_key(b[var]) != value_key(v):
                return None
        else:
            b[var] = v
    if pat.address is not None:
        b[pat.address] = fact.id
    return b


def _entry_fact(entry: FireLogEntry, fid: int) -> tuple[str, tuple]:
    for f, tname, values in entry.facts:
        if f == fid:
            return tname, values
    raise NotDerived(f"log entry {entry.seq} does not carry fact {fid}")


def load_kb(constructs: list[lang.Construct]) -> Engine:
    """Build an engine from parsed constructs (validates first)."""
    return Engine(constructs)


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
        return Symbol(obj["s"])
    if isinstance(obj, bool):
        raise ValueError("boolean is not a slot value")
    if isinstance(obj, (str, int, float)):
        return obj
    raise ValueError(f"not an encoded slot value: {obj!r}")


def _entry_to_obj(e: FireLogEntry, registry: TemplateRegistry) -> dict:
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
            slots = registry.get(tname).slots
            fmap[str(fid)] = {"template": tname, "values": {s: encode_value(v) for s, v in zip(slots, values)}}
        obj["facts"] = fmap
    if e.error:
        obj["error"] = e.error
    return obj


def firelog_to_jsonl(entries: Iterable[FireLogEntry], registry: TemplateRegistry) -> str:
    return "".join(json.dumps(_entry_to_obj(e, registry), separators=(",", ":")) + "\n" for e in entries)


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
                "values": {s: encode_value(f.values[s]) for s in f.template.slots},
            }
        )
    return json.dumps(out, separators=(",", ":"), sort_keys=False)
