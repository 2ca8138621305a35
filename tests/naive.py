"""Brute-force reference evaluator used as an oracle.

Deliberately shares no matching, agenda, or evaluation code with the package
engine: matching is a full nested-loop re-scan of working memory after every
mutation, the agenda is a plain list scanned with max(), and expressions are
evaluated by a local interpreter. It consumes the same parsed constructs and
the same value vocabulary (Symbol/str/int/float), nothing else.

Shared semantics, derived independently from the contract:
- a mutation's new activations are exactly the full matches involving the
  mutated fact, ordered by (rule definition index, fact-id tuple);
- firing picks the maximum of (salience, recency = max fact id, seq);
- refraction per (rule, ids), cleared when a member is retracted/modified;
- a failing RHS aborts the rest of that firing but keeps earlier effects.
"""

from __future__ import annotations

import struct

from rulesense import lang
from rulesense.facts import Symbol


def vkey(v):
    t = type(v)
    if t is Symbol:
        return ("s", v.name)
    if t is str:
        return ("t", v)
    if t is int:
        return ("i", v)
    if t is float:
        return ("f", struct.pack(">d", v))
    raise TypeError(f"not a slot value: {v!r}")


class EvalFailure(Exception):
    pass


def ev(expr, bindings):
    if isinstance(expr, lang.Literal):
        return expr.value
    if isinstance(expr, lang.Var):
        if expr.name not in bindings:
            raise EvalFailure(f"unbound ?{expr.name}")
        return bindings[expr.name]
    args = [ev(a, bindings) for a in expr.args]
    op = expr.op
    if len(args) < 2:
        raise EvalFailure(f"{op}: arity")
    if op in ("+", "-", "*", "/"):
        if any(type(a) not in (int, float) for a in args):
            raise EvalFailure(f"{op}: non-number")
        acc = args[0]
        try:
            for a in args[1:]:
                if op == "+":
                    acc = acc + a
                elif op == "-":
                    acc = acc - a
                elif op == "*":
                    acc = acc * a
                else:
                    acc = acc / a
        except ZeroDivisionError:
            raise EvalFailure("division by zero")
        except OverflowError:
            raise EvalFailure("overflow")
        return float(acc) if op == "/" else acc
    if op in ("<", ">", "<=", ">="):
        if any(type(a) not in (int, float) for a in args):
            return False
        import operator

        f = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}[op]
        return all(f(x, y) for x, y in zip(args, args[1:]))
    if op == "eq":
        ks = [vkey(a) if type(a) in (Symbol, str, int, float) else _bad(a) for a in args]
        return all(k == ks[0] for k in ks[1:])
    if op == "neq":
        ks = [vkey(a) if type(a) in (Symbol, str, int, float) else _bad(a) for a in args]
        return all(k != ks[0] for k in ks[1:])
    raise EvalFailure(f"unknown op {op}")


def _bad(a):
    raise EvalFailure(f"eq/neq on non-slot-value {a!r}")


class NaiveRule:
    def __init__(self, index, rd: lang.RuleDef):
        self.index = index
        self.name = rd.name
        self.salience = rd.salience
        self.patterns = [ce for ce in rd.lhs if isinstance(ce, lang.Pattern)]
        self.tests = [ce.expr for ce in rd.lhs if isinstance(ce, lang.Test)]
        self.actions = rd.rhs


class NaiveQuery:
    def __init__(self, qd: lang.QueryDef):
        self.name = qd.name
        self.parameters = qd.parameters
        self.patterns = [ce for ce in qd.lhs if isinstance(ce, lang.Pattern)]
        self.tests = [ce.expr for ce in qd.lhs if isinstance(ce, lang.Test)]


class NaiveEngine:
    def __init__(self, constructs):
        self.templates: dict[str, tuple[str, ...]] = {}
        self.rules: list[NaiveRule] = []
        self.queries: dict[str, NaiveQuery] = {}
        staged = []
        for c in constructs:
            if isinstance(c, lang.TemplateDef):
                self.templates[c.name] = c.slots
            elif isinstance(c, lang.RuleDef):
                self.rules.append(NaiveRule(len(self.rules), c))
            elif isinstance(c, lang.QueryDef):
                self.queries[c.name] = NaiveQuery(c)
            else:
                staged.append(c)
        self.wm: dict[int, tuple[str, dict]] = {}
        self.dup: dict[tuple, int] = {}
        self.next_id = 1
        self.agenda: list[tuple] = []  # (salience, recency, seq, rule_index, ids, bindings)
        self.seq = 0
        self.fired: set[tuple[int, tuple]] = set()
        self.fire_sequence: list[tuple[str, tuple]] = []

        # rules without positive patterns activate once, before staged asserts
        boot = []
        for r in self.rules:
            if not r.patterns and self._tests_pass(r.tests, {}):
                boot.append((r.index, (), {}))
        self._push_sorted(boot)
        for ta in staged:
            for spec in ta.facts:
                values = {slot: ev(e, {}) for slot, e in spec.slots}
                self.assert_fact(spec.template, values)

    # ---------- working memory ----------

    def _fact_key(self, template, values):
        slots = self.templates[template]
        return (template, tuple(vkey(values[s]) for s in slots))

    def assert_fact(self, template, values):
        slots = self.templates[template]
        full = {s: values.get(s, Symbol("nil")) for s in slots}
        key = self._fact_key(template, full)
        if key in self.dup:
            return None
        fid = self.next_id
        self.next_id += 1
        self.wm[fid] = (template, full)
        self.dup[key] = fid
        self._after_mutation(fid)
        return fid

    def retract_fact(self, fid):
        template, values = self.wm.pop(fid)
        del self.dup[self._fact_key(template, values)]
        self._drop_references(fid)

    def modify_fact(self, fid, updates):
        template, values = self.wm[fid]
        new_values = dict(values)
        new_values.update(updates)
        key = self._fact_key(template, new_values)
        hit = self.dup.get(key)
        if hit is not None and hit != fid:
            raise KeyError("would duplicate")
        del self.dup[self._fact_key(template, values)]
        self.dup[key] = fid
        self.wm[fid] = (template, new_values)
        self._drop_references(fid)
        self._after_mutation(fid)

    def _drop_references(self, fid):
        self.agenda = [e for e in self.agenda if fid not in e[4]]
        self.fired = {k for k in self.fired if fid not in k[1]}

    # ---------- matching ----------

    def _match_pattern(self, pat: lang.Pattern, fid, bindings):
        template, values = self.wm[fid]
        if template != pat.template:
            return None
        b = dict(bindings)
        for slot, c in pat.slots:
            v = values[slot]
            if isinstance(c, lang.Literal):
                if vkey(c.value) != vkey(v):
                    return None
            else:
                if c.name in b:
                    if vkey(b[c.name]) != vkey(v):
                        return None
                else:
                    b[c.name] = v
        if pat.address is not None:
            b[pat.address] = fid
        return b

    def _tests_pass(self, tests, bindings):
        for t in tests:
            try:
                r = ev(t, bindings)
            except EvalFailure:
                return False
            if r is not True:
                return False
        return True

    def _full_matches(self, rule: NaiveRule, must_include=None):
        """All (ids, bindings) satisfying the rule LHS right now."""
        out = []

        def rec(i, ids, bindings):
            if i == len(rule.patterns):
                if must_include is not None and must_include not in ids:
                    return
                if self._tests_pass(rule.tests, bindings):
                    out.append((ids, bindings))
                return
            pat = rule.patterns[i]
            for fid in sorted(self.wm):
                b = self._match_pattern(pat, fid, bindings)
                if b is not None:
                    rec(i + 1, ids + (fid,), b)

        rec(0, (), {})
        return out

    def _after_mutation(self, fid):
        new = []
        for rule in self.rules:
            for ids, bindings in self._full_matches(rule, must_include=fid):
                if (rule.index, ids) in self.fired:
                    continue
                new.append((rule.index, ids, bindings))
        self._push_sorted(new)

    def _push_sorted(self, activations):
        activations.sort(key=lambda a: (a[0], a[1]))
        for ri, ids, bindings in activations:
            self.seq += 1
            rule = self.rules[ri]
            rec = max(ids) if ids else 0
            self.agenda.append((rule.salience, rec, self.seq, ri, ids, bindings))

    # ---------- firing ----------

    def run(self, limit=None):
        fired = 0
        while self.agenda and (limit is None or fired < limit):
            best = max(self.agenda, key=lambda e: (e[0], e[1], e[2]))
            self.agenda.remove(best)
            _, _, _, ri, ids, bindings = best
            if (ri, ids) in self.fired:
                continue
            self.fired.add((ri, ids))
            rule = self.rules[ri]
            self.fire_sequence.append((rule.name, ids))
            self._execute(rule, dict(bindings))
            fired += 1
        return fired

    def _execute(self, rule, bindings):
        try:
            for action in rule.actions:
                if isinstance(action, lang.AssertAction):
                    for spec in action.facts:
                        values = {}
                        for slot, e in spec.slots:
                            v = ev(e, bindings)
                            if v is True or v is False or type(v) not in (Symbol, str, int, float):
                                raise EvalFailure(f"not a slot value: {v!r}")
                            values[slot] = v
                        self.assert_fact(spec.template, values)
                elif isinstance(action, lang.RetractAction):
                    for var in action.variables:
                        fid = bindings[var]
                        if fid not in self.wm:
                            raise EvalFailure(f"no fact {fid}")
                        self.retract_fact(fid)
                elif isinstance(action, lang.ModifyAction):
                    fid = bindings[action.variable]
                    if fid not in self.wm:
                        raise EvalFailure(f"no fact {fid}")
                    updates = {}
                    for slot, e in action.updates:
                        v = ev(e, bindings)
                        if v is True or v is False or type(v) not in (Symbol, str, int, float):
                            raise EvalFailure(f"not a slot value: {v!r}")
                        updates[slot] = v
                    self.modify_fact(fid, updates)
                else:
                    bindings[action.variable] = ev(action.expr, bindings)
        except (EvalFailure, KeyError):
            pass  # abort this firing; earlier effects stay

    # ---------- queries ----------

    def run_query(self, name, arguments):
        q = self.queries[name]
        rows = []

        def rec(i, ids, bindings):
            if i == len(q.patterns):
                if self._tests_pass(q.tests, bindings):
                    rows.append((ids, bindings))
                return
            pat = q.patterns[i]
            for fid in sorted(self.wm):
                b = self._match_pattern(pat, fid, bindings)
                if b is not None:
                    rec(i + 1, ids + (fid,), b)

        rec(0, (), {p: arguments[p] for p in q.parameters})
        return rows

    def canonical_wm(self):
        """{fid: (template, {slot: vkey})} for comparison with another engine."""
        return {
            fid: (template, {s: vkey(v) for s, v in values.items()})
            for fid, (template, values) in self.wm.items()
        }
