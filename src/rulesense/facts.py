"""Slot values, templates, and facts: the data model the rest of the system stores.

A slot holds exactly one of four value kinds: Symbol (unquoted identifier such
as a location code), Text (quoted string), Integer (epoch milliseconds and
other counts), or Float. Identity is type-strict throughout: Integer 20 and
Float 20.0 are different values, and so are Symbol 730 and Text "730".

Symbols are interned: there is one live Symbol object per name, so two
Symbols are equal exactly when they are the same object, and hashing and
comparing one are the default identity operations, which run in C. The
intern table holds its Symbols weakly, so it only ever holds the names that
live values still use.

A fact version stores its slot values once, as a tuple in template slot
order (`Fact.vals`). That tuple is also its identity and the source of its
join keys: no Symbol, Text or Integer compares equal to a value of another
kind, so those values are their own keys, and only a Float needs a tagged
key (its bit pattern).
"""

from __future__ import annotations

import struct
import threading
import weakref
from dataclasses import dataclass
from typing import Mapping


class KbError(Exception):
    """Base class for everything this package raises on purpose."""


class DuplicateTemplate(KbError):
    pass


class DuplicateSlot(KbError):
    pass


class UnknownTemplate(KbError):
    pass


class UnknownSlot(KbError):
    pass


_symbols: weakref.WeakValueDictionary[str, Symbol] = weakref.WeakValueDictionary()
_symbols_lock = threading.Lock()


class Symbol:
    """Unquoted identifier: location codes, the nil filler, bare words.

    `Symbol(name)` returns the one live Symbol for `name`, so Symbols compare
    and hash by identity. A Symbol is immutable, and copying or unpickling
    one gives back the interned object.
    """

    __slots__ = ("name", "__weakref__")
    name: str

    def __new__(cls, name: str) -> Symbol:
        s = _symbols.get(name)
        if s is not None:
            return s
        if type(name) is not str:
            raise TypeError(f"Symbol name must be a str, not {type(name).__name__}")
        with _symbols_lock:
            # another thread may have made it since the lookup above
            s = _symbols.get(name)
            if s is None:
                s = object.__new__(cls)
                object.__setattr__(s, "name", name)
                _symbols[name] = s
        return s

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"Symbol is immutable: cannot set {attr}")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"Symbol is immutable: cannot delete {attr}")

    def __reduce__(self) -> tuple:
        return (Symbol, (self.name,))

    def __copy__(self) -> Symbol:
        return self

    def __deepcopy__(self, memo: dict) -> Symbol:
        return self

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return self.name


NIL = Symbol("nil")

# SlotValue = Symbol | str | int | float; bool is not a slot value even though
# Python treats it as an int subtype (value_key rejects it via exact type check).
SlotValue = Symbol | str | int | float


def value_key(v: SlotValue) -> SlotValue | tuple:
    """Hashable identity key for a slot value.

    A Symbol, Text or Integer is its own key: Python never finds two of them
    of different kinds equal, and an interned Symbol equals only itself. A
    Float is tagged and compared bitwise, ("f", bits), so it never equals an
    Integer, -0.0 != 0.0 and nan == nan, which keeps the engine's set
    semantics total.
    """
    t = type(v)
    if t is float:
        return ("f", struct.pack(">d", v))
    if t is Symbol or t is str or t is int:
        return v
    raise TypeError(f"not a slot value: {v!r}")


SLOT_TYPES = (Symbol, str, int, float)


def is_slot_value(v: object) -> bool:
    return type(v) in SLOT_TYPES


@dataclass(frozen=True, slots=True)
class Template:
    """A named fact shape: ordered, distinct slot names."""

    name: str
    slots: tuple[str, ...]


class TemplateRegistry:
    """Templates of one knowledge base, unique by name, insertion-ordered."""

    def __init__(self) -> None:
        self._by_name: dict[str, Template] = {}

    def define(self, name: str, slots: list[str] | tuple[str, ...]) -> Template:
        if name in self._by_name:
            raise DuplicateTemplate(f"template {name} is already defined")
        if not slots:
            raise KbError(f"template {name} needs at least one slot")
        seen: set[str] = set()
        for s in slots:
            if s in seen:
                raise DuplicateSlot(f"template {name} repeats slot {s}")
            seen.add(s)
        t = Template(name, tuple(slots))
        self._by_name[name] = t
        return t

    def get(self, name: str) -> Template:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownTemplate(f"unknown template {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


class Why:
    """How one fact version came to be.

    `rule` is the rule whose firing produced it (None for an external assert
    or modify), `seq` that event's fire-log sequence number, and `inputs` the
    fact versions the firing consumed, as they were when it fired. A version
    made by a rule modifying a fact it consumed folds the modify chain behind
    it: at that fact's position `inputs` holds the version that opened the
    chain, and `folded` counts the earlier steps left out.
    """

    __slots__ = ("rule", "seq", "inputs", "folded")

    def __init__(self, rule: str | None, seq: int, inputs: tuple = (), folded: int = 0):
        self.rule = rule
        self.seq = seq
        self.inputs = inputs
        self.folded = folded


class Fact:
    """One immutable fact version. `id` is None until the engine asserts it.

    `vals` holds the slot values in template slot order. `key` is the
    identity of (template, slot values) used for duplicate detection and
    join keys, (template name, vals) with `vals` itself unless a slot holds
    a Float, whose slots then all go through `value_key`; it deliberately
    ignores `id`. `why` is the version's provenance, set by the engine; it
    holds only older versions, so the provenance no live fact reaches is
    freed with it.
    """

    __slots__ = ("id", "template", "vals", "key", "why")

    def __init__(self, template: Template, vals: tuple, id: int | None = None, why: Why | None = None):
        self.id = id
        self.template = template
        self.vals = vals
        self.key = (template.name, tuple([value_key(v) for v in vals]) if float in map(type, vals) else vals)
        self.why = why

    @property
    def values(self) -> dict[str, SlotValue]:
        """A new slot -> value dict in slot order; for cold paths only."""
        return dict(zip(self.template.slots, self.vals))

    def value(self, slot: str) -> SlotValue:
        try:
            return self.vals[self.template.slots.index(slot)]
        except ValueError:
            raise UnknownSlot(f"template {self.template.name} has no slot {slot}") from None

    def __repr__(self) -> str:
        inner = " ".join(f"({s} {v!r})" for s, v in zip(self.template.slots, self.vals))
        tag = f"f-{self.id}" if self.id is not None else "f-?"
        return f"<{tag} ({self.template.name} {inner})>"


def make_fact(template: Template, bindings: Mapping[str, SlotValue]) -> Fact:
    """Build an unasserted fact; unset slots are filled with the nil Symbol."""
    for slot in bindings:
        if slot not in template.slots:
            raise UnknownSlot(f"template {template.name} has no slot {slot}")
    vals = tuple([bindings.get(slot, NIL) for slot in template.slots])
    for slot, v in zip(template.slots, vals):
        if not is_slot_value(v):
            raise TypeError(f"slot {slot}: not a slot value: {v!r}")
    return Fact(template, vals)
