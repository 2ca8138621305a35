"""Static registries and sensor-record replay.

The boundary between recorded sensor feeds and the engine: registry JSON
becomes Person/Corridor facts plus one bootstrap is-currently-at per person,
and replay files (JSON Lines, sorted by t) are translated record by record
into MobileTrace facts. A feed file is decoded line by line, so a line that
is not UTF-8 counts as malformed like any other and spoils no other line.
A reading from a device no registered person holds is counted as an unknown
device and never asserted: no rule could consume it, so it would only grow
working memory. All records sharing a timestamp form one cohort: they are
asserted in file order, then the engine runs once, so an exact duplicate
within a millisecond is counted as a duplicate. Their order can still change
the outcome, since the rules see the facts in assert order.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable

from .engine import Engine
from .facts import KbError, Symbol

DUMMY_LOC = Symbol("dummyLoc")


class MalformedRegistry(KbError):
    pass


class DuplicateDevice(KbError):
    pass


class MalformedRecord(KbError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True, slots=True)
class PersonEntry:
    name: str
    deviceAddress: str


@dataclass(frozen=True, slots=True)
class CorridorEntry:
    enda: str
    endb: str
    length: float


@dataclass(frozen=True)
class Registry:
    persons: tuple[PersonEntry, ...]
    corridors: tuple[CorridorEntry, ...]

    @cached_property
    def by_device(self) -> dict[str, str]:
        """Device address -> person name, built once per registry."""
        return {p.deviceAddress: p.name for p in self.persons}


def _req_str(obj: dict, key: str, where: str) -> str:
    v = obj.get(key)
    if not isinstance(v, str) or not v:
        raise MalformedRegistry(f"{where}: {key} must be a non-empty string")
    return v


def read_json(path: str | Path, error: type[KbError], what: str) -> object:
    """The JSON document in the file at `path`. A file that cannot be read or
    decoded raises `error`, its message "unreadable <what>: <cause>"."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError: bad JSON, bad UTF-8, NUL in a path; RecursionError: JSON
    # nested deeper than the decoder goes
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"unreadable {what}: {exc}") from None


def load_registry(source: str | Path | dict) -> Registry:
    """Parse and validate a registry: a str or Path names a JSON file, and a
    dict is the data already parsed."""
    obj = read_json(source, MalformedRegistry, "registry") if isinstance(source, (str, Path)) else source
    if not isinstance(obj, dict):
        raise MalformedRegistry("top level must be a JSON object")
    raw_persons = obj.get("persons", [])
    raw_corridors = obj.get("corridors", [])
    if not isinstance(raw_persons, list) or not isinstance(raw_corridors, list):
        raise MalformedRegistry("persons and corridors must be arrays")

    persons: list[PersonEntry] = []
    seen_dev: dict[str, str] = {}
    seen_name: set[str] = set()
    for i, e in enumerate(raw_persons):
        if not isinstance(e, dict):
            raise MalformedRegistry(f"persons[{i}]: must be an object")
        name = _req_str(e, "name", f"persons[{i}]")
        dev = _req_str(e, "deviceAddress", f"persons[{i}]")
        if dev in seen_dev:
            raise DuplicateDevice(f"device {dev} claimed by both {seen_dev[dev]} and {name}")
        if name in seen_name:
            raise MalformedRegistry(f"persons[{i}]: duplicate person name {name}")
        seen_dev[dev] = name
        seen_name.add(name)
        persons.append(PersonEntry(name, dev))

    corridors: list[CorridorEntry] = []
    seen_pair: set[tuple[str, str]] = set()
    for i, e in enumerate(raw_corridors):
        if not isinstance(e, dict):
            raise MalformedRegistry(f"corridors[{i}]: must be an object")
        enda = _req_str(e, "enda", f"corridors[{i}]")
        endb = _req_str(e, "endb", f"corridors[{i}]")
        length = e.get("length")
        # JSON reads 1e400 and Infinity as inf; an int compares exactly, so
        # one too large for a float fails the bound too
        if isinstance(length, bool) or not isinstance(length, (int, float)) or not 0 < length <= sys.float_info.max:
            raise MalformedRegistry(f"corridors[{i}]: length must be a finite number > 0")
        if enda == endb:
            raise MalformedRegistry(f"corridors[{i}]: endpoints must differ")
        if (enda, endb) in seen_pair:
            raise MalformedRegistry(f"corridors[{i}]: duplicate corridor ({enda}, {endb})")
        seen_pair.add((enda, endb))
        corridors.append(CorridorEntry(enda, endb, float(length)))
    return Registry(tuple(persons), tuple(corridors))


def initial_facts(reg: Registry) -> list[tuple[str, dict]]:
    """The static fact set a registry stands for, in assertion order."""
    out: list[tuple[str, dict]] = []
    for p in reg.persons:
        out.append(("Person", {"name": p.name, "deviceAddress": p.deviceAddress}))
    for c in reg.corridors:
        out.append(("Corridor", {"enda": Symbol(c.enda), "endb": Symbol(c.endb), "length": c.length}))
    # one bootstrap interval per person; the first real sighting closes it
    for p in reg.persons:
        out.append(("is-currently-at", {"name": p.name, "location": DUMMY_LOC, "tStart": 0, "tFinish": 0}))
    return out


def bootstrap(engine: Engine, reg: Registry) -> None:
    for template, values in initial_facts(reg):
        engine.assert_fact(template, values)


# ---------------- sensor records ----------------


# 9999-12-31T23:59:59.999Z: the last instant a row's HH:MM:SS can render
MAX_T = 253_402_300_799_999


@dataclass(frozen=True, slots=True)
class SensorRecord:
    t: int
    sensor: str  # rfidReader | btReader
    reader_location: str
    address: str  # tag_id or bt_address
    ir_code: str | None = None  # rfid only; 000 means no line-of-sight fix
    motion: bool | None = None


def parse_record(obj: object, line: int) -> SensorRecord:
    if not isinstance(obj, dict):
        raise MalformedRecord(line, "record must be a JSON object")
    t = obj.get("t")
    if isinstance(t, bool) or not isinstance(t, int) or not 0 <= t <= MAX_T:
        raise MalformedRecord(line, f"t must be an integer from 0 to {MAX_T} (epoch ms)")
    sensor = obj.get("sensor")
    if sensor not in ("rfidReader", "btReader"):
        raise MalformedRecord(line, f"unknown sensor {sensor!r}")
    loc = obj.get("reader_location")
    if not isinstance(loc, str) or not loc:
        raise MalformedRecord(line, "reader_location must be a non-empty string")
    payload = obj.get("payload")
    if not isinstance(payload, dict):
        raise MalformedRecord(line, "payload must be an object")
    if sensor == "rfidReader":
        tag = payload.get("tag_id")
        if not isinstance(tag, str) or not tag:
            raise MalformedRecord(line, "payload.tag_id must be a non-empty string")
        ir = payload.get("ir_code")
        if not isinstance(ir, str) or len(ir) != 3:
            raise MalformedRecord(line, "payload.ir_code must be a 3-character code")
        motion = payload.get("motion")
        if not isinstance(motion, bool):
            raise MalformedRecord(line, "payload.motion must be a boolean")
        return SensorRecord(t, sensor, loc, tag, ir, motion)
    addr = payload.get("bt_address")
    if not isinstance(addr, str) or not addr:
        raise MalformedRecord(line, "payload.bt_address must be a non-empty string")
    return SensorRecord(t, sensor, loc, addr)


def translate(r: SensorRecord, reg: Registry) -> dict | None:
    """MobileTrace bindings for one record, or None if no registered person
    holds its device; location comes from the IR code for rfid readings and
    from the reader's own location for bt readings."""
    if r.address not in reg.by_device:
        return None
    location = r.ir_code if r.sensor == "rfidReader" else r.reader_location
    return {"location": Symbol(location), "address": r.address, "time": r.t}


@dataclass(slots=True)
class FeedStats:
    records: int = 0
    facts: int = 0
    duplicates: int = 0
    unknown_devices: int = 0
    out_of_order: int = 0
    malformed: int = 0

    def consistent(self) -> bool:
        return self.records == self.facts + self.duplicates + self.unknown_devices + self.out_of_order + self.malformed


def _lines(source: str | Path | Iterable[str]) -> Iterable[str | bytes]:
    """A feed's lines: a path is read as bytes, which `replay` decodes one
    line at a time, so a byte that is not UTF-8 spoils only its own line.
    A line ends at LF, CR LF or a lone CR, as in a file read as text."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            for raw in fh:
                if b"\r" in raw:
                    yield from raw.splitlines(keepends=True)
                else:
                    yield raw
    else:
        yield from source


def check_speed(speed: float | str) -> float | str:
    """A replay speed: "max", or a multiplier (a number or its text) that is
    greater than 0, which rules out 0, negatives and NaN."""
    if speed == "max":
        return speed
    try:
        v = float(speed)
    except (TypeError, ValueError):
        raise ValueError(f"speed must be a positive number or 'max', got {speed!r}") from None
    if not v > 0:
        raise ValueError("speed must be positive")
    return v


def replay(
    source: str | Path | Iterable[str],
    reg: Registry,
    engine: Engine,
    speed: float | str = "max",
    on_cycle: Callable[[Engine], None] | None = None,
) -> FeedStats:
    """Feed a replay file through the engine, cohort by cohort (the records
    of one millisecond): each record is asserted as it is read, and the
    engine runs, then `on_cycle` is called, when the time advances and once
    at the end.

    speed "max" never sleeps; a positive multiplier scales the recorded
    inter-cohort gaps by 1/speed. A line holding only JSON whitespace (space,
    tab, CR, LF) is skipped as blank. Malformed lines (a line that is not
    UTF-8 or holds other whitespace only among them) and out-of-order lines,
    and readings from unregistered devices, are counted and skipped;
    processing always continues.
    """
    speed = check_speed(speed)
    stats = FeedStats()
    last_t: int | None = None
    for lineno, raw in enumerate(_lines(source), start=1):
        if not raw.strip(b" \t\r\n" if type(raw) is bytes else " \t\r\n"):
            continue
        stats.records += 1
        try:
            rec = parse_record(json.loads(raw.decode("utf-8") if type(raw) is bytes else raw), lineno)
        # RecursionError: a line nested deeper than the decoder goes
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError, MalformedRecord):
            stats.malformed += 1
            continue
        if last_t is not None:
            if rec.t < last_t:
                stats.out_of_order += 1
                continue
            if rec.t > last_t:
                engine.run()
                if on_cycle is not None:
                    on_cycle(engine)
                if speed != "max":
                    time.sleep((rec.t - last_t) / 1000.0 / speed)
        last_t = rec.t
        out = translate(rec, reg)
        if out is None:
            stats.unknown_devices += 1
        elif engine.assert_fact("MobileTrace", out).created:
            stats.facts += 1
        else:
            stats.duplicates += 1
    if last_t is not None:
        engine.run()
        if on_cycle is not None:
            on_cycle(engine)
    return stats
