"""Static registries and sensor-record replay.

The boundary between recorded sensor feeds and the engine: registry JSON
becomes Person/Corridor facts plus one bootstrap is-currently-at per person,
and replay files (JSON Lines, sorted by t) are translated record by record
into MobileTrace facts. All records sharing a timestamp form one cohort,
asserted together before a single run() call, so replay order within a
millisecond cannot change the outcome.
"""

from __future__ import annotations

import json
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


def load_registry(source: str | Path | dict) -> Registry:
    """Parse and validate a registry (path, JSON text, or already-parsed dict)."""
    if isinstance(source, (str, Path)):
        p = Path(source)
        try:
            text = p.read_text(encoding="utf-8") if p.exists() else str(source)
            obj = json.loads(text)
        except (OSError, json.JSONDecodeError) as exc:
            raise MalformedRegistry(f"unreadable registry: {exc}") from None
    else:
        obj = source
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
        if isinstance(length, bool) or not isinstance(length, (int, float)) or not length > 0:
            raise MalformedRegistry(f"corridors[{i}]: length must be a number > 0")
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


@dataclass(frozen=True, slots=True)
class SensorRecord:
    t: int
    sensor: str  # rfidReader | btReader
    reader_location: str
    address: str  # tag_id or bt_address
    ir_code: str | None = None  # rfid only; 000 means no line-of-sight fix
    motion: bool | None = None


@dataclass(frozen=True, slots=True)
class Skip:
    reason: str


def parse_record(obj: object, line: int) -> SensorRecord:
    if not isinstance(obj, dict):
        raise MalformedRecord(line, "record must be a JSON object")
    t = obj.get("t")
    if isinstance(t, bool) or not isinstance(t, int) or t < 0:
        raise MalformedRecord(line, "t must be a non-negative integer (epoch ms)")
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


def translate(r: SensorRecord, reg: Registry, pass_unknown: bool = False) -> dict | Skip:
    """MobileTrace bindings for one record; location comes from the IR code
    for rfid readings and from the reader's own location for bt readings."""
    if not pass_unknown and r.address not in reg.by_device:
        return Skip("UnknownDevice")
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


def _lines(source: str | Path | Iterable[str]) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
    else:
        yield from source


def replay(
    source: str | Path | Iterable[str],
    reg: Registry,
    engine: Engine,
    speed: float | str = "max",
    pass_unknown: bool = False,
    on_cycle: Callable[[Engine], None] | None = None,
) -> FeedStats:
    """Feed a replay file through the engine, cohort by cohort.

    speed "max" never sleeps; a positive multiplier scales the recorded
    inter-cohort gaps by 1/speed. Malformed and out-of-order lines are
    counted and skipped; processing always continues.
    """
    if speed != "max":
        speed = float(speed)
        if speed <= 0:
            raise ValueError("speed must be positive or 'max'")
    stats = FeedStats()
    last_t: int | None = None
    cohort: list[SensorRecord] = []
    cohort_t: int | None = None

    def flush() -> None:
        nonlocal cohort
        if not cohort:
            return
        for rec in cohort:
            out = translate(rec, reg, pass_unknown)
            if isinstance(out, Skip):
                stats.unknown_devices += 1
                continue
            res = engine.assert_fact("MobileTrace", out)
            if res.created:
                stats.facts += 1
            else:
                stats.duplicates += 1
        cohort = []
        engine.run()
        if on_cycle is not None:
            on_cycle(engine)

    for lineno, raw in enumerate(_lines(source), start=1):
        if not raw.strip():
            continue
        stats.records += 1
        try:
            rec = parse_record(json.loads(raw), lineno)
        except json.JSONDecodeError:
            stats.malformed += 1
            continue
        except MalformedRecord:
            stats.malformed += 1
            continue
        if last_t is not None and rec.t < last_t:
            stats.out_of_order += 1
            continue
        if cohort_t is not None and rec.t != cohort_t:
            flush()
            if speed != "max":
                time.sleep((rec.t - cohort_t) / 1000.0 / speed)
        cohort_t = rec.t
        last_t = rec.t
        cohort.append(rec)
    flush()
    return stats
