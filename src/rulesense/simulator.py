"""Deterministic sensor-feed generator.

Scripted walks through rooms become a replay file plus a ground-truth file.
The physical model: a tag broadcasts every broadcast_interval_ms on a grid
anchored at the person's first arrival; while the person is in a room with an
IR locator and the (seeded) line-of-sight draw succeeds, the record carries
that room's code, otherwise code 000. Transit between waypoints always reads
000. Identical scenario (seed included) gives byte-identical outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .facts import KbError
from .ingest import MAX_T, Registry, load_registry, read_json


class InvalidScenario(KbError):
    pass


# 64-bit linear congruential generator, MMIX multiplier/increment. Chosen over
# a stdlib RNG so the stream is reproducible from the written constants alone,
# independent of language or library version.
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def uniform(self) -> float:
        """Next draw in [0, 1): top 53 bits of the advanced state."""
        self.state = (_LCG_A * self.state + _LCG_C) & _MASK64
        return (self.state >> 11) / float(1 << 53)


@dataclass(frozen=True, slots=True)
class Room:
    code: str
    has_locator: bool
    bt_reader: bool = False


@dataclass(frozen=True, slots=True)
class Waypoint:
    location: str
    arrive_t: int
    depart_t: int


@dataclass(frozen=True, slots=True)
class Walk:
    person: str
    waypoints: tuple[Waypoint, ...]


@dataclass(frozen=True)
class Scenario:
    rooms: tuple[Room, ...]
    registry: Registry
    walks: tuple[Walk, ...]
    broadcast_interval_ms: int = 2000
    los_probability: float = 1.0
    seed: int = 0
    bt_interval_ms: int | None = None  # None: no bt records


def _int_field(obj: dict, key: str, where: str, minimum: int | None = None) -> int:
    v = obj.get(key)
    if isinstance(v, bool) or not isinstance(v, int):
        raise InvalidScenario(f"{where}: {key} must be an integer")
    if minimum is not None and v < minimum:
        raise InvalidScenario(f"{where}: {key} must be >= {minimum}")
    return v


def load_scenario(source: str | Path | dict, registry: Registry | None = None) -> Scenario:
    """Parse and validate a scenario file (or dict, with registry supplied).

    The scenario's "registry" field is a path, resolved relative to the
    scenario file's directory.
    """
    base, obj = Path("."), source
    if isinstance(source, (str, Path)):
        base = Path(source).parent
        obj = read_json(source, InvalidScenario, "scenario")
    if not isinstance(obj, dict):
        raise InvalidScenario("top level must be a JSON object")

    rooms_raw = obj.get("rooms")
    if not isinstance(rooms_raw, list) or not rooms_raw:
        raise InvalidScenario("rooms must be a non-empty array")
    rooms: list[Room] = []
    codes: set[str] = set()
    for i, r in enumerate(rooms_raw):
        if not isinstance(r, dict):
            raise InvalidScenario(f"rooms[{i}]: must be an object")
        code = r.get("code")
        if not isinstance(code, str) or len(code) != 3:
            raise InvalidScenario(f"rooms[{i}]: code must be a 3-character string")
        if code in codes:
            raise InvalidScenario(f"rooms[{i}]: duplicate room code {code}")
        has_locator = r.get("has_locator")
        if not isinstance(has_locator, bool):
            raise InvalidScenario(f"rooms[{i}]: has_locator must be a boolean")
        bt_reader = r.get("bt_reader", False)
        if not isinstance(bt_reader, bool):
            raise InvalidScenario(f"rooms[{i}]: bt_reader must be a boolean")
        codes.add(code)
        rooms.append(Room(code, has_locator, bt_reader))

    if registry is None:
        reg_ref = obj.get("registry")
        if not isinstance(reg_ref, str) or not reg_ref:
            raise InvalidScenario("registry must be a path string")
        reg_path = Path(reg_ref)
        if not reg_path.is_absolute():
            reg_path = base / reg_path
        registry = load_registry(reg_path)
    known_persons = {p.name for p in registry.persons}

    walks_raw = obj.get("walks")
    if not isinstance(walks_raw, list):
        raise InvalidScenario("walks must be an array")
    walks: list[Walk] = []
    for i, w in enumerate(walks_raw):
        if not isinstance(w, dict):
            raise InvalidScenario(f"walks[{i}]: must be an object")
        person = w.get("person")
        if not isinstance(person, str) or person not in known_persons:
            raise InvalidScenario(f"walks[{i}]: person {person!r} not in registry")
        wps_raw = w.get("waypoints")
        if not isinstance(wps_raw, list) or not wps_raw:
            raise InvalidScenario(f"walks[{i}]: waypoints must be a non-empty array")
        wps: list[Waypoint] = []
        for j, wp in enumerate(wps_raw):
            where = f"walks[{i}].waypoints[{j}]"
            if not isinstance(wp, dict):
                raise InvalidScenario(f"{where}: must be an object")
            loc = wp.get("location")
            if not isinstance(loc, str) or loc not in codes:
                raise InvalidScenario(f"{where}: unknown room code {loc!r}")
            arrive = _int_field(wp, "arrive_t", where, minimum=0)
            depart = _int_field(wp, "depart_t", where, minimum=0)
            if depart < arrive:
                raise InvalidScenario(f"{where}: depart_t before arrive_t")
            if depart > MAX_T:
                raise InvalidScenario(f"{where}: depart_t past {MAX_T}, the last time a feed record can carry")
            if wps and arrive < wps[-1].depart_t:
                raise InvalidScenario(f"{where}: overlaps previous waypoint")
            wps.append(Waypoint(loc, arrive, depart))
        walks.append(Walk(person, tuple(wps)))

    interval = 2000
    if "broadcast_interval_ms" in obj:
        interval = _int_field(obj, "broadcast_interval_ms", "scenario", minimum=1)
    los = obj.get("los_probability", 1.0)
    if isinstance(los, bool) or not isinstance(los, (int, float)) or not 0.0 <= los <= 1.0:
        raise InvalidScenario("los_probability must be a number in [0, 1]")
    seed = 0
    if "seed" in obj:
        seed = _int_field(obj, "seed", "scenario")
    bt_interval = None
    if obj.get("bt_interval_ms") is not None:
        bt_interval = _int_field(obj, "bt_interval_ms", "scenario", minimum=1)

    return Scenario(tuple(rooms), registry, tuple(walks), interval, float(los), seed, bt_interval)


def _room_at(walk: Walk, t: int) -> Waypoint | None:
    for wp in walk.waypoints:
        if wp.arrive_t <= t <= wp.depart_t:
            return wp
    return None


def generate(s: Scenario) -> tuple[str, str]:
    """(replay JSONL, ground-truth JSONL) for a scenario.

    One LCG stream for the whole scenario; a draw is consumed per broadcast
    made from a locator room, regardless of los_probability, so the stream
    alignment never depends on the probability value. Walks are processed in
    scenario order; records are then merged stable by t.
    """
    rooms = {r.code: r for r in s.rooms}
    devices = {p.name: p.deviceAddress for p in s.registry.persons}
    rng = Lcg(s.seed)
    records: list[dict] = []
    for walk in s.walks:
        device = devices[walk.person]
        start = walk.waypoints[0].arrive_t
        end = walk.waypoints[-1].depart_t
        t = start
        while t <= end:
            wp = _room_at(walk, t)
            code = "000"
            if wp is not None:
                room = rooms[wp.location]
                if room.has_locator:
                    if rng.uniform() < s.los_probability:
                        code = room.code
            records.append(
                {
                    "t": t,
                    "sensor": "rfidReader",
                    "reader_location": "R1",
                    "payload": {"tag_id": device, "ir_code": code, "motion": True},
                }
            )
            t += s.broadcast_interval_ms
        if s.bt_interval_ms is not None:
            t = start
            while t <= end:
                wp = _room_at(walk, t)
                if wp is not None and rooms[wp.location].bt_reader:
                    records.append(
                        {
                            "t": t,
                            "sensor": "btReader",
                            "reader_location": wp.location,
                            "payload": {"bt_address": device},
                        }
                    )
                t += s.bt_interval_ms
    records.sort(key=lambda r: r["t"])  # stable: walk order preserved within a tick

    truth_rows: list[dict] = []
    for walk in s.walks:
        for wp in walk.waypoints:
            truth_rows.append(
                {
                    "kind": "waypoint",
                    "person": walk.person,
                    "location": wp.location,
                    "arrive_t": wp.arrive_t,
                    "depart_t": wp.depart_t,
                }
            )
    truth_rows.extend(true_traversals(s))

    replay_text = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
    truth_text = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in truth_rows)
    return replay_text, truth_text


def true_traversals(s: Scenario) -> list[dict]:
    """Ground-truth corridor traversals from the waypoint script.

    Consecutive dwells in locator rooms (transit or locator-less rooms in
    between do not break the pair) matching a registry corridor in the
    enda -> endb direction, one row each.
    """
    rooms = {r.code: r for r in s.rooms}
    corridors = {(c.enda, c.endb): c for c in s.registry.corridors}
    rows: list[dict] = []
    for walk in s.walks:
        located = [wp for wp in walk.waypoints if rooms[wp.location].has_locator]
        for a, b in zip(located, located[1:]):
            c = corridors.get((a.location, b.location))
            if c is None:
                continue
            rows.append(
                {
                    "kind": "traversal",
                    "person": walk.person,
                    "endA": a.location,
                    "endB": b.location,
                    "true_depart_ms": a.depart_t,
                    "true_arrive_ms": b.arrive_t,
                    "true_tTaken_ms": b.arrive_t - a.depart_t,
                }
            )
    return rows
