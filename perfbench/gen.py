"""Workload inputs for the benchmark, made from a seed.

Each builder returns a `Workload`: the registry and feed lines the measured
process reads, plus the expectations the checks compare its outputs with.
Every expectation is computed here from the generator's own records, never
from the engine.

The seed chooses paths, lengths, names and where injected lines go. It never
changes how many lines, readings, polls or journeys a round has, so every
round of a workload attempts the same number of operations whatever the seed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from rulesense.ingest import load_registry
from rulesense.simulator import Room, Scenario, Walk, Waypoint, generate, true_traversals

T0 = 1_700_000_000_000
PROBE = "Probe"
PROBE_DEVICE = "PR0BE0"


@dataclass
class Workload:
    name: str
    registry: dict
    lines: list[str]
    # FeedStats the replay must report
    stats: dict
    persons: list[str]
    corridors: dict[tuple[str, str], float]
    # person -> (location, tStart, tFinish) at the end of the feed
    where_is: dict[str, tuple[str, int, int]] = field(default_factory=dict)
    # person -> closed (location, tStart, tFinish) runs, oldest first
    history: dict[str, list[tuple[str, int, int]]] = field(default_factory=dict)
    # bulk_dwell: person -> exact journeys (endA, endB, tStart, tFinish)
    journeys: dict[str, list[tuple[str, str, int, int]]] = field(default_factory=dict)
    # walks_ring: simulator.true_traversals rows
    truth: list[dict] = field(default_factory=list)
    broadcast_ms: int = 0
    # serve_poll: cycles between polls, and the polled walker's state per poll
    poll_every: int = 0
    polls: dict[int, dict] = field(default_factory=dict)
    polled: str = ""


def rule_names(kb_text: str) -> set[str]:
    """Rule names declared in a KB source, read from the text alone."""
    return set(re.findall(r"\(defrule\s+([^\s()]+)", kb_text))


def _line(rec: dict) -> str:
    return json.dumps(rec, separators=(",", ":"))


def _rfid(t: int, device: str, code: str) -> dict:
    return {"t": t, "sensor": "rfidReader", "reader_location": "R1", "payload": {"tag_id": device, "ir_code": code, "motion": True}}


def _location(rec: dict) -> str:
    return rec["payload"]["ir_code"] if rec["sensor"] == "rfidReader" else rec["reader_location"]


def _device(rec: dict) -> str:
    p = rec["payload"]
    return p["tag_id"] if rec["sensor"] == "rfidReader" else p["bt_address"]


def runs(readings: list[tuple[int, str]]) -> list[tuple[str, int, int]]:
    """Run-length form of one person's (t, location) readings: each maximal
    stretch at one location as (location, first t, last t)."""
    out: list[list] = []
    for t, loc in readings:
        if out and out[-1][0] == loc:
            out[-1][2] = t
        else:
            out.append([loc, t, t])
    return [tuple(r) for r in out]


def _per_person(records: list[dict], by_device: dict[str, str]) -> dict[str, list[tuple[int, str]]]:
    seen: dict[str, list[tuple[int, str]]] = {}
    for rec in records:
        name = by_device.get(_device(rec))
        if name is None:
            continue
        readings = seen.setdefault(name, [])
        loc = _location(rec)
        if readings and readings[-1] == (rec["t"], loc):
            continue  # same reading from a second sensor: one sighting
        readings.append((rec["t"], loc))
    return seen


def _ring_corridors(codes: list[str], rng: random.Random) -> list[dict]:
    out = []
    n = len(codes)
    for i in range(n):
        a, b = codes[i], codes[(i + 1) % n]
        out.append({"enda": a, "endb": b, "length": float(rng.randint(5, 40))})
        out.append({"enda": b, "endb": a, "length": float(rng.randint(5, 40))})
    return out


def _corridor_map(corridors: list[dict]) -> dict[tuple[str, str], float]:
    return {(c["enda"], c["endb"]): c["length"] for c in corridors}


# ---------------- bulk_dwell ----------------

BULK_PERSONS = 5
BULK_CYCLES = 2
BULK_CYCLE_READINGS = 2000


def bulk_dwell(seed: int) -> Workload:
    """The criterion-9 feed shape: one RFID reading per person per second,
    long dwells cycling 100 -> 000 -> 730 -> 000 -> 740. The seed draws each
    person's segment lengths; every cycle has the same number of readings."""
    rng = random.Random(seed)
    persons = [f"P{p}" for p in range(BULK_PERSONS)]
    registry = {
        "persons": [{"name": f"P{p}", "deviceAddress": f"D{p}"} for p in range(BULK_PERSONS)],
        "corridors": [{"enda": "730", "endb": "740", "length": 20.0}],
    }
    codes: dict[int, list[str]] = {}
    for p in range(BULK_PERSONS):
        seq: list[str] = []
        for _ in range(BULK_CYCLES):
            at730 = rng.randint(100, 200)
            gap1 = rng.randint(50, 150)
            gap2 = rng.randint(50, 150)
            at740 = rng.randint(100, 200)
            at100 = BULK_CYCLE_READINGS - at730 - gap1 - gap2 - at740
            for code, n in (("100", at100), ("000", gap1), ("730", at730), ("000", gap2), ("740", at740)):
                seq.extend([code] * n)
        codes[p] = seq
    records = []
    readings = {name: [] for name in persons}
    for i in range(BULK_CYCLES * BULK_CYCLE_READINGS):
        for p in range(BULK_PERSONS):
            t = T0 + i * 1000 + p * 150
            records.append(_rfid(t, f"D{p}", codes[p][i]))
            readings[f"P{p}"].append((t, codes[p][i]))
    w = Workload(
        name="bulk_dwell",
        registry=registry,
        lines=[_line(r) for r in records],
        stats={"records": len(records), "facts": len(records), "duplicates": 0, "unknown_devices": 0, "out_of_order": 0, "malformed": 0},
        persons=persons,
        corridors=_corridor_map(registry["corridors"]),
    )
    for name, rd in readings.items():
        rs = runs(rd)
        w.where_is[name] = rs[-1]
        w.history[name] = rs[:-1]
        w.journeys[name] = [
            ("730", "740", a[2], b[1])
            for a, gap, b in zip(rs, rs[1:], rs[2:])
            if a[0] == "730" and gap[0] == "000" and b[0] == "740"
        ]
    return w


# ---------------- walks_ring ----------------

RING = [str(101 + i) for i in range(12)]
RING_WALKERS = 12
RING_WAYPOINTS = 60
RING_PROBE_WAYPOINTS = 40
RING_BROADCAST_MS = 1000
RING_BT_MS = 1500
RING_DWELL_MS = 3500
RING_TRANSIT_MS = 1500
RING_VISITORS = 40
RING_DUPLICATES = 30
RING_OUT_OF_ORDER = 10

# every malformed line fails parse_record (or json) for a different reason
MALFORMED = [
    "{not json",
    "[1, 2, 3]",
    '{"t": -5, "sensor": "rfidReader", "reader_location": "R1", "payload": {"tag_id": "D0", "ir_code": "101", "motion": true}}',
    '{"t": 5, "sensor": "sonar", "reader_location": "R1", "payload": {}}',
    '{"t": 5, "sensor": "rfidReader", "reader_location": "", "payload": {"tag_id": "D0", "ir_code": "101", "motion": true}}',
    '{"t": 5, "sensor": "rfidReader", "reader_location": "R1", "payload": {"tag_id": "D0", "ir_code": "10", "motion": true}}',
    '{"t": 5, "sensor": "rfidReader", "reader_location": "R1", "payload": {"tag_id": "D0", "ir_code": "101", "motion": "yes"}}',
    '{"t": 5, "sensor": "btReader", "reader_location": "101", "payload": {"bt_address": ""}}',
]


def _ring_walk(rng: random.Random, n: int, start: int, gap: int) -> list[int]:
    """Random walk over ring indices that never enters room `gap`, so it can
    never go all the way round: every arrival has a true traversal behind it."""
    path = [start]
    size = len(RING)
    for _ in range(n - 1):
        here = path[-1]
        steps = [s for s in ((here + 1) % size, (here - 1) % size) if s != gap]
        path.append(rng.choice(steps))
    return path


def _timed(path: list[str], start: int, dwell: int, transit: int) -> tuple[Waypoint, ...]:
    wps = []
    t = start
    for loc in path:
        wps.append(Waypoint(loc, t, t + dwell))
        t += dwell + transit
    return tuple(wps)


def walks_ring(seed: int) -> Workload:
    """A simulator scenario: walkers on a ring of locator rooms, Bluetooth
    readers in every other room, plus visitor, duplicate, out-of-order and
    malformed lines.

    Walker timing is fixed; the seed draws paths, corridor lengths and where
    injected lines go. A walker's path alternates between rooms with and
    without a Bluetooth reader, so the Bluetooth line count does not depend
    on the path either. The probe walker goes round the ring on a fixed path,
    the route that produces spurious journeys.
    """
    rng = random.Random(seed)
    size = len(RING)
    names = [f"W{k:02d}" for k in range(1, RING_WALKERS + 1)]
    persons = names + [PROBE]
    devices = {n: f"{0xA000 + k:04X}" for k, n in enumerate(names)}
    devices[PROBE] = PROBE_DEVICE
    corridors = _ring_corridors(RING, rng)
    registry = {"persons": [{"name": n, "deviceAddress": devices[n]} for n in persons], "corridors": corridors}
    reg = load_registry(registry)

    walks = []
    for k, name in enumerate(names):
        start = rng.randrange(1, size, 2)  # rooms at odd indices have no Bluetooth reader
        gap = rng.choice([g for g in range(size) if g != start])
        path = [RING[i] for i in _ring_walk(rng, RING_WAYPOINTS, start, gap)]
        walks.append(Walk(name, _timed(path, T0 + 77 * k, RING_DWELL_MS, RING_TRANSIT_MS)))
    probe_path = [RING[i % size] for i in range(RING_PROBE_WAYPOINTS)]
    walks.append(Walk(PROBE, _timed(probe_path, T0 + 77 * RING_WALKERS, RING_DWELL_MS, RING_TRANSIT_MS)))
    rooms = tuple(Room(code, True, i % 2 == 0) for i, code in enumerate(RING))
    scenario = Scenario(rooms, reg, tuple(walks), RING_BROADCAST_MS, 1.0, seed, RING_BT_MS)
    replay_text, _ = generate(scenario)
    records = [json.loads(x) for x in replay_text.splitlines()]

    # natural duplicates: a Bluetooth and an RFID reading of one tag at one
    # instant in one room are the same MobileTrace
    keys = set()
    natural = 0
    for rec in records:
        key = (rec["t"], _device(rec), _location(rec))
        if key in keys:
            natural += 1
        keys.add(key)

    n = len(records)
    after: dict[int, list[str]] = {}  # index of a clean line -> lines inserted after it
    for v in range(RING_VISITORS):
        j = rng.randrange(n)
        rec = _rfid(records[j]["t"], f"V{v:03d}", rng.choice(RING))
        after.setdefault(j, []).append(_line(rec))
    for _ in range(RING_DUPLICATES):
        j = rng.randrange(n)
        after.setdefault(j, []).append(_line(records[j]))
    for _ in range(RING_OUT_OF_ORDER):
        j = rng.randrange(n - 50)
        k = j + rng.randint(20, 50)
        if records[k]["t"] <= records[j]["t"]:
            raise AssertionError("an out-of-order copy must follow a later reading")
        # a copy of line j placed after a later line: its t is already past
        after.setdefault(k, []).append(_line(records[j]))
    for bad in MALFORMED:
        after.setdefault(rng.randrange(n), []).append(bad)
    lines = []
    for j, rec in enumerate(records):
        lines.append(_line(rec))
        lines.extend(after.get(j, ()))

    w = Workload(
        name="walks_ring",
        registry=registry,
        lines=lines,
        stats={
            "records": len(lines),
            "facts": n - natural,
            "duplicates": RING_DUPLICATES + natural,
            "unknown_devices": RING_VISITORS,
            "out_of_order": RING_OUT_OF_ORDER,
            "malformed": len(MALFORMED),
        },
        persons=persons,
        corridors=_corridor_map(corridors),
        truth=true_traversals(scenario),
        broadcast_ms=RING_BROADCAST_MS,
    )
    for name, rd in _per_person(records, {d: n for n, d in devices.items()}).items():
        rs = runs(rd)
        w.where_is[name] = rs[-1]
        w.history[name] = rs[:-1]
    return w


# ---------------- serve_poll ----------------

SERVE_RING = [str(201 + i) for i in range(8)]
SERVE_PERSONS = 2000
SERVE_WALKERS = 24
SERVE_SPAN_MS = 400_000
SERVE_BROADCAST_MS = 2000
SERVE_PROBE_BROADCAST_MS = 500
SERVE_DWELL_MS = 20_000
SERVE_TRANSIT_MS = 3000
SERVE_POLL_EVERY = 112


def serve_poll(seed: int) -> Workload:
    """A large registry, a few dozen walkers with long dwells on a ring, and a
    probe walker whose tag broadcasts four times as often, so that its
    derivation chain grows past what explain can render within one round.
    Every record has its own timestamp, so each record is one replay cycle,
    and polls fall on fixed cycle numbers."""
    rng = random.Random(seed)
    size = len(SERVE_RING)
    devices = {PROBE: PROBE_DEVICE}
    used = {PROBE_DEVICE}
    for k in range(1, SERVE_PERSONS):
        dev = f"{rng.getrandbits(48):012X}"
        while dev in used:
            dev = f"{rng.getrandbits(48):012X}"
        used.add(dev)
        devices[f"U{k:04d}"] = dev
    persons = list(devices)
    corridors = _ring_corridors(SERVE_RING, rng)
    registry = {"persons": [{"name": n, "deviceAddress": devices[n]} for n in persons], "corridors": corridors}
    reg = load_registry(registry)
    rooms = tuple(Room(code, True) for code in SERVE_RING)

    walkers = rng.sample(persons[1:], SERVE_WALKERS)
    period = SERVE_DWELL_MS + SERVE_TRANSIT_MS
    n_wp = SERVE_SPAN_MS // period
    walks = []
    for k, name in enumerate(walkers):
        here = rng.randrange(size)
        path = [here]
        for _ in range(n_wp - 1):
            path.append((path[-1] + rng.choice((1, -1))) % size)
        walks.append(Walk(name, _timed([SERVE_RING[i] for i in path], T0 + 1 + 37 * k, SERVE_DWELL_MS, SERVE_TRANSIT_MS)))
    probe_path = [SERVE_RING[i % size] for i in range(n_wp)]
    probe_walk = Walk(PROBE, _timed(probe_path, T0, SERVE_DWELL_MS, SERVE_TRANSIT_MS))
    walkers_text, _ = generate(Scenario(rooms, reg, tuple(walks), SERVE_BROADCAST_MS, 1.0, seed))
    probe_text, _ = generate(Scenario(rooms, reg, (probe_walk,), SERVE_PROBE_BROADCAST_MS, 1.0, 0))
    records = [json.loads(x) for x in walkers_text.splitlines() + probe_text.splitlines()]
    records.sort(key=lambda r: r["t"])
    times = [r["t"] for r in records]
    if len(set(times)) != len(times):
        raise AssertionError("serve_poll records must have distinct timestamps")

    w = Workload(
        name="serve_poll",
        registry=registry,
        lines=[_line(r) for r in records],
        stats={"records": len(records), "facts": len(records), "duplicates": 0, "unknown_devices": 0, "out_of_order": 0, "malformed": 0},
        persons=persons,
        corridors=_corridor_map(corridors),
        poll_every=SERVE_POLL_EVERY,
        polled=PROBE,
    )
    probe = [(r["t"], _location(r)) for r in records if _device(r) == PROBE_DEVICE]
    for cycle in range(SERVE_POLL_EVERY, len(records) + 1, SERVE_POLL_EVERY):
        upto = times[cycle - 1]
        rs = runs([x for x in probe if x[0] <= upto])
        w.polls[cycle] = {"where_is": rs[-1], "history": rs[:-1]}
    return w


BUILDERS = {"bulk_dwell": bulk_dwell, "walks_ring": walks_ring, "serve_poll": serve_poll}


def write_inputs(w: Workload, workdir: Path) -> tuple[Path, Path]:
    workdir.mkdir(parents=True, exist_ok=True)
    reg_path = workdir / "registry.json"
    feed_path = workdir / "feed.jsonl"
    reg_path.write_text(json.dumps(w.registry), encoding="utf-8")
    feed_path.write_text("".join(x + "\n" for x in w.lines), encoding="utf-8")
    return reg_path, feed_path
