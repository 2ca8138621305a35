"""Application layer over the location-tracking knowledge base.

Loads the shipped KB, wires registry + replay + engine into one pipeline, and
shapes query results into presentation rows: epoch ms alongside HH:MM:SS
(UTC), a configurable broadcast-delay correction on journey durations, and
bootstrap-placeholder filtering on location history. Corrections happen here
only; facts in working memory are never adjusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from typing import Iterable

from . import lang
from .engine import Engine, QueryRow, WmView
from .facts import Symbol
from .ingest import DUMMY_LOC, FeedStats, Registry, bootstrap, replay


def build_tracking_kb() -> str:
    """Canonical KB text shipped with the package."""
    return resources.files("rulesense").joinpath("kb/tracking.clp").read_text(encoding="utf-8")


def load_engine(kb_text: str | None = None, exclude_rules: Iterable[str] = (), firelog=None) -> Engine:
    """Engine from KB text (the shipped KB by default).

    exclude_rules drops named rules before loading; used to demonstrate
    behavior with and without the cyclic-journey cleanup. firelog is the
    engine's fire-log sink (see Engine).
    """
    if kb_text is None:
        kb_text = build_tracking_kb()
    constructs = lang.parse_program(kb_text)
    skip = set(exclude_rules)
    if skip:
        constructs = [c for c in constructs if not (isinstance(c, lang.RuleDef) and c.name in skip)]
    return Engine(constructs, firelog)


def start_pipeline(
    reg: Registry, kb_text: str | None = None, exclude_rules: Iterable[str] = (), firelog=None
) -> Engine:
    """Load KB, seed registry facts, run to quiescence: ready for a feed."""
    engine = load_engine(kb_text, exclude_rules, firelog)
    bootstrap(engine, reg)
    engine.run()
    return engine


def run_pipeline(
    reg: Registry,
    replay_source,
    kb_text: str | None = None,
    speed: float | str = "max",
    exclude_rules: Iterable[str] = (),
    pass_unknown: bool = False,
    on_cycle=None,
    firelog=None,
) -> tuple[Engine, FeedStats]:
    """start_pipeline, then replay the feed to quiescence."""
    engine = start_pipeline(reg, kb_text, exclude_rules, firelog)
    stats = replay(replay_source, reg, engine, speed=speed, pass_unknown=pass_unknown, on_cycle=on_cycle)
    return engine, stats


# ---------------- presentation rows ----------------


def hms(ms: int) -> str:
    """HH:MM:SS rendering of an epoch-ms instant, timezone-naive UTC."""
    return datetime.fromtimestamp(ms / 1000.0, tz=timezone.utc).strftime("%H:%M:%S")


def render_value(v) -> object:
    return v.name if type(v) is Symbol else v


@dataclass(frozen=True, slots=True)
class JourneyRow:
    name: str
    endA: str
    endB: str
    tStart: int
    tFinish: int
    distance: float
    tTaken: int
    velocity: float
    corrected_tTaken: int

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "endA": self.endA,
            "endB": self.endB,
            "tStart": self.tStart,
            "tFinish": self.tFinish,
            "tStart_hms": hms(self.tStart),
            "tFinish_hms": hms(self.tFinish),
            "distance": self.distance,
            "tTaken": self.tTaken,
            "velocity": self.velocity,
            "corrected_tTaken": self.corrected_tTaken,
        }


def journey_rows(rows: list[QueryRow], delay_correction_ms: int = 0) -> list[JourneyRow]:
    """find_journeys results as rows. tTaken and velocity are copied from the
    facts untouched; the correction (max 0, one broadcast delay per corridor
    end) is presentation-only."""
    if delay_correction_ms < 0:
        raise ValueError("delay_correction_ms must be >= 0")
    out = []
    for r in rows:
        b = r.bindings
        tTaken = b["tTaken"]
        out.append(
            JourneyRow(
                name=b["name"],
                endA=str(b["endA"]),
                endB=str(b["endB"]),
                tStart=b["tStart"],
                tFinish=b["tFinish"],
                distance=b["distance"],
                tTaken=tTaken,
                velocity=b["velocity"],
                corrected_tTaken=max(0, tTaken - 2 * delay_correction_ms),
            )
        )
    return out


def where_rows(rows: list[QueryRow]) -> list[dict]:
    out = []
    for r in rows:
        b = r.bindings
        out.append(
            {
                "name": b["name"],
                "location": str(b["location"]),
                "tStart": b["tStart"],
                "tFinish": b["tFinish"],
                "tStart_hms": hms(b["tStart"]),
                "tFinish_hms": hms(b["tFinish"]),
            }
        )
    return out


def history_rows(rows: list[QueryRow], include_dummy: bool = False) -> list[dict]:
    """location_history results; the registry's bootstrap placeholder rows are
    noise, kept out unless asked for."""
    out = []
    for r in rows:
        b = r.bindings
        loc = b["location"]
        if not include_dummy and type(loc) is Symbol and loc.name == DUMMY_LOC.name:
            continue
        out.append(
            {
                "name": b["name"],
                "location": str(loc),
                "tStart": b["tStart"],
                "tFinish": b["tFinish"],
                "tStart_hms": hms(b["tStart"]),
                "tFinish_hms": hms(b["tFinish"]),
            }
        )
    return out


def shaped_query(
    engine: Engine,
    name: str,
    arguments: dict,
    view: WmView | None = None,
    delay_correction_ms: int = 0,
    include_dummy: bool = False,
) -> list[dict]:
    """Run a named query and shape rows for output. The three tracking
    queries get their dedicated row forms; anything else is generic
    bindings plus the matched fact ids."""
    rows = engine.run_query(name, arguments, view=view)
    if name == "find_journeys":
        return [j.as_dict() for j in journey_rows(rows, delay_correction_ms)]
    if name == "where_is":
        return where_rows(rows)
    if name == "location_history":
        return history_rows(rows, include_dummy=include_dummy)
    return [
        {"bindings": {k: render_value(v) for k, v in sorted(r.bindings.items())}, "fact_ids": list(r.fact_ids)}
        for r in rows
    ]
