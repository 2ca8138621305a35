"""Application layer over the location-tracking knowledge base.

Loads the shipped KB, wires registry + replay + engine into one pipeline, and
shapes query results into presentation rows in one place, `shaped_query`:
epoch ms alongside HH:MM:SS (UTC) on every tracking row, a configurable
broadcast-delay correction on journey durations, and bootstrap-placeholder
filtering on location history. Corrections happen here only; facts in working
memory are never adjusted.
"""

from __future__ import annotations

from datetime import datetime, timezone
from importlib import resources

from . import lang
from .engine import Engine, WmView
from .facts import Symbol
from .ingest import DUMMY_LOC, FeedStats, Registry, bootstrap, replay


def build_tracking_kb() -> str:
    """Canonical KB text shipped with the package."""
    return resources.files("rulesense").joinpath("kb/tracking.clp").read_text(encoding="utf-8")


def load_engine(kb_text: str | None = None, firelog=None) -> Engine:
    """Engine from KB text (the shipped KB by default); firelog is the
    engine's fire-log sink (see Engine)."""
    return Engine(lang.parse_program(build_tracking_kb() if kb_text is None else kb_text), firelog)


def start_pipeline(reg: Registry, kb_text: str | None = None, firelog=None) -> Engine:
    """Load KB, seed registry facts, run to quiescence: ready for a feed."""
    engine = load_engine(kb_text, firelog)
    bootstrap(engine, reg)
    engine.run()
    return engine


def run_pipeline(
    reg: Registry,
    replay_source,
    kb_text: str | None = None,
    on_cycle=None,
    firelog=None,
) -> tuple[Engine, FeedStats]:
    """start_pipeline, then replay the feed to quiescence."""
    engine = start_pipeline(reg, kb_text, firelog)
    stats = replay(replay_source, reg, engine, on_cycle=on_cycle)
    return engine, stats


# ---------------- presentation rows ----------------


def hms(ms: int) -> str:
    """HH:MM:SS rendering of an epoch-ms instant, timezone-naive UTC."""
    return datetime.fromtimestamp(ms / 1000.0, tz=timezone.utc).strftime("%H:%M:%S")


def render_value(v) -> object:
    return v.name if type(v) is Symbol else v


def _times(b: dict) -> dict:
    """The time fields of a tracking row, in row order."""
    t0, t1 = b["tStart"], b["tFinish"]
    return {"tStart": t0, "tFinish": t1, "tStart_hms": hms(t0), "tFinish_hms": hms(t1)}


def shaped_query(
    engine: Engine,
    name: str,
    arguments: dict,
    view: WmView | None = None,
    delay_correction_ms: int = 0,
    include_dummy: bool = False,
) -> list[dict]:
    """Run a named query and shape its rows for output.

    find_journeys rows copy tTaken and velocity from the facts untouched and
    add corrected_tTaken: tTaken less one broadcast delay per corridor end,
    clamped at 0. where_is and location_history rows share one form;
    location_history leaves out the registry's bootstrap placeholder rows
    unless include_dummy. Any other query gives its bindings plus the matched
    fact ids.
    """
    if delay_correction_ms < 0:
        raise ValueError("delay_correction_ms must be >= 0")
    rows = engine.run_query(name, arguments, view=view)
    if name == "find_journeys":
        return [
            {
                "name": b["name"],
                "endA": str(b["endA"]),
                "endB": str(b["endB"]),
                **_times(b),
                "distance": b["distance"],
                "tTaken": b["tTaken"],
                "velocity": b["velocity"],
                "corrected_tTaken": max(0, b["tTaken"] - 2 * delay_correction_ms),
            }
            for b in (r.bindings for r in rows)
        ]
    if name in ("where_is", "location_history"):
        hide_dummy = name == "location_history" and not include_dummy
        return [
            {"name": b["name"], "location": str(b["location"]), **_times(b)}
            for b in (r.bindings for r in rows)
            if not (hide_dummy and b["location"] == DUMMY_LOC)
        ]
    return [
        {"bindings": {k: render_value(v) for k, v in sorted(r.bindings.items())}, "fact_ids": list(r.fact_ids)}
        for r in rows
    ]
