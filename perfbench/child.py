"""The measured process: one round of one workload.

Usage: python3 child.py PLAN_JSON SPAWN_WALL_TIME

Builds the pipeline the way `rulesense run --serve` does (KB parse, engine,
registry bootstrap, query service), replays the feed, and talks to the
benchmark over stdin/stdout:

    -> READY <port>      set-up done, the service listens
    -> POLL <cycle>      the writer waits; the benchmark queries the service
    <- GO
    -> DONE <json>       replay finished; the benchmark reads the results
    <- EXIT
    -> RESULT <json>     timings, memory and (when traced) layer figures

With "trace" set in the plan, the public functions of each layer are
wrapped from here, outside the program, and their time and counts are
reported. Untraced rounds install nothing.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from rulesense import ingest, service
from rulesense.engine import Engine
from rulesense.ingest import bootstrap, load_registry, replay
from rulesense.lang import parse_program
from rulesense.service import QueryService
from rulesense.tracking import build_tracking_kb


class Tracer:
    """Sums of time and counts per layer, collected by wrappers."""

    # Python frames the wrappers add below /explain's recursive renderer: the
    # QueryService.handle wrapper and the outermost explain_to_obj wrapper.
    # The recursion limit is raised by as much, so that tracing changes no
    # response.
    EXTRA_FRAMES = 2

    def __init__(self, records_total: int):
        self.t: Counter = Counter()
        self.n: Counter = Counter()
        self.records_total = records_total

    def timed(self, key: str, fn, count: str | None = None):
        t, n = self.t, self.n
        clock = time.perf_counter

        def wrapper(*a, **kw):
            t0 = clock()
            try:
                return fn(*a, **kw)
            finally:
                t[key] += clock() - t0
                if count:
                    n[count] += 1

        return wrapper

    def install_replay(self, engine: Engine) -> None:
        t, n = self.t, self.n
        clock = time.perf_counter
        json_mod = ingest.json

        class TimedJson:
            JSONDecodeError = json_mod.JSONDecodeError

            @staticmethod
            def loads(s):
                n["ingest.records"] += 1
                t0 = clock()
                try:
                    return json_mod.loads(s)
                finally:
                    t["ingest.decode_s"] += clock() - t0

        ingest.json = TimedJson
        ingest.parse_record = self.timed("ingest.parse_s", ingest.parse_record)
        ingest.translate = self.timed("ingest.translate_s", ingest.translate)
        engine.assert_fact = self.timed("engine.assert_s", engine.assert_fact, "engine.asserts")
        run = engine.run
        tenth = self.records_total / 10

        def timed_run(*a, **kw):
            t0 = clock()
            try:
                return run(*a, **kw)
            finally:
                dt = clock() - t0
                t["engine.run_s"] += dt
                n["engine.runs"] += 1
                seen = n["ingest.records"]
                if seen <= tenth:
                    t["engine.run_s.first_tenth"] += dt
                elif seen > self.records_total - tenth:
                    t["engine.run_s.last_tenth"] += dt

        engine.run = timed_run

    def install_service(self, svc: QueryService, engine: Engine) -> None:
        t, n = self.t, self.n
        clock = time.perf_counter
        refresh = svc.refresh

        def timed_refresh(*a, **kw):
            t0 = clock()
            try:
                return refresh(*a, **kw)
            finally:
                t["service.refresh_s"] += clock() - t0
                n["service.refreshes"] += 1
                n["service.snapshot_facts"] += len(svc.current()[0])

        svc.refresh = timed_refresh
        handle = svc.handle

        def timed_handle(path, query):
            route = "queries" if path.startswith("/queries/") else "explain" if path.startswith("/explain/") else "facts"
            t0 = clock()
            try:
                return handle(path, query)
            finally:
                t["service.handle_s." + route] += clock() - t0

        svc.handle = timed_handle
        engine.run_query = self.timed("engine.query_s", engine.run_query)
        engine.explain = self.timed("engine.explain_s", engine.explain)
        render = service.explain_to_obj

        def timed_render(node):
            # the renderer recurses through the module global: let inner
            # calls reach it directly so only the outermost call is timed
            service.explain_to_obj = render
            t0 = clock()
            try:
                return render(node)
            finally:
                t["service.render_s"] += clock() - t0
                service.explain_to_obj = timed_render

        service.explain_to_obj = timed_render
        sys.setrecursionlimit(sys.getrecursionlimit() + self.EXTRA_FRAMES)

    def replay_done(self, replay_s: float, waits_s: float, stats) -> None:
        """Close the replay's books: loop self time is what is left of the
        replay once every timed call and every poll wait inside it is gone."""
        t = self.t
        inner = sum(t[k] for k in ("ingest.decode_s", "ingest.parse_s", "ingest.translate_s", "engine.assert_s", "engine.run_s", "service.refresh_s"))
        t["ingest.loop_self_s"] = replay_s - waits_s - inner
        self.n["ingest.rejected"] = stats.records - stats.facts
        self.facts = stats.facts

    def report(self, engine: Engine) -> dict:
        t, n = self.t, self.n
        fires = Counter(e.rule for e in engine.firelog if e.rule is not None)
        out = dict(t)
        out.update(n)
        out["engine.fires"] = sum(fires.values())
        out["engine.fires_per_fact"] = out["engine.fires"] / self.facts
        for rule in engine.rule_names:
            out["engine.fires." + rule] = fires[rule]
        out["engine.firelog_entries"] = len(engine.firelog)
        out["engine.wm_facts"] = len(engine.facts())
        return out


def _send(msg: str) -> None:
    sys.stdout.write(msg + "\n")
    sys.stdout.flush()


def _expect(word: str) -> None:
    line = sys.stdin.readline().strip()
    if line != word:
        raise SystemExit(f"expected {word!r} from the benchmark, got {line!r}")


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    spawned = float(sys.argv[2])
    tracer = Tracer(plan["records"]) if plan["trace"] else None
    clock = time.perf_counter

    t0 = clock()
    constructs = parse_program(build_tracking_kb())
    t1 = clock()
    engine = Engine(constructs)
    t2 = clock()
    reg = load_registry(plan["registry"])
    bootstrap(engine, reg)
    engine.run()
    t3 = clock()
    svc = QueryService(engine)
    _, port = svc.start()
    setup_s = time.time() - spawned

    poll_every = plan["poll_every"]
    if tracer:
        tracer.t.update({"lang.parse_s": t1 - t0, "engine.build_s": t2 - t1, "ingest.bootstrap_s": t3 - t2})
        tracer.install_service(svc, engine)
        tracer.install_replay(engine)
    _send(f"READY {port}")
    cycles = 0
    waits = 0.0

    def on_cycle(_engine):
        nonlocal cycles, waits
        svc.refresh()
        cycles += 1
        if cycles % poll_every == 0:
            w0 = clock()
            _send(f"POLL {cycles}")
            _expect("GO")
            waits += clock() - w0

    r0 = clock()
    stats = replay(plan["feed"], reg, engine, on_cycle=on_cycle if poll_every else None)
    replay_s = clock() - r0
    if tracer:
        tracer.replay_done(replay_s, waits, stats)
    if not poll_every:
        svc.refresh()
    _send("DONE " + json.dumps({"stats": dataclasses.asdict(stats)}))
    _expect("EXIT")
    svc.stop()
    result = {
        "setup_s": setup_s,
        "replay_s": replay_s - waits,
        "records": stats.records,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = tracer.report(engine)
    _send("RESULT " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
