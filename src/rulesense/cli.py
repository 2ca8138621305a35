"""Command line: parse | run | query | sim.

Exit codes: 0 success, 1 diagnostics or runtime errors, 2 usage.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import lang
from .engine import FireLogWriter
from .facts import KbError
from .ingest import check_speed, load_registry, replay
from .service import QueryService, ServiceConfig, coerce_arg
from .simulator import generate, load_scenario
from .tracking import shaped_query, start_pipeline


def _speed(s: str):
    try:
        return check_speed(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _hostport(s: str) -> tuple[str, int]:
    host, sep, port = s.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {s!r}")
    try:
        n = int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad port in {s!r}") from None
    if not 0 <= n <= 65535:
        raise argparse.ArgumentTypeError(f"port out of range 0-65535 in {s!r}")
    return host, n


def _kv(s: str) -> tuple[str, str]:
    key, sep, value = s.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected key=value, got {s!r}")
    return key, value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rulesense", description="Rule-based sensor fusion: parse KBs, replay feeds, query, simulate.")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("parse", help="validate a knowledge base file")
    sp.add_argument("--kb", required=True)

    def pipeline_args(sp):
        sp.add_argument("--kb", default=None, help="KB file (default: the shipped tracking KB)")
        sp.add_argument("--registry", required=True)
        sp.add_argument("--replay", required=True)
        sp.add_argument("--speed", type=_speed, default="max")
        sp.add_argument("--delay-correction", type=int, default=0, metavar="MS")

    sr = sub.add_parser("run", help="replay a feed through the engine")
    pipeline_args(sr)
    sr.add_argument("--serve", type=_hostport, default=None, metavar="HOST:PORT")
    sr.add_argument("--firelog", default=None, metavar="FILE")

    sq = sub.add_parser("query", help="replay to completion, then print query rows as JSON")
    pipeline_args(sq)
    sq.add_argument("--query", required=True)
    sq.add_argument("--arg", type=_kv, action="append", default=[], metavar="KEY=VALUE")
    sq.add_argument("--include-dummy", action="store_true")

    ss = sub.add_parser("sim", help="generate replay + ground truth from a scenario")
    ss.add_argument("--scenario", required=True)
    ss.add_argument("--out", required=True)
    ss.add_argument("--truth", required=True)
    return p


def _cmd_parse(args) -> int:
    constructs = lang.parse_program(Path(args.kb).read_text(encoding="utf-8"))
    diags = lang.validate_program(constructs)
    for d in diags:
        print(d)
    if diags:
        return 1
    t = sum(isinstance(c, lang.TemplateDef) for c in constructs)
    r = sum(isinstance(c, lang.RuleDef) for c in constructs)
    q = sum(isinstance(c, lang.QueryDef) for c in constructs)
    print(f"ok: {t} templates, {r} rules, {q} queries")
    return 0


def _load_pipeline(args, files=None):
    """Check the pipeline flags, then start the engine on the KB and registry.
    Given `files` (an ExitStack), a `--firelog` file is opened on it and the
    fire log streams into it as entries are made."""
    if args.delay_correction < 0:
        raise ValueError("--delay-correction must be >= 0")
    kb_text = Path(args.kb).read_text(encoding="utf-8") if args.kb else None
    reg = load_registry(args.registry)
    sink = None
    if files is not None and args.firelog:
        sink = FireLogWriter(files.enter_context(open(args.firelog, "w", encoding="utf-8")))
    return start_pipeline(reg, kb_text, sink), reg


def _cmd_run(args) -> int:
    service = None
    # the fire log is complete (and closed) once the replay is done
    with contextlib.ExitStack() as files:
        engine, reg = _load_pipeline(args, files)
        if args.serve is not None:
            host, port = args.serve
            service = QueryService(engine, ServiceConfig(host, port, args.delay_correction))
            bound_host, bound_port = service.start()
            print(f"serving on http://{bound_host}:{bound_port}", file=sys.stderr)
        stats = replay(
            args.replay,
            reg,
            engine,
            speed=args.speed,
            on_cycle=(lambda _engine: service.refresh()) if service else None,
        )
    if service:
        service.refresh()
    print(json.dumps({**dataclasses.asdict(stats), "fire_counts": engine.fire_counts}))
    if service:
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            service.stop()
    return 0


def _cmd_query(args) -> int:
    engine, reg = _load_pipeline(args)
    replay(args.replay, reg, engine, speed=args.speed)
    params = {k: coerce_arg(v) for k, v in args.arg}
    rows = shaped_query(
        engine,
        args.query,
        params,
        delay_correction_ms=args.delay_correction,
        include_dummy=args.include_dummy,
    )
    print(json.dumps(rows, indent=2))
    return 0


def _cmd_sim(args) -> int:
    scenario = load_scenario(args.scenario)
    replay_text, truth_text = generate(scenario)
    Path(args.out).write_text(replay_text, encoding="utf-8")
    Path(args.truth).write_text(truth_text, encoding="utf-8")
    print(f"wrote {args.out} and {args.truth}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"parse": _cmd_parse, "run": _cmd_run, "query": _cmd_query, "sim": _cmd_sim}
    try:
        return handlers[args.cmd](args)
    except (KbError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
