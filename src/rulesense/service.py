"""JSON query service.

Read-only HTTP endpoints over working-memory snapshots:

    GET /queries/{name}?param=value   run a named query
    GET /facts[?template=name]        list facts
    GET /explain/{fact_id}            derivation tree

Handlers never touch live engine state: the ingest loop (the single writer)
publishes a fresh snapshot at each replay-cycle boundary via refresh(), and
every request reads the snapshot plus the fire-log length captured with it.
refresh() costs O(facts changed since the previous refresh): the published
view records only those changes, and is copied in full the first time a
request reads it.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from .engine import (
    Engine,
    ExplainNode,
    MissingParameter,
    NotDerived,
    UnknownParameter,
    UnknownQuery,
)
from .facts import UnknownTemplate
from .tracking import render_value, shaped_query


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0: ephemeral
    delay_correction_ms: int = 0
    include_dummy: bool = False

    def __post_init__(self):
        if self.delay_correction_ms < 0:
            raise ValueError("delay_correction_ms must be >= 0")


def coerce_arg(s: str):
    """Query-string value to slot value: integer if it parses as one, then
    float, otherwise text."""
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def explain_to_obj(node: ExplainNode) -> dict:
    return {
        "fact_id": node.fact_id,
        "template": node.template,
        "values": {k: render_value(v) for k, v in node.values.items()},
        "rule": node.rule,
        "seq": node.seq,
        "children": [explain_to_obj(c) for c in node.children],
    }


class QueryService:
    """Holds the engine, its published snapshot, and the HTTP server."""

    def __init__(self, engine: Engine, config: ServiceConfig | None = None):
        self.engine = engine
        self.config = config or ServiceConfig()
        self._lock = threading.Lock()
        self._snap = engine.snapshot()
        self._log_len = len(engine.firelog)
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def refresh(self, engine: Engine | None = None) -> None:
        """Publish the current WM as the served snapshot (writer side)."""
        eng = engine or self.engine
        snap = eng.snapshot()
        log_len = len(eng.firelog)
        with self._lock:
            self._snap = snap
            self._log_len = log_len

    def current(self):
        with self._lock:
            return self._snap, self._log_len

    # ---- request handling (called from server threads) ----

    def handle(self, path: str, query: str) -> tuple[int, dict | list]:
        snap, log_len = self.current()
        if path.startswith("/queries/"):
            qname = unquote(path[len("/queries/") :])
            params = {k: coerce_arg(vs[0]) for k, vs in parse_qs(query, keep_blank_values=True).items()}
            try:
                rows = shaped_query(
                    self.engine,
                    qname,
                    params,
                    view=snap,
                    delay_correction_ms=self.config.delay_correction_ms,
                    include_dummy=self.config.include_dummy,
                )
            except UnknownQuery as exc:
                return 404, {"error": str(exc)}
            except (MissingParameter, UnknownParameter, TypeError) as exc:
                return 400, {"error": str(exc)}
            return 200, {"query": qname, "params": params, "results": rows}
        if path == "/facts":
            params = parse_qs(query, keep_blank_values=True)
            template = params.get("template", [None])[0]
            if template is not None:
                try:
                    self.engine.templates.get(template)
                except UnknownTemplate as exc:
                    return 404, {"error": str(exc)}
            facts = snap.facts(template)
            return 200, [
                {
                    "id": f.id,
                    "template": f.template.name,
                    "values": {s: render_value(f.values[s]) for s in f.template.slots},
                }
                for f in facts
            ]
        if path.startswith("/explain/"):
            raw = path[len("/explain/") :]
            try:
                fid = int(raw)
            except ValueError:
                return 400, {"error": f"fact id must be an integer, got {raw!r}"}
            try:
                node = self.engine.explain(fid, before=log_len)
            except NotDerived as exc:
                return 404, {"error": str(exc)}
            return 200, explain_to_obj(node)
        return 404, {"error": f"no route {path}"}

    # ---- server lifecycle ----

    def start(self) -> tuple[str, int]:
        service = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (http.server API)
                parts = urlsplit(self.path)
                try:
                    status, body = service.handle(parts.path, parts.query)
                except Exception as exc:  # defensive: a handler bug must not kill the server
                    status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
                data = json.dumps(body).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json; charset=utf-8")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):  # quiet
                pass

        self._server = ThreadingHTTPServer((self.config.host, self.config.port), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, name="query-service", daemon=True)
        self._thread.start()
        host, port = self._server.server_address[:2]
        return host, port

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def query_service(engine: Engine, config: ServiceConfig | None = None) -> QueryService:
    """Construct and start a service; returns it with the bound port in
    service.bound (host, port)."""
    svc = QueryService(engine, config)
    svc.bound = svc.start()
    return svc
