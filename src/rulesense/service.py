"""JSON query service.

Read-only HTTP endpoints over working-memory snapshots:

    GET /queries/{name}?param=value   run a named query
    GET /facts[?template=name]        list facts
    GET /explain/{fact_id}            derivation tree

Handlers never touch live engine state: the ingest loop (the single writer)
publishes a fresh snapshot at each replay-cycle boundary via refresh(), and
every request reads that snapshot. refresh() costs O(facts changed since the
previous refresh): the published view records only those changes, and is
copied in full the first time a request reads it.

Explain answers from the snapshot too: each fact version it holds carries its
own provenance (`Fact.why`), so a served tree stays as it was published until
the next refresh, and no fire log is read. Trees are as deep as a fact's
history; they are built and written as JSON without recursion, so depth can
not fail a request.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from . import lang
from .engine import (
    Engine,
    ExplainNode,
    MissingParameter,
    NotDerived,
    UnknownParameter,
    UnknownQuery,
    WmView,
)
from .facts import UnknownTemplate
from .tracking import render_value, shaped_query


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0: ephemeral
    delay_correction_ms: int = 0

    def __post_init__(self):
        if self.delay_correction_ms < 0:
            raise ValueError("delay_correction_ms must be >= 0")


def coerce_arg(s: str):
    """Query-string value to slot value: a number if it is one in the KB's own
    syntax (`lang.parse_number`), otherwise text."""
    n = lang.parse_number(s)
    return s if n is None else n


def explain_to_obj(node: ExplainNode) -> str:
    """The JSON text of a derivation tree: one object per node with
    `fact_id`, `template`, `values`, `rule`, `seq`, `folded` and `children`.

    A fact version several parents consumed is one shared node: if it has
    children it is written in full once, and each later occurrence as
    `{"fact_id": F, "seq": S, "repeat": true}`, so the text grows with the
    tree's edges, not exponentially with its depth. Leaves are always written
    in full. Written with an explicit stack: json.dumps recurses once per
    level, so it (like any recursive walk) fails on trees a few hundred levels
    deep.
    """
    out: list[str] = []
    written: set[int] = set()
    stack: list = [node]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        if item.children:
            if id(item) in written:
                out.append(json.dumps({"fact_id": item.fact_id, "seq": item.seq, "repeat": True}))
                continue
            written.add(id(item))
        head = json.dumps(
            {
                "fact_id": item.fact_id,
                "template": item.template,
                "values": {k: render_value(v) for k, v in item.values.items()},
                "rule": item.rule,
                "seq": item.seq,
                "folded": item.folded,
            }
        )
        out.append(head[:-1] + ', "children": [')
        stack.append("]}")
        for i in range(len(item.children) - 1, -1, -1):
            stack.append(item.children[i])
            if i:
                stack.append(", ")
    return "".join(out)


class QueryService:
    """Holds the engine, its published snapshot, and the HTTP server."""

    def __init__(self, engine: Engine, config: ServiceConfig | None = None):
        self.engine = engine
        self.config = config or ServiceConfig()
        self._lock = threading.Lock()
        self._snap = engine.snapshot()
        self._refreshes = 0
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def refresh(self) -> None:
        """Publish the current WM as the served snapshot (writer side)."""
        snap = self.engine.snapshot()
        with self._lock:
            self._snap = snap
            self._refreshes += 1

    def current(self) -> tuple[WmView, int]:
        """The served snapshot and the number of refreshes before it."""
        with self._lock:
            return self._snap, self._refreshes

    # ---- request handling (called from server threads) ----

    def handle(self, path: str, query: str) -> tuple[int, dict | list | str]:
        """(status, body): a JSON-able body, or a str that is JSON already."""
        snap, _ = self.current()
        if path.startswith("/queries/"):
            qname = unquote(path[len("/queries/") :])
            try:
                # coercion raises ValueError on a number too long to convert
                params = {k: coerce_arg(vs[0]) for k, vs in parse_qs(query, keep_blank_values=True).items()}
                rows = shaped_query(
                    self.engine,
                    qname,
                    params,
                    view=snap,
                    delay_correction_ms=self.config.delay_correction_ms,
                )
            except UnknownQuery as exc:
                return 404, {"error": str(exc)}
            except (MissingParameter, UnknownParameter, TypeError, ValueError) as exc:
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
                    "values": {s: render_value(v) for s, v in zip(f.template.slots, f.vals)},
                }
                for f in facts
            ]
        if path.startswith("/explain/"):
            raw = path[len("/explain/") :]
            try:
                # digits only: int() alone also takes "+5", " 5" and "1_0"
                if not (raw.isascii() and raw.isdigit()):
                    raise ValueError
                fid = int(raw)  # ValueError past Python's digit limit
            except ValueError:
                return 400, {"error": f"fact id must be an integer, got {raw!r}"}
            try:
                node = self.engine.explain(fid, view=snap)
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
                data = (body if type(body) is str else json.dumps(body)).encode("utf-8")
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

