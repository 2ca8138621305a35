"""rulesense benchmark: one workload, measured for a given time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload's inputs are made from
the seed before any measured process starts. Then rounds repeat until S
seconds have passed: each round is a fresh process (child.py) that sets up
the pipeline, replays the whole feed and serves queries, while this process
acts as the single HTTP client and checks every answer against the
generator's expectations. The last line of standard output is one JSON
object: correct, attempted, failed and metrics (end-to-end with --trace 0,
per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
ROUND_TIMEOUT_S = 150
# Passes over every person after a bulk_dwell or walks_ring replay: enough
# /queries/* and /explain requests for the traced service figures, at a few
# seconds per round.
QUERY_PASSES = {"bulk_dwell": 14, "walks_ring": 6}
EXPLAIN_PASSES = {"bulk_dwell": 1, "walks_ring": 2}
QUERIES = ("where_is", "find_journeys", "location_history")


class Round:
    """Everything one child process round produced, as seen by the client."""

    def __init__(self):
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.http_total_s = 0.0
        self.explain_nodes = 0
        self.result: dict = {}

    def get(self, port: int, path: str) -> tuple[int, object]:
        t0 = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        dt = time.perf_counter() - t0
        self.attempted += 1
        self.http_total_s += dt
        body = json.loads(data)
        if resp.status != 200 and not path.startswith("/explain/"):
            self.errors.append(f"GET {path} answered {resp.status}: {body}")
        return resp.status, body

    def explain(self, port: int, fact: dict, rules: set[str]) -> None:
        """GET the derivation of a live fact. A 500 is the known deep-chain
        fault of the renderer and counts as a failed operation."""
        status, body = self.get(port, f"/explain/{fact['id']}")
        if status == 500 and body.get("error", "").startswith("RecursionError"):
            self.failed += 1
            return
        if status != 200:
            self.errors.append(f"GET /explain/{fact['id']} answered {status}: {body}")
            return
        errs, nodes = checks.explain_tree(body, fact, rules)
        self.errors += errs
        self.explain_nodes += nodes

    def query(self, port: int, name: str, person: str) -> list[dict]:
        _, body = self.get(port, f"/queries/{name}?name={person}")
        return body.get("results", []) if isinstance(body, dict) else []

    def current_facts(self, port: int, w) -> dict[str, dict]:
        _, facts = self.get(port, "/facts?template=is-currently-at")
        self.errors += checks.one_fact_per_person(facts, w.persons)
        return {f["values"]["name"]: f for f in facts}


def poll(rnd: Round, port: int, w, cycle: int, rules: set[str]) -> None:
    """serve_poll: what an operator asks while the feed replays."""
    want = w.polls[cycle]
    person = w.polled
    rnd.errors += checks.where_is(rnd.query(port, "where_is", person), want["where_is"])
    for row in rnd.query(port, "find_journeys", person):
        rnd.errors += checks.journey_row(row, w.corridors)
    rnd.errors += checks.history(rnd.query(port, "location_history", person), want["history"])
    current = rnd.current_facts(port, w)
    if person in current:
        rnd.explain(port, current[person], rules)


def final_reads(rnd: Round, port: int, w, rules: set[str]) -> None:
    """bulk_dwell and walks_ring: read every person's results once the feed
    has replayed, then read them again and require the same answers."""
    current = rnd.current_facts(port, w)
    first: dict[tuple[str, str], list] = {}
    for p in range(QUERY_PASSES[w.name]):
        for person in w.persons:
            for q in QUERIES:
                rows = rnd.query(port, q, person)
                if p == 0:
                    first[(q, person)] = rows
                elif rows != first[(q, person)]:
                    rnd.errors.append(f"{q}({person}) changed between reads of one snapshot")
    journeys = []
    for person in w.persons:
        rnd.errors += checks.where_is(first[("where_is", person)], w.where_is[person])
        rnd.errors += checks.history(first[("location_history", person)], w.history[person])
        rows = first[("find_journeys", person)]
        if w.name == "bulk_dwell":
            rnd.errors += checks.exact_journeys(rows, w.journeys[person], w.corridors)
        journeys += rows
    if w.name == "walks_ring":
        errs, unmatched = checks.match_truth(journeys, w.truth, w.broadcast_ms, w.corridors)
        rnd.errors += errs
        rnd.attempted += len(journeys)
        rnd.failed += unmatched
    for _ in range(EXPLAIN_PASSES[w.name]):
        for person in w.persons:
            if person in current:
                rnd.explain(port, current[person], rules)


def run_round(w, plan_path: Path, stderr_path: Path, rules: set[str]) -> Round:
    rnd = Round()
    port = None
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(stderr_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(plan_path), repr(time.time())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
            env=env,
        )
        watchdog = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                word, _, rest = line.strip().partition(" ")
                if word == "READY":
                    port = int(rest)
                elif word == "POLL":
                    poll(rnd, port, w, int(rest), rules)
                    proc.stdin.write("GO\n")
                    proc.stdin.flush()
                elif word == "DONE":
                    done = json.loads(rest)
                    rnd.errors += checks.stats(done["stats"], w.stats)
                    rnd.attempted += done["stats"]["records"]
                    if not w.poll_every:
                        final_reads(rnd, port, w, rules)
                    proc.stdin.write("EXIT\n")
                    proc.stdin.flush()
                elif word == "RESULT":
                    rnd.result = json.loads(rest)
        finally:
            proc.stdin.close()
            proc.wait()
            watchdog.cancel()
            watchdog.join()
    if proc.returncode != 0 or not rnd.result:
        tail = stderr_path.read_text(encoding="utf-8")[-2000:]
        rnd.errors.append(f"measured process exited {proc.returncode}: {tail}")
    return rnd


def end_to_end(rounds: list[Round]) -> dict:
    """Each figure is taken per round, then the median over the run's rounds,
    so that one round caught in a burst of host noise does not move it."""

    def med(f):
        return statistics.median(f(r) for r in rounds)

    return {
        "setup_s": (med(lambda r: r.result["setup_s"]), "s"),
        "records_per_s": (med(lambda r: r.result["records"] / r.result["replay_s"]), "records/s"),
        "peak_rss_mb": (med(lambda r: r.result["rss_mb"]), "MB"),
    }


def per_layer(rounds: list[Round], units: dict[str, str]) -> dict:
    """Per-round medians of each layer figure named in BENCHMARK.json."""
    per_round = []
    for r in rounds:
        layers = dict(r.result["layers"])
        handled = sum(layers["service.handle_s." + k] for k in ("queries", "facts", "explain"))
        layers["service.http_s"] = r.http_total_s - handled
        layers["service.explain_nodes"] = r.explain_nodes
        per_round.append(layers)
    return {n: (statistics.median(x[n] for x in per_round), u) for n, u in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rulesense" / "__init__.py").is_file():
        print(f"error: no rulesense sources under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.setrecursionlimit(20000)  # explain trees are as deep as a person's history
    import gen

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in gen.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(gen.BUILDERS)}", file=sys.stderr)
        return 2
    w = gen.BUILDERS[args.workload](args.seed)
    # one directory per run, so that runs side by side never share inputs
    workdir = WORK / f"{args.workload}.{os.getpid()}"
    reg_path, feed_path = gen.write_inputs(w, workdir)
    plan_path = workdir / "plan.json"
    plan = {"registry": str(reg_path), "feed": str(feed_path), "records": len(w.lines), "poll_every": w.poll_every, "trace": bool(args.trace)}
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    # the client's own collector must not pause inside timed round trips
    gc.collect()
    gc.freeze()
    rules = gen.rule_names((ROOT / "src" / "rulesense" / "kb" / "tracking.clp").read_text(encoding="utf-8"))

    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        rnd = run_round(w, plan_path, workdir / "child-stderr.txt", rules)
        rounds.append(rnd)
        if rnd.result:
            r = rnd.result
            print(f"round {len(rounds)}: setup {r['setup_s']:.3f} s, {r['records'] / r['replay_s']:.1f} records/s, {r['rss_mb']:.1f} MB", file=sys.stderr)
        elapsed = time.perf_counter() - start
        # whole rounds only: stop when another would end more than half a
        # round past the run length, so runs last the run length on average
        if rnd.errors or elapsed + 0.5 * elapsed / len(rounds) > args.seconds:
            break
    errors = [e for r in rounds for e in r.errors]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    metrics = {}
    if not errors:
        if args.trace:
            metrics = per_layer(rounds, {m["name"]: m["unit"] for m in spec["per_layer"]})
        else:
            metrics = end_to_end(rounds)
    out = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    line = json.dumps(out)
    (WORK / f"{args.workload}-result-trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    if not errors:
        shutil.rmtree(workdir)  # kept after a failed check, for its logs
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
