"""Release gate: the nine checks this package must pass before shipping.

Each check is one test that prints a `CRITERION n (...): PASS` line once its
assertions hold; pytest -v adds the authoritative verdict per test. The
velocity audit (4) consumes every journey row produced by checks 1-3, so the
tests in this file must run in definition order (pytest's default).
"""

import json
import os
import random
import string
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, firelog_entries, kb_without
from naive import NaiveEngine, vkey
from rulesense import lang
from rulesense.cli import main as cli_main
from rulesense.engine import Engine, wm_to_canonical_json
from rulesense.facts import Symbol
from rulesense.ingest import load_registry
from rulesense.simulator import Room, Scenario, Walk, Waypoint, generate, true_traversals
from rulesense.tracking import build_tracking_kb, run_pipeline, shaped_query

KB_CONSTRUCTS = lang.parse_program(build_tracking_kb())

# Journey rows accumulated by criteria 1-3; criterion 4 audits them all.
JOURNEY_ROWS: list[dict] = []


def _fires(engine):
    # consumed ids as a tuple, as the naive oracle's fire sequence has them
    return [(e["rule"], tuple(e["consumed"])) for e in firelog_entries(engine) if e["rule"] is not None]


# ---------------------------------------------------------------------------
# 1. Canonical walk: 730,000,740,000,730,000,740 over corridor (730,740,20)
#    -> exactly two 730->740 traversals; three with the cyclic cleanup off.
# ---------------------------------------------------------------------------


def test_criterion_1_canonical_walk():
    t0 = time.perf_counter()
    reg = load_registry(FIXTURES / "registry_s1.json")
    engine, stats = run_pipeline(reg, FIXTURES / "s1_replay.jsonl")
    tracked = engine.facts("was-tracked")
    assert len(tracked) == 2
    assert all(
        str(f.values["endA"]) == "730" and str(f.values["endB"]) == "740" for f in tracked
    )
    loose, _ = run_pipeline(
        reg, FIXTURES / "s1_replay.jsonl", kb_text=kb_without("drop_cyclic_journeys")
    )
    assert len(loose.facts("was-tracked")) == 3
    elapsed = time.perf_counter() - t0
    assert stats.malformed == 0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    JOURNEY_ROWS.extend(shaped_query(engine, "find_journeys", {"name": "Pete"}))
    print("CRITERION 1 (canonical walk yields exactly two traversals): PASS")


# ---------------------------------------------------------------------------
# 2. Timed replay: four recorded journeys with known wall-clock sighting
#    pairs -> tTaken of 42, 39, 43, 35 seconds exactly.
# ---------------------------------------------------------------------------


def test_criterion_2_recorded_journey_times():
    t0 = time.perf_counter()
    reg = load_registry(FIXTURES / "registry_s1.json")
    engine, _ = run_pipeline(reg, FIXTURES / "timed_replay.jsonl")
    rows = shaped_query(engine, "find_journeys", {"name": "Pete"})
    assert [r["tTaken"] for r in rows] == [42000, 39000, 43000, 35000]
    assert [(r["tStart_hms"], r["tFinish_hms"]) for r in rows] == [
        ("13:30:44", "13:31:26"),
        ("13:36:21", "13:37:00"),
        ("13:59:25", "14:00:08"),
        ("14:13:41", "14:14:16"),
    ]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    JOURNEY_ROWS.extend(rows)
    print("CRITERION 2 (recorded journey times 42/39/43/35 s): PASS")


# ---------------------------------------------------------------------------
# 3. Never-underestimate bound: 100 seeded bounce walks, full line of sight,
#    2000 ms broadcasts -> true <= inferred <= true + 4000 ms, no exceptions.
# ---------------------------------------------------------------------------

_A, _B, _X = "701", "702", "709"  # two locator rooms and one blind room


def _random_scenario(k: int) -> Scenario:
    rng = random.Random(1000 + k)
    reg = load_registry(
        {
            "persons": [{"name": "Walker", "deviceAddress": "CAFE"}],
            "corridors": [
                {"enda": _A, "endb": _B, "length": rng.randint(5, 50)},
                {"enda": _B, "endb": _A, "length": rng.randint(5, 50)},
            ],
        }
    )
    t = rng.randint(0, 1999)
    wps = []
    here = rng.choice([_A, _B])
    for _ in range(rng.randint(4, 8)):
        arrive = t
        depart = arrive + rng.randint(2000, 9000)  # >= one broadcast interval
        wps.append(Waypoint(here, arrive, depart))
        t = depart + rng.randint(500, 6000)
        here = rng.choice([c for c in (_A, _B, _X) if c != here])
    return Scenario(
        rooms=(Room(_A, True), Room(_B, True), Room(_X, False)),
        registry=reg,
        walks=(Walk("Walker", tuple(wps)),),
        broadcast_interval_ms=2000,
        los_probability=1.0,
        seed=k,
    )


def test_criterion_3_never_underestimates():
    t0 = time.perf_counter()
    matched = 0
    for k in range(100):
        s = _random_scenario(k)
        replay_text, _ = generate(s)
        engine, _ = run_pipeline(s.registry, replay_text.splitlines())
        rows = shaped_query(engine, "find_journeys", {"name": "Walker"})
        truth = true_traversals(s)
        assert len(rows) == len(truth), (k, rows, truth)
        for r in rows:
            cands = [
                t
                for t in truth
                if t["endA"] == r["endA"]
                and t["endB"] == r["endB"]
                and r["tStart"] <= t["true_depart_ms"]
                and t["true_arrive_ms"] <= r["tFinish"]
            ]
            assert len(cands) == 1, (k, r, truth)
            true_ms = cands[0]["true_tTaken_ms"]
            assert true_ms <= r["tTaken"] <= true_ms + 4000, (k, r, cands[0])
            matched += 1
        JOURNEY_ROWS.extend(rows)
    elapsed = time.perf_counter() - t0
    assert matched >= 100  # the walks actually exercised the bound
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    print(f"CRITERION 3 (timing bound over 100 scenarios, {matched} traversals): PASS")


# ---------------------------------------------------------------------------
# 4. Velocity formula: every journey row above satisfies
#    velocity = distance / (tTaken / 1000) to 1e-12 relative error.
# ---------------------------------------------------------------------------


def test_criterion_4_velocity_formula():
    assert len(JOURNEY_ROWS) >= 100
    worst = 0.0
    for r in JOURNEY_ROWS:
        expected = r["distance"] / (r["tTaken"] / 1000)
        worst = max(worst, abs(r["velocity"] - expected) / abs(expected))
    assert worst <= 1e-12
    print(f"CRITERION 4 (velocity formula on {len(JOURNEY_ROWS)} rows): PASS")


# ---------------------------------------------------------------------------
# 5. Oracle equivalence: 200 seeded random working memories driven through
#    both the incremental engine and the brute-force evaluator.
# ---------------------------------------------------------------------------

_NAMES = ["Pete", "Maya"]
_DEVS = ["A1B2", "C3D4", "XXXX"]
_LOCS = ["730", "740", "000", "dummyLoc"]
_TEMPLATES = [
    "MobileTrace",
    "Person",
    "Corridor",
    "is-seen-at",
    "is-currently-at",
    "was-at",
    "was-tracked",
]


def _random_values(rng, template):
    name = rng.choice(_NAMES)
    loc = Symbol(rng.choice(_LOCS))
    t1 = rng.randrange(0, 8) * 500
    t2 = t1 + rng.randrange(0, 4) * 500
    if template == "MobileTrace":
        return {"location": loc, "address": rng.choice(_DEVS), "time": t1}
    if template == "Person":
        return {"name": name, "deviceAddress": rng.choice(_DEVS)}
    if template == "Corridor":
        ends = rng.sample(["730", "740", "000"], 2)
        return {"enda": Symbol(ends[0]), "endb": Symbol(ends[1]), "length": float(rng.randint(5, 30))}
    if template == "is-seen-at":
        return {"name": name, "location": loc, "time": t1}
    if template in ("is-currently-at", "was-at"):
        return {"name": name, "location": loc, "tStart": t1, "tFinish": t2}
    return {
        "name": name,
        "endA": loc,
        "endB": Symbol(rng.choice(_LOCS)),
        "tStart": t1,
        "tFinish": t2,
        "distance": float(rng.randint(5, 30)),
        "tTaken": t2 - t1,
        "velocity": float(rng.randint(1, 9)),
    }


def _canon_engine_wm(engine):
    return {
        f.id: (f.template.name, {s: vkey(f.values[s]) for s in f.template.slots})
        for f in engine.facts()
    }


def _canon_rows(pairs):
    return sorted(
        (ids, tuple(sorted((k, vkey(v)) for k, v in bindings.items())))
        for ids, bindings in pairs
    )


def _drive_both(seed: int):
    rng = random.Random(seed)
    eng = Engine(KB_CONSTRUCTS, firelog=[])
    ora = NaiveEngine(KB_CONSTRUCTS)
    for _ in range(rng.randint(0, 12)):
        template = rng.choice(_TEMPLATES)
        values = _random_values(rng, template)
        r_eng = eng.assert_fact(template, values)
        r_ora = ora.assert_fact(template, values)
        assert (r_ora is not None) == r_eng.created, seed
        if r_ora is not None:
            assert r_ora == r_eng.fact_id, seed
        roll = rng.random()
        if roll < 0.25 and ora.wm:
            fid = rng.choice(sorted(ora.wm))
            eng.retract_fact(fid)
            ora.retract_fact(fid)
        elif roll < 0.45 and ora.wm:
            fid = rng.choice(sorted(ora.wm))
            template = ora.wm[fid][0]
            fresh = _random_values(rng, template)
            slot = rng.choice(sorted(fresh))
            updates = {slot: fresh[slot]}
            eng_ok = ora_ok = True
            try:
                eng.modify_fact(fid, updates)
            except Exception:
                eng_ok = False
            try:
                ora.modify_fact(fid, updates)
            except KeyError:
                ora_ok = False
            assert eng_ok == ora_ok, seed
        if roll > 0.7:
            eng.run()
            ora.run()
    eng.run()
    ora.run()
    assert _fires(eng) == ora.fire_sequence, seed
    assert _canon_engine_wm(eng) == ora.canonical_wm(), seed
    for name in _NAMES:
        for q in ("find_journeys", "where_is", "location_history"):
            got = _canon_rows((r.fact_ids, r.bindings) for r in eng.run_query(q, {"name": name}))
            want = _canon_rows(ora.run_query(q, {"name": name}))
            assert got == want, (seed, q, name)


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    for seed in range(200):
        _drive_both(seed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    print("CRITERION 5 (engine vs brute-force oracle, 200 cases): PASS")


# ---------------------------------------------------------------------------
# 6. Engine semantics, five dedicated property suites (>= 100 cases each).
# ---------------------------------------------------------------------------

_WATCH = """
(deftemplate P (slot x) (slot y))
(defrule watch (P (x ?x) (y ?y)) => (bind ?z 0))
"""


def _watch_engine():
    return Engine(lang.parse_program(_WATCH), firelog=[])


@settings(max_examples=120, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10),
    data=st.data(),
)
def _refraction_property(pairs, data):
    eng = _watch_engine()
    fids = {}
    for x, y in pairs:
        res = eng.assert_fact("P", {"x": x, "y": y})
        if res.created:
            fids[(x, y)] = res.fact_id
    eng.run()
    first = _fires(eng)
    assert len(first) == len(fids)
    assert len(set(first)) == len(first)
    assert {ids for _, ids in first} == {(fid,) for fid in fids.values()}
    eng.run()
    assert _fires(eng) == first  # no second firing without a mutation
    if fids:
        target = data.draw(st.sampled_from(sorted(fids.values())))
        eng.modify_fact(target, {"x": 99})
        eng.run()
        assert _fires(eng) == first + [("watch", (target,))]


@settings(max_examples=120, deadline=None)
@given(
    vals=st.lists(
        st.one_of(
            st.integers(-3, 3),
            st.sampled_from([1.0, 2.5, -3.0]),
            st.sampled_from(["a", "b", ""]),
            st.sampled_from([Symbol("a"), Symbol("730")]),
        ),
        max_size=12,
    )
)
def _duplicate_property(vals):
    eng = Engine(lang.parse_program("(deftemplate Q (slot v))"))
    first: dict = {}
    for v in vals:
        res = eng.assert_fact("Q", {"v": v})
        k = vkey(v)
        if k in first:
            assert not res.created and res.fact_id == first[k]
        else:
            assert res.created
            first[k] = res.fact_id
    assert len(eng.facts("Q")) == len(first)
    for v in vals:
        assert not eng.assert_fact("Q", {"v": v}).created


@settings(max_examples=120, deadline=None)
@given(xs=st.lists(st.integers(0, 100), unique=True, max_size=10), data=st.data())
def _retraction_property(xs, data):
    eng = _watch_engine()
    fids = [eng.assert_fact("P", {"x": x, "y": 0}).fact_id for x in xs]
    dropped = []
    if fids:
        shuffled = data.draw(st.permutations(fids))
        dropped = shuffled[: data.draw(st.integers(0, len(fids)))]
    for fid in dropped:
        eng.retract_fact(fid)  # pending activation must die with the fact
    eng.run()
    assert {ids[0] for _, ids in _fires(eng)} == set(fids) - set(dropped)


@settings(max_examples=120, deadline=None)
@given(
    sals=st.tuples(st.integers(-20, 20), st.integers(-20, 20)).filter(lambda p: p[0] != p[1]),
    n=st.integers(1, 8),
)
def _salience_property(sals, n):
    first_sal, second_sal = sals
    text = (
        "(deftemplate P (slot x) (slot y))\n"
        f"(defrule first-rule (declare (salience {first_sal})) (P (x ?x)) => (bind ?z 0))\n"
        f"(defrule second-rule (declare (salience {second_sal})) (P (x ?x)) => (bind ?z 0))\n"
    )
    eng = Engine(lang.parse_program(text), firelog=[])
    for x in range(n):
        eng.assert_fact("P", {"x": x, "y": 0})
    eng.run()
    hi = "first-rule" if first_sal > second_sal else "second-rule"
    lo = "second-rule" if hi == "first-rule" else "first-rule"
    rules = [rule for rule, _ in _fires(eng)]
    # strict dominance: every high-salience firing precedes every low one,
    # even though later facts are more recent
    assert rules == [hi] * n + [lo] * n


@settings(max_examples=120, deadline=None)
@given(xs=st.lists(st.integers(0, 100), unique=True, min_size=1, max_size=8), data=st.data())
def _modify_property(xs, data):
    eng = _watch_engine()
    by_fid = {}
    for x in xs:
        by_fid[eng.assert_fact("P", {"x": x, "y": 0}).fact_id] = x
    eng.run()
    first = _fires(eng)
    target = data.draw(st.sampled_from(sorted(by_fid)))
    if data.draw(st.booleans()):
        updates = {"x": by_fid[target]}  # same value: still a fresh match
    else:
        updates = {"x": 1000 + data.draw(st.integers(0, 5))}
    eng.modify_fact(target, updates)
    eng.run()
    assert _fires(eng) == first + [("watch", (target,))]
    eng.modify_fact(target, {})  # empty update map is a silent no-op
    eng.run()
    assert _fires(eng) == first + [("watch", (target,))]


def test_criterion_6_refraction():
    _refraction_property()
    print("CRITERION 6 (refraction property, 120 cases): PASS")


def test_criterion_6_duplicate_rejection():
    _duplicate_property()
    print("CRITERION 6 (duplicate rejection property, 120 cases): PASS")


def test_criterion_6_retraction_cancels():
    _retraction_property()
    print("CRITERION 6 (retraction cancels activations, 120 cases): PASS")


def test_criterion_6_salience_dominates():
    _salience_property()
    print("CRITERION 6 (salience dominates recency, 120 cases): PASS")


def test_criterion_6_modify_retriggers():
    _modify_property()
    print("CRITERION 6 (modify re-triggers matching, 120 cases): PASS")


# ---------------------------------------------------------------------------
# 7. Parser conformance: clean KB, print/reparse fixpoint, 10k-round fuzz.
# ---------------------------------------------------------------------------

_FUZZ_BASE = """(deftemplate T (slot a) (slot b))

(defrule r1 (declare (salience 5)) ?f <- (T (a ?x) (b ?y)) (test (< ?x ?y))
  => (retract ?f) (assert (T (a (+ ?x 1)) (b 2.5))) (bind ?q (* ?x 3)))

(defquery q1 (declare (variables ?a)) (T (a ?a) (b ?b)))

(assert (T (a 1) (b "two")) (T (a sym) (b -3.5)))
"""

_FUZZ_CHARS = "()?\"; \n-abc019.<>=*/~&|"


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        if not text:
            break
        i = rng.randrange(len(text))
        j = min(len(text), i + rng.randint(1, 6))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            blob = "".join(rng.choice(_FUZZ_CHARS) for _ in range(rng.randint(1, 4)))
            text = text[:i] + blob + text[i:]
        elif op == 2:
            text = text[:i] + text[i:j] + text[i:]
        else:
            text = text[:i] + rng.choice(_FUZZ_CHARS) + text[i + 1 :]
    return text


def test_criterion_7_parser_conformance():
    kb_text = build_tracking_kb()
    constructs = lang.parse_program(kb_text)
    assert lang.validate_program(constructs) == []

    repo = Path(__file__).resolve().parents[1]
    kb_files = sorted(repo.rglob("*.clp"))
    assert kb_files, "no KB files found"
    for p in kb_files:
        ast = lang.parse_program(p.read_text(encoding="utf-8"))
        assert lang.parse_program(lang.format_program(ast)) == ast, p

    rng = random.Random(20260819)
    survived = errored = 0
    for i in range(10_000):
        base = kb_text if i % 10 == 0 else _FUZZ_BASE
        try:
            lang.parse_program(_mutate(rng, base))
            survived += 1
        except (lang.LexError, lang.ParseError) as exc:
            assert exc.line >= 1 and exc.column >= 1
            errored += 1
    assert survived + errored == 10_000
    print(
        f"CRITERION 7 (clean KB, print/reparse fixpoint, 10k fuzz "
        f"[{survived} parsed / {errored} positioned errors]): PASS"
    )


# ---------------------------------------------------------------------------
# 8. Determinism: identical inputs give byte-identical logs and outputs.
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path, capsys):
    reg = load_registry(FIXTURES / "registry_s1.json")
    e1, _ = run_pipeline(reg, FIXTURES / "s1_replay.jsonl", firelog=[])
    e2, _ = run_pipeline(reg, FIXTURES / "s1_replay.jsonl", firelog=[])
    assert "".join(e1.firelog) == "".join(e2.firelog)
    assert wm_to_canonical_json(e1) == wm_to_canonical_json(e2)

    base = [
        "--registry", str(FIXTURES / "registry_s1.json"),
        "--replay", str(FIXTURES / "timed_replay.jsonl"),
    ]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli_main(["run", *base, "--firelog", str(a)]) == 0
    run_out_1 = capsys.readouterr().out
    assert cli_main(["run", *base, "--firelog", str(b)]) == 0
    run_out_2 = capsys.readouterr().out
    assert a.read_bytes() == b.read_bytes()
    assert run_out_1 == run_out_2

    query = ["query", *base, "--query", "find_journeys", "--arg", "name=Pete"]
    assert cli_main(query) == 0
    q1 = capsys.readouterr().out
    assert cli_main(query) == 0
    assert q1 == capsys.readouterr().out

    outs = []
    for tag in ("x", "y"):
        out, truth = tmp_path / f"r{tag}.jsonl", tmp_path / f"t{tag}.jsonl"
        rc = cli_main(
            ["sim", "--scenario", str(FIXTURES / "s1_scenario.json"),
             "--out", str(out), "--truth", str(truth)]
        )
        assert rc == 0
        outs.append((out.read_bytes(), truth.read_bytes()))
    capsys.readouterr()
    assert outs[0] == outs[1]
    print("CRITERION 8 (byte-identical logs, query output, sim output): PASS")


# ---------------------------------------------------------------------------
# 9. Throughput smoke: 100,000 records through the full pipeline in under
#    10 s and 512 MB, measured in a fresh interpreter.
# ---------------------------------------------------------------------------

_BULK_SEGMENTS = [("100", 3000), ("000", 200), ("730", 300), ("000", 200), ("740", 300)]
_BULK_CYCLE = sum(n for _, n in _BULK_SEGMENTS)

_CHILD = textwrap.dedent(
    """
    import json, resource, sys, time
    from rulesense.ingest import load_registry
    from rulesense.tracking import run_pipeline

    reg = load_registry(sys.argv[1])
    t0 = time.perf_counter()
    engine, stats = run_pipeline(reg, sys.argv[2])
    elapsed = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # ru_maxrss keeps the peak of the process that forked this one; VmHWM
    # starts again at exec, so it is this interpreter's own peak
    own_peak_mb = peak_mb
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own_peak_mb = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    print(json.dumps({
        "elapsed_s": elapsed,
        "peak_mb": peak_mb,
        "own_peak_mb": own_peak_mb,
        "records": stats.records,
        "facts": stats.facts,
        "malformed": stats.malformed,
        "journeys": len(engine.facts("was-tracked")),
    }))
    """
)


def _bulk_segment(i: int) -> str:
    k = i % _BULK_CYCLE
    for code, n in _BULK_SEGMENTS:
        if k < n:
            return code
        k -= n
    raise AssertionError


def _write_bulk_feed(path: Path, total: int = 100_000, persons: int = 5) -> dict:
    per = total // persons
    t0 = 1_700_000_000_000
    with path.open("w", encoding="utf-8") as fh:
        for i in range(per):
            code = _bulk_segment(i)
            for p in range(persons):
                rec = {
                    "t": t0 + i * 1000 + p * 150,
                    "sensor": "rfidReader",
                    "reader_location": "R1",
                    "payload": {"tag_id": f"D{p}", "ir_code": code, "motion": True},
                }
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    return {
        "persons": [{"name": f"P{p}", "deviceAddress": f"D{p}"} for p in range(persons)],
        "corridors": [{"enda": "730", "endb": "740", "length": 20.0}],
    }


def test_criterion_9_throughput(tmp_path):
    feed = tmp_path / "bulk.jsonl"
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps(_write_bulk_feed(feed)), encoding="utf-8")
    # pytest's pythonpath setting does not reach a child interpreter
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(reg_path), str(feed)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["records"] == 100_000
    assert report["facts"] == 100_000
    assert report["malformed"] == 0
    assert report["journeys"] > 0
    assert report["elapsed_s"] < 10.0, report
    assert report["peak_mb"] < 512.0, report
    assert report["own_peak_mb"] < 512.0, report
    print(
        f"CRITERION 9 (100k records in {report['elapsed_s']:.2f}s, "
        f"{report['peak_mb']:.0f} MB peak, {report['own_peak_mb']:.0f} MB the child's own): PASS"
    )
