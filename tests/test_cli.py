"""End-to-end coverage of the rulesense command line."""

import argparse
import http.client
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, kb_without, undecodable_feed, unreadable_scenarios
from rulesense.cli import _build_parser, main
from rulesense.tracking import build_tracking_kb


def run_cli(*argv):
    return main(list(argv))


def child_env() -> dict:
    """The environment for a child interpreter that imports this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# --- parse ---------------------------------------------------------------


def test_parse_accepts_the_shipped_kb(tmp_path, capsys):
    kb = tmp_path / "kb.clp"
    kb.write_text(build_tracking_kb(), encoding="utf-8")
    assert run_cli("parse", "--kb", str(kb)) == 0
    out = capsys.readouterr().out
    assert out.strip() == "ok: 7 templates, 6 rules, 3 queries"


def test_parse_prints_diagnostics_and_fails(tmp_path, capsys):
    kb = tmp_path / "bad.clp"
    kb.write_text("(defrule r (NoSuch (a 1)) => )\n", encoding="utf-8")
    assert run_cli("parse", "--kb", str(kb)) == 1
    out = capsys.readouterr().out
    assert "r: unknown-template" in out


def test_parse_syntax_error_goes_to_stderr(tmp_path, capsys):
    kb = tmp_path / "broken.clp"
    kb.write_text("(defrule oops\n", encoding="utf-8")
    assert run_cli("parse", "--kb", str(kb)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_parse_reports_a_long_integer_with_its_position(tmp_path, capsys):
    kb = tmp_path / "long.clp"
    kb.write_text("(deftemplate A (slot n))\n(assert (A (n " + "9" * 5000 + ")))\n", encoding="utf-8")
    assert run_cli("parse", "--kb", str(kb)) == 1
    assert capsys.readouterr().err.startswith("error: 2:15: integer literal too long")


def test_parse_missing_file(tmp_path, capsys):
    assert run_cli("parse", "--kb", str(tmp_path / "nope.clp")) == 1
    assert "error:" in capsys.readouterr().err


def test_parse_prints_diagnostics_in_source_order_under_any_hash_seed(tmp_path):
    kb = tmp_path / "unbound.clp"
    kb.write_text("(deftemplate T (slot a))\n(defrule r (T) (test (< ?aa ?bb ?cc ?dd)) => )\n", encoding="utf-8")
    # the hash seed is fixed when an interpreter starts, so each seed needs its own child
    env = child_env()
    outputs = set()
    for seed in range(5):
        proc = subprocess.run(
            [sys.executable, "-m", "rulesense.cli", "parse", "--kb", str(kb)],
            env={**env, "PYTHONHASHSEED": str(seed)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        outputs.add(proc.stdout)
    assert outputs == {
        "".join(f"r: unbound-variable: ?{v} is not bound by an earlier pattern\n" for v in ("aa", "bb", "cc", "dd"))
    }


# --- usage errors --------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["parse"],  # missing --kb
        ["query", "--registry", "r", "--replay", "f"],  # missing --query
        ["run", "--registry", "r", "--replay", "f", "--speed", "fast"],
        ["run", "--registry", "r", "--replay", "f", "--speed", "0"],
        ["run", "--registry", "r", "--replay", "f", "--serve", "nocolon"],
        ["query", "--registry", "r", "--replay", "f", "--query", "q", "--arg", "noequals"],
        ["run", "--registry", "r", "--replay", "f", "--speed", "nan"],
        ["run", "--registry", "r", "--replay", "f", "--serve", "127.0.0.1:70000"],
        ["run", "--registry", "r", "--replay", "f", "--serve", "127.0.0.1:-1"],
        ["run", "--registry", "r", "--replay", "f", "--serve", "127.0.0.1:abc"],
        ["query", "--registry", "r", "--replay", "f", "--query", "q", "--speed", "2"],  # run only
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# --- query ---------------------------------------------------------------


def s1_args():
    return [
        "--registry", str(FIXTURES / "registry_s1.json"),
        "--replay", str(FIXTURES / "s1_replay.jsonl"),
    ]


def test_query_prints_journeys(capsys):
    rc = run_cli("query", *s1_args(), "--query", "find_journeys", "--arg", "name=Pete")
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["tTaken"] for r in rows] == [4000, 4000]
    assert all(r["velocity"] == 5.0 for r in rows)


def test_query_applies_delay_correction(capsys):
    rc = run_cli(
        "query", *s1_args(), "--query", "find_journeys",
        "--arg", "name=Pete", "--delay-correction", "1500",
    )
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["corrected_tTaken"] for r in rows] == [1000, 1000]


def test_query_rejects_negative_correction(capsys):
    rc = run_cli(
        "query", *s1_args(), "--query", "find_journeys",
        "--arg", "name=Pete", "--delay-correction", "-5",
    )
    assert rc == 1
    assert "delay-correction" in capsys.readouterr().err


def test_query_exclude_rule_changes_the_answer(tmp_path, capsys):
    # the shipped KB without its cycle cleanup, given through --kb
    kb = tmp_path / "loose.clp"
    kb.write_text(kb_without("drop_cyclic_journeys"), encoding="utf-8")
    rc = run_cli(
        "query", *s1_args(), "--kb", str(kb), "--query", "find_journeys", "--arg", "name=Pete",
    )
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 3


def test_query_a_person_whose_name_python_reads_as_a_number(tmp_path, capsys):
    registry = tmp_path / "registry.json"
    registry.write_text(
        json.dumps(
            {
                "persons": [{"name": "Infinity", "deviceAddress": "A1B2"}],
                "corridors": [{"enda": "730", "endb": "740", "length": 20.0}],
            }
        ),
        encoding="utf-8",
    )
    rc = run_cli(
        "query", "--registry", str(registry), "--replay", str(FIXTURES / "s1_replay.jsonl"),
        "--query", "where_is", "--arg", "name=Infinity",
    )
    assert rc == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert (row["name"], row["location"]) == ("Infinity", "740")


def test_query_unknown_name_fails_cleanly(capsys):
    rc = run_cli("query", *s1_args(), "--query", "no_such_query")
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["9" * 5000, "1e400"])
def test_query_argument_json_cannot_hold_fails_cleanly(capsys, value):
    # too many digits to convert, or a float that overflows to infinity
    rc = run_cli("query", *s1_args(), "--query", "where_is", "--arg", f"name={value}")
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


# --- run -----------------------------------------------------------------


def test_run_emits_stats_and_firelog(tmp_path, capsys):
    log = tmp_path / "fires.jsonl"
    rc = run_cli("run", *s1_args(), "--firelog", str(log))
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["records"] == 7
    assert stats["facts"] == 7
    assert stats["records"] == (
        stats["facts"] + stats["duplicates"] + stats["unknown_devices"]
        + stats["out_of_order"] + stats["malformed"]
    )
    lines = log.read_text(encoding="utf-8").splitlines()
    assert lines and all(json.loads(ln) for ln in lines)


def test_run_counts_a_line_that_is_not_utf8_as_malformed(tmp_path, capsys):
    feed = undecodable_feed(tmp_path / "feed.jsonl")
    assert run_cli("run", "--registry", str(FIXTURES / "registry_s1.json"), "--replay", str(feed)) == 0
    stats = json.loads(capsys.readouterr().out)
    assert (stats["records"], stats["facts"], stats["malformed"]) == (3, 2, 1)


def test_run_streams_the_golden_firelog(tmp_path, capsys):
    log = tmp_path / "fires.jsonl"
    assert run_cli("run", *s1_args(), "--firelog", str(log)) == 0
    golden = (FIXTURES / "s1_firelog.jsonl").read_bytes()
    assert log.read_bytes() == golden
    # the report counts every rule's fires, logged or not
    entries = [json.loads(ln) for ln in golden.decode("utf-8").splitlines()]
    counts = json.loads(capsys.readouterr().out)["fire_counts"]
    assert counts == {r: sum(e["rule"] == r for e in entries) for r in counts}
    assert sum(counts.values()) == sum(e["rule"] is not None for e in entries)
    assert list(counts) == [
        "seen_at", "was_at", "update_current_loc", "find_corridor_events",
        "drop_cyclic_journeys", "sweep_stale_sightings",
    ]


def test_run_firelog_is_identical_under_any_hash_seed(tmp_path):
    # Symbols hash by identity, and str hashes change with the seed: neither
    # may reach the log. The seed is fixed when an interpreter starts, so
    # each seed needs its own child.
    env = child_env()
    logs = []
    for seed in ("0", "1", "4242"):
        log = tmp_path / f"fires-{seed}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "rulesense.cli", "run", *s1_args(), "--firelog", str(log)],
            env={**env, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        logs.append(log.read_bytes())
    assert logs[0] != b""
    assert logs == [logs[0]] * 3


def test_run_serves_the_replayed_feed_until_interrupted(capsys):
    assert run_cli("query", *s1_args(), "--query", "where_is", "--arg", "name=Pete") == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows
    proc = subprocess.Popen(
        [sys.executable, "-m", "rulesense.cli", "run", *s1_args(), "--serve", "127.0.0.1:0"],
        env={**child_env(), "PYTHONUNBUFFERED": "1"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        served = re.fullmatch(r"serving on http://127\.0\.0\.1:(\d+)\n", proc.stderr.readline())
        assert served
        # the stats line comes once the replay is done and published
        assert json.loads(proc.stdout.readline())["records"] == 7
        conn = http.client.HTTPConnection("127.0.0.1", int(served[1]), timeout=30)
        try:
            conn.request("GET", "/queries/where_is?name=Pete")
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["results"] == rows
        finally:
            conn.close()
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def test_run_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli("run", *s1_args(), "--firelog", str(a)) == 0
    first = capsys.readouterr().out
    assert run_cli("run", *s1_args(), "--firelog", str(b)) == 0
    second = capsys.readouterr().out
    assert first == second
    assert a.read_bytes() == b.read_bytes()


# --- sim -----------------------------------------------------------------


def test_sim_regenerates_the_s1_fixtures(tmp_path, capsys):
    out = tmp_path / "replay.jsonl"
    truth = tmp_path / "truth.jsonl"
    rc = run_cli(
        "sim", "--scenario", str(FIXTURES / "s1_scenario.json"),
        "--out", str(out), "--truth", str(truth),
    )
    assert rc == 0
    assert out.read_bytes() == (FIXTURES / "s1_replay.jsonl").read_bytes()
    assert truth.read_bytes() == (FIXTURES / "s1_truth.jsonl").read_bytes()
    assert "wrote" in capsys.readouterr().err


def test_sim_missing_scenario(tmp_path, capsys):
    rc = run_cli(
        "sim", "--scenario", str(tmp_path / "no.json"),
        "--out", str(tmp_path / "o"), "--truth", str(tmp_path / "t"),
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_sim_reports_a_scenario_the_decoder_cannot_read(tmp_path, capsys):
    for path in unreadable_scenarios(tmp_path):
        rc = run_cli(
            "sim", "--scenario", str(path),
            "--out", str(tmp_path / "o"), "--truth", str(tmp_path / "t"),
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unreadable scenario: ") and "Traceback" not in err


# --- docs ----------------------------------------------------------------


def test_readme_cli_section_names_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        o
        for sp in commands.choices.values()
        for a in sp._actions
        for o in a.option_strings
        if o.startswith("--") and o != "--help"
    }
    assert documented == flags
