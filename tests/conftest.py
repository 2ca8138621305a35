import json
from pathlib import Path

import pytest

from rulesense import build_tracking_kb, format_program, load_registry, parse_program
from rulesense.lang import RuleDef

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def kb_text():
    return build_tracking_kb()


@pytest.fixture(scope="session")
def kb_constructs(kb_text):
    return parse_program(kb_text)


@pytest.fixture(scope="session")
def registry_s1():
    return load_registry(FIXTURES / "registry_s1.json")


@pytest.fixture(scope="session")
def s1_replay_path():
    return FIXTURES / "s1_replay.jsonl"


@pytest.fixture(scope="session")
def s1_replay_lines(s1_replay_path):
    return s1_replay_path.read_text(encoding="utf-8").splitlines()


@pytest.fixture(scope="session")
def timed_replay_path():
    return FIXTURES / "timed_replay.jsonl"


def kb_without(*rules):
    """The shipped KB's text without the named rules."""
    constructs = parse_program(build_tracking_kb())
    return format_program([c for c in constructs if not (isinstance(c, RuleDef) and c.name in rules)])


def record_line(t, code, tag="A1B2", sensor="rfidReader", reader="R1"):
    if sensor == "rfidReader":
        payload = {"tag_id": tag, "ir_code": code, "motion": True}
    else:
        payload = {"bt_address": tag}
    return json.dumps({"t": t, "sensor": sensor, "reader_location": reader, "payload": payload})


def undecodable_feed(path):
    """Write a feed to `path` and return it: 730 at t=1000, a line with a
    byte that is not UTF-8 inside its reader_location, then 740 at t=3000."""
    lines = [record_line(1000, "730"), record_line(2000, "730", reader="R?1"), record_line(3000, "740")]
    path.write_bytes("\n".join(lines).encode("utf-8").replace(b"R?1", b"R\xff1") + b"\n")
    return path


def unreadable_scenarios(directory):
    """Write two scenario files into `directory` that the JSON decoder cannot
    read, one nested deeper than it goes and one that is not UTF-8, and
    return their paths."""
    deep = directory / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    latin = directory / "latin.json"
    latin.write_bytes(b'{"rooms": "\xe9"}')
    return [deep, latin]


def firelog_entries(engine):
    """The entries of an engine's fire log, kept by a list sink, each parsed
    from its JSON line."""
    return [json.loads(line) for line in engine.firelog]
