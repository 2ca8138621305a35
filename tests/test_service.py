"""HTTP query service: routes, errors, and snapshot isolation."""

import http.client
import json

import pytest

from rulesense.facts import Symbol
from rulesense.service import QueryService, ServiceConfig, coerce_arg
from rulesense.tracking import run_pipeline


@pytest.fixture()
def served(registry_s1, s1_replay_path):
    engine, _ = run_pipeline(registry_s1, s1_replay_path)
    svc = QueryService(engine)
    try:
        yield svc, svc.start()[1], engine
    finally:
        svc.stop()


def get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode("utf-8"))
    finally:
        conn.close()


def test_query_endpoint_returns_journeys(served):
    _, port, _ = served
    status, body = get(port, "/queries/find_journeys?name=Pete")
    assert status == 200
    assert body["query"] == "find_journeys"
    assert body["params"] == {"name": "Pete"}
    assert [r["tTaken"] for r in body["results"]] == [4000, 4000]


def test_query_endpoint_where_is(served):
    _, port, _ = served
    status, body = get(port, "/queries/where_is?name=Pete")
    assert status == 200
    (row,) = body["results"]
    assert row["location"] == "740"


def test_query_endpoint_parameter_errors(served):
    _, port, _ = served
    status, body = get(port, "/queries/where_is")
    assert status == 400 and "name" in body["error"]
    status, body = get(port, "/queries/where_is?name=Pete&extra=1")
    assert status == 400 and "extra" in body["error"]
    # a number in KB syntax too long for Python to convert
    status, body = get(port, "/queries/where_is?name=" + "9" * 5000)
    assert status == 400 and "digits" in body["error"]


def test_query_endpoint_unknown_query(served):
    _, port, _ = served
    status, body = get(port, "/queries/does_not_exist?x=1")
    assert status == 404 and "does_not_exist" in body["error"]


def test_blank_parameter_still_runs(served):
    _, port, _ = served
    status, body = get(port, "/queries/where_is?name=")
    assert status == 200 and body["results"] == []


def test_facts_endpoint_lists_and_filters(served):
    _, port, engine = served
    status, rows = get(port, "/facts?template=was-tracked")
    assert status == 200 and len(rows) == 2
    assert rows[0]["template"] == "was-tracked"
    assert rows[0]["values"]["endA"] == "730"  # symbols rendered as plain names
    status, all_rows = get(port, "/facts")
    assert status == 200 and len(all_rows) == len(engine.facts())
    status, body = get(port, "/facts?template=NoSuch")
    assert status == 404


def test_explain_endpoint_returns_the_derivation(served):
    _, port, engine = served
    fid = engine.facts("was-tracked")[0].id
    status, tree = get(port, f"/explain/{fid}")
    assert status == 200
    assert tree["fact_id"] == fid and tree["rule"] == "find_corridor_events"
    child_templates = {c["template"] for c in tree["children"]}
    assert child_templates == {"was-at", "is-currently-at", "Corridor"}
    corridor = next(c for c in tree["children"] if c["template"] == "Corridor")
    assert corridor["rule"] is None and corridor["children"] == []


def test_explain_endpoint_errors(served):
    _, port, _ = served
    status, body = get(port, "/explain/ten")
    assert status == 400
    # int() would read these as facts 10 and 5; an id is digits only
    for raw in ("1_0", "+5"):
        status, body = get(port, f"/explain/{raw}")
        assert status == 400 and raw in body["error"]
    status, body = get(port, "/explain/99999")
    assert status == 404


def test_unknown_route(served):
    _, port, _ = served
    status, body = get(port, "/nope")
    assert status == 404


def test_snapshot_isolation_until_refresh(served):
    svc, port, engine = served
    status, rows = get(port, "/facts?template=MobileTrace")
    assert rows == []
    fid = engine.assert_fact(
        "MobileTrace", {"location": Symbol("730"), "address": "ZZZZ", "time": 1}
    ).fact_id
    _, rows = get(port, "/facts?template=MobileTrace")
    assert rows == []  # service still serves the published snapshot
    status, _ = get(port, f"/explain/{fid}")
    assert status == 404  # not derivable within the published log prefix
    svc.refresh()
    _, rows = get(port, "/facts?template=MobileTrace")
    assert [r["id"] for r in rows] == [fid]
    status, tree = get(port, f"/explain/{fid}")
    assert status == 200 and tree["rule"] is None


def test_delay_correction_config(registry_s1, s1_replay_path):
    engine, _ = run_pipeline(registry_s1, s1_replay_path)
    svc = QueryService(engine, ServiceConfig(delay_correction_ms=1500))
    try:
        _, body = get(svc.start()[1], "/queries/find_journeys?name=Pete")
        assert [r["corrected_tTaken"] for r in body["results"]] == [1000, 1000]
    finally:
        svc.stop()


def test_service_config_rejects_negative_correction():
    with pytest.raises(ValueError):
        ServiceConfig(delay_correction_ms=-1)


def test_coerce_arg_types():
    assert coerce_arg("5") == 5 and type(coerce_arg("5")) is int
    assert coerce_arg("5.5") == 5.5
    assert coerce_arg("-3") == -3
    assert coerce_arg("Pete") == "Pete"
    assert coerce_arg("") == ""
    # only the KB's own number syntax becomes a number
    for text in ("nan", "Infinity", "1_000", " 5"):
        assert coerce_arg(text) == text


def test_stop_is_idempotent(registry_s1, s1_replay_path):
    engine, _ = run_pipeline(registry_s1, s1_replay_path)
    svc = QueryService(engine)
    svc.start()
    svc.stop()
    svc.stop()
