"""Correctness checks on what the measured process answers.

Each check takes program output (decoded JSON, as the HTTP service sends it)
and the generator's expectation, and returns a list of error strings; an
empty list means the output is correct. The checks never call the engine.
"""

from __future__ import annotations

VELOCITY_REL_TOL = 1e-12


def stats(got: dict, want: dict) -> list[str]:
    return [f"FeedStats.{k} = {got.get(k)}, expected {v}" for k, v in want.items() if got.get(k) != v]


def velocity(row: dict) -> list[str]:
    expected = row["distance"] / (row["tTaken"] / 1000)
    if abs(row["velocity"] - expected) > VELOCITY_REL_TOL * abs(expected):
        return [f"velocity {row['velocity']!r} != distance / (tTaken/1000) = {expected!r} in {row}"]
    return []


def journey_row(row: dict, corridors: dict[tuple[str, str], float]) -> list[str]:
    """Properties every find_journeys row must have, truth or not."""
    errs = []
    length = corridors.get((row["endA"], row["endB"]))
    if length is None:
        errs.append(f"journey over unregistered corridor {row['endA']}->{row['endB']}")
    elif row["distance"] != length:
        errs.append(f"journey distance {row['distance']} != corridor length {length}")
    if row["tTaken"] != row["tFinish"] - row["tStart"] or row["tTaken"] <= 0:
        errs.append(f"tTaken {row['tTaken']} is not tFinish - tStart > 0 in {row}")
    return errs + velocity(row)


def exact_journeys(rows: list[dict], want: list[tuple[str, str, int, int]], corridors) -> list[str]:
    """bulk_dwell: one journey per completed 730 -> 000 -> 740 cycle, timed
    from the last 730 reading to the first 740 reading."""
    errs = []
    for r in rows:
        errs += journey_row(r, corridors)
    got = [(r["endA"], r["endB"], r["tStart"], r["tFinish"]) for r in rows]
    if got != want:
        errs.append(f"journeys {got} != expected {want}")
    return errs


def match_truth(rows: list[dict], truth: list[dict], interval_ms: int, corridors) -> tuple[list[str], int]:
    """walks_ring: match reported journeys with simulator ground truth.

    A row matches a true traversal of the same person and corridor when it
    starts at the last possible sighting before the true departure and ends
    at the first possible sighting after the true arrival, i.e. within one
    broadcast interval of each. Returns (errors, rows matching no traversal).
    Every true traversal must be matched by exactly one row with
    true_tTaken <= tTaken <= true_tTaken + 2 * interval.
    """
    errs: list[str] = []
    matched = [0] * len(truth)
    index: dict[tuple, list[int]] = {}
    for i, t in enumerate(truth):
        index.setdefault((t["person"], t["endA"], t["endB"]), []).append(i)
    unmatched = 0
    for r in rows:
        errs += journey_row(r, corridors)
        hit = None
        for i in index.get((r["name"], r["endA"], r["endB"]), ()):
            t = truth[i]
            if (
                t["true_depart_ms"] - interval_ms < r["tStart"] <= t["true_depart_ms"]
                and t["true_arrive_ms"] <= r["tFinish"] < t["true_arrive_ms"] + interval_ms
            ):
                hit = i
                break
        if hit is None:
            unmatched += 1
            continue
        matched[hit] += 1
        true_ms = truth[hit]["true_tTaken_ms"]
        if not true_ms <= r["tTaken"] <= true_ms + 2 * interval_ms:
            errs.append(f"tTaken {r['tTaken']} outside [{true_ms}, {true_ms + 2 * interval_ms}] for {truth[hit]}")
    for i, n in enumerate(matched):
        if n != 1:
            errs.append(f"true traversal {truth[i]} matched by {n} reported journeys")
    return errs, unmatched


def where_is(rows: list[dict], want: tuple[str, int, int]) -> list[str]:
    got = [(r["location"], r["tStart"], r["tFinish"]) for r in rows]
    if got != [tuple(want)]:
        return [f"where_is {got} != expected {[tuple(want)]}"]
    return []


def history(rows: list[dict], want: list[tuple[str, int, int]]) -> list[str]:
    got = [(r["location"], r["tStart"], r["tFinish"]) for r in rows]
    want = [tuple(x) for x in want]
    if got != want:
        return [f"location_history has {len(got)} rows, expected {len(want)}; first difference at {_first_diff(got, want)}"]
    return []


def _first_diff(a: list, b: list) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def one_fact_per_person(facts: list[dict], persons: list[str]) -> list[str]:
    names = sorted(f["values"]["name"] for f in facts)
    if names != sorted(persons):
        return [f"/facts?template=is-currently-at names {len(names)} facts, expected one for each of {len(persons)} persons"]
    if any(f["template"] != "is-currently-at" for f in facts):
        return ["/facts?template=is-currently-at returned another template"]
    return []


def explain_tree(tree: dict, fact: dict, rules: set[str]) -> tuple[list[str], int]:
    """A derivation tree must have the requested fact at its root with the
    values /facts shows, a KB rule on every inner node and rule null on every
    leaf. Returns (errors, node count); walks iteratively since trees are as
    deep as a person's history."""
    errs = []
    if tree.get("fact_id") != fact["id"] or tree.get("template") != fact["template"] or tree.get("values") != fact["values"]:
        errs.append(f"explain root {tree.get('fact_id')} {tree.get('values')} != requested fact {fact}")
    nodes = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        nodes += 1
        children = node.get("children", [])
        if children:
            if node.get("rule") not in rules:
                errs.append(f"inner node {node.get('fact_id')} has rule {node.get('rule')!r}, not a KB rule")
        elif node.get("rule") is not None:
            errs.append(f"leaf {node.get('fact_id')} has rule {node.get('rule')!r}, expected null")
        stack.extend(children)
    return errs[:5], nodes
