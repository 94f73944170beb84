"""Correctness reference: one content hash per knot, and output checking.

The hash covers a knot's mathematical content only: Alexander polynomial,
rank table (``groups``), genus and fiberedness.  ``reference.json`` holds
the hashes recorded from the program by ``record_reference.py``; a knot
fails when its exit code differs from the one its class implies, when a
non-informational check failed, or when its hash differs.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def content_hash(content) -> str:
    text = json.dumps(content, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def json_content(obj: dict) -> list:
    groups = [[g["s"], g["m"], g["rank"]] for g in obj["groups"]]
    return [obj["alexander"], groups, obj["genus"], obj["fibered"]]


def json_failed_checks(obj: dict) -> int:
    return sum(1 for c in obj["checks"] if not c["passed"] and not c["informational"])


def csv_knots(path: Path) -> list[tuple[str, list]]:
    """(tag:a,b,c key, content) per knot of a CSV report, in file order.

    Rows of one knot repeat the knot's columns and list its groups by
    descending s, then ascending m; a row that does not continue that
    order starts the next knot, even when both knots print the same
    triple.  The content is the Alexander string, the (s, m, rank) rows,
    genus and fiberedness as printed.
    """
    knots: list[tuple[str, list]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows, None)
        last = None
        for row in rows:
            group = (-int(row[12]), int(row[13])) if row[12] else None
            if (last is None or row[:3] != last[0] or group is None or last[1] is None
                    or group <= last[1]):
                tag, a, b, c, _, genus, fibered, _, alex = row[3:12]
                knots.append((f"{tag}:{a},{b},{c}", [alex, [], genus, fibered]))
            if group is not None:
                knots[-1][1][1].append([int(row[12]), int(row[13]), int(row[14])])
            last = (row[:3], group)
    return knots


def load() -> dict[str, dict[str, str]]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def failed_knots(invocation, exit_code: int, out_path: Path,
                 reference: dict[str, dict[str, str]]) -> int:
    """How many of the invocation's knots fail; every knot fails on a wrong exit code."""
    if exit_code != invocation.exit_code:
        return len(invocation.keys)
    expected = reference[invocation.kind]
    if invocation.kind == "json":
        with open(out_path, encoding="utf-8") as fh:
            obj = json.load(fh)
        (key,) = invocation.keys
        ok = json_failed_checks(obj) == 0 and content_hash(json_content(obj)) == expected.get(key)
        return 0 if ok else 1
    knots = csv_knots(out_path)
    if len(knots) != len(invocation.keys):
        return len(invocation.keys)
    return sum(1 for key, (got, content) in zip(invocation.keys, knots)
               if got != key or content_hash(content) != expected.get(key))
