"""Correctness gate: checks on plangen's outputs that fail a benchmark run.

The checks read the artifacts directly and use none of plangen's validation
code, so a defect there cannot hide one here:

- every repeat of a workload leaves byte-identical artifacts (sha256);
- a cached rerun reports all eleven stages cached and changes no bytes;
- each query has three plan-log records, one per optimizer, whose leaves are
  exactly the query's tables and whose time_units is a positive integer;
- every served response judged valid names exactly its query's tables.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

STAGE_COUNT = 11
OPTIMIZERS = ("dp", "greedy", "random")
FINAL_ANSWER = "the final answer is:"

_FROM_RE = re.compile(r"\bFROM (.*?)(?: WHERE |;)")
_NAME_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(\()?")


class GateError(Exception):
    pass


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by its relative path."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(root).rglob("*"))
        if path.is_file()
    }


def check_identical(reference: dict[str, str], digests: dict[str, str], what: str) -> None:
    if digests != reference:
        changed = sorted(
            name for name in reference.keys() | digests.keys()
            if reference.get(name) != digests.get(name)
        )
        raise GateError(f"{what}: artifacts differ: {', '.join(changed)}")


def check_cached_rerun(statuses, before: dict[str, str], after: dict[str, str]) -> None:
    cached = [name for name, status in statuses if status == "cached"]
    if len(statuses) != STAGE_COUNT or len(cached) != STAGE_COUNT:
        raise GateError(f"cached rerun: {len(cached)} of {len(statuses)} stages cached, want {STAGE_COUNT}")
    check_identical(before, after, "cached rerun")


def sql_tables(sql: str) -> list[str]:
    match = _FROM_RE.search(sql)
    if match is None:
        raise GateError(f"no FROM list in {sql!r}")
    return sorted(name.strip() for name in match.group(1).split(","))


def bracket_leaves(bracket: str) -> list[str]:
    """Table names of a bracket plan: the names not applied to '('."""
    return sorted(m.group(1) for m in _NAME_RE.finditer(bracket) if m.group(2) is None)


def check_plan_logs(run_dir: Path) -> int:
    """Check plans_{train,test}.jsonl against {train,test}.sql; returns records seen."""
    seen = 0
    for split in ("train", "test"):
        queries = [
            line for line in (run_dir / f"{split}.sql").read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        tables = {f"q{i + 1:04d}": sql_tables(sql) for i, sql in enumerate(queries)}
        by_query: dict[str, list[dict]] = {}
        for line in (run_dir / f"plans_{split}.jsonl").read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            by_query.setdefault(record["query_id"], []).append(record)
            seen += 1
        if by_query.keys() != tables.keys():
            raise GateError(f"plans_{split}: plan logs cover {len(by_query)} of {len(tables)} queries")
        for qid, records in by_query.items():
            if sorted(r["optimizer"] for r in records) != list(OPTIMIZERS):
                raise GateError(f"plans_{split} {qid}: optimizers {[r['optimizer'] for r in records]}")
            for r in records:
                if bracket_leaves(r["bracket"]) != tables[qid]:
                    raise GateError(f"plans_{split} {qid} {r['optimizer']}: leaves differ from the query's tables")
                time_units = r["time_units"]
                if not isinstance(time_units, int) or isinstance(time_units, bool) or time_units <= 0:
                    raise GateError(f"plans_{split} {qid} {r['optimizer']}: time_units {time_units!r}")
    return seen


def check_served_plan(response: str, sql: str) -> None:
    """A response judged valid must name exactly the query's tables."""
    at = response.lower().rfind(FINAL_ANSWER)
    if at < 0:
        raise GateError(f"valid response without a final answer for {sql}")
    bracket = response[at + len(FINAL_ANSWER):].strip().rstrip(".")
    if bracket_leaves(bracket) != sql_tables(sql):
        raise GateError(f"valid plan {bracket} does not cover exactly the tables of {sql}")
