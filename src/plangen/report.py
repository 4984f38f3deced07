"""How a run is judged: one row per test query, and the report folded from the rows.

The model plans of one query are timed over one executor memo, so a subset
that several of them join is built once; the memo is dropped with the row.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .dataset import query_ids
from .errors import PlangenError
from .executor import PlanLog, micro_execute
from .validator import ValidationReport, tally, validate


class QueryRow(NamedTuple):
    query_id: str
    times: dict[str, int | None]  # by plan source; None for an invalid model response
    checks: dict[str, ValidationReport]  # by model source


def query_rows(queries, log: PlanLog, responses: dict[str, list[str]], tables) -> list[QueryRow]:
    """The row of each query: its optimizers' times from ``log``, and each
    model source's response (one per query, in query order) validated and,
    when valid, timed."""
    rows = []
    for index, (query_id, query) in enumerate(zip(query_ids(queries), queries)):
        times: dict[str, int | None] = {t.optimizer_id: t.time for t in log[query_id]}
        checks = {}
        memo = {}  # the model plans share the query's subset results
        for source, texts in responses.items():
            check = checks[source] = validate(texts[index], query)
            if check.valid:
                times[source] = micro_execute(check.plan, query, tables, source, memo).time
            else:
                times[source] = None
        rows.append(QueryRow(query_id, times, checks))
    return rows


def nearest_rank(sorted_values, percentile: float):
    """Nearest-rank percentile over an ascending list."""
    if not sorted_values:
        raise PlangenError("no values to take a percentile of")
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def timing_summary(values) -> dict:
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "median": nearest_rank(ordered, 50),
        "p75": nearest_rank(ordered, 75),
        "p95": nearest_rank(ordered, 95),
        "p99": nearest_rank(ordered, 99),
    }


def build_report(rows: list[QueryRow], model_sources) -> dict:
    """Validity of each model source, and timing quantiles of each source
    over the queries where it has a time."""
    timings: dict[str, list[int]] = {}
    for row in rows:
        for source, time in row.times.items():
            if time is not None:
                timings.setdefault(source, []).append(time)
    validity = {}
    for source in model_sources:
        summary = tally(row.checks[source] for row in rows)
        valid = summary.total - summary.total_invalid
        validity[source] = {
            "total": summary.total,
            "valid": valid,
            "rate": valid / summary.total if summary.total else 0.0,
            "errors": {"E1": summary.e1, "E2": summary.e2, "E3": summary.e3},
        }
    return {
        "validity": validity,
        "timings": {source: timing_summary(values) for source, values in sorted(timings.items())},
    }


def format_report(report: dict) -> str:
    """Human-readable table: one row per plan source."""
    lines = []
    datasets = report.get("datasets", {})
    if datasets:
        lines.append(
            "queries: {workload} total, {train} train, {test} test; "
            "sft records: {sft_records}; preference triples: {dpo_triples}".format(**datasets)
        )
    validity = report.get("validity", {})
    for source in sorted(validity):
        v = validity[source]
        errors = v["errors"]
        lines.append(
            f"validity[{source}]: {v['valid']}/{v['total']} valid "
            f"(E1={errors['E1']} E2={errors['E2']} E3={errors['E3']})"
        )
    timings = report.get("timings", {})
    if timings:
        header = f"{'source':<10} {'Mean':>10} {'Median':>10} {'75th':>10} {'95th':>10} {'99th':>10}"
        lines.append(header)
        for source in sorted(timings):
            t = timings[source]
            lines.append(
                f"{source:<10} {t['mean']:>10.1f} {t['median']:>10} {t['p75']:>10} "
                f"{t['p95']:>10} {t['p99']:>10}"
            )
    return "\n".join(lines)
