"""Validation of generated responses against their queries.

Failures are classified into three non-exclusive classes:

  E1  table number mismatch   leaf count differs from the query's table count
  E2  table mismatch          leaf set differs from the query's table set
  E3  operator mismatch       structural bracket errors (unbalanced brackets,
                              unknown operators, missing/redundant operands)
                              and semantically disconnected joins (cross
                              products)

When the final answer does not parse, a best-effort identifier scan still
recovers the mentioned tables so count/set mismatches surface alongside E3.
A response with no plan is never valid: when its mentioned tables match the
query's (say, a bare bracket without the final-answer marker), it counts
as E3.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from . import plans
from .jsonl import read_jsonl
from .plans import PlanTree
from .sql import QuerySpec, parse_sql

E1_TABLE_NUMBER_MISMATCH = "E1"
E2_TABLE_MISMATCH = "E2"
E3_OPERATOR_MISMATCH = "E3"

_STRUCTURAL_ERRORS = (
    plans.UnbalancedBracket,
    plans.UnknownOperator,
    plans.MissingOperand,
    plans.RedundantOperand,
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass
class ValidationReport:
    valid: bool
    errors: set[str] = field(default_factory=set)
    detail: list[str] = field(default_factory=list)
    plan: PlanTree | None = None


def _mentioned_tables(text: str) -> list[str]:
    """Identifier scan over unparseable content; skips operator-like words.

    A word immediately followed by '(' is treated as an operator application,
    everything else as a table mention.
    """
    mentions = []
    for match in _IDENT_RE.finditer(text):
        rest = text[match.end():].lstrip()
        if rest.startswith("("):
            continue
        mentions.append(match.group(0))
    return mentions


def validate(response: str, query: QuerySpec) -> ValidationReport:
    """Classify one response against its query."""
    report = ValidationReport(valid=True)
    plan: PlanTree | None = None
    leaf_names: list[str] | None = None

    try:
        plan = plans.parse_response(response)
        leaf_names = plans.leaves(plan)
        report.plan = plan
    except _STRUCTURAL_ERRORS as exc:
        report.errors.add(E3_OPERATOR_MISMATCH)
        report.detail.append(f"{exc.code}: {exc}")
    except (plans.MissingFinalAnswer, plans.DuplicateTable) as exc:
        report.detail.append(str(exc))

    if leaf_names is None:
        marker_at = response.lower().rfind(plans.FINAL_ANSWER_MARKER)
        payload = response[marker_at + len(plans.FINAL_ANSWER_MARKER):] if marker_at >= 0 else response
        leaf_names = _mentioned_tables(payload)

    if len(leaf_names) != len(query.tables):
        report.errors.add(E1_TABLE_NUMBER_MISMATCH)
        report.detail.append(
            f"expected {len(query.tables)} tables, found {len(leaf_names)}"
        )
    if set(leaf_names) != set(query.tables):
        report.errors.add(E2_TABLE_MISMATCH)
        missing = sorted(query.tables - set(leaf_names))
        extra = sorted(set(leaf_names) - query.tables)
        if missing:
            report.detail.append(f"missing tables: {', '.join(missing)}")
        if extra:
            report.detail.append(f"unexpected tables: {', '.join(extra)}")

    if plan is None and not report.errors:
        report.errors.add(E3_OPERATOR_MISMATCH)
    elif plan is not None and not report.errors:
        cross = _find_cross_product(plan, query)
        if cross is not None:
            report.errors.add(E3_OPERATOR_MISMATCH)
            report.detail.append(f"cross product: {cross}")

    report.valid = not report.errors
    return report


def _find_cross_product(plan: PlanTree, query: QuerySpec) -> str | None:
    """Return a description of the first join node not backed by a predicate."""
    if isinstance(plan, plans.Leaf):
        return None
    left_tables = set(plans.leaves(plan.left))
    right_tables = set(plans.leaves(plan.right))
    linked = any(
        (j.table_a in left_tables and j.table_b in right_tables)
        or (j.table_a in right_tables and j.table_b in left_tables)
        for j in query.joins
    )
    if not linked:
        return f"{plan.op} over {{{', '.join(sorted(left_tables))}}} x {{{', '.join(sorted(right_tables))}}}"
    return _find_cross_product(plan.left, query) or _find_cross_product(plan.right, query)


@dataclass
class CorpusSummary:
    e1: int = 0
    e2: int = 0
    e3: int = 0
    total_invalid: int = 0
    total: int = 0

    def line(self) -> str:
        return f"E1={self.e1} E2={self.e2} E3={self.e3} total={self.total_invalid}"


def tally(reports: Iterable[ValidationReport]) -> CorpusSummary:
    """Count reports by class; a report with several errors counts once per class."""
    reports = list(reports)
    return CorpusSummary(
        e1=sum(E1_TABLE_NUMBER_MISMATCH in r.errors for r in reports),
        e2=sum(E2_TABLE_MISMATCH in r.errors for r in reports),
        e3=sum(E3_OPERATOR_MISMATCH in r.errors for r in reports),
        total_invalid=sum(not r.valid for r in reports),
        total=len(reports),
    )


def classify_corpus(responses: Iterable[tuple[str, QuerySpec]]) -> CorpusSummary:
    """Tally validate() over a corpus of (response, query) pairs."""
    return tally(validate(text, query) for text, query in responses)


def classify_corpus_file(path: str | Path) -> CorpusSummary:
    """Classify a JSON Lines file of {query_sql, response} records."""
    return classify_corpus(
        read_jsonl(
            path,
            {"query_sql": str, "response": str},
            lambda record: (record["response"], parse_sql(record["query_sql"])),
        )
    )
