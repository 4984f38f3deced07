"""Deterministic micro-executor supplying work-unit execution times.

A plan's time is the sum of its scans' base row counts plus, at each join,
a touch count computed from the true row counts of its two inputs:

  HashJoin       build + probe, |left| + |right|
  MergeJoin      sort charge n*ceil(log2 n) per input plus one scan of both
  NestLoopJoin   |outer| * |inner|

Those row counts do not depend on join order or operator: the rows of every
intermediate result come from one hash-join path over the query's filtered
scans, and the operator only selects the touch formula. Results are kept in
a memo keyed by the set of tables they cover, so plans of one query that
share a memo build each subset's rows once.

The total touch count stands in for wall-clock time, so threshold
comparisons downstream are exactly reproducible.

A plan log (``plans_*.jsonl``) holds one {query_id, optimizer, bracket,
time_units} record per timed plan. ``read_plan_log`` is its one reader, and
``best_timing`` the one rule for which of a query's plans is preferred: the
instruction-tuning response and the chosen side of every preference triple.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .catalog import MicroTable
from .errors import PlangenError
from .jsonl import NUMBER, read_jsonl, write_jsonl
from .plans import Leaf, PlanTree, bracket_to_tree, tree_to_bracket
from .sql import QuerySpec


class ExecutionError(PlangenError):
    pass


@dataclass(frozen=True)
class PlanTiming:
    optimizer_id: str
    plan: PlanTree
    time: int

    def __post_init__(self):
        if self.time <= 0:
            raise ExecutionError(f"non-positive execution time {self.time}")


# Each query's timed plans, keyed by query id.
PlanLog = dict[str, list[PlanTiming]]


def best_timing(timings: Sequence[PlanTiming]) -> PlanTiming:
    """Least time; a tie goes to the smaller bracket, then to the smaller
    optimizer id, so the choice never depends on the order of ``timings``."""
    return min(timings, key=lambda t: (t.time, tree_to_bracket(t.plan), t.optimizer_id))


def write_plan_log(log: PlanLog, path: str | Path) -> None:
    write_jsonl(
        (
            {"query_id": query_id, "optimizer": t.optimizer_id,
             "bracket": tree_to_bracket(t.plan), "time_units": t.time}
            for query_id in sorted(log)
            for t in log[query_id]
        ),
        path,
    )


def read_plan_log(path: str | Path) -> PlanLog:
    """Each query's timings in file order. A bad bracket, a non-positive time or
    a query's second plan from one optimizer is reported as ``path:line``."""
    log: PlanLog = {}
    trees: dict[str, PlanTree] = {}  # plan trees are frozen, so one serves every repeat

    def add(row: dict) -> None:
        timings = log.setdefault(row["query_id"], [])
        if any(t.optimizer_id == row["optimizer"] for t in timings):
            raise ExecutionError(f"second plan of {row['optimizer']!r} for {row['query_id']}")
        if row["bracket"] not in trees:
            trees[row["bracket"]] = bracket_to_tree(row["bracket"])
        timings.append(PlanTiming(row["optimizer"], trees[row["bracket"]], row["time_units"]))

    fields = {"query_id": str, "optimizer": str, "bracket": str, "time_units": NUMBER}
    read_jsonl(path, fields, add)
    return log


@dataclass
class Relation:
    """Intermediate result: (table, column) labels plus integer rows."""

    columns: list[tuple[str, str]]
    rows: list[tuple[int, ...]]

    def index_of(self, table: str, column: str) -> int:
        try:
            return self.columns.index((table, column))
        except ValueError:
            raise ExecutionError(f"column {table}.{column} not in intermediate result") from None


# Results of one query keyed by the tables they cover; valid for that query
# and those tables only.
Memo = dict[frozenset[str], Relation]


def execute_plan(
    plan: PlanTree, query: QuerySpec, data: dict[str, MicroTable], memo: Memo | None = None
) -> tuple[Relation, int]:
    """Run the plan; returns the result relation and total row touches."""
    _, relation, touches = _execute(plan, query, data, {} if memo is None else memo)
    return relation, touches


def micro_execute(
    plan: PlanTree,
    query: QuerySpec,
    data: dict[str, MicroTable],
    optimizer_id: str = "micro",
    memo: Memo | None = None,
) -> PlanTiming:
    _, touches = execute_plan(plan, query, data, memo)
    return PlanTiming(optimizer_id=optimizer_id, plan=plan, time=touches)


def _execute(plan, query, data, memo) -> tuple[frozenset[str], Relation, int]:
    if isinstance(plan, Leaf):
        covered = frozenset([plan.table])
        if covered not in memo:
            memo[covered] = _scan(plan.table, query, data)
        return covered, memo[covered], len(data[plan.table].rows)
    left_tables, left, left_touches = _execute(plan.left, query, data, memo)
    right_tables, right, right_touches = _execute(plan.right, query, data, memo)
    touches = _join_touches(plan.op, len(left.rows), len(right.rows))
    covered = left_tables | right_tables
    if covered not in memo:
        memo[covered] = _hash_join(left, right, query)
    return covered, memo[covered], left_touches + right_touches + touches


def _scan(table_name: str, query: QuerySpec, data: dict[str, MicroTable]) -> Relation:
    if table_name not in data:
        raise ExecutionError(f"missing table {table_name!r}")
    table = data[table_name]
    predicates = [
        (table.column_index(s.column), _COMPARE[s.op], s.literal)
        for s in query.selections
        if s.table == table_name
    ]
    rows = [row for row in table.rows if all(cmp(row[i], lit) for i, cmp, lit in predicates)]
    return Relation([(table_name, c) for c in table.columns], rows)


_COMPARE = {"<": operator.lt, ">": operator.gt, "=": operator.eq, "<=": operator.le, ">=": operator.ge}


def _join_keys(left: Relation, right: Relation, query: QuerySpec):
    """Index pairs for every query predicate linking the two sides."""
    left_tables = {t for t, _ in left.columns}
    right_tables = {t for t, _ in right.columns}
    pairs = []
    for j in sorted(query.joins):
        if j.table_a in left_tables and j.table_b in right_tables:
            pairs.append((left.index_of(j.table_a, j.column_a), right.index_of(j.table_b, j.column_b)))
        elif j.table_b in left_tables and j.table_a in right_tables:
            pairs.append((left.index_of(j.table_b, j.column_b), right.index_of(j.table_a, j.column_a)))
    return pairs


def _hash_join(left: Relation, right: Relation, query: QuerySpec) -> Relation:
    """Equi-join on every predicate linking the sides (a cross product if none)."""
    keys = _join_keys(left, right, query)
    columns = left.columns + right.columns
    if not keys:
        return Relation(columns, [lrow + rrow for lrow in left.rows for rrow in right.rows])
    # itemgetter of one index yields the bare value, of several a tuple;
    # both sides use the same number of indices, so their keys compare.
    left_key = operator.itemgetter(*[li for li, _ in keys])
    right_key = operator.itemgetter(*[ri for _, ri in keys])
    table: dict = {}
    for lrow in left.rows:
        table.setdefault(left_key(lrow), []).append(lrow)
    rows = [lrow + rrow for rrow in right.rows for lrow in table.get(right_key(rrow), ())]
    return Relation(columns, rows)


def _join_touches(op: str, left_rows: int, right_rows: int) -> int:
    if op == "HashJoin":
        return left_rows + right_rows
    if op == "MergeJoin":
        return _sort_charge(left_rows) + _sort_charge(right_rows) + left_rows + right_rows
    if op == "NestLoopJoin":
        return left_rows * right_rows
    raise ExecutionError(f"unknown join operator {op!r}")


def _sort_charge(n: int) -> int:
    if n <= 1:
        return 0
    return n * math.ceil(math.log2(n))
