"""Random workload generation over a join graph.

A join graph is the set of allowed equi-join edges. Queries are built by a
uniform random walk: pick a starting table, then repeatedly follow a random
edge from the tables gathered so far to a new table. Each non-starting table
independently receives one selection predicate with probability 0.5 (column
uniform, operator uniform over < and >, literal uniform in the column's
[min, max] range). Everything is a pure function of (inputs, seed).

Join graph file: one ``t1.c1 = t2.c2`` line per edge; blank lines and lines
starting with ``#`` are skipped.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace
from pathlib import Path

from .catalog import Catalog
from .errors import PlangenError
from .jsonl import read_lines
from .sql import JoinPredicate, QuerySpec, Selection, render_sql

_EDGE_RE = re.compile(
    r"^\s*(\w+)\.(\w+)\s*=\s*(\w+)\.(\w+)\s*$"
)


class WorkloadError(PlangenError):
    pass


def load_join_graph(path: str | Path) -> list[JoinPredicate]:
    def edge(line: str) -> JoinPredicate | None:
        if line.strip().startswith("#"):
            return None
        match = _EDGE_RE.match(line)
        if match is None:
            raise WorkloadError(f"bad join edge {line.strip()!r}")
        ta, ca, tb, cb = match.groups()
        if ta == tb:
            raise WorkloadError("self-join edge")
        return JoinPredicate.normalized(ta, ca, tb, cb)

    return read_lines(path, edge)


def graph_tables(join_graph: list[JoinPredicate]) -> list[str]:
    tables = set()
    for edge in join_graph:
        tables.update(edge.tables())
    return sorted(tables)


def gen_workload(
    catalog: Catalog,
    join_graph: list[JoinPredicate],
    n_joins: int,
    count: int,
    seed: int,
) -> list[QuerySpec]:
    """Generate ``count`` queries with exactly ``n_joins`` joins each."""
    tables = graph_tables(join_graph)
    if n_joins >= len(tables):
        raise WorkloadError(
            f"n_joins={n_joins} needs more than the {len(tables)} tables in the join graph"
        )
    for table in tables:
        if not catalog.has_table(table):
            raise WorkloadError(f"join graph references unknown table {table!r}")

    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        queries.append(_gen_query(catalog, join_graph, tables, n_joins, rng))
    return queries


def _gen_query(
    catalog: Catalog,
    join_graph: list[JoinPredicate],
    tables: list[str],
    n_joins: int,
    rng: random.Random,
) -> QuerySpec:
    start = rng.choice(tables)
    chosen = [start]
    joins: list[JoinPredicate] = []
    for _ in range(n_joins):
        frontier = [
            (edge, new)
            for edge in join_graph
            for inside, new in ((edge.table_a, edge.table_b), (edge.table_b, edge.table_a))
            if inside in chosen and new not in chosen
        ]
        if not frontier:
            raise WorkloadError(f"join graph too sparse to extend past {sorted(chosen)}")
        edge, new = frontier[rng.randrange(len(frontier))]
        chosen.append(new)
        joins.append(
            JoinPredicate.normalized(edge.table_a, edge.column_a, edge.table_b, edge.column_b)
        )

    selections = []
    for table in chosen[1:]:
        if rng.random() < 0.5:
            columns = catalog.columns(table)
            cname, stats = columns[rng.randrange(len(columns))]
            op = rng.choice(("<", ">"))
            literal = rng.randint(stats.min_value, stats.max_value)
            selections.append(Selection(table, cname, op, literal))

    # The canonical form, equal to what reloading the rendered text produces.
    spec = QuerySpec(
        tables=frozenset(chosen),
        from_order=tuple(sorted(chosen)),
        joins=frozenset(joins),
        selections=tuple(sorted(selections)),
        raw_sql="",
    )
    return replace(spec, raw_sql=render_sql(spec))
