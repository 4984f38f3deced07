"""Cardinality estimation under uniformity/independence assumptions.

Base table cardinality is estimated as the maximum distinct count over the
table's columns (the catalog carries no row counts, and key columns make the
maximum a faithful proxy). Selectivities:

  equi-join a.x = b.y        1 / max(distinct(a.x), distinct(b.y))
  t.c <  v                   (v - min) / (max - min + 1)
  t.c <= v                   (v - min + 1) / (max - min + 1)
  t.c >  v                   (max - v) / (max - min + 1)
  t.c >= v                   (max - v + 1) / (max - min + 1)
  t.c =  v                   1 / distinct(t.c)

all clamped to [0, 1]. The optimizer objective is the sum of estimated
intermediate cardinalities over a plan's join nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .catalog import Catalog, ColumnStats
from .sql import JoinPredicate, QuerySpec, Selection


@dataclass(frozen=True)
class CostModel:
    catalog: Catalog

    def base_cardinality(self, table: str) -> float:
        cols = self.catalog.columns(table)
        if not cols:
            return 0.0
        return float(max(s.distinct_count for _, s in cols))

    def selection_selectivity(self, sel: Selection) -> float:
        stats = self.catalog.column_stats(sel.table, sel.column)
        return _range_selectivity(stats, sel.op, sel.literal)

    def leaf_cardinality(self, table: str, query: QuerySpec) -> float:
        card = self.base_cardinality(table)
        for sel in query.selections:
            if sel.table == table:
                card *= self.selection_selectivity(sel)
        return card

    def join_selectivity(self, join: JoinPredicate) -> float:
        da = self.catalog.column_stats(join.table_a, join.column_a).distinct_count
        db = self.catalog.column_stats(join.table_b, join.column_b).distinct_count
        return 1.0 / max(da, db, 1)

    def estimates(self, query: QuerySpec) -> "QueryEstimates":
        """The query's estimate operands, computed once: sorted table i is bit i."""
        tables = tuple(sorted(query.tables))
        bit = {table: 1 << i for i, table in enumerate(tables)}
        joins = [(bit[j.table_a] | bit[j.table_b], self.join_selectivity(j)) for j in sorted(query.joins)]
        return QueryEstimates(tables, tuple(self.leaf_cardinality(t, query) for t in tables), tuple(joins))

    def subset_cardinality(self, tables: Iterable[str], query: QuerySpec) -> float:
        """Estimated result size of joining a connected table subset."""
        estimates = self.estimates(query)
        return estimates.cardinality(estimates.mask(tables))


@dataclass(frozen=True)
class QueryEstimates:
    """Leaf estimates of a query's sorted tables, and its sorted joins'
    selectivities with their two-bit masks."""

    tables: tuple[str, ...]
    leaves: tuple[float, ...]
    joins: tuple[tuple[int, float], ...]

    def mask(self, tables: Iterable[str]) -> int:
        return sum(1 << self.tables.index(table) for table in set(tables))

    def cardinality(self, mask: int) -> float:
        """Product over the subset's tables ascending, then its sorted joins."""
        card = 1.0
        for i, leaf in enumerate(self.leaves):
            if mask >> i & 1:
                card *= leaf
        for pair, selectivity in self.joins:
            if mask & pair == pair:
                card *= selectivity
        return card


def _range_selectivity(stats: ColumnStats, op: str, literal: int) -> float:
    width = stats.max_value - stats.min_value + 1
    if width <= 0:
        return 0.0
    if op == "<":
        fraction = (literal - stats.min_value) / width
    elif op == "<=":
        fraction = (literal - stats.min_value + 1) / width
    elif op == ">":
        fraction = (stats.max_value - literal) / width
    elif op == ">=":
        fraction = (stats.max_value - literal + 1) / width
    elif op == "=":
        fraction = 1.0 / stats.distinct_count if stats.distinct_count else 0.0
    else:
        raise ValueError(f"unsupported comparison {op!r}")
    return min(1.0, max(0.0, fraction))
