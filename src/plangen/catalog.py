"""Schemas, per-column statistics and tiny in-memory tables.

A Catalog maps table names to ordered (column, ColumnStats) lists and is the
source of every statistics string rendered into prompts. MicroTable holds the
actual integer rows the micro-executor runs over. Column values are integers
only; empty columns use the fixed [0,0,0] convention so serialization stays
total.

File formats (read through ``jsonl.read_lines``; blank lines are skipped):
  catalog file    one table per line: ``name|col:min:max:distinct|...``;
                  a line starting with ``#`` is a comment
  micro table     header line of comma-separated column names, then one
                  comma-separated integer row per line; no comments
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import PlangenError
from .jsonl import read_lines


class CatalogError(PlangenError):
    """Malformed catalog or table file, or a statistics invariant violation."""


@dataclass(frozen=True)
class ColumnStats:
    """[min, max, distinct count] for one integer column."""

    min_value: int
    max_value: int
    distinct_count: int

    def __post_init__(self):
        if self.distinct_count < 0:
            raise CatalogError(f"negative distinct count {self.distinct_count}")
        if self.distinct_count > 0 and self.min_value > self.max_value:
            raise CatalogError(
                f"min {self.min_value} exceeds max {self.max_value} with distinct > 0"
            )
        if self.distinct_count > self.max_value - self.min_value + 1:
            raise CatalogError(
                f"distinct count {self.distinct_count} exceeds value range "
                f"[{self.min_value},{self.max_value}]"
            )


EMPTY_COLUMN_STATS = ColumnStats(0, 0, 0)


@dataclass(frozen=True)
class Catalog:
    """Immutable table -> ordered [(column, stats)] map.

    Column order is significant: the serialized statistics string is
    order-sensitive and must survive load/serialize round trips.
    """

    tables: dict[str, tuple[tuple[str, ColumnStats], ...]]

    def columns(self, table: str) -> tuple[tuple[str, ColumnStats], ...]:
        try:
            return self.tables[table]
        except KeyError:
            raise CatalogError(f"unknown table {table!r}") from None

    def column_stats(self, table: str, column: str) -> ColumnStats:
        for name, stats in self.columns(table):
            if name == column:
                return stats
        raise CatalogError(f"unknown column {table}.{column}")

    def has_table(self, table: str) -> bool:
        return table in self.tables


@dataclass(frozen=True)
class MicroTable:
    """A named relation with ordered columns and integer rows."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(self.columns)) != len(self.columns):
            raise CatalogError(f"duplicate column name in table {self.name!r}")
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise CatalogError(
                    f"row {i} of table {self.name!r} has {len(row)} values, "
                    f"expected {len(self.columns)}"
                )

    def column_index(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise CatalogError(f"unknown column {self.name}.{column}") from None


def load_catalog(path: str | Path) -> Catalog:
    """Parse a pipe-delimited catalog file into a validated Catalog."""
    tables: dict[str, tuple[tuple[str, ColumnStats], ...]] = {}

    def table(line: str) -> None:
        line = line.strip()
        if line.startswith("#"):
            return
        name, *fields = (field.strip() for field in line.split("|"))
        if not name:
            raise CatalogError("missing table name")
        if name in tables:
            raise CatalogError(f"duplicate table {name!r}")
        cols: dict[str, ColumnStats] = {}
        for field in fields:
            parts = field.split(":")
            cname = parts[0].strip()
            if len(parts) != 4 or not cname:
                raise CatalogError(f"expected col:min:max:distinct, got {field!r}")
            if cname in cols:
                raise CatalogError(f"duplicate column {name}.{cname}")
            try:
                lo, hi, distinct = (int(p) for p in parts[1:])
            except ValueError:
                raise CatalogError(f"non-integer statistics in {field!r}") from None
            try:
                cols[cname] = ColumnStats(lo, hi, distinct)
            except CatalogError as exc:
                raise CatalogError(f"invalid statistics for column {name}.{cname}: {exc}") from None
        tables[name] = tuple(cols.items())

    read_lines(path, table)
    return Catalog(tables)


def load_table(path: str | Path) -> MicroTable:
    """Read a micro table file; the table name is the file stem."""
    path = Path(path)
    columns: list[str] = []

    def row(line: str) -> tuple[int, ...] | None:
        cells = line.split(",")
        if not columns:
            columns.extend(c.strip() for c in cells)
            if len(set(columns)) != len(columns):
                raise CatalogError("duplicate column name")
            return None
        if len(cells) != len(columns):
            raise CatalogError(f"row has {len(cells)} values, expected {len(columns)}")
        try:
            return tuple(int(c) for c in cells)
        except ValueError:
            raise CatalogError("non-integer cell") from None

    rows = read_lines(path, row)
    if not columns:
        raise CatalogError(f"{path}: table file is empty")
    return MicroTable(path.stem, tuple(columns), tuple(rows))


def load_tables(directory: str | Path) -> dict[str, MicroTable]:
    """Load every ``*.tbl`` file in a directory, keyed by table name."""
    paths = sorted(Path(directory).glob("*.tbl"))
    if not paths:
        reason = "no .tbl files" if Path(directory).is_dir() else "not a directory"
        raise CatalogError(f"{directory}: {reason}")
    return {path.stem: load_table(path) for path in paths}


def derive_stats(table: MicroTable) -> list[tuple[str, ColumnStats]]:
    """Exact min/max/distinct per column; empty columns yield [0,0,0]."""
    out = []
    for idx, cname in enumerate(table.columns):
        values = [row[idx] for row in table.rows]
        if not values:
            out.append((cname, EMPTY_COLUMN_STATS))
        else:
            out.append((cname, ColumnStats(min(values), max(values), len(set(values)))))
    return out


def serialize_stats(catalog: Catalog, tables: Sequence[str]) -> str:
    """Render the prompt statistics block for the named tables, in order.

    Grammar: table blocks joined by ",\\n"; each block is
    ``name (col: [min,max,distinct], col: ...)``; the whole string ends with a
    period. An empty table list yields the empty string.
    """
    if not tables:
        return ""
    blocks = []
    for name in tables:
        cols = catalog.columns(name)
        rendered = ", ".join(
            f"{cname}: [{s.min_value},{s.max_value},{s.distinct_count}]" for cname, s in cols
        )
        blocks.append(f"{name} ({rendered})")
    return ",\n".join(blocks) + "."
