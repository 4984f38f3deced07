"""Parser and unparser for the supported SQL subset.

Accepted queries are ``SELECT * FROM t1, t2, ... WHERE <conjuncts>;`` where
every conjunct is either an equi-join ``a.x = b.y`` between two distinct
tables or an integer comparison ``t.c <op> <literal>`` with op one of
< > = <= >=. Aliases, self-joins, OR/IN/LIKE, projections and non-integer
literals are rejected loudly. The join graph must be connected.

The text is lexed in one ``finditer`` pass into (kind, text, offset) tokens
ending in an ``eof`` token; a character no token starts with is an error
before any parse error. The parser then walks that list by index.
"""

from __future__ import annotations

import hashlib
import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterable

from .errors import PlangenError

COMPARISON_OPS = ("<=", ">=", "<", ">", "=")


class SqlError(PlangenError):
    """Base for parse failures."""


class SqlSyntaxError(SqlError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class SqlSemanticError(SqlError):
    pass


@dataclass(frozen=True, order=True)
class JoinPredicate:
    """Equi-join between two distinct tables, stored in canonical order."""

    table_a: str
    column_a: str
    table_b: str
    column_b: str

    @staticmethod
    def normalized(ta: str, ca: str, tb: str, cb: str) -> "JoinPredicate":
        if (ta, ca) <= (tb, cb):
            return JoinPredicate(ta, ca, tb, cb)
        return JoinPredicate(tb, cb, ta, ca)

    def render(self) -> str:
        return f"{self.table_a}.{self.column_a} = {self.table_b}.{self.column_b}"

    def tables(self) -> tuple[str, str]:
        return (self.table_a, self.table_b)


@dataclass(frozen=True, order=True)
class Selection:
    table: str
    column: str
    op: str
    literal: int

    def render(self) -> str:
        return f"{self.table}.{self.column} {self.op} {self.literal}"


@dataclass(frozen=True)
class QuerySpec:
    """A parsed query: table set, equi-joins, integer selections.

    ``from_order`` preserves the original FROM-list order, which drives the
    statistics block order in prompts. Canonical rendering sorts instead.
    """

    tables: frozenset[str]
    from_order: tuple[str, ...]
    joins: frozenset[JoinPredicate]
    selections: tuple[Selection, ...]
    raw_sql: str

    def conjuncts(self) -> list[str]:
        rendered = [j.render() for j in self.joins] + [s.render() for s in self.selections]
        return sorted(rendered)


@dataclass(frozen=True)
class QueryTemplate:
    """Tables plus join predicates with selections erased."""

    tables: frozenset[str]
    joins: frozenset[JoinPredicate]

    def key(self) -> str:
        parts = [",".join(sorted(self.tables))]
        parts.extend(sorted(j.render() for j in self.joins))
        return "|".join(parts)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>-?\d+(?:\.\d+)?)"
    r"|(?P<op><=|>=|<|>|=)"
    r"|(?P<punct>[,.;*()])"
    r"|(?P<other>\S))"
)


def _lex(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of every token, then an ``eof`` token."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "other":
            raise SqlSyntaxError(f"unexpected character {match[kind]!r}", match.start())
        tokens.append((kind, match[kind], match.start(kind)))
    tokens.append(("eof", "", len(text)))
    return tokens


def parse_sql(text: str) -> QuerySpec:
    """Parse one query of the supported subset into a QuerySpec."""
    tokens = _lex(text)
    i = 0

    def take(kind: str, expected: str, value: str | None = None) -> str:
        """The next token's text, which must be of ``kind`` and, if given,
        ``value`` (a keyword in any case); the index moves past it."""
        nonlocal i
        tkind, tvalue, pos = tokens[i]
        if tkind != kind or (value is not None and tvalue.upper() != value):
            raise SqlSyntaxError(f"expected {expected}, got {tvalue!r}", pos)
        i += 1
        return tvalue

    take("word", "SELECT", "SELECT")
    kind, value, _ = tokens[i]
    if kind != "punct" or value != "*":
        raise SqlSemanticError(f"only SELECT * heads are supported, got {value!r}")
    i += 1
    take("word", "FROM", "FROM")

    from_order: list[str] = []
    while True:
        kind, value, pos = tokens[i]
        if kind == "word" and value.upper() in ("WHERE", "SELECT", "FROM", "AND"):
            raise SqlSyntaxError(f"expected table name, got keyword {value!r}", pos)
        table = take("word", "table name")
        if table in from_order:
            raise SqlSemanticError(f"table {table!r} listed twice (self-joins unsupported)")
        from_order.append(table)
        kind, value, _ = tokens[i]
        if kind == "word" and value.upper() != "WHERE":
            raise SqlSemanticError(f"table aliases are unsupported (near {value!r})")
        if kind != "punct" or value != ",":
            break
        i += 1

    tables = frozenset(from_order)
    joins: set[JoinPredicate] = set()
    selections: list[Selection] = []
    connective = "WHERE"  # before the first conjunct, then AND
    kind, value, _ = tokens[i]
    while kind == "word" and value.upper() == connective:
        i += 1
        connective = "AND"
        table = take("word", "predicate")
        take("punct", "'.'", ".")
        column = take("word", "column name")
        if table not in tables:
            raise SqlSemanticError(f"predicate references unknown table {table!r}")
        op = take("op", "comparison operator")
        kind, value, pos = tokens[i]
        i += 1
        if kind == "word":
            take("punct", "'.'", ".")
            rtable, rcolumn = value, take("word", "column name")
            if rtable not in tables:
                raise SqlSemanticError(f"predicate references unknown table {rtable!r}")
            if op != "=":
                raise SqlSemanticError(f"non-equi join {table}.{column} {op} {rtable}.{rcolumn}")
            if rtable == table:
                raise SqlSemanticError(f"self-join on table {table!r} is unsupported")
            joins.add(JoinPredicate.normalized(table, column, rtable, rcolumn))
        elif kind == "number":
            if "." in value:
                raise SqlSemanticError(f"non-integer literal {value!r}")
            selections.append(Selection(table, column, op, int(value)))
        else:
            raise SqlSyntaxError(f"expected column reference or integer, got {value!r}", pos)
        kind, value, _ = tokens[i]
        if kind == "word" and value.upper() in ("OR", "IN", "LIKE", "NOT", "BETWEEN"):
            raise SqlSemanticError(f"unsupported construct {value!r}")

    take("punct", "';'", ";")
    kind, value, pos = tokens[i]
    if kind != "eof":
        raise SqlSyntaxError(f"trailing input {value!r}", pos)

    _check_connected(tables, joins)
    return QuerySpec(
        tables=tables,
        from_order=tuple(from_order),
        joins=frozenset(joins),
        selections=tuple(sorted(selections)),
        raw_sql=text,
    )


_MEMO: ContextVar[dict[str, QuerySpec] | None] = ContextVar("parse_memo", default=None)


@contextmanager
def parse_memo():
    """Within the block, ``parse_once`` parses each distinct text once. A
    QuerySpec is frozen and carries its text, so one stands for every read;
    a text that fails is not stored, so it fails again on every read."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def parse_once(text: str) -> QuerySpec:
    """``parse_sql`` of ``text``, shared within a ``parse_memo`` block."""
    memo = _MEMO.get()
    if memo is None:
        return parse_sql(text)
    if text not in memo:
        memo[text] = parse_sql(text)
    return memo[text]


def _check_connected(tables: frozenset[str], joins: Iterable[JoinPredicate]) -> None:
    if len(tables) <= 1:
        return
    adjacency: dict[str, set[str]] = {t: set() for t in tables}
    for j in joins:
        adjacency[j.table_a].add(j.table_b)
        adjacency[j.table_b].add(j.table_a)
    start = next(iter(tables))
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for other in adjacency[node]:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    if seen != tables:
        missing = ", ".join(sorted(tables - seen))
        raise SqlSemanticError(f"disconnected join graph (unreachable: {missing})")


def render_sql(query: QuerySpec) -> str:
    """Canonical unparser: sorted FROM list and WHERE conjuncts, trailing ';'."""
    sql = "SELECT * FROM " + ", ".join(sorted(query.tables))
    conjuncts = query.conjuncts()
    if conjuncts:
        sql += " WHERE " + " AND ".join(conjuncts)
    return sql + ";"


def template_of(query: QuerySpec) -> QueryTemplate:
    """Erase selections, keeping tables and join predicates."""
    return QueryTemplate(tables=query.tables, joins=query.joins)


def template_key(template: QueryTemplate) -> int:
    """The 64-bit key the token model conditions on: a little-endian blake2b digest."""
    digest = hashlib.blake2b(("template:" + template.key()).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")
