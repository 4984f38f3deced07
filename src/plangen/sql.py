"""Parser and unparser for the supported SQL subset.

Accepted queries are ``SELECT * FROM t1, t2, ... WHERE <conjuncts>;`` where
every conjunct is either an equi-join ``a.x = b.y`` between two distinct
tables or an integer comparison ``t.c <op> <literal>`` with op one of
< > = <= >=. Aliases, self-joins, OR/IN/LIKE, projections and non-integer
literals are rejected loudly. The join graph must be connected.
"""

from __future__ import annotations

import re
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
    r"|(?P<punct>[,.;*()]))"
)


def _lex(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise SqlSyntaxError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self._tokens = tokens
        self._pos = 0
        self._length = length

    def peek(self) -> tuple[str, str, int]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return ("eof", "", self._length)

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        self._pos += 1
        return tok

    def expect_word(self, keyword: str) -> None:
        kind, value, pos = self.next()
        if kind != "word" or value.upper() != keyword:
            raise SqlSyntaxError(f"expected {keyword}, got {value!r}", pos)

    def expect_punct(self, symbol: str) -> None:
        kind, value, pos = self.next()
        if kind != "punct" or value != symbol:
            raise SqlSyntaxError(f"expected {symbol!r}, got {value!r}", pos)


def _parse_column_ref(stream: _TokenStream) -> tuple[str, str, int]:
    kind, table, pos = stream.next()
    if kind != "word":
        raise SqlSyntaxError(f"expected table name, got {table!r}", pos)
    stream.expect_punct(".")
    kind, column, cpos = stream.next()
    if kind != "word":
        raise SqlSyntaxError(f"expected column name, got {column!r}", cpos)
    return table, column, pos


def parse_sql(text: str) -> QuerySpec:
    """Parse one query of the supported subset into a QuerySpec."""
    tokens = _lex(text)
    stream = _TokenStream(tokens, len(text))

    stream.expect_word("SELECT")
    kind, value, pos = stream.next()
    if kind != "punct" or value != "*":
        raise SqlSemanticError(f"only SELECT * heads are supported, got {value!r}")
    stream.expect_word("FROM")

    from_order: list[str] = []
    while True:
        kind, value, pos = stream.next()
        if kind != "word":
            raise SqlSyntaxError(f"expected table name, got {value!r}", pos)
        if value.upper() in ("WHERE", "SELECT", "FROM", "AND"):
            raise SqlSyntaxError(f"expected table name, got keyword {value!r}", pos)
        if value in from_order:
            raise SqlSemanticError(f"table {value!r} listed twice (self-joins unsupported)")
        from_order.append(value)
        kind, value, pos = stream.peek()
        if kind == "punct" and value == ",":
            stream.next()
            continue
        if kind == "word" and value.upper() not in ("WHERE",):
            raise SqlSemanticError(f"table aliases are unsupported (near {value!r})")
        break

    tables = frozenset(from_order)
    joins: set[JoinPredicate] = set()
    selections: list[Selection] = []

    kind, value, pos = stream.peek()
    if kind == "word" and value.upper() == "WHERE":
        stream.next()
        while True:
            _parse_conjunct(stream, tables, joins, selections)
            kind, value, pos = stream.peek()
            if kind == "word" and value.upper() == "AND":
                stream.next()
                continue
            if kind == "word" and value.upper() in ("OR", "IN", "LIKE", "NOT", "BETWEEN"):
                raise SqlSemanticError(f"unsupported construct {value!r}")
            break

    kind, value, pos = stream.next()
    if kind != "punct" or value != ";":
        raise SqlSyntaxError(f"expected ';', got {value!r}", pos)
    kind, value, pos = stream.peek()
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


def _parse_conjunct(
    stream: _TokenStream,
    tables: frozenset[str],
    joins: set[JoinPredicate],
    selections: list[Selection],
) -> None:
    kind, value, pos = stream.peek()
    if kind != "word":
        raise SqlSyntaxError(f"expected predicate, got {value!r}", pos)
    table, column, tpos = _parse_column_ref(stream)
    if table not in tables:
        raise SqlSemanticError(f"predicate references unknown table {table!r}")

    okind, op, opos = stream.next()
    if okind != "op":
        raise SqlSyntaxError(f"expected comparison operator, got {op!r}", opos)

    kind, value, vpos = stream.peek()
    if kind == "word":
        rtable, rcolumn, _ = _parse_column_ref(stream)
        if rtable not in tables:
            raise SqlSemanticError(f"predicate references unknown table {rtable!r}")
        if op != "=":
            raise SqlSemanticError(f"non-equi join {table}.{column} {op} {rtable}.{rcolumn}")
        if rtable == table:
            raise SqlSemanticError(f"self-join on table {table!r} is unsupported")
        joins.add(JoinPredicate.normalized(table, column, rtable, rcolumn))
    elif kind == "number":
        stream.next()
        if "." in value:
            raise SqlSemanticError(f"non-integer literal {value!r}")
        selections.append(Selection(table, column, op, int(value)))
    else:
        raise SqlSyntaxError(f"expected column reference or integer, got {value!r}", vpos)


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
    """The 64-bit key the token model conditions on."""
    return fnv1a64("template:" + template.key())


def fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
