"""Planner hint comments for executing a plan on an external engine.

A plan becomes ``/*+ Leading(<nested>) <method hints> */`` where the Leading
clause parenthesizes table names isomorphically to the tree and each join
node contributes one method hint listing the tables beneath it in
left-to-right leaf order. The engine's keyword for a nested-loop join is
``NestLoop``; hash and merge joins keep their names. parse_hints inverts the
emission and exists for round-trip verification.
"""

from __future__ import annotations

import re

from .errors import PlangenError
from .plans import Join, Leaf, PlanTree, SingleTablePlan, leaves

_METHOD_KEYWORDS = {
    "HashJoin": "HashJoin",
    "MergeJoin": "MergeJoin",
    "NestLoopJoin": "NestLoop",
}
_KEYWORD_OPERATORS = {v: k for k, v in _METHOD_KEYWORDS.items()}


class HintError(PlangenError):
    pass


def emit_hints(plan: PlanTree) -> str:
    """Render the hint comment for a plan with at least one join."""
    if isinstance(plan, Leaf):
        raise SingleTablePlan("single-table plans need no join hints")
    methods = [
        f"{_METHOD_KEYWORDS[node.op]}({' '.join(leaves(node))})"
        for node in _postorder_joins(plan)
    ]
    return f"/*+ Leading({_nested(plan)}) {' '.join(methods)} */"


def _nested(plan: PlanTree) -> str:
    if isinstance(plan, Leaf):
        return plan.table
    return f"({_nested(plan.left)} {_nested(plan.right)})"


def _postorder_joins(plan: PlanTree):
    if isinstance(plan, Leaf):
        return
    yield from _postorder_joins(plan.left)
    yield from _postorder_joins(plan.right)
    yield plan


_HINT_RE = re.compile(r"^/\*\+\s*(.*?)\s*\*/$", re.DOTALL)


def parse_hints(text: str) -> PlanTree:
    """Inverse of emit_hints on its image."""
    match = _HINT_RE.match(text.strip())
    if match is None:
        raise HintError("not a hint comment")
    body = match.group(1)

    leading, methods = _split_clauses(body)
    shape = _parse_nested(leading)
    operators: dict[frozenset[str], str] = {}
    for keyword, tables in methods:
        if keyword not in _KEYWORD_OPERATORS:
            raise HintError(f"unknown method keyword {keyword!r}")
        key = frozenset(tables)
        if key in operators:
            raise HintError(f"duplicate method hint for {sorted(key)}")
        operators[key] = _KEYWORD_OPERATORS[keyword]

    plan, used = _assign(shape, operators)
    if used != set(operators):
        extra = [sorted(k) for k in set(operators) - used]
        raise HintError(f"method hints match no join node: {extra}")
    return plan


def _split_clauses(body: str) -> tuple[str, list[tuple[str, list[str]]]]:
    lead_match = re.match(r"Leading\(", body)
    if lead_match is None:
        raise HintError("missing Leading clause")
    depth = 0
    end = None
    for i in range(lead_match.end() - 1, len(body)):
        if body[i] == "(":
            depth += 1
        elif body[i] == ")":
            depth -= 1
            if depth == 0:
                end = i
                break
    if end is None:
        raise HintError("unbalanced Leading clause")
    leading = body[lead_match.end():end]
    methods = []
    rest = body[end + 1:]
    for m in re.finditer(r"(\w+)\(([^()]*)\)", rest):
        keyword, args = m.groups()
        tables = args.split()
        if not tables:
            raise HintError(f"empty method hint {keyword}()")
        methods.append((keyword, tables))
    stripped = re.sub(r"(\w+)\(([^()]*)\)", "", rest).strip()
    if stripped:
        raise HintError(f"trailing content in hint: {stripped!r}")
    return leading, methods


def _parse_nested(text: str):
    """Parse the Leading nesting into (left, right) tuples and table names."""
    tokens = re.findall(r"[()]|[^\s()]+", text)
    pos = 0

    def node():
        nonlocal pos
        if pos >= len(tokens):
            raise HintError("truncated Leading clause")
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            left = node()
            right = node()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise HintError("unbalanced parentheses in Leading clause")
            pos += 1
            return (left, right)
        if tok == ")":
            raise HintError("unexpected ')' in Leading clause")
        pos += 1
        return tok

    shape = node()
    if pos != len(tokens):
        raise HintError("trailing content in Leading clause")
    if isinstance(shape, str):
        raise HintError("Leading clause names a single table")
    return shape


def _assign(shape, operators: dict[frozenset[str], str]) -> tuple[PlanTree, set[frozenset[str]]]:
    if isinstance(shape, str):
        return Leaf(shape), set()
    left, left_used = _assign(shape[0], operators)
    right, right_used = _assign(shape[1], operators)
    key = frozenset(leaves(left) + leaves(right))
    if key not in operators:
        raise HintError(f"no method hint covers {sorted(key)}")
    return Join(operators[key], left, right), left_used | right_used | {key}
