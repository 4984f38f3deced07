"""Planner hint comments for executing a plan on an external engine.

A plan becomes ``/*+ Leading(<nested>) <method hints> */``. The Leading
clause is the plan's bracket form with the operator names erased, so each
join node is a parenthesized pair of its children; each join node also
contributes one method hint listing the tables beneath it in left-to-right
leaf order. The engine's keyword for a nested-loop join is ``NestLoop``;
hash and merge joins keep their names. parse_hints inverts the emission and
exists for round-trip verification: it puts an operator back before every
parenthesis of the Leading clause and reads the result with
``plans.bracket_to_tree``.
"""

from __future__ import annotations

import re

from .errors import PlangenError
from .plans import Join, Leaf, PlanError, PlanTree, SingleTablePlan, bracket_to_tree, join_nodes, leaves

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
    methods = [f"{_METHOD_KEYWORDS[node.op]}({' '.join(leaves(node))})" for node in join_nodes(plan)]
    return f"/*+ Leading({_nested(plan)}) {' '.join(methods)} */"


def _nested(plan: PlanTree) -> str:
    if isinstance(plan, Leaf):
        return plan.table
    return f"({_nested(plan.left)} {_nested(plan.right)})"


# The Leading body ends at the first ')' after which only method hints follow.
_HINT_RE = re.compile(r"/\*\+\s*Leading\((.*?)\)((?:\s*\w+\([^()]*\))*)\s*\*/", re.DOTALL)
_METHOD_RE = re.compile(r"(\w+)\(([^()]*)\)")


def parse_hints(text: str) -> PlanTree:
    """Inverse of emit_hints on its image."""
    match = _HINT_RE.fullmatch(text.strip())
    if match is None:
        raise HintError("not a hint comment of a Leading clause and method hints")
    leading, methods = match.groups()
    try:
        # The space keeps a name written against a parenthesis, as in
        # ``t3(t1 t2)``, an operand of its own rather than an operator.
        shape = bracket_to_tree(leading.replace("(", " HashJoin("))
    except PlanError as exc:
        raise HintError(f"malformed Leading clause: {exc}") from None
    if isinstance(shape, Leaf):
        raise HintError("Leading clause names a single table")

    operators: dict[frozenset[str], str] = {}
    for keyword, tables in _METHOD_RE.findall(methods):
        if keyword not in _KEYWORD_OPERATORS:
            raise HintError(f"unknown method keyword {keyword!r}")
        key = frozenset(tables.split())
        if key in operators:
            raise HintError(f"duplicate method hint for {sorted(key)}")
        operators[key] = _KEYWORD_OPERATORS[keyword]

    plan, used = _assign(shape, operators)
    if used != set(operators):
        extra = [sorted(k) for k in set(operators) - used]
        raise HintError(f"method hints match no join node: {extra}")
    return plan


def _assign(shape: PlanTree, operators: dict[frozenset[str], str]) -> tuple[PlanTree, set[frozenset[str]]]:
    if isinstance(shape, Leaf):
        return shape, set()
    left, left_used = _assign(shape.left, operators)
    right, right_used = _assign(shape.right, operators)
    key = frozenset(leaves(left) + leaves(right))
    if key not in operators:
        raise HintError(f"no method hint covers {sorted(key)}")
    return Join(operators[key], left, right), left_used | right_used | {key}
