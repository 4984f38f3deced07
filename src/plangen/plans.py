"""Execution plan trees and their two textual encodings.

A plan is a binary tree: SeqScan leaves (bare table names) and join nodes
using HashJoin, MergeJoin or NestLoopJoin. Two lossless text forms exist:

  bracket form    ``HashJoin(movie_info_idx HashJoin(movie_companies title))``
  planning path   one ``[opd1, opd2, opt]`` step per join node in post-order,
                  intermediate operands rendered as their sub-plan's bracket

A full response is the planning path followed by a blank line, the literal
marker ``Therefore, the final answer is:`` and the bracket form terminated by
a period. parse_response is the inference-side entry point and is total over
arbitrary text, reporting structured errors for the validator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import PlangenError

JOIN_OPERATORS = ("HashJoin", "MergeJoin", "NestLoopJoin")

FINAL_ANSWER_MARKER = "the final answer is:"


class PlanError(PlangenError):
    """Base for plan construction and text-form errors."""


class BracketParseError(PlanError):
    """Base for bracket grammar failures; ``code`` names the error class."""

    code = "Malformed"


class UnbalancedBracket(BracketParseError):
    code = "UnbalancedBracket"


class UnknownOperator(BracketParseError):
    code = "UnknownOperator"


class MissingOperand(BracketParseError):
    code = "MissingOperand"


class RedundantOperand(BracketParseError):
    code = "RedundantOperand"


class DuplicateTable(BracketParseError):
    code = "DuplicateTable"


class MissingFinalAnswer(PlanError):
    pass


class SingleTablePlan(PlanError):
    pass


class PathError(PlanError):
    pass


class StepCountMismatch(PathError):
    pass


class DanglingReference(PathError):
    pass


class ReusedIntermediate(PathError):
    pass


@dataclass(frozen=True)
class Leaf:
    """A sequential scan of one base table."""

    table: str


@dataclass(frozen=True)
class Join:
    op: str
    left: "PlanTree"
    right: "PlanTree"

    def __post_init__(self):
        if self.op not in JOIN_OPERATORS:
            raise UnknownOperator(f"unknown join operator {self.op!r}")


PlanTree = Union[Leaf, Join]


def leaves(plan: PlanTree) -> list[str]:
    """Leaf table names in left-to-right order."""
    if isinstance(plan, Leaf):
        return [plan.table]
    return leaves(plan.left) + leaves(plan.right)


def join_nodes(plan: PlanTree) -> list[Join]:
    """The join nodes in post-order, left child first."""
    if isinstance(plan, Leaf):
        return []
    return join_nodes(plan.left) + join_nodes(plan.right) + [plan]


def validate_plan(plan: PlanTree) -> None:
    """Reject trees whose leaves repeat a table name."""
    names = leaves(plan)
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise DuplicateTable(f"table appears more than once: {', '.join(dupes)}")


def tree_to_bracket(plan: PlanTree) -> str:
    if isinstance(plan, Leaf):
        return plan.table
    return f"{plan.op}({tree_to_bracket(plan.left)} {tree_to_bracket(plan.right)})"


_BRACKET_TOKEN_RE = re.compile(r"\s*([()]|[^\s()]+)")


def bracket_to_tree(text: str) -> PlanTree:
    """Total parser for the bracket grammar; inverse of tree_to_bracket.

    Raises the structured subclasses of BracketParseError so the validator
    can classify malformed responses.
    """
    tokens = _BRACKET_TOKEN_RE.findall(text)
    if not tokens:
        raise MissingOperand("empty bracket expression")
    plan, pos = _parse_node(tokens, 0)
    if pos != len(tokens):
        extra = tokens[pos]
        if extra == ")":
            raise UnbalancedBracket("unmatched ')'")
        raise RedundantOperand(f"trailing content {extra!r} after complete plan")
    validate_plan(plan)
    return plan


def _parse_node(tokens: list[str], pos: int) -> tuple[PlanTree, int]:
    if pos >= len(tokens):
        raise UnbalancedBracket("unexpected end of bracket expression")
    tok = tokens[pos]
    if tok == ")":
        raise UnbalancedBracket("unexpected ')'")
    if tok == "(":
        raise UnknownOperator("'(' without a preceding join operator")
    # An identifier: either a join operator applied to operands, or a leaf.
    if pos + 1 < len(tokens) and tokens[pos + 1] == "(":
        if tok not in JOIN_OPERATORS:
            raise UnknownOperator(f"unknown join operator {tok!r}")
        operands: list[PlanTree] = []
        cursor = pos + 2
        while True:
            if cursor >= len(tokens):
                raise UnbalancedBracket(f"missing ')' for {tok}")
            if tokens[cursor] == ")":
                cursor += 1
                break
            node, cursor = _parse_node(tokens, cursor)
            operands.append(node)
        if len(operands) < 2:
            raise MissingOperand(f"{tok} expects two operands, got {len(operands)}")
        if len(operands) > 2:
            raise RedundantOperand(f"{tok} expects two operands, got {len(operands)}")
        return Join(tok, operands[0], operands[1]), cursor
    if tok in JOIN_OPERATORS:
        raise MissingOperand(f"join operator {tok} has no operand list")
    return Leaf(tok), pos + 1


@dataclass(frozen=True)
class PlanningPath:
    """Post-order join narration: (operand, operand, operator) per step."""

    steps: tuple[tuple[str, str, str], ...]


def tree_to_path(plan: PlanTree) -> PlanningPath:
    """Narrate the join nodes in post-order, left child first.

    Operands referencing an earlier step are rendered as that step's
    sub-plan bracket form.
    """
    if isinstance(plan, Leaf):
        raise SingleTablePlan("single-table plans have no joins to narrate")
    steps = [(tree_to_bracket(node.left), tree_to_bracket(node.right), node.op) for node in join_nodes(plan)]
    return PlanningPath(tuple(steps))


def path_to_tree(path: PlanningPath) -> PlanTree:
    """Rebuild the plan by resolving operands against completed steps."""
    if not path.steps:
        raise StepCountMismatch("a planning path needs at least one step")
    pending: dict[str, PlanTree] = {}
    consumed: set[str] = set()

    def resolve(operand: str) -> PlanTree:
        if operand in pending:
            consumed.add(operand)
            return pending.pop(operand)
        if operand in consumed:
            raise ReusedIntermediate(f"intermediate {operand!r} referenced twice")
        if "(" in operand or operand in JOIN_OPERATORS:
            raise DanglingReference(f"operand {operand!r} matches no completed step")
        return Leaf(operand)

    last: PlanTree | None = None
    for opd1, opd2, op in path.steps:
        if op not in JOIN_OPERATORS:
            raise UnknownOperator(f"unknown join operator {op!r}")
        node = Join(op, resolve(opd1), resolve(opd2))
        key = tree_to_bracket(node)
        if key in pending or key in consumed:
            raise StepCountMismatch(f"step result {key!r} produced twice")
        pending[key] = node
        last = node
    final_key = tree_to_bracket(last)
    if set(pending) != {final_key}:
        raise StepCountMismatch("intermediate steps left unreferenced")
    validate_plan(last)
    return last


def render_response(plan: PlanTree) -> str:
    """Render the full response text: step lines, marker, final bracket."""
    path = tree_to_path(plan)
    lines = [
        f"Step{i}: [{opd1}, {opd2}, {op}]," for i, (opd1, opd2, op) in enumerate(path.steps, 1)
    ]
    lines.append("")
    lines.append("Therefore, the final answer is:")
    lines.append(tree_to_bracket(plan) + ".")
    return "\n".join(lines)


def parse_response(text: str) -> PlanTree:
    """Extract and parse the final-answer bracket from a response.

    Anchors on the last occurrence of the marker string.
    """
    marker_at = text.lower().rfind(FINAL_ANSWER_MARKER)
    if marker_at < 0:
        raise MissingFinalAnswer("no final-answer marker in response")
    payload = text[marker_at + len(FINAL_ANSWER_MARKER):].strip()
    if payload.endswith("."):
        payload = payload[:-1]
    return bracket_to_tree(payload)
