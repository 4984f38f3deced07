"""Three mock optimizer personalities over the shared cost model.

dp_optimize       exact bushy dynamic programming minimizing the sum of
                  estimated intermediate cardinalities; HashJoin everywhere
                  except NestLoopJoin when both inputs are estimated below
                  NEST_LOOP_THRESHOLD rows
greedy_optimize   repeatedly joins the predicate-connected pair of sub-plans
                  with the smallest estimated output; always MergeJoin
random_optimize   seeded uniformly random connected bushy tree with random
                  operators

All three are deterministic functions of their inputs (plus the seed for the
random personality); ties break on the lexicographically smallest bracket
form so results never depend on iteration order.
"""

from __future__ import annotations

import itertools
import random

from .costs import CostModel
from .errors import PlangenError
from .plans import Join, Leaf, PlanTree, tree_to_bracket
from .sql import QuerySpec

NEST_LOOP_THRESHOLD = 100.0
MAX_DP_TABLES = 14


class TooManyTables(PlangenError):
    pass


def _connected(tables: frozenset[str], query: QuerySpec) -> bool:
    if len(tables) <= 1:
        return True
    adjacency = {t: set() for t in tables}
    for j in query.joins:
        if j.table_a in tables and j.table_b in tables:
            adjacency[j.table_a].add(j.table_b)
            adjacency[j.table_b].add(j.table_a)
    start = next(iter(tables))
    seen = {start}
    stack = [start]
    while stack:
        for other in adjacency[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return seen == tables


def _linked(left: frozenset[str], right: frozenset[str], query: QuerySpec) -> bool:
    return any(
        (j.table_a in left and j.table_b in right)
        or (j.table_a in right and j.table_b in left)
        for j in query.joins
    )


def _pick_operator(left_rows: float, right_rows: float) -> str:
    if left_rows < NEST_LOOP_THRESHOLD and right_rows < NEST_LOOP_THRESHOLD:
        return "NestLoopJoin"
    return "HashJoin"


def dp_optimize(query: QuerySpec, model: CostModel) -> PlanTree:
    """Exact dynamic programming over connected table subsets."""
    tables = sorted(query.tables)
    if len(tables) > MAX_DP_TABLES:
        raise TooManyTables(f"{len(tables)} tables exceeds the DP limit of {MAX_DP_TABLES}")
    if len(tables) == 1:
        return Leaf(tables[0])

    # best[subset] = (cost, bracket, plan, estimated rows); cost counts
    # intermediates only.
    best: dict[frozenset[str], tuple[float, str, PlanTree, float]] = {}
    for t in tables:
        subset = frozenset([t])
        best[subset] = (0.0, t, Leaf(t), model.subset_cardinality(subset, query))

    for size in range(2, len(tables) + 1):
        for combo in itertools.combinations(tables, size):
            subset = frozenset(combo)
            if not _connected(subset, query):
                continue
            out_card = model.subset_cardinality(subset, query)
            candidate: tuple[float, str, PlanTree, float] | None = None
            for left in _proper_subsets(combo):
                right = subset - left
                if left not in best or right not in best:
                    continue
                if not _linked(left, right, query):
                    continue
                lcost, _, lplan, lcard = best[left]
                rcost, _, rplan, rcard = best[right]
                plan = Join(_pick_operator(lcard, rcard), lplan, rplan)
                entry = (lcost + rcost + out_card, tree_to_bracket(plan), plan, out_card)
                if candidate is None or entry[:2] < candidate[:2]:
                    candidate = entry
            if candidate is not None:
                best[subset] = candidate

    full = frozenset(tables)
    if full not in best:
        raise PlangenError("join graph is not connected")
    return best[full][2]


def _proper_subsets(tables: tuple[str, ...]):
    """Non-empty proper subsets, each paired once with its complement."""
    n = len(tables)
    for mask in range(1, (1 << n) - 1):
        yield frozenset(tables[i] for i in range(n) if mask >> i & 1)


def greedy_optimize(query: QuerySpec, model: CostModel) -> PlanTree:
    """Smallest-output-first pairing over predicate-connected components."""
    components: list[tuple[frozenset[str], PlanTree]] = [
        (frozenset([t]), Leaf(t)) for t in sorted(query.tables)
    ]
    while len(components) > 1:
        choice = None
        for i, j in itertools.combinations(range(len(components)), 2):
            set_i, plan_i = components[i]
            set_j, plan_j = components[j]
            if not _linked(set_i, set_j, query):
                continue
            merged = set_i | set_j
            out_card = model.subset_cardinality(merged, query)
            for left, right in ((plan_i, plan_j), (plan_j, plan_i)):
                plan = Join("MergeJoin", left, right)
                entry = (out_card, tree_to_bracket(plan), plan, i, j)
                if choice is None or entry[:2] < choice[:2]:
                    choice = entry
        if choice is None:
            raise PlangenError("join graph is not connected")
        _, _, plan, i, j = choice
        merged = components[i][0] | components[j][0]
        components = [c for k, c in enumerate(components) if k not in (i, j)]
        components.append((merged, plan))
    return components[0][1]


def random_optimize(query: QuerySpec, seed: int) -> PlanTree:
    """Seeded random connected bushy tree with random operators."""
    rng = random.Random(seed)
    components: list[tuple[frozenset[str], PlanTree]] = [
        (frozenset([t]), Leaf(t)) for t in sorted(query.tables)
    ]
    while len(components) > 1:
        joinable = [
            (i, j)
            for i, j in itertools.combinations(range(len(components)), 2)
            if _linked(components[i][0], components[j][0], query)
        ]
        if not joinable:
            raise PlangenError("join graph is not connected")
        i, j = joinable[rng.randrange(len(joinable))]
        op = rng.choice(("HashJoin", "MergeJoin", "NestLoopJoin"))
        left, right = components[i], components[j]
        if rng.random() < 0.5:
            left, right = right, left
        plan = Join(op, left[1], right[1])
        merged = components[i][0] | components[j][0]
        components = [c for k, c in enumerate(components) if k not in (i, j)]
        components.append((merged, plan))
    return components[0][1]
