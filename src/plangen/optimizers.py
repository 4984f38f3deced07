"""Three mock optimizer personalities over the shared cost model.

dp_optimize       exact bushy dynamic programming minimizing the sum of
                  estimated intermediate cardinalities; HashJoin everywhere
                  except NestLoopJoin when both inputs are estimated below
                  NEST_LOOP_THRESHOLD rows
greedy_optimize   repeatedly joins the predicate-connected pair of sub-plans
                  with the smallest estimated output; always MergeJoin
random_optimize   seeded uniformly random connected bushy tree with random
                  operators

Table sets are bitmasks: the query's sorted table i is bit i, and each table
has a neighbour mask of the tables it shares a predicate with, so disjoint
sets are linked when one's neighbour mask meets the other. The DP is DPsub:
it visits masks in ascending order, so every proper submask comes first,
walks each subset's splits with ``sub = (sub - 1) & rest``, and prices both
orders of every split whose sides are connected and linked; a subset with
no such split is not connected.

All three are deterministic functions of their inputs (plus the seed for the
random personality). Candidates compare on (cost, bracket form), a total
order, since the bracket form encodes the whole plan: ties break on the
lexicographically smallest bracket, so results never depend on iteration
order. Sub-plans carry their bracket strings, so a candidate's is one
concatenation.
"""

from __future__ import annotations

import itertools
import random

from .costs import CostModel
from .errors import PlangenError
from .plans import JOIN_OPERATORS, Join, Leaf, PlanTree
from .sql import QuerySpec

NEST_LOOP_THRESHOLD = 100.0
MAX_DP_TABLES = 14


class TooManyTables(PlangenError):
    pass


def _tables(query: QuerySpec) -> list[tuple[int, int, str]]:
    """(bit, neighbour mask, name) of each table, in sorted order."""
    tables = sorted(query.tables)
    bit = {table: 1 << i for i, table in enumerate(tables)}
    neighbours = dict.fromkeys(tables, 0)
    for j in query.joins:
        neighbours[j.table_a] |= bit[j.table_b]
        neighbours[j.table_b] |= bit[j.table_a]
    return [(bit[table], neighbours[table], table) for table in tables]


def _pick_operator(left_rows: float, right_rows: float) -> str:
    if left_rows < NEST_LOOP_THRESHOLD and right_rows < NEST_LOOP_THRESHOLD:
        return "NestLoopJoin"
    return "HashJoin"


def dp_optimize(query: QuerySpec, model: CostModel) -> PlanTree:
    """Exact dynamic programming over connected table subsets."""
    if len(query.tables) > MAX_DP_TABLES:
        raise TooManyTables(f"{len(query.tables)} tables exceeds the DP limit of {MAX_DP_TABLES}")
    if len(query.tables) == 1:
        return Leaf(next(iter(query.tables)))
    estimates = model.estimates(query)

    # best[mask] = (cost, bracket, plan, estimated rows, neighbour mask);
    # cost counts intermediates only.
    best: dict[int, tuple[float, str, PlanTree, float, int]] = {}
    for (bit, neighbours, table), rows in zip(_tables(query), estimates.leaves):
        best[bit] = (0.0, table, Leaf(table), rows, neighbours)

    full = (1 << len(query.tables)) - 1
    for mask in range(3, full + 1):
        candidate = None
        low = mask & -mask  # left holds the lowest table; both orders are priced
        rest = sub = mask ^ low
        while sub:
            sub = (sub - 1) & rest
            left, right = low | sub, rest ^ sub
            if left in best and right in best and best[left][4] & right:
                if candidate is None:
                    out_card = estimates.cardinality(mask)
                lcost, lbracket, _, lcard, _ = best[left]
                rcost, rbracket, _, rcard, _ = best[right]
                op = _pick_operator(lcard, rcard)
                cost = lcost + rcost + out_card  # float + is commutative: same for both orders
                for entry in ((cost, f"{op}({lbracket} {rbracket})", op, left, right),
                              (cost, f"{op}({rbracket} {lbracket})", op, right, left)):
                    if candidate is None or entry[:2] < candidate[:2]:
                        candidate = entry
        if candidate is not None:
            cost, bracket, op, left, right = candidate
            plan = Join(op, best[left][2], best[right][2])
            best[mask] = (cost, bracket, plan, out_card, best[left][4] | best[right][4])

    if full not in best:
        raise PlangenError("join graph is not connected")
    return best[full][2]


def greedy_optimize(query: QuerySpec, model: CostModel) -> PlanTree:
    """Smallest-output-first pairing over predicate-connected components."""
    estimates = model.estimates(query)
    # Components are (mask, neighbour mask, bracket, plan).
    components = [(bit, neighbours, table, Leaf(table)) for bit, neighbours, table in _tables(query)]
    while len(components) > 1:
        choice = None
        for i, j in itertools.combinations(range(len(components)), 2):
            if not components[i][1] & components[j][0]:
                continue
            out_card = estimates.cardinality(components[i][0] | components[j][0])
            for left, right in ((i, j), (j, i)):
                entry = (out_card, f"MergeJoin({components[left][2]} {components[right][2]})", left, right)
                if choice is None or entry[:2] < choice[:2]:
                    choice = entry
        if choice is None:
            raise PlangenError("join graph is not connected")
        _, bracket, i, j = choice
        (lmask, lnbrs, _, lplan), (rmask, rnbrs, _, rplan) = components[i], components[j]
        components = [c for k, c in enumerate(components) if k not in (i, j)]
        components.append((lmask | rmask, lnbrs | rnbrs, bracket, Join("MergeJoin", lplan, rplan)))
    return components[0][3]


def random_optimize(query: QuerySpec, seed: int) -> PlanTree:
    """Seeded random connected bushy tree with random operators."""
    rng = random.Random(seed)
    # Components are (mask, neighbour mask, plan).
    components = [(bit, neighbours, Leaf(table)) for bit, neighbours, table in _tables(query)]
    while len(components) > 1:
        pairs = itertools.combinations(range(len(components)), 2)
        joinable = [(i, j) for i, j in pairs if components[i][1] & components[j][0]]
        if not joinable:
            raise PlangenError("join graph is not connected")
        i, j = joinable[rng.randrange(len(joinable))]
        op = rng.choice(JOIN_OPERATORS)
        left, right = components[i], components[j]
        if rng.random() < 0.5:
            left, right = right, left
        components = [c for k, c in enumerate(components) if k not in (i, j)]
        components.append((left[0] | right[0], left[1] | right[1], Join(op, left[2], right[2])))
    return components[0][2]
