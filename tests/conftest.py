"""Shared fixtures: the six-table micro database and helpers."""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import math
import operator
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np
import pytest

from plangen.catalog import Catalog, MicroTable, derive_stats, load_tables
from plangen.costs import CostModel
from plangen.dataset import (
    DEMO_MODES,
    DatasetError,
    Demonstration,
    InstructionRecord,
    NoDemonstrationAvailable,
    build_prompt,
    extract_input_sql,
    extract_input_statistics,
    query_ids,
)
from plangen.errors import PlangenError
from plangen.executor import best_timing, micro_execute, read_plan_log
from plangen.hints import HintError
from plangen.jsonl import read_lines
from plangen.model import CHECKPOINT_FORMAT, ModelError, TokenModel, context_id
from plangen.optimizers import MAX_DP_TABLES, NEST_LOOP_THRESHOLD, TooManyTables
from plangen.pipeline import RunReport, read_responses
from plangen.plans import (
    JOIN_OPERATORS, Join, Leaf, PlanTree, join_nodes, leaves, render_response, tree_to_bracket,
)
from plangen.report import timing_summary
from plangen.sql import (
    JoinPredicate,
    QuerySpec,
    Selection,
    SqlSemanticError,
    SqlSyntaxError,
    _check_connected,
    parse_sql,
    render_sql,
    template_key,
    template_of,
)
from plangen.tokenizer import detokenize, tokenize
from plangen.training import (
    QDPO_LEARNING_RATE, QDPO_STEPS, QIT_LEARNING_RATE, QIT_STEPS, TraceRow, TrainConfig,
)
from plangen.validator import validate

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


# --- helpers only tests use ---


def plan_cost(model: CostModel, plan: PlanTree, query: QuerySpec) -> float:
    """Sum of estimated intermediate cardinalities over the join nodes."""
    estimates = model.estimates(query)
    total = 0.0
    for node in join_nodes(plan):
        total += estimates.cardinality(estimates.mask(leaves(node)))
    return total


def qit_config(**overrides) -> TrainConfig:
    return replace(TrainConfig(learning_rate=QIT_LEARNING_RATE, steps=QIT_STEPS), **overrides)


def qdpo_config(**overrides) -> TrainConfig:
    return replace(TrainConfig(learning_rate=QDPO_LEARNING_RATE, steps=QDPO_STEPS), **overrides)


def save_catalog(catalog: Catalog) -> str:
    """Render a Catalog back to the pipe-delimited file format."""
    lines = []
    for name, cols in catalog.tables.items():
        fields = [name] + [
            f"{cname}:{s.min_value}:{s.max_value}:{s.distinct_count}" for cname, s in cols
        ]
        lines.append("|".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


def save_table(table: MicroTable) -> str:
    lines = [",".join(table.columns)]
    lines.extend(",".join(str(v) for v in row) for row in table.rows)
    return "\n".join(lines) + "\n"


def catalog_from_tables(tables: Iterable[MicroTable]) -> Catalog:
    return Catalog({t.name: tuple(derive_stats(t)) for t in tables})


def table_names(catalog: Catalog) -> list[str]:
    return list(catalog.tables)


def join_count(plan: PlanTree) -> int:
    return len(join_nodes(plan))


def cache_hits(report: RunReport) -> list[str]:
    return [name for name, status in report.stages if status == "cached"]


# Fig. 3 style catalog used by the golden prompt/statistics tests.
MOVIE_CATALOG_TEXT = """\
title|movie_id:0:2527968:2527969|kind_id:-1:7:7|product_year:-1:2019:134|imdb_id:-1:2012:10
movie_companies|movie_id:-1:2525401:1087136|company_id:1:234997:234997|company_type_id:1:2:2
movie_info_idx|movie_info_idx_id:0:1380033:1380034|movie_id:-1:2525449:459876
"""

MOVIE_SQL = (
    "SELECT * FROM movie_companies, title, movie_info_idx  \n"
    "WHERE title.movie_id = movie_companies.movie_id AND \n"
    "title.movie_id = movie_info_idx.movie_id  AND \n"
    "movie_companies.company_type_id = 1 AND \n"
    "title.product_year < 1904 AND title.product_year > 58;"
)


@pytest.fixture(scope="session")
def movie_catalog(tmp_path_factory) -> Catalog:
    from plangen.catalog import load_catalog

    path = tmp_path_factory.mktemp("cat") / "movies.cat"
    path.write_text(MOVIE_CATALOG_TEXT, encoding="utf-8")
    return load_catalog(path)


@pytest.fixture(scope="session")
def movie_query():
    return parse_sql(MOVIE_SQL)


@pytest.fixture(scope="session")
def movie_plan() -> PlanTree:
    return Join(
        "HashJoin",
        Leaf("movie_info_idx"),
        Join("HashJoin", Leaf("movie_companies"), Leaf("title")),
    )


def build_micro_db() -> tuple[list[MicroTable], list[str]]:
    """Deterministic six-table star-plus-chord database.

    title is the hub; five satellites join on movie_id, and
    movie_companies.movie_id = movie_info_idx.movie_id adds a chord.
    Values are drawn from a fixed seed so derived statistics never change.
    """
    rng = random.Random(20240817)
    tables = []

    title_rows = [(mid, rng.randint(1, 7), rng.randint(1900, 2019)) for mid in range(60)]
    tables.append(MicroTable("title", ("movie_id", "kind_id", "product_year"), tuple(title_rows)))

    satellites = {
        "movie_companies": ("company_type_id", 1, 2, 45),
        "movie_info_idx": ("info_type_id", 1, 5, 40),
        "cast_info": ("role_id", 1, 11, 70),
        "movie_keyword": ("keyword_id", 1, 30, 50),
        "movie_info": ("info_kind", 1, 4, 35),
    }
    for name, (col, lo, hi, rows) in satellites.items():
        data = [(rng.randrange(60), rng.randint(lo, hi)) for _ in range(rows)]
        tables.append(MicroTable(name, ("movie_id", col), tuple(sorted(data))))

    joins = [f"title.movie_id = {name}.movie_id" for name in satellites]
    joins.append("movie_companies.movie_id = movie_info_idx.movie_id")
    return tables, joins


@pytest.fixture(scope="session")
def micro_db() -> dict[str, MicroTable]:
    tables, _ = build_micro_db()
    return {t.name: t for t in tables}


@pytest.fixture(scope="session")
def micro_catalog(micro_db) -> Catalog:
    return catalog_from_tables(micro_db.values())


@pytest.fixture(scope="session")
def micro_join_lines() -> list[str]:
    _, joins = build_micro_db()
    return joins


@pytest.fixture(scope="session")
def micro_db_dir(tmp_path_factory, micro_db, micro_catalog, micro_join_lines) -> Path:
    """Materialize the micro database in the documented file formats."""
    root = tmp_path_factory.mktemp("microdb")
    (root / "tables").mkdir()
    (root / "catalog.txt").write_text(save_catalog(micro_catalog), encoding="utf-8")
    (root / "joins.txt").write_text("\n".join(micro_join_lines) + "\n", encoding="utf-8")
    for table in micro_db.values():
        (root / "tables" / f"{table.name}.tbl").write_text(save_table(table), encoding="utf-8")
    return root


def random_plan(rng: random.Random, tables: list[str]) -> PlanTree:
    """Uniformly shaped random plan over the given distinct tables."""
    nodes: list[PlanTree] = [Leaf(t) for t in tables]
    while len(nodes) > 1:
        i, j = rng.sample(range(len(nodes)), 2)
        op = rng.choice(JOIN_OPERATORS)
        merged = Join(op, nodes[i], nodes[j])
        nodes = [n for k, n in enumerate(nodes) if k not in (i, j)]
        nodes.append(merged)
    return nodes[0]


_COMPARE = {"<": operator.lt, ">": operator.gt, "=": operator.eq, "<=": operator.le, ">=": operator.ge}


def brute_force_join(query, data, tables=None):
    """Reference result of ``query`` over ``tables`` (default: all of its
    tables), computed without the executor.

    Enumerates the cross product of the filtered base rows and keeps the
    combinations that satisfy every join predicate among ``tables``. Tables
    are bound one at a time, join partners first, and each predicate is
    tested as soon as both of its tables are bound, so a combination that
    already fails is not extended. Returns the (table, column) labels in
    sorted order and the Counter of result rows in that column order.
    """
    names = sorted(query.tables if tables is None else tables)
    filtered = {}
    for name in names:
        table = data[name]
        tests = [
            (table.column_index(s.column), _COMPARE[s.op], s.literal)
            for s in query.selections
            if s.table == name
        ]
        filtered[name] = [r for r in table.rows if all(cmp(r[i], lit) for i, cmp, lit in tests)]
    predicates = [j for j in query.joins if j.table_a in names and j.table_b in names]

    order = [names[0]]
    while len(order) < len(names):
        rest = [t for t in names if t not in order]
        partners = [t for t in rest if any(set(j.tables()) == {t, u} for j in predicates for u in order)]
        order.append((partners or rest)[0])
    position = {t: k for k, t in enumerate(order)}
    checks = [[] for _ in order]  # checks[k]: (earlier position, its column, column of order[k])
    for j in predicates:
        a = (position[j.table_a], data[j.table_a].column_index(j.column_a))
        b = (position[j.table_b], data[j.table_b].column_index(j.column_b))
        early, late = sorted((a, b))
        checks[late[0]].append((early[0], early[1], late[1]))

    labels = [(order[k], c, k, i) for k in range(len(order)) for i, c in enumerate(data[order[k]].columns)]
    labels.sort()
    result = Counter()

    def extend(bound):
        k = len(bound)
        if k == len(order):
            result[tuple(bound[pos][i] for _, _, pos, i in labels)] += 1
            return
        for row in filtered[order[k]]:
            if all(bound[pos][ci] == row[cj] for pos, ci, cj in checks[k]):
                extend(bound + [row])

    extend([])
    return [(t, c) for t, c, _, _ in labels], result


def canonical_multiset(relation):
    """Reorder the relation's columns to sorted order for comparison."""
    order = sorted(range(len(relation.columns)), key=lambda i: relation.columns[i])
    cols = [relation.columns[i] for i in order]
    rows = Counter(tuple(row[i] for i in order) for row in relation.rows)
    return cols, rows


def reference_time(plan: PlanTree, data, subset_rows) -> int:
    """The executor's touch formula, priced from ``subset_rows(frozenset)``."""
    if isinstance(plan, Leaf):
        return len(data[plan.table].rows)
    left = subset_rows(frozenset(leaves(plan.left)))
    right = subset_rows(frozenset(leaves(plan.right)))
    join = {
        "HashJoin": left + right,
        "MergeJoin": _sort_charge(left) + _sort_charge(right) + left + right,
        "NestLoopJoin": left * right,
    }[plan.op]
    return reference_time(plan.left, data, subset_rows) + reference_time(plan.right, data, subset_rows) + join


def _sort_charge(n: int) -> int:
    return n * (n - 1).bit_length() if n > 1 else 0  # n * ceil(log2 n)


def brute_force_counts(query, data):
    """subset -> brute-force result row count, each subset counted once."""
    counts = {}

    def subset_rows(subset):
        if subset not in counts:
            counts[subset] = sum(brute_force_join(query, data, subset)[1].values())
        return counts[subset]

    return subset_rows


# --- prompt-parsing key reference ---
#
# How the token model found its conditioning key before it took template keys:
# parse the prompt's INPUT section back to SQL, hash its template, and hash
# the raw text of a prompt that does not parse. sql.template_key must agree
# with it on every pipeline prompt (tests/test_model.py).


def blake2b64(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little")


def reference_prompt_key(prompt: str) -> int:
    """Stable conditioning key: the query template when recoverable."""
    try:
        spec = parse_sql(extract_input_sql(prompt))
        return blake2b64("template:" + template_of(spec).key())
    except PlangenError:
        return blake2b64("prompt:" + prompt)


# --- dense logits table reference ---
#
# The model stores only touched rows in a slab behind a dict of contexts. The
# references below hold logits as a dense table over an explicit ascending
# array of 64-bit contexts, and compare it with the slab model's logits.


def touched(*models) -> np.ndarray:
    """The contexts with a row in any of ``models``, ascending."""
    return np.array(sorted(set().union(*(model.index for model in models))), dtype=np.uint64)


def array_bytes(model) -> int:
    """Bytes of the model's arrays, as the benchmark's ``theta_bytes`` counts them."""
    return sum(v.nbytes for v in vars(model).values() if isinstance(v, np.ndarray))


def index_bytes(model) -> int:
    """Bytes of the context index: the dict, its 64-bit keys and its row numbers."""
    return sys.getsizeof(model.index) + sum(map(sys.getsizeof, itertools.chain(*model.index.items())))


def dense_theta(model, contexts=None) -> np.ndarray:
    """The model's logits at ``contexts``, by default at every context it
    has a row for, as a dense (len(contexts), |V|) table."""
    return model.logits(touched(model) if contexts is None else contexts)


def dense_model(vocab, theta: np.ndarray, contexts) -> TokenModel:
    """The model whose logits are the dense table ``theta`` over ``contexts``."""
    return TokenModel.from_rows(vocab, contexts, theta)


def random_model(vocab, rng, scale: float, pairs) -> TokenModel:
    """Logits drawn from N(0, scale) at every context that a step of the
    (key, response) ``pairs`` reaches, and zero elsewhere."""
    contexts = np.unique(np.concatenate([ref_encode_response(vocab, *pair).contexts for pair in pairs]))
    return dense_model(vocab, rng.normal(0.0, scale, size=(len(contexts), len(vocab))), contexts)


def reference_save_model(vocab, contexts, theta: np.ndarray, path) -> None:
    """The checkpoint writer over a dense table on ascending ``contexts``:
    the contexts whose rows left their zero init and those rows as one blob."""
    nonzero = theta.any(axis=1)
    payload = {
        "format": CHECKPOINT_FORMAT,
        "n_contexts": 2**64,
        "vocab": list(vocab.tokens),
        "rows": [int(ctx) for ctx in np.asarray(contexts, dtype=np.uint64)[nonzero]],
        "logits": base64.b64encode(theta[nonzero].astype("<f8").tobytes()).decode("ascii"),
    }
    with open(path, "w", encoding="utf-8") as out:
        json.dump(payload, out, sort_keys=True)


# --- step-by-step decoding reference ---
#
# Greedy decoding as it ran before a decode stopped at its first <bos>: one
# three-hash context and one argmax per step, up to max_len or <eos>.
# TokenModel.greedy_decode must return the same string (tests/test_model.py)
# whenever no row sits at a step after <bos> past position 0, which training
# never reaches.


def reference_greedy_decode(model, key: int, max_len: int, theta=None) -> str:
    """``theta``, the model's ``dense_theta``, saves building it per call."""
    if max_len <= 0:
        raise ModelError(f"max_len must be positive, got {max_len}")
    theta = dense_theta(model) if theta is None else theta
    table = dict(zip(touched(model).tolist(), theta))
    zero = np.zeros(len(model.vocab))
    out: list[int] = []
    prev = model.vocab.bos_id
    for position in range(max_len):
        row = table.get(context_id(key, position, prev), zero)
        token = int(np.argmax(row))
        if token == model.vocab.eos_id:
            break
        out.append(token)
        prev = token
    return detokenize(model.vocab.decode(out))


# --- sequence-at-a-time training reference ---
#
# The training loops as they ran before the packed kernel: one sequence at a
# time, scalar context ids, one np.add.at per sequence, on a dense table.
# The packed kernel on the slab must reproduce them bit for bit
# (tests/test_training.py).


@dataclass(frozen=True)
class RefSequence:
    contexts: np.ndarray  # uint64 contexts, or their places in a dense table
    ids: np.ndarray


def ref_encode_response(vocab, key: int, response: str) -> RefSequence:
    ids = tokenize(response, vocab, response=True)
    prev = [vocab.bos_id, *ids[:-1]]
    ctx = [context_id(key, t, p) for t, p in enumerate(prev)]
    return RefSequence(np.asarray(ctx, dtype=np.uint64), np.asarray(ids, dtype=np.int64))


def dense_places(models, seqs):
    """(the contexts any of ``models`` has a row for or any of ``seqs``
    reaches, ascending; ``seqs`` with each context replaced by its place
    among them)."""
    contexts = np.union1d(touched(*models), np.concatenate([seq.contexts for seq in seqs]))
    return contexts, [RefSequence(np.searchsorted(contexts, seq.contexts), seq.ids) for seq in seqs]


def _ref_log_softmax(rows):
    shifted = rows - rows.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def ref_log_prob(theta, encoded: RefSequence) -> float:
    rows = theta[encoded.contexts]
    return float(np.sum(_ref_log_softmax(rows)[np.arange(len(encoded.ids)), encoded.ids]))


def ref_nll_and_row_grad(theta, encoded: RefSequence):
    """-log p plus its per-step row gradient (softmax minus onehot)."""
    rows = theta[encoded.contexts]
    log_probs = _ref_log_softmax(rows)
    picked = log_probs[np.arange(len(encoded.ids)), encoded.ids]
    delta = np.exp(log_probs)
    delta[np.arange(len(encoded.ids)), encoded.ids] -= 1.0
    return -float(np.sum(picked)), delta


def ref_log_prob_row_grad(theta, seq: RefSequence):
    """d log p(y|x) / d rows: onehot minus softmax, one row per step."""
    rows = theta[seq.contexts]
    shifted = rows - rows.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    probs = -probs
    probs[np.arange(len(seq.ids)), seq.ids] += 1.0
    return probs


def _ref_softplus(x: float) -> float:
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _ref_sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def reference_train_qit(model, pairs, config):
    seqs = [ref_encode_response(model.vocab, key, response) for key, response in pairs]
    space, encoded = dense_places([model], seqs)
    trained = dense_theta(model, space)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    trace = []
    step = 0
    while step < config.steps:
        order = rng.permutation(len(encoded))
        for start in range(0, len(order), config.batch_size):
            if step >= config.steps:
                break
            batch = [encoded[i] for i in order[start:start + config.batch_size]]
            loss = 0.0
            updates = []
            for seq in batch:
                nll, delta = ref_nll_and_row_grad(trained, seq)
                loss += nll
                updates.append((seq.contexts, delta))
            loss /= len(batch)
            for contexts, delta in updates:
                np.add.at(trained, contexts, -(config.learning_rate / len(batch)) * delta)
            trace.append(TraceRow(step=step, loss=loss))
            step += 1
    return dense_model(model.vocab, trained, space), trace


def reference_train_qdpo(policy_init, triples, config):
    seqs = [ref_encode_response(policy_init.vocab, key, response)
            for key, *responses in triples for response in responses]
    space, places = dense_places([policy_init], seqs)
    reference = dense_theta(policy_init, space)
    policy = reference.copy()
    encoded = list(zip(places[0::2], places[1::2]))
    rng = np.random.Generator(np.random.PCG64(config.seed))
    order = list(rng.permutation(len(encoded)))
    trace = []
    cursor = 0
    for step in range(config.steps):
        batch = []
        for _ in range(min(config.batch_size, len(encoded))):
            batch.append(encoded[order[cursor]])
            cursor = (cursor + 1) % len(order)
        loss = 0.0
        updates = []
        for chosen, rejected in batch:
            lp_w = ref_log_prob(policy, chosen)
            lp_l = ref_log_prob(policy, rejected)
            ref_w = ref_log_prob(reference, chosen)
            ref_l = ref_log_prob(reference, rejected)
            u = config.beta * ((lp_w - ref_w) - (lp_l - ref_l))
            loss += _ref_softplus(-u)
            scale = -_ref_sigmoid(-u) * config.beta / len(batch)
            updates.append((chosen.contexts, scale * ref_log_prob_row_grad(policy, chosen)))
            updates.append((rejected.contexts, -scale * ref_log_prob_row_grad(policy, rejected)))
        loss /= len(batch)
        for contexts, delta in updates:
            np.add.at(policy, contexts, -config.learning_rate * delta)
        total = 0.0
        for chosen, rejected in encoded:
            total += ref_log_prob(policy, chosen) - ref_log_prob(policy, rejected)
        margin = total / len(encoded)
        trace.append(TraceRow(step=step, loss=loss, margin=margin))
    return dense_model(policy_init.vocab, policy, space), trace


# --- reference optimizers: the frozenset implementations the bitmask ones replaced ---


class ReferenceCostModel(CostModel):
    """The cost model with the per-call subset estimate the optimizers used
    to call: leaf estimates ascending, then the subset's sorted joins."""

    def subset_cardinality(self, tables, query) -> float:
        subset = set(tables)
        card = 1.0
        for table in sorted(subset):
            card *= self.leaf_cardinality(table, query)
        for join in sorted(query.joins):
            if join.table_a in subset and join.table_b in subset:
                card *= self.join_selectivity(join)
        return card


def _ref_connected(tables: frozenset[str], query: QuerySpec) -> bool:
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


def _ref_linked(left: frozenset[str], right: frozenset[str], query: QuerySpec) -> bool:
    return any(
        (j.table_a in left and j.table_b in right)
        or (j.table_a in right and j.table_b in left)
        for j in query.joins
    )


def _ref_pick_operator(left_rows: float, right_rows: float) -> str:
    if left_rows < NEST_LOOP_THRESHOLD and right_rows < NEST_LOOP_THRESHOLD:
        return "NestLoopJoin"
    return "HashJoin"


def reference_dp_optimize(query: QuerySpec, model: CostModel) -> PlanTree:
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
            if not _ref_connected(subset, query):
                continue
            out_card = model.subset_cardinality(subset, query)
            candidate: tuple[float, str, PlanTree, float] | None = None
            for left in _ref_proper_subsets(combo):
                right = subset - left
                if left not in best or right not in best:
                    continue
                if not _ref_linked(left, right, query):
                    continue
                lcost, _, lplan, lcard = best[left]
                rcost, _, rplan, rcard = best[right]
                plan = Join(_ref_pick_operator(lcard, rcard), lplan, rplan)
                entry = (lcost + rcost + out_card, tree_to_bracket(plan), plan, out_card)
                if candidate is None or entry[:2] < candidate[:2]:
                    candidate = entry
            if candidate is not None:
                best[subset] = candidate

    full = frozenset(tables)
    if full not in best:
        raise PlangenError("join graph is not connected")
    return best[full][2]


def _ref_proper_subsets(tables: tuple[str, ...]):
    """Non-empty proper subsets, each paired once with its complement."""
    n = len(tables)
    for mask in range(1, (1 << n) - 1):
        yield frozenset(tables[i] for i in range(n) if mask >> i & 1)


def reference_greedy_optimize(query: QuerySpec, model: CostModel) -> PlanTree:
    """Smallest-output-first pairing over predicate-connected components."""
    components: list[tuple[frozenset[str], PlanTree]] = [
        (frozenset([t]), Leaf(t)) for t in sorted(query.tables)
    ]
    while len(components) > 1:
        choice = None
        for i, j in itertools.combinations(range(len(components)), 2):
            set_i, plan_i = components[i]
            set_j, plan_j = components[j]
            if not _ref_linked(set_i, set_j, query):
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


def reference_random_optimize(query: QuerySpec, seed: int) -> PlanTree:
    """Seeded random connected bushy tree with random operators."""
    rng = random.Random(seed)
    components: list[tuple[frozenset[str], PlanTree]] = [
        (frozenset([t]), Leaf(t)) for t in sorted(query.tables)
    ]
    while len(components) > 1:
        joinable = [
            (i, j)
            for i, j in itertools.combinations(range(len(components)), 2)
            if _ref_linked(components[i][0], components[j][0], query)
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


# --- reference hint parser: the hand-written Leading parser that
# bracket_to_tree replaced in plangen.hints, kept as the differential oracle.

_REF_KEYWORD_OPERATORS = {"HashJoin": "HashJoin", "MergeJoin": "MergeJoin", "NestLoop": "NestLoopJoin"}
_REF_HINT_RE = re.compile(r"^/\*\+\s*(.*?)\s*\*/$", re.DOTALL)


def reference_parse_hints(text: str) -> PlanTree:
    """The parser as it was before parse_hints read the Leading clause with
    bracket_to_tree; tests/test_hints.py compares the two."""
    match = _REF_HINT_RE.match(text.strip())
    if match is None:
        raise HintError("not a hint comment")
    body = match.group(1)

    leading, methods = _ref_split_clauses(body)
    shape = _ref_parse_nested(leading)
    operators: dict[frozenset[str], str] = {}
    for keyword, tables in methods:
        if keyword not in _REF_KEYWORD_OPERATORS:
            raise HintError(f"unknown method keyword {keyword!r}")
        key = frozenset(tables)
        if key in operators:
            raise HintError(f"duplicate method hint for {sorted(key)}")
        operators[key] = _REF_KEYWORD_OPERATORS[keyword]

    plan, used = _ref_assign(shape, operators)
    if used != set(operators):
        extra = [sorted(k) for k in set(operators) - used]
        raise HintError(f"method hints match no join node: {extra}")
    return plan


def _ref_split_clauses(body: str) -> tuple[str, list[tuple[str, list[str]]]]:
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


def _ref_parse_nested(text: str):
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


def _ref_assign(shape, operators: dict[frozenset[str], str]) -> tuple[PlanTree, set[frozenset[str]]]:
    if isinstance(shape, str):
        return Leaf(shape), set()
    left, left_used = _ref_assign(shape[0], operators)
    right, right_used = _ref_assign(shape[1], operators)
    key = frozenset(leaves(left) + leaves(right))
    if key not in operators:
        raise HintError(f"no method hint covers {sorted(key)}")
    return Join(operators[key], left, right), left_used | right_used | {key}


# --- demonstration-drawing inference reference ---
#
# Inference as it ran while it still assembled a prompt: a seeded
# demonstration draw from the pool records whose SQL text is not the query's,
# then the full prompt, thrown away because the token model reads only the
# template key. pipeline.decode_query must return the same responses and
# raise the same errors (tests/test_pipeline.py).


def _ref_select_demonstration(query, pool, mode, rng=None):
    if mode not in DEMO_MODES:
        raise DatasetError(f"unknown demonstration mode {mode!r}")
    if mode == "none":
        return None

    template = template_of(query)
    candidates = [r for r in pool if r.template == template]
    if candidates:
        candidates.sort(key=lambda r: r.query_id)
        if rng is None:
            return candidates[0]
        return candidates[rng.randrange(len(candidates))]
    if mode == "strict":
        raise NoDemonstrationAvailable("no record shares the template")

    scored = []
    for r in pool:
        table_sim = _ref_jaccard(template.tables, r.template.tables)
        join_sim = _ref_jaccard(template.joins, r.template.joins)
        scored.append((-table_sim, -join_sim, r.query_id, r))
    if not scored:
        raise NoDemonstrationAvailable("no candidate record is left for the demonstration")
    scored.sort(key=lambda item: item[:3])
    return scored[0][3]


def _ref_jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def _ref_prompt_with_demonstration(query, catalog, candidates, mode, rng, label):
    try:
        record = _ref_select_demonstration(query, candidates, mode, rng)
    except NoDemonstrationAvailable as exc:
        raise NoDemonstrationAvailable(f"{exc} of query {label}") from None
    demo = None
    if record is not None:
        demo = Demonstration(record.sql, extract_input_statistics(record.prompt), record.response)
    return build_prompt(query, catalog, demo)


def reference_demonstration_siblings(template, candidates, mode, label):
    """dataset.demonstration_siblings as it read when decode_query called it
    over a copy of the pool without the query's own text;
    dataset.require_demonstration must raise what that call raised."""
    if mode not in DEMO_MODES:
        raise DatasetError(f"unknown demonstration mode {mode!r}")
    if mode == "none":
        return []
    siblings = [r for r in candidates if r.template == template]
    if not siblings and mode == "strict":
        raise NoDemonstrationAvailable(f"no record shares the template of query {label}")
    if not candidates:
        raise NoDemonstrationAvailable(
            f"no candidate record is left for the demonstration of query {label}"
        )
    return siblings


def reference_decode_query(model, query, catalog, pool, demo_mode, demo_seed, max_len, label) -> str:
    sql = render_sql(query)
    candidates = [record for record in pool if record.sql != sql]
    rng = random.Random(f"{demo_seed}:infer:{label}")
    _ref_prompt_with_demonstration(query, catalog, candidates, demo_mode, rng, sql)
    return model.greedy_decode(template_key(template_of(query)), max_len)


def reference_build_sft_dataset(workload, plan_logs, catalog, demo_mode="strict", seed=0):
    """SFT assembly that offers each query every other record of the pool as
    a candidate; dataset.build_sft_dataset must return the same records and
    raise the same errors (tests/test_dataset.py)."""
    pool = []
    for query_id, query in zip(query_ids(workload), workload):
        if not plan_logs.get(query_id):
            raise DatasetError(f"missing plan log for query {query_id}")
        pool.append(
            InstructionRecord(
                query_id=query_id,
                prompt=build_prompt(query, catalog),
                response=render_response(best_timing(plan_logs[query_id]).plan),
                sql=render_sql(query),
                template=template_of(query),
            )
        )
    records = []
    for query, bare in zip(workload, pool):
        rng = random.Random(f"{seed}:{bare.query_id}")
        candidates = [r for r in pool if r.query_id != bare.query_id]
        prompt = _ref_prompt_with_demonstration(query, catalog, candidates, demo_mode, rng, bare.query_id)
        records.append(replace(bare, prompt=prompt))
    records.sort(key=lambda r: r.query_id)
    return records


# --- reference SQL parser: the match-per-token lexer and token-stream parser
# that plangen.sql replaced with one finditer pass and a parse by index, kept
# as the differential oracle of tests/test_sql.py.

_REF_TOKEN_RE = re.compile(
    r"\s*(?:(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>-?\d+(?:\.\d+)?)"
    r"|(?P<op><=|>=|<|>|=)"
    r"|(?P<punct>[,.;*()]))"
)


def _ref_lex(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _REF_TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise SqlSyntaxError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


class _RefTokenStream:
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


def _ref_parse_column_ref(stream: _RefTokenStream) -> tuple[str, str, int]:
    kind, table, pos = stream.next()
    if kind != "word":
        raise SqlSyntaxError(f"expected table name, got {table!r}", pos)
    stream.expect_punct(".")
    kind, column, cpos = stream.next()
    if kind != "word":
        raise SqlSyntaxError(f"expected column name, got {column!r}", cpos)
    return table, column, pos


def reference_parse_sql(text: str) -> QuerySpec:
    """parse_sql as it was before the one-pass lexer."""
    tokens = _ref_lex(text)
    stream = _RefTokenStream(tokens, len(text))

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
            _ref_parse_conjunct(stream, tables, joins, selections)
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


def _ref_parse_conjunct(
    stream: _RefTokenStream,
    tables: frozenset[str],
    joins: set[JoinPredicate],
    selections: list[Selection],
) -> None:
    kind, value, pos = stream.peek()
    if kind != "word":
        raise SqlSyntaxError(f"expected predicate, got {value!r}", pos)
    table, column, tpos = _ref_parse_column_ref(stream)
    if table not in tables:
        raise SqlSemanticError(f"predicate references unknown table {table!r}")

    okind, op, opos = stream.next()
    if okind != "op":
        raise SqlSyntaxError(f"expected comparison operator, got {op!r}", opos)

    kind, value, vpos = stream.peek()
    if kind == "word":
        rtable, rcolumn, _ = _ref_parse_column_ref(stream)
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


# --- per-source report reference: the report stage as it ran before the
# per-query rows, folding straight into per-source lists and timing each
# valid model plan on its own, with no memo; the oracle of tests/test_report.py.


def reference_build_report(plans_test, model_responses, tables) -> dict:
    """Validity and timing quantiles per plan source over the test split;
    ``model_responses`` maps a source to its (response, query) pairs."""
    timings: dict[str, list[int]] = {}
    for query_timings in plans_test.values():
        for timing in query_timings:
            timings.setdefault(timing.optimizer_id, []).append(timing.time)

    validity = {}
    for source, pairs in model_responses.items():
        counts = {"E1": 0, "E2": 0, "E3": 0}
        times = []  # of the valid responses
        for response, query in pairs:
            report = validate(response, query)
            if report.valid:
                times.append(micro_execute(report.plan, query, tables, source).time)
            for code in report.errors:
                counts[code] += 1
        validity[source] = {
            "total": len(pairs),
            "valid": len(times),
            "rate": len(times) / len(pairs) if pairs else 0.0,
            "errors": counts,
        }
        if times:
            timings[source] = times

    return {
        "validity": validity,
        "timings": {
            source: timing_summary(values)
            for source, values in sorted(timings.items())
        },
    }


def reference_report_json(run_dir: Path, tables_dir) -> bytes:
    """The bytes the report stage wrote for a run directory."""
    test_queries = read_lines(run_dir / "test.sql", parse_sql)
    responses = {}
    for source in ("qit", "qdpo"):
        texts = read_responses(run_dir / f"responses_{source}.jsonl", test_queries)
        responses[source] = list(zip(texts, test_queries))
    log = read_plan_log(run_dir / "plans_test.jsonl")
    report = reference_build_report(log, responses, load_tables(tables_dir))
    report["datasets"] = {
        "workload": len(read_lines(run_dir / "workload.sql", str)),
        "train": len(read_lines(run_dir / "train.sql", str)),
        "test": len(test_queries),
        "sft_records": len(read_lines(run_dir / "sft.jsonl", str)),
        "dpo_triples": len(read_lines(run_dir / "dpo.jsonl", str)),
    }
    return (json.dumps(report, sort_keys=True, indent=1) + "\n").encode("utf-8")
