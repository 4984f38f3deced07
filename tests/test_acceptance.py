"""Acceptance suite: eleven criteria, one test and one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing defers to later calibration.
"""

import hashlib
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from plangen.catalog import MicroTable, load_catalog
from plangen.costs import CostModel
from plangen.executor import execute_plan, micro_execute
from plangen.hints import emit_hints, parse_hints
from plangen.model import context_id
from plangen.optimizers import dp_optimize, greedy_optimize, random_optimize
from plangen.pipeline import PipelineConfig, run_pipeline
from plangen.plans import (
    Join,
    Leaf,
    bracket_to_tree,
    leaves,
    parse_response,
    path_to_tree,
    render_response,
    tree_to_bracket,
    tree_to_path,
)
from plangen.preferences import PreferenceConfig, generate_preferences
from plangen.sql import parse_sql, template_key, template_of
from plangen.tokenizer import build_vocab, split_tokens, tokenize
from plangen.training import (
    TrainConfig,
    dpo_grad_check,
    dpo_loss,
    dpo_reward_diff,
    encode_triples,
    fit_qit_from_records,
    sequence_log_prob,
    sft_grad_check,
    sft_loss,
    train_qdpo,
    triple_margins,
)
from plangen.validator import validate
from plangen.workload import gen_workload, load_join_graph
from tests.conftest import (
    brute_force_counts,
    brute_force_join,
    canonical_multiset,
    dense_theta,
    plan_cost,
    qit_config,
    random_model,
    random_plan,
    reference_time,
    touched,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def passed(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def fixture_catalog():
    return load_catalog(FIXTURES / "catalog.txt")


@pytest.fixture(scope="module")
def fixture_graph():
    return load_join_graph(FIXTURES / "joins.txt")


@pytest.fixture(scope="module")
def fixture_tables():
    from plangen.catalog import load_tables

    return load_tables(FIXTURES / "tables")


def test_criterion_1_plan_grammar_round_trips():
    rng = random.Random(1001)
    for _ in range(1000):
        n = rng.randint(2, 12)
        tables = [f"t{i}" for i in range(n)]
        rng.shuffle(tables)
        plan = random_plan(rng, tables)
        assert bracket_to_tree(tree_to_bracket(plan)) == plan
        path = tree_to_path(plan)
        assert len(path.steps) == n - 1
        assert path_to_tree(path) == plan
        assert parse_response(render_response(plan)) == plan
    passed(1, "1000 random plans: bracket, path and response round trips, n-1 steps")


def test_criterion_2_reference_goldens(movie_plan):
    assert tree_to_bracket(movie_plan) == (
        "HashJoin(movie_info_idx HashJoin(movie_companies title))"
    )
    assert tree_to_path(movie_plan).steps == (
        ("movie_companies", "title", "HashJoin"),
        ("movie_info_idx", "HashJoin(movie_companies title)", "HashJoin"),
    )
    assert render_response(movie_plan) == (
        "Step1: [movie_companies, title, HashJoin],\n"
        "Step2: [movie_info_idx, HashJoin(movie_companies title), HashJoin],\n"
        "\n"
        "Therefore, the final answer is:\n"
        "HashJoin(movie_info_idx HashJoin(movie_companies title))."
    )
    passed(2, "bracket, planning path and response reproduce the reference byte-exactly")


def _drop_leaf(plan, rng):
    names = leaves(plan)
    victim = rng.choice(names)

    def drop(node):
        if isinstance(node, Leaf):
            return node
        if isinstance(node.left, Leaf) and node.left.table == victim:
            return drop(node.right)
        if isinstance(node.right, Leaf) and node.right.table == victim:
            return drop(node.left)
        return Join(node.op, drop(node.left), drop(node.right))

    return drop(plan)


def _swap_leaf(plan, rng):
    victim = rng.choice(leaves(plan))

    def swap(node):
        if isinstance(node, Leaf):
            return Leaf("zz_foreign") if node.table == victim else node
        return Join(node.op, swap(node.left), swap(node.right))

    return swap(plan)


def test_criterion_3_validator_taxonomy(fixture_catalog, fixture_graph):
    model = CostModel(fixture_catalog)
    queries = []
    for n_joins, seed in ((1, 31), (2, 32), (3, 33)):
        queries.extend(gen_workload(fixture_catalog, fixture_graph, n_joins, 25, seed=seed))
    plans = [
        dp_optimize(q, model) if i % 2 else greedy_optimize(q, model)
        for i, q in enumerate(queries)
    ]
    rng = random.Random(77)
    corpus = []
    for kind in ("valid", "drop", "swap", "unbalance"):
        for query, plan in zip(queries, plans):
            if kind == "valid":
                corpus.append((render_response(plan), query, set()))
            elif kind == "drop":
                mutated = _drop_leaf(plan, rng)
                text = (
                    f"Therefore, the final answer is:\n{tree_to_bracket(mutated)}."
                    if isinstance(mutated, Leaf)
                    else render_response(mutated)
                )
                corpus.append((text, query, {"E1", "E2"}))
            elif kind == "swap":
                corpus.append((render_response(_swap_leaf(plan, rng)), query, {"E2"}))
            else:
                bracket = tree_to_bracket(plan)
                broken = bracket[::-1].replace(")", "", 1)[::-1]
                text = render_response(plan).rsplit(bracket, 1)[0] + broken + "."
                corpus.append((text, query, {"E3"}))
    assert len(corpus) == 300

    multi_error_seen = False
    for text, query, labels in corpus:
        report = validate(text, query)
        assert report.errors == labels, (labels, report.errors, text)
        if not labels:
            assert report.valid  # zero false invalids on the valid sub-corpus
        if len(report.errors) > 1:
            multi_error_seen = True
    assert multi_error_seen
    passed(3, "300-response mutation corpus classified exactly; no false invalids")


def test_criterion_4_preference_oracle(fixture_catalog, fixture_graph, fixture_tables):
    model = CostModel(fixture_catalog)
    queries = []
    for n_joins, seed in ((1, 41), (2, 42), (3, 43), (4, 44)):
        queries.extend(gen_workload(fixture_catalog, fixture_graph, n_joins, 50, seed=seed))
    assert len(queries) == 200

    def pair_set(triples):
        return {
            (
                tree_to_bracket(parse_response(t.chosen)),
                tree_to_bracket(parse_response(t.rejected)),
            )
            for t in triples
        }

    def brute_force(timings, threshold):
        best_time = min(t.time for t in timings)
        best = min(
            (tree_to_bracket(t.plan) for t in timings if t.time == best_time)
        )
        return {
            (best, tree_to_bracket(t.plan))
            for t in timings
            if best_time / t.time < threshold
        }

    sweep = (0.6, 0.7, 0.8, 0.9, 1.0 - 1e-9)
    for index, query in enumerate(queries):
        timings = [
            micro_execute(dp_optimize(query, model), query, fixture_tables, "dp"),
            micro_execute(greedy_optimize(query, model), query, fixture_tables, "greedy"),
            micro_execute(random_optimize(query, seed=index), query, fixture_tables, "random"),
        ]
        got = generate_preferences(timings, "x", PreferenceConfig(0.95), f"q{index}")
        assert pair_set(got) == brute_force(timings, 0.95)

        previous = set()
        for r0 in sweep:
            pairs = pair_set(
                generate_preferences(timings, "x", PreferenceConfig(r0), f"q{index}")
            )
            assert previous <= pairs  # raising r0 never removes a triple
            previous = pairs

        # A fourth optimizer's plan: the triples over all four timings still
        # equal the oracle, as extend-dpo's output must.
        extra = micro_execute(
            random_optimize(query, seed=10_000 + index), query, fixture_tables, "random2"
        )
        got = generate_preferences(
            [*timings, extra], "x", PreferenceConfig(0.95), f"q{index}"
        )
        assert pair_set(got) == brute_force([*timings, extra], 0.95)
    passed(4, "200 queries: triples equal brute force, also with a fourth optimizer; r0 monotone")


def _connected_subsets(graph_edges):
    tables = sorted({t for e in graph_edges for t in e.tables()})
    for size in range(2, len(tables) + 1):
        for combo in itertools.combinations(tables, size):
            subset = set(combo)
            adjacency = {t: set() for t in subset}
            for e in graph_edges:
                if e.table_a in subset and e.table_b in subset:
                    adjacency[e.table_a].add(e.table_b)
                    adjacency[e.table_b].add(e.table_a)
            seen, stack = {combo[0]}, [combo[0]]
            while stack:
                for nxt in adjacency[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            if seen == subset:
                yield combo


def _induced_query(combo, graph_edges):
    joins = " AND ".join(
        f"{e.table_a}.{e.column_a} = {e.table_b}.{e.column_b}"
        for e in graph_edges
        if e.table_a in combo and e.table_b in combo
    )
    return parse_sql(f"SELECT * FROM {', '.join(combo)} WHERE {joins};")


def _all_shapes(tables, query):
    def linked(left, right):
        return any(
            (j.table_a in left and j.table_b in right)
            or (j.table_a in right and j.table_b in left)
            for j in query.joins
        )

    def build(subset):
        subset = frozenset(subset)
        if len(subset) == 1:
            yield Leaf(next(iter(subset)))
            return
        items = sorted(subset)
        n = len(items)
        for mask in range(1, (1 << n) - 1):
            left = frozenset(items[i] for i in range(n) if mask >> i & 1)
            right = subset - left
            if not linked(left, right):
                continue
            for lp in build(left):
                for rp in build(right):
                    yield Join("HashJoin", lp, rp)

    yield from build(frozenset(tables))


def test_criterion_5_dp_optimality(fixture_catalog, fixture_graph):
    model = CostModel(fixture_catalog)
    checked = 0
    for combo in _connected_subsets(fixture_graph):
        query = _induced_query(combo, fixture_graph)
        best = dp_optimize(query, model)
        brute = min(plan_cost(model, p, query) for p in _all_shapes(combo, query))
        assert plan_cost(model, best, query) == brute
        checked += 1
    assert checked >= 20
    passed(5, f"DP cost equals exhaustive minimum on all {checked} connected queries")


def test_criterion_6_executor_semantics():
    # Dedicated small fixture so full shape x operator enumeration stays fast.
    rng = random.Random(61)
    hub_rows = tuple((i, rng.randint(1, 4)) for i in range(12))
    tables = {"hub": MicroTable("hub", ("k", "v"), hub_rows)}
    for name in ("s1", "s2", "s3", "s4"):
        rows = tuple(sorted((rng.randrange(12), rng.randint(0, 9)) for _ in range(10)))
        tables[name] = MicroTable(name, ("k", "w"), rows)
    joins = " AND ".join(f"hub.k = {name}.k" for name in ("s1", "s2", "s3", "s4"))
    query = parse_sql(f"SELECT * FROM hub, s1, s2, s3, s4 WHERE {joins} AND s1.w < 8;")

    # The reference never calls the executor: rows from a brute-force
    # filtered cross product, times from the touch formula over its counts.
    reference = brute_force_join(query, tables)
    subset_rows = brute_force_counts(query, tables)
    plans_checked = 0
    for shape in _all_shapes(sorted(query.tables), query):
        joins_in_shape = sum(1 for _ in _join_nodes(shape))
        for ops in itertools.product(("HashJoin", "MergeJoin", "NestLoopJoin"), repeat=joins_in_shape):
            plan = _with_ops(shape, list(ops))
            relation, touches = execute_plan(plan, query, tables)
            assert canonical_multiset(relation) == reference
            assert touches == reference_time(plan, tables, subset_rows)
            plans_checked += 1
    assert plans_checked >= 31104
    passed(
        6,
        f"{plans_checked} valid plans: rows equal a brute-force filtered cross product, "
        "times equal the touch formula over brute-force subset counts",
    )


def _join_nodes(plan):
    if isinstance(plan, Join):
        yield plan
        yield from _join_nodes(plan.left)
        yield from _join_nodes(plan.right)


def _with_ops(plan, ops):
    if isinstance(plan, Leaf):
        return plan
    return Join(ops.pop(0), _with_ops(plan.left, ops), _with_ops(plan.right, ops))


def _naive_log_prob(model, key, response):
    ids = tokenize(response, model.vocab, response=True)
    table = dict(zip(touched(model).tolist(), dense_theta(model)))
    prev = model.vocab.bos_id
    total = 0.0
    for position, target in enumerate(ids):
        row = table.get(context_id(key, position, prev), np.zeros(len(model.vocab)))
        exps = [math.exp(v) for v in row]
        total += math.log(exps[target] / sum(exps))
        prev = target
    return total


RESPONSE_POOL = [
    "Step1: [a, b, MergeJoin],\n\nTherefore, the final answer is:\nMergeJoin(a b).",
    "Step1: [b, c, HashJoin],\n\nTherefore, the final answer is:\nHashJoin(b c).",
    "Step1: [a, c, NestLoopJoin],\n\nTherefore, the final answer is:\nNestLoopJoin(a c).",
]


def test_criterion_7_objective_exactness():
    vocab = build_vocab(RESPONSE_POOL)
    rng = np.random.Generator(np.random.PCG64(71))
    ln2 = math.log(2.0)
    for i in range(100):
        model = random_model(vocab, rng, 1.0, [(i, response) for response in RESPONSE_POOL])
        chosen, rejected = rng.choice(len(RESPONSE_POOL), size=2, replace=False)
        for beta in (0.05, 0.1, 0.3):
            loss = dpo_loss(model, model, i, RESPONSE_POOL[chosen], RESPONSE_POOL[rejected], beta)
            assert abs(loss - ln2) <= 1e-12

    model = random_model(vocab, rng, 1.0, [(1, response) for response in RESPONSE_POOL])
    reference = random_model(vocab, rng, 1.0, [(1, response) for response in RESPONSE_POOL])
    for response in RESPONSE_POOL:
        got = sequence_log_prob(model, 1, response)
        assert abs(got - _naive_log_prob(model, 1, response)) <= 1e-10
    batch = [(1, r) for r in RESPONSE_POOL]
    want_loss = sum(-_naive_log_prob(model, k, r) for k, r in batch) / len(batch)
    assert abs(sft_loss(model, batch) - want_loss) <= 1e-10
    want_u = 0.1 * (
        _naive_log_prob(model, 1, RESPONSE_POOL[0])
        - _naive_log_prob(reference, 1, RESPONSE_POOL[0])
        - _naive_log_prob(model, 1, RESPONSE_POOL[1])
        + _naive_log_prob(reference, 1, RESPONSE_POOL[1])
    )
    got_u = dpo_reward_diff(model, reference, 1, RESPONSE_POOL[0], RESPONSE_POOL[1], 0.1)
    assert abs(got_u - want_u) <= 1e-10
    passed(7, "ln 2 at policy=reference (1e-12); objectives match oracles (1e-10)")


def test_criterion_8_gradient_checks():
    vocab = build_vocab(RESPONSE_POOL)
    rng = np.random.Generator(np.random.PCG64(81))
    every_pair = [(key, response) for key in range(3) for response in RESPONSE_POOL]
    model = random_model(vocab, rng, 0.5, every_pair)
    pairs = list(enumerate(RESPONSE_POOL))
    sft_report = sft_grad_check(model, pairs, h=1e-5, tolerance=1e-5, n_params=200, seed=8)
    assert sft_report.checked >= 200
    assert sft_report.passed, sft_report.max_rel_error

    reference = random_model(vocab, rng, 0.5, every_pair)
    triples = [
        (0, RESPONSE_POOL[0], RESPONSE_POOL[1]),
        (1, RESPONSE_POOL[1], RESPONSE_POOL[2]),
    ]
    before = dense_theta(reference).tobytes()
    dpo_report = dpo_grad_check(
        model, reference, triples, beta=0.1, h=1e-5, tolerance=1e-5, n_params=200, seed=9
    )
    assert dpo_report.checked >= 200
    assert dpo_report.passed, dpo_report.max_rel_error
    # The check perturbs only a copy of the policy, never the reference.
    assert dense_theta(reference).tobytes() == before
    # The frozen reference is untouched by training itself.
    train_qdpo(reference, triples, TrainConfig(learning_rate=0.01, steps=5, beta=0.1, seed=1))
    assert dense_theta(reference).tobytes() == before
    passed(8, "finite differences agree within 1e-5 on 200+ parameters; reference frozen")


@pytest.fixture(scope="module")
def preference_fixture(fixture_catalog, fixture_graph, fixture_tables):
    """50 preference triples over template-distinct queries, plus the
    stage-one model they refine."""
    model = CostModel(fixture_catalog)
    pool = []
    for n_joins, seed in ((1, 91), (2, 92), (3, 93), (4, 94)):
        pool.extend(gen_workload(fixture_catalog, fixture_graph, n_joins, 40, seed=seed))
    queries, seen_templates = [], set()
    for query in pool:
        key = template_of(query).key()
        if key not in seen_templates:
            seen_templates.add(key)
            queries.append(query)
    from plangen.dataset import build_prompt

    triples = []
    pairs = []
    for index, query in enumerate(queries):
        timings = [
            micro_execute(dp_optimize(query, model), query, fixture_tables, "dp"),
            micro_execute(greedy_optimize(query, model), query, fixture_tables, "greedy"),
            micro_execute(random_optimize(query, seed=index), query, fixture_tables, "random"),
        ]
        prompt, key = build_prompt(query, fixture_catalog), template_key(template_of(query))
        best = min(timings, key=lambda t: (t.time, tree_to_bracket(t.plan)))
        pairs.append((key, render_response(best.plan)))
        triples.extend(
            (key, t.chosen, t.rejected)
            for t in generate_preferences(timings, prompt, PreferenceConfig(0.95), f"q{index}")
        )
        if len(triples) >= 50:
            break
    triples = triples[:50]
    sft_model, _ = fit_qit_from_records(pairs[: len(pairs)], qit_config(steps=300, seed=90))
    return sft_model, triples


def test_criterion_9_two_stage_training(preference_fixture):
    # Overfit one sample to exact greedy reproduction.
    query = parse_sql(
        "SELECT * FROM title, cast_info, movie_keyword "
        "WHERE title.movie_id = cast_info.movie_id AND title.movie_id = movie_keyword.movie_id;"
    )
    key = template_key(template_of(query))
    response = render_response(
        Join("HashJoin", Leaf("movie_keyword"), Join("HashJoin", Leaf("cast_info"), Leaf("title")))
    )
    model, trace = fit_qit_from_records([(key, response)], qit_config(seed=99))
    assert split_tokens(model.greedy_decode(key, 256)) == split_tokens(response)
    early = [r.loss for r in trace[:150]]
    late = [r.loss for r in trace[-150:]]
    assert sum(late) / len(late) < sum(early) / len(early)

    # 50-triple preference run: margins rise, nearly every triple improves.
    sft_model, triples = preference_fixture
    assert len(triples) == 50
    config = TrainConfig(learning_rate=0.02, steps=300, batch_size=8, beta=0.1, seed=95)
    encoded = encode_triples(sft_model, triples)
    initial = triple_margins(sft_model, encoded, sft_model.resolve(encoded.sequences.contexts))
    tuned, trace = train_qdpo(sft_model, triples, config)
    checkpoints = [row.margin for row in trace[::30]] + [trace[-1].margin]
    assert all(b > a for a, b in zip(checkpoints, checkpoints[1:]))
    final = triple_margins(tuned, encoded, tuned.resolve(encoded.sequences.contexts))
    improved = sum(1 for a, b in zip(initial, final) if b > a)
    assert improved >= math.ceil(0.95 * len(triples))

    # Divergence control: larger beta ends closer to the stage-one model.
    runs = {}
    for beta in (0.05, 0.5):
        config = TrainConfig(learning_rate=0.4, steps=3000, batch_size=8, beta=beta, seed=96)
        trained, _ = train_qdpo(sft_model, triples, config)
        every = touched(trained, sft_model)
        runs[beta] = float(np.linalg.norm(dense_theta(trained, every) - dense_theta(sft_model, every)))
    assert runs[0.5] < runs[0.05]
    passed(9, "overfit reproduction; margins rise on >=95% of 50 triples; beta controls divergence")


# Golden digests of the fixture run: a change that alters how plans are
# timed or reported must show up here, not only as a self-consistent rerun.
FIXTURE_RUN_SHA256 = {
    "plans_train.jsonl": "a88f6e20b3c1c690682ba574a5bf1bb3f0cdfa82d0b8ebdfd16a12003a2dbeda",
    "plans_test.jsonl": "bde8a05b0904c298874a46e8bd9377edbcdd4ae5160a32233cb41b0914201be9",
    "report.json": "cde08c992c3ce03cf40d288843fc120bf6a7de0e380f3b7577b228321d8db5d2",
}


def test_criterion_10_end_to_end_determinism(tmp_path):
    config = PipelineConfig.from_file(FIXTURES / "pipeline.cfg")
    results = []
    for run_name in ("one", "two"):
        run_config = config.with_overrides(out_dir=str(tmp_path / run_name))
        results.append(run_pipeline(run_config))
    artifacts = [
        "workload.sql", "train.sql", "test.sql", "plans_train.jsonl", "plans_test.jsonl",
        "sft.jsonl", "dpo.jsonl", "qit.ckpt", "qdpo.ckpt", "qit_trace.csv",
        "qdpo_trace.csv", "responses_qit.jsonl", "responses_qdpo.jsonl", "report.json",
    ]
    for name in artifacts:
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    for name, digest in FIXTURE_RUN_SHA256.items():
        assert hashlib.sha256((tmp_path / "one" / name).read_bytes()).hexdigest() == digest, name

    report = results[0].report
    for source, summary in report["timings"].items():
        assert {"mean", "median", "p75", "p95", "p99"} <= set(summary)
    sources_with_quantiles = [
        s for s, t in report["timings"].items() if all(k in t for k in ("mean", "median", "p75", "p95", "p99"))
    ]
    assert len(sources_with_quantiles) >= 4
    from plangen.report import format_report

    table = format_report(report)
    for column in ("Mean", "Median", "75th", "95th", "99th"):
        assert column in table
    passed(
        10,
        "two runs byte-identical and equal to the golden digests; "
        f"quantile columns for {len(sources_with_quantiles)} sources",
    )


def test_criterion_11_hint_round_trip():
    rng = random.Random(111)
    for _ in range(500):
        n = rng.randint(2, 10)
        tables = [f"t{i}" for i in range(n)]
        rng.shuffle(tables)
        plan = random_plan(rng, tables)
        assert parse_hints(emit_hints(plan)) == plan
    passed(11, "500 random plans survive emit/parse hint round trips exactly")
