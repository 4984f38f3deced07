import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plangen.catalog import MicroTable, load_catalog, load_tables
from plangen.costs import CostModel
from plangen.executor import ExecutionError, execute_plan, micro_execute
from plangen.optimizers import (
    TooManyTables,
    dp_optimize,
    greedy_optimize,
    random_optimize,
)
from plangen.plans import Join, Leaf, leaves, tree_to_bracket
from plangen.sql import JoinPredicate, parse_sql, render_sql
from plangen.workload import WorkloadError, gen_workload, load_join_graph
from tests.conftest import (
    FIXTURES_DIR,
    ReferenceCostModel,
    brute_force_counts,
    brute_force_join,
    canonical_multiset,
    catalog_from_tables,
    plan_cost,
    reference_dp_optimize,
    reference_greedy_optimize,
    reference_random_optimize,
    reference_time,
)


def all_bushy_plans(tables, query):
    """Brute-force oracle: every predicate-connected bushy shape.

    Operators are irrelevant to the cost objective, so shapes carry HashJoin.
    """
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


def brute_force_min_cost(query, model):
    costs = [plan_cost(model, p, query) for p in all_bushy_plans(query.tables, query)]
    assert costs, "query has no connected plan"
    return min(costs)


@pytest.fixture(scope="module")
def chain_fixture():
    """Four tables joined in a chain, with skewed sizes."""
    tables = [
        MicroTable("t1", ("a",), tuple((i,) for i in range(8))),
        MicroTable("t2", ("a", "b"), tuple((i % 8, i % 3) for i in range(30))),
        MicroTable("t3", ("b", "c"), tuple((i % 3, i % 5) for i in range(50))),
        MicroTable("t4", ("c",), tuple((i % 5,) for i in range(12))),
    ]
    catalog = catalog_from_tables(tables)
    query = parse_sql(
        "SELECT * FROM t1, t2, t3, t4 WHERE t1.a = t2.a AND t2.b = t3.b AND t3.c = t4.c;"
    )
    return {t.name: t for t in tables}, catalog, query


def test_dp_two_tables(micro_catalog):
    query = parse_sql("SELECT * FROM title, movie_companies WHERE title.movie_id = movie_companies.movie_id;")
    model = CostModel(micro_catalog)
    plan = dp_optimize(query, model)
    assert isinstance(plan, Join)
    assert set(leaves(plan)) == {"title", "movie_companies"}
    # Both inputs are under the nested-loop threshold on the micro fixture.
    left = model.leaf_cardinality(leaves(plan)[0], query)
    right = model.leaf_cardinality(leaves(plan)[1], query)
    expected_op = "NestLoopJoin" if left < 100 and right < 100 else "HashJoin"
    assert plan.op == expected_op


def test_dp_matches_brute_force_on_chain(chain_fixture):
    _, catalog, query = chain_fixture
    model = CostModel(catalog)
    plan = dp_optimize(query, model)
    assert plan_cost(model, plan, query) == brute_force_min_cost(query, model)


def test_dp_selective_table_joined_early(chain_fixture):
    # A highly selective predicate on t3 should pull it into the first join.
    _, catalog, _ = chain_fixture
    query = parse_sql(
        "SELECT * FROM t1, t2, t3, t4 WHERE t1.a = t2.a AND t2.b = t3.b "
        "AND t3.c = t4.c AND t3.c < 1;"
    )
    model = CostModel(catalog)
    plan = dp_optimize(query, model)
    assert plan_cost(model, plan, query) == brute_force_min_cost(query, model)


def test_dp_rejects_too_many_tables(micro_catalog):
    tables = [f"t{i}" for i in range(15)]
    joins = " AND ".join(f"t{i}.x = t{i+1}.x" for i in range(14))
    query = parse_sql(f"SELECT * FROM {', '.join(tables)} WHERE {joins};")
    with pytest.raises(TooManyTables):
        dp_optimize(query, CostModel(micro_catalog))


def test_dp_unique_minimum_brackets_equal(chain_fixture):
    # Determinism: repeated runs give the identical plan.
    _, catalog, query = chain_fixture
    model = CostModel(catalog)
    assert tree_to_bracket(dp_optimize(query, model)) == tree_to_bracket(dp_optimize(query, model))


def test_greedy_two_tables(micro_catalog):
    query = parse_sql("SELECT * FROM cast_info, title WHERE title.movie_id = cast_info.movie_id;")
    plan = greedy_optimize(query, CostModel(micro_catalog))
    assert plan == Join("MergeJoin", Leaf("cast_info"), Leaf("title"))


def test_greedy_three_table_chain_first_join(chain_fixture):
    # Direct estimate comparison: greedy's first join is the smallest output
    # pair among the predicate-linked pairs.
    _, catalog, _ = chain_fixture
    query = parse_sql("SELECT * FROM t1, t2, t3 WHERE t1.a = t2.a AND t2.b = t3.b;")
    model = CostModel(catalog)
    pair_estimates = {
        frozenset(("t1", "t2")): model.subset_cardinality(("t1", "t2"), query),
        frozenset(("t2", "t3")): model.subset_cardinality(("t2", "t3"), query),
    }
    best_pair = min(pair_estimates, key=lambda k: pair_estimates[k])
    plan = greedy_optimize(query, model)
    first = plan.left if isinstance(plan.left, Join) else plan.right
    assert isinstance(first, Join)
    assert frozenset(leaves(first)) == best_pair
    assert all(node.op == "MergeJoin" for node in _joins(plan))


def test_greedy_star_center(micro_catalog):
    # Exhaustive estimate oracle over the greedy's first choice on a star.
    query = parse_sql(
        "SELECT * FROM title, movie_companies, cast_info "
        "WHERE title.movie_id = movie_companies.movie_id AND title.movie_id = cast_info.movie_id;"
    )
    model = CostModel(micro_catalog)
    linked_pairs = [("movie_companies", "title"), ("cast_info", "title")]
    best = min(linked_pairs, key=lambda p: (model.subset_cardinality(p, query)))
    plan = greedy_optimize(query, model)
    inner = plan.left if isinstance(plan.left, Join) else plan.right
    assert frozenset(leaves(inner)) == frozenset(best)


def _joins(plan):
    if isinstance(plan, Leaf):
        return
    yield plan
    yield from _joins(plan.left)
    yield from _joins(plan.right)


def test_random_optimize_deterministic(movie_query):
    a = random_optimize(movie_query, seed=7)
    b = random_optimize(movie_query, seed=7)
    assert a == b
    # Golden regenerated from the seeded generator at freeze time.
    assert tree_to_bracket(a) == "HashJoin(movie_companies HashJoin(title movie_info_idx))"


def test_random_optimize_single_join():
    q = parse_sql("SELECT * FROM a, b WHERE a.x = b.y;")
    plan = random_optimize(q, seed=1)
    assert isinstance(plan, Join)
    assert plan.op in ("HashJoin", "MergeJoin", "NestLoopJoin")
    assert set(leaves(plan)) == {"a", "b"}


def test_random_optimize_respects_join_graph(micro_catalog, micro_join_lines, tmp_path):
    path = tmp_path / "joins.txt"
    path.write_text("\n".join(micro_join_lines), encoding="utf-8")
    graph = load_join_graph(path)
    queries = gen_workload(micro_catalog, graph, 3, 20, seed=2)
    from plangen.validator import validate
    from plangen.plans import render_response

    for i, q in enumerate(queries):
        plan = random_optimize(q, seed=i)
        assert validate(render_response(plan), q).valid


# --- micro executor ---


def test_scan_touches_rows():
    table = MicroTable("t", ("a",), tuple((i,) for i in range(10)))
    query = parse_sql("SELECT * FROM t;")
    timing = micro_execute(Leaf("t"), query, {"t": table})
    assert timing.time == 10


def test_nestloop_touch_arithmetic():
    t1 = MicroTable("t1", ("a",), ((0,), (1,), (2,)))
    t2 = MicroTable("t2", ("a",), ((0,), (1,), (2,), (3,)))
    query = parse_sql("SELECT * FROM t1, t2 WHERE t1.a = t2.a;")
    timing = micro_execute(Join("NestLoopJoin", Leaf("t1"), Leaf("t2")), query, {"t1": t1, "t2": t2})
    assert timing.time == 3 + 4 + 12


def test_hash_join_touches():
    t1 = MicroTable("t1", ("a",), ((0,), (1,), (2,)))
    t2 = MicroTable("t2", ("a",), ((0,), (1,), (2,), (3,)))
    query = parse_sql("SELECT * FROM t1, t2 WHERE t1.a = t2.a;")
    timing = micro_execute(Join("HashJoin", Leaf("t1"), Leaf("t2")), query, {"t1": t1, "t2": t2})
    assert timing.time == 3 + 4 + (3 + 4)


def test_merge_join_touches():
    # sort charge: n*ceil(log2 n) per input, plus one scan of both inputs
    t1 = MicroTable("t1", ("a",), tuple((i,) for i in range(5)))
    t2 = MicroTable("t2", ("a",), tuple((i,) for i in range(6)))
    query = parse_sql("SELECT * FROM t1, t2 WHERE t1.a = t2.a;")
    timing = micro_execute(Join("MergeJoin", Leaf("t1"), Leaf("t2")), query, {"t1": t1, "t2": t2})
    sort = 5 * 3 + 6 * 3
    assert timing.time == 5 + 6 + sort + (5 + 6)


def test_executor_matches_naive_oracle(micro_db, micro_catalog):
    query = parse_sql(
        "SELECT * FROM movie_companies, title, movie_info_idx "
        "WHERE title.movie_id = movie_companies.movie_id "
        "AND title.movie_id = movie_info_idx.movie_id AND title.product_year < 1990;"
    )
    plan = Join(
        "HashJoin",
        Leaf("movie_info_idx"),
        Join("HashJoin", Leaf("movie_companies"), Leaf("title")),
    )
    relation, _ = execute_plan(plan, query, micro_db)
    assert canonical_multiset(relation) == brute_force_join(query, micro_db)


def test_all_plans_same_result_multiset(micro_db, micro_catalog):
    query = parse_sql(
        "SELECT * FROM title, movie_companies, cast_info "
        "WHERE title.movie_id = movie_companies.movie_id "
        "AND title.movie_id = cast_info.movie_id AND cast_info.role_id < 6;"
    )
    reference = brute_force_join(query, micro_db)
    subset_rows = brute_force_counts(query, micro_db)
    count = 0
    for shape in all_bushy_plans(query.tables, query):
        for ops in itertools.product(("HashJoin", "MergeJoin", "NestLoopJoin"), repeat=2):
            plan = _assign_ops(shape, list(ops))
            relation, touches = execute_plan(plan, query, micro_db)
            assert canonical_multiset(relation) == reference
            assert touches == reference_time(plan, micro_db, subset_rows)
            count += 1
    assert count > 10


@st.composite
def micro_subqueries(draw, micro_db, join_lines):
    """A connected subquery of the micro database with random selections."""
    edges = [tuple(side.split(".")[0] for side in line.split(" = ")) for line in join_lines]
    tables = [draw(st.sampled_from(sorted(micro_db)))]
    for _ in range(draw(st.integers(0, 5))):
        frontier = sorted({b if a in tables else a for a, b in edges if (a in tables) != (b in tables)})
        tables.append(draw(st.sampled_from(frontier)))
    joins = [line for line, (a, b) in zip(join_lines, edges) if a in tables and b in tables]
    selections = []
    for name in tables:
        if draw(st.booleans()):
            table = micro_db[name]
            column = draw(st.sampled_from(table.columns))
            values = [row[table.column_index(column)] for row in table.rows]
            literal = draw(st.integers(min(values) - 1, max(values) + 1))
            op = draw(st.sampled_from(("<", ">", "=", "<=", ">=")))
            selections.append(f"{name}.{column} {op} {literal}")
    where = " AND ".join(joins + selections)
    return parse_sql(f"SELECT * FROM {', '.join(tables)}" + (f" WHERE {where};" if where else ";"))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_micro_execute_time_is_formula_over_true_counts(micro_db, micro_join_lines, data):
    query = data.draw(micro_subqueries(micro_db, micro_join_lines))
    seeds = data.draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
    plans = [random_optimize(query, seed) for seed in seeds]
    subset_rows = brute_force_counts(query, micro_db)
    alone = [micro_execute(plan, query, micro_db).time for plan in plans]
    assert alone == [reference_time(plan, micro_db, subset_rows) for plan in plans]

    order = data.draw(st.permutations(range(len(plans))))
    memo = {}
    shared = {i: micro_execute(plans[i], query, micro_db, memo=memo).time for i in order}
    assert [shared[i] for i in range(len(plans))] == alone


@pytest.fixture(scope="module")
def fixture_db():
    join_lines = (FIXTURES_DIR / "joins.txt").read_text(encoding="utf-8").splitlines()
    return load_tables(FIXTURES_DIR / "tables"), join_lines, load_catalog(FIXTURES_DIR / "catalog.txt")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bitmask_optimizers_equal_frozenset_references(fixture_db, data):
    # Random connected subsets of the fixture join graph, random selections:
    # the same plans as the frozenset implementations, and every table
    # subset's estimate bit-equal to the per-call formula.
    tables_by_name, join_lines, catalog = fixture_db
    query = data.draw(micro_subqueries(tables_by_name, join_lines))
    seed = data.draw(st.integers(0, 2**32))
    model, reference = CostModel(catalog), ReferenceCostModel(catalog)
    assert dp_optimize(query, model) == reference_dp_optimize(query, reference)
    assert greedy_optimize(query, model) == reference_greedy_optimize(query, reference)
    assert random_optimize(query, seed) == reference_random_optimize(query, seed)

    estimates = model.estimates(query)
    tables = sorted(query.tables)
    for size in range(1, len(tables) + 1):
        for subset in itertools.combinations(tables, size):
            expected = reference.subset_cardinality(subset, query).hex()
            assert estimates.cardinality(estimates.mask(subset)).hex() == expected
            assert model.subset_cardinality(subset, query).hex() == expected


def _assign_ops(plan, ops):
    if isinstance(plan, Leaf):
        return plan
    op = ops.pop(0)
    return Join(op, _assign_ops(plan.left, ops), _assign_ops(plan.right, ops))


def test_missing_table_error():
    query = parse_sql("SELECT * FROM t;")
    with pytest.raises(ExecutionError, match="missing table"):
        micro_execute(Leaf("t"), query, {})


def test_dp_never_worse_than_other_personalities(micro_catalog, micro_join_lines, tmp_path):
    path = tmp_path / "joins.txt"
    path.write_text("\n".join(micro_join_lines), encoding="utf-8")
    graph = load_join_graph(path)
    model = CostModel(micro_catalog)
    for n_joins in (1, 2, 3):
        for i, q in enumerate(gen_workload(micro_catalog, graph, n_joins, 10, seed=n_joins)):
            dp_cost = plan_cost(model, dp_optimize(q, model), q)
            assert dp_cost <= plan_cost(model, greedy_optimize(q, model), q) + 1e-9
            assert dp_cost <= plan_cost(model, random_optimize(q, seed=i), q) + 1e-9
            assert dp_cost == brute_force_min_cost(q, model)


# --- workload generation ---


def test_gen_workload_zero_joins(micro_catalog, micro_join_lines, tmp_path):
    path = tmp_path / "joins.txt"
    path.write_text("\n".join(micro_join_lines), encoding="utf-8")
    graph = load_join_graph(path)
    queries = gen_workload(micro_catalog, graph, 0, 5, seed=1)
    assert all(len(q.tables) == 1 and not q.joins and not q.selections for q in queries)


def test_gen_workload_deterministic(micro_catalog, micro_join_lines, tmp_path):
    path = tmp_path / "joins.txt"
    path.write_text("\n".join(micro_join_lines), encoding="utf-8")
    graph = load_join_graph(path)
    a = [q.raw_sql for q in gen_workload(micro_catalog, graph, 2, 25, seed=9)]
    b = [q.raw_sql for q in gen_workload(micro_catalog, graph, 2, 25, seed=9)]
    assert a == b


def test_gen_workload_structure(micro_catalog, micro_join_lines, tmp_path):
    path = tmp_path / "joins.txt"
    path.write_text("\n".join(micro_join_lines), encoding="utf-8")
    graph = load_join_graph(path)
    for q in gen_workload(micro_catalog, graph, 2, 40, seed=3):
        assert len(q.tables) == 3
        assert len(q.joins) == 2


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_joins=st.integers(0, 5),
    flips=st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_gen_workload_equals_its_canonical_reload(micro_catalog, micro_join_lines, seed, n_joins,
                                                  flips):
    """Each generated query equals, field for field, the query parsed back
    from its canonical text, whichever way round the graph states an edge."""
    graph = []
    for line, flip in zip(micro_join_lines, flips):
        left, right = (side.strip().split(".") for side in line.split("="))
        graph.append(JoinPredicate(*right, *left) if flip else JoinPredicate(*left, *right))
    for query in gen_workload(micro_catalog, graph, n_joins, 8, seed):
        assert vars(query) == vars(parse_sql(render_sql(query)))


def test_gen_workload_rejects_large_n_joins(micro_catalog, micro_join_lines, tmp_path):
    path = tmp_path / "joins.txt"
    path.write_text("\n".join(micro_join_lines), encoding="utf-8")
    graph = load_join_graph(path)
    with pytest.raises(WorkloadError):
        gen_workload(micro_catalog, graph, 6, 1, seed=0)
