import random

from hypothesis import given
from hypothesis import strategies as st

from plangen.plans import Join, Leaf, render_response, tree_to_bracket
from plangen.sql import parse_sql
from plangen.validator import (
    E1_TABLE_NUMBER_MISMATCH as E1,
    E2_TABLE_MISMATCH as E2,
    E3_OPERATOR_MISMATCH as E3,
    classify_corpus,
    validate,
)


def wrap(bracket: str) -> str:
    return f"Therefore, the final answer is:\n{bracket}."


def test_movie_response_valid(movie_plan, movie_query):
    report = validate(render_response(movie_plan), movie_query)
    assert report.valid
    assert report.errors == set()
    assert report.plan == movie_plan


def test_missing_table_is_e1(movie_query):
    report = validate(wrap("HashJoin(movie_companies title)"), movie_query)
    assert E1 in report.errors
    assert not report.valid


def test_swapped_table_is_e2_not_e1(movie_query):
    # Set-difference oracle: count matches, sets differ by exactly one swap.
    got = {"movie_companies", "title", "cast_info"}
    assert len(got) == len(movie_query.tables) and got != set(movie_query.tables)
    report = validate(
        wrap("HashJoin(cast_info HashJoin(movie_companies title))"), movie_query
    )
    assert E2 in report.errors
    assert E1 not in report.errors


def test_unbalanced_is_e3_only(movie_query):
    text = wrap("HashJoin(movie_info_idx HashJoin(movie_companies title)")
    report = validate(text, movie_query)
    assert report.errors == {E3}


def test_unknown_operator_is_e3(movie_query):
    text = wrap("SortJoin(movie_info_idx HashJoin(movie_companies title))")
    report = validate(text, movie_query)
    assert E3 in report.errors
    assert E1 not in report.errors
    assert E2 not in report.errors


def test_e3_with_table_errors_combined(movie_query):
    # Unbalanced and missing one table at once: best-effort scan surfaces E1/E2.
    text = wrap("HashJoin(movie_companies title")
    report = validate(text, movie_query)
    assert report.errors == {E1, E2, E3}


def test_duplicate_table_count_preserved_is_e2(movie_query):
    # Three mentions for a three-table query, but movie_info_idx is missing.
    text = wrap("HashJoin(title HashJoin(movie_companies title))")
    report = validate(text, movie_query)
    assert report.errors == {E2}


def test_duplicate_table_extra_mention_is_e1(movie_query):
    # All three tables present plus a duplicate: count off, set intact.
    text = wrap("HashJoin(HashJoin(title movie_info_idx) HashJoin(movie_companies title))")
    report = validate(text, movie_query)
    assert report.errors == {E1}


def test_empty_response_counts_table_errors(movie_query):
    report = validate("", movie_query)
    assert E1 in report.errors
    assert E2 in report.errors


def test_cross_product_reports_e3(movie_query):
    # Right table set, but the join layering leaves movie_companies and
    # movie_info_idx joined with no linking predicate.
    text = wrap("HashJoin(title HashJoin(movie_companies movie_info_idx))")
    report = validate(text, movie_query)
    assert report.errors == {E3}
    assert any("cross product" in d for d in report.detail)


def test_response_without_a_plan_is_e3(movie_query):
    # The query's tables, but no final-answer marker: no plan parsed, so the
    # response is never valid.
    query = parse_sql("SELECT * FROM movie_keyword, title WHERE movie_keyword.movie_id = title.movie_id;")
    for text, q in (("HashJoin(movie_keyword title)", query),
                    ("HashJoin(movie_info_idx HashJoin(movie_companies title)).", movie_query)):
        report = validate(text, q)
        assert report.errors == {E3}
        assert report.plan is None


def test_chatter_before_marker_ignored(movie_plan, movie_query):
    noisy = "I think cast_info and aka_name matter here.\n" + render_response(movie_plan)
    report = validate(noisy, movie_query)
    assert report.valid


def test_zero_false_invalids_on_random_valid_plans(micro_catalog, micro_join_lines):
    # Any plan whose leaves equal the query tables and whose joins follow the
    # query's join graph must validate cleanly.
    from plangen.optimizers import random_optimize
    from plangen.workload import gen_workload

    graph = [e for e in _edges(micro_join_lines)]
    queries = gen_workload(micro_catalog, graph, 2, 30, seed=11)
    for i, q in enumerate(queries):
        plan = random_optimize(q, seed=100 + i)
        report = validate(render_response(plan), q)
        assert report.valid, report.detail


def _edges(lines):
    from plangen.sql import JoinPredicate

    for line in lines:
        left, right = line.split("=")
        ta, ca = left.strip().split(".")
        tb, cb = right.strip().split(".")
        yield JoinPredicate.normalized(ta, ca, tb, cb)


def test_classify_corpus_counts():
    q = parse_sql("SELECT * FROM a, b, c WHERE a.x = b.x AND b.x = c.x;")
    valid = render_response(Join("HashJoin", Leaf("a"), Join("HashJoin", Leaf("b"), Leaf("c"))))
    e1_only = wrap("HashJoin(a b)")  # also E2: c missing
    e1_e3 = wrap("HashJoin(a")
    corpus = [(valid, q)] * 4 + [(e1_only, q)] + [(e1_e3, q)]
    summary = classify_corpus(corpus)
    assert summary.e1 == 2
    assert summary.e3 == 1
    assert summary.total_invalid == 2
    assert summary.total == 6
    assert summary.line() == f"E1=2 E2={summary.e2} E3=1 total=2"


def test_classify_corpus_empty():
    summary = classify_corpus([])
    assert (summary.e1, summary.e2, summary.e3, summary.total_invalid) == (0, 0, 0, 0)


@given(st.text(max_size=150))
def test_validate_never_raises(text):
    # All failures are encoded in the report, never thrown.
    query = parse_sql("SELECT * FROM a, b WHERE a.x = b.y;")
    report = validate(text, query)
    assert report.valid == (not report.errors)
    assert report.plan is not None or not report.valid


def test_mutation_corpus_labels_match(micro_catalog, micro_join_lines):
    """300-response mutation suite with labels known by construction."""
    from plangen.optimizers import dp_optimize, greedy_optimize
    from plangen.costs import CostModel
    from plangen.workload import gen_workload

    graph = list(_edges(micro_join_lines))
    model = CostModel(micro_catalog)
    queries = []
    for n_joins, seed in ((1, 3), (2, 4), (3, 5)):
        queries.extend(gen_workload(micro_catalog, graph, n_joins, 25, seed=seed))
    plans_for = [dp_optimize(q, model) if i % 2 else greedy_optimize(q, model) for i, q in enumerate(queries)]

    rng = random.Random(99)
    corpus = []
    expected = {"E1": 0, "E2": 0, "E3": 0, "invalid": 0}
    for kind in ("valid", "drop", "swap", "unbalance"):
        for q, plan in zip(queries, plans_for):
            text = render_response(plan)
            if kind == "valid":
                corpus.append((text, q, set()))
            elif kind == "drop":
                mutated = _drop_leaf(plan, rng)
                # A 2-table plan drops to a bare scan, which render_response
                # refuses; emit the final-answer form directly.
                text = (
                    wrap(tree_to_bracket(mutated))
                    if isinstance(mutated, Leaf)
                    else render_response(mutated)
                )
                corpus.append((text, q, {"E1", "E2"}))
            elif kind == "swap":
                mutated = _swap_leaf(plan, rng)
                corpus.append((render_response(mutated), q, {"E2"}))
            else:
                bracket = tree_to_bracket(plan)
                broken = bracket[::-1].replace(")", "", 1)[::-1]  # drop last ')'
                corpus.append((text.rsplit(bracket, 1)[0] + broken + ".", q, {"E3"}))
    assert len(corpus) == 300

    for text, q, labels in corpus:
        report = validate(text, q)
        assert report.errors == labels, (text, labels, report.errors, report.detail)
        expected["invalid"] += bool(labels)
        for code in labels:
            expected[code] += 1

    summary = classify_corpus([(t, q) for t, q, _ in corpus])
    assert (summary.e1, summary.e2, summary.e3, summary.total_invalid) == (
        expected["E1"],
        expected["E2"],
        expected["E3"],
        expected["invalid"],
    )


def _drop_leaf(plan, rng):
    """Remove one random leaf by replacing its parent with the sibling."""
    from plangen.plans import leaves

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
    from plangen.plans import leaves

    names = leaves(plan)
    victim = rng.choice(names)
    foreign = "zz_foreign_table"
    assert foreign not in names

    def swap(node):
        if isinstance(node, Leaf):
            return Leaf(foreign) if node.table == victim else node
        return Join(node.op, swap(node.left), swap(node.right))

    return swap(plan)
