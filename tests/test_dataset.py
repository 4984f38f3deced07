import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plangen.dataset import (
    INSTRUCTION_TEXT,
    Demonstration,
    DatasetError,
    InstructionRecord,
    NoDemonstrationAvailable,
    build_prompt,
    build_sft_dataset,
    extract_input_sql,
    extract_input_statistics,
    load_dataset,
    query_ids,
    select_demonstration,
    write_dataset,
)
from plangen.catalog import load_catalog, serialize_stats
from plangen.executor import PlanTiming
from plangen.pipeline import stage_workload
from plangen.plans import Join, Leaf, bracket_to_tree, parse_response
from plangen.sql import parse_sql, render_sql, template_of
from plangen.validator import validate
from tests.conftest import FIXTURES_DIR, reference_build_sft_dataset


def test_prompt_golden_no_demo(movie_query, movie_catalog):
    prompt = build_prompt(movie_query, movie_catalog)
    expected = (
        "INSTRUCTION: " + INSTRUCTION_TEXT + "\n"
        "INPUT:\n"
        "<SQL>: " + render_sql(movie_query) + "\n"
        "<Statistics>:\n"
        "movie_companies (movie_id: [-1,2525401,1087136], company_id: [1,234997,234997], "
        "company_type_id: [1,2,2]),\n"
        "title (movie_id: [0,2527968,2527969], kind_id: [-1,7,7], product_year: [-1,2019,134], "
        "imdb_id: [-1,2012,10]),\n"
        "movie_info_idx (movie_info_idx_id: [0,1380033,1380034], movie_id: [-1,2525449,459876])."
    )
    assert prompt == expected
    # Statistics follow the original FROM-list order.
    stats = extract_input_statistics(prompt)
    assert stats == serialize_stats(movie_catalog, list(movie_query.from_order))


def test_prompt_instruction_contents():
    assert INSTRUCTION_TEXT.startswith("You are a SQL query optimizer.")
    assert "[min, max, distinct count]" in INSTRUCTION_TEXT
    assert "bracket sequence" in INSTRUCTION_TEXT
    assert "HashJoin, NestLoopJoin, or MergeJoin" in INSTRUCTION_TEXT
    assert "think step by step" in INSTRUCTION_TEXT


def test_prompt_with_demo_has_single_block(movie_query, movie_catalog):
    demo = Demonstration(sql="SELECT * FROM t;", statistics="t (c: [0,1,2]).", response="resp")
    prompt = build_prompt(movie_query, movie_catalog, demo)
    assert prompt.count("<Planning Demonstration>:") == 1
    assert prompt.count("INPUT:") == 1
    # The INPUT section keeps exactly one SQL and one statistics block.
    after_input = prompt.split("INPUT:\n", 1)[1]
    assert after_input.count("<SQL>:") == 1
    assert after_input.count("<Statistics>:") == 1


def test_prompt_statistics_table_count(micro_catalog):
    q = parse_sql(
        "SELECT * FROM title, cast_info, movie_companies, movie_info_idx, movie_keyword "
        "WHERE title.movie_id = cast_info.movie_id AND title.movie_id = movie_companies.movie_id "
        "AND title.movie_id = movie_info_idx.movie_id AND title.movie_id = movie_keyword.movie_id;"
    )
    prompt = build_prompt(q, micro_catalog)
    stats = extract_input_statistics(prompt)
    # One block per FROM-list table, in order.
    names = [block.split(" (")[0].strip() for block in stats[:-1].split(",\n")]
    assert names == list(q.from_order)
    assert len(names) == 5


def test_extract_input_sql_round_trip(movie_query, movie_catalog):
    prompt = build_prompt(movie_query, movie_catalog)
    assert extract_input_sql(prompt) == render_sql(movie_query)


def test_extract_missing_input():
    with pytest.raises(DatasetError):
        extract_input_sql("no input here")


def _record(query_id, sql, response, catalog):
    query = parse_sql(sql)
    return InstructionRecord(
        query_id=query_id,
        prompt=build_prompt(query, catalog),
        response=response,
        sql=render_sql(query),
        template=template_of(query),
    )


def test_select_demonstration_strict(micro_catalog):
    sql_a = "SELECT * FROM title, cast_info WHERE title.movie_id = cast_info.movie_id AND cast_info.role_id < 3;"
    sql_b = "SELECT * FROM title, cast_info WHERE title.movie_id = cast_info.movie_id AND cast_info.role_id < 9;"
    pool = [
        _record("q1", sql_a, "r1", micro_catalog),
        _record("q2", sql_b, "r2", micro_catalog),
    ]
    query = parse_sql(sql_a)
    got = select_demonstration(query, pool[1:], "strict", random.Random(0), "q1")
    assert got.query_id == "q2"


def test_select_demonstration_self_exclusion(micro_catalog):
    sql = "SELECT * FROM title, cast_info WHERE title.movie_id = cast_info.movie_id;"
    pool = [_record("q1", sql, "r1", micro_catalog)]
    with pytest.raises(NoDemonstrationAvailable, match="^no record shares the template of query q1$"):
        select_demonstration(parse_sql(sql), pool[1:], "strict", random.Random(0), "q1")


def test_select_demonstration_none_mode(micro_catalog):
    sql = "SELECT * FROM title, cast_info WHERE title.movie_id = cast_info.movie_id;"
    pool = [_record("q1", sql, "r1", micro_catalog)]
    assert select_demonstration(parse_sql(sql), pool, "none", random.Random(0), "q2") is None


def test_select_demonstration_fallback_max_jaccard(micro_catalog):
    # Exhaustive similarity-scan oracle over a pool of disjoint templates.
    target = parse_sql(
        "SELECT * FROM title, cast_info, movie_keyword "
        "WHERE title.movie_id = cast_info.movie_id AND title.movie_id = movie_keyword.movie_id;"
    )
    pool_sqls = {
        "q1": "SELECT * FROM title, movie_companies WHERE title.movie_id = movie_companies.movie_id;",
        "q2": "SELECT * FROM title, cast_info WHERE title.movie_id = cast_info.movie_id;",
        "q3": "SELECT * FROM movie_companies, movie_info_idx WHERE movie_companies.movie_id = movie_info_idx.movie_id;",
    }
    pool = [_record(qid, sql, "r", micro_catalog) for qid, sql in pool_sqls.items()]

    def jaccard(a, b):
        return len(a & b) / len(a | b) if (a | b) else 1.0

    target_template = template_of(target)
    scores = {
        qid: jaccard(target_template.tables, template_of(parse_sql(sql)).tables)
        for qid, sql in pool_sqls.items()
    }
    best = max(sorted(scores), key=lambda q: scores[q])
    got = select_demonstration(target, pool, "fallback", random.Random(0), "q4")
    assert got.query_id == best == "q2"


def timed(optimizer: str, bracket: str, time: int) -> PlanTiming:
    return PlanTiming(optimizer, bracket_to_tree(bracket), time)


def test_build_sft_dataset_best_plan_and_tiebreak(micro_catalog):
    workload = [
        parse_sql("SELECT * FROM title, cast_info WHERE title.movie_id = cast_info.movie_id;"),
        parse_sql("SELECT * FROM title, movie_keyword WHERE title.movie_id = movie_keyword.movie_id;"),
    ]
    logs = {
        "q0001": [timed("dp", "HashJoin(cast_info title)", 100),
                  timed("greedy", "MergeJoin(cast_info title)", 180)],
        "q0002": [
            timed("dp", "NestLoopJoin(movie_keyword title)", 70),
            timed("greedy", "HashJoin(movie_keyword title)", 70),  # tie: smaller bracket wins
        ],
    }
    records = build_sft_dataset(workload, logs, micro_catalog, demo_mode="fallback", seed=1)
    assert [r.query_id for r in records] == ["q0001", "q0002"]
    assert "HashJoin(cast_info title)" in records[0].response
    assert "HashJoin(movie_keyword title)" in records[1].response


def test_build_sft_dataset_excludes_only_the_query_own_record(micro_catalog):
    # Unlike inference, SFT may show a query a duplicate of its SQL text that
    # sits under another id; the inference rule would leave strict mode none.
    sql = "SELECT * FROM title, cast_info WHERE title.movie_id = cast_info.movie_id;"
    workload = [parse_sql(sql), parse_sql(sql)]
    logs = {qid: [timed("dp", "HashJoin(cast_info title)", 10)] for qid in ("q0001", "q0002")}
    records = build_sft_dataset(workload, logs, micro_catalog, "strict", seed=0)
    for record in records:
        demo_block = record.prompt.split("INPUT:")[0]
        assert f"<Planning Demonstration>: <SQL>: {render_sql(workload[0])}, " in demo_block


def test_build_sft_dataset_missing_log(micro_catalog):
    workload = [parse_sql("SELECT * FROM title;")]
    with pytest.raises(DatasetError, match="missing plan log"):
        build_sft_dataset(workload, {}, micro_catalog)


def test_build_sft_dataset_responses_validate(micro_catalog, micro_join_lines):
    from plangen.costs import CostModel
    from plangen.executor import micro_execute
    from plangen.optimizers import dp_optimize, greedy_optimize, random_optimize
    from plangen.workload import gen_workload
    from plangen.sql import JoinPredicate
    from tests.conftest import build_micro_db

    tables, _ = build_micro_db()
    data = {t.name: t for t in tables}
    graph = []
    for line in micro_join_lines:
        left, right = line.split("=")
        ta, ca = left.strip().split(".")
        tb, cb = right.strip().split(".")
        graph.append(JoinPredicate.normalized(ta, ca, tb, cb))

    workload = gen_workload(micro_catalog, graph, 2, 50, seed=21)
    model = CostModel(micro_catalog)
    logs = {}
    for i, q in enumerate(workload):
        qid = f"q{i + 1:04d}"
        logs[qid] = [
            micro_execute(plan, q, data, name)
            for name, plan in (
                ("dp", dp_optimize(q, model)),
                ("greedy", greedy_optimize(q, model)),
                ("random", random_optimize(q, seed=i)),
            )
        ]

    records = build_sft_dataset(workload, logs, micro_catalog, demo_mode="fallback", seed=5)
    assert len(records) == 50
    ids_by_sql = {}
    for qid, query in zip(query_ids(workload), workload):
        ids_by_sql.setdefault(render_sql(query), []).append(qid)
    for record, query in zip(records, workload):
        report = validate(record.response, query)
        assert report.valid, report.detail
        # Self-exclusion drops only the query's own record, so its SQL text
        # can appear in the demonstration only as another query's.
        demo_part = record.prompt.split("INPUT:")[0]
        if render_sql(query) in demo_part:
            assert ids_by_sql[render_sql(query)] != [record.query_id]


def test_dataset_file_round_trip_and_determinism(tmp_path, micro_catalog):
    workload = [
        parse_sql("SELECT * FROM title, cast_info WHERE title.movie_id = cast_info.movie_id;"),
        parse_sql(
            "SELECT * FROM title, cast_info WHERE title.movie_id = cast_info.movie_id "
            "AND cast_info.role_id > 5;"
        ),
    ]
    logs = {
        "q0001": [timed("dp", "HashJoin(cast_info title)", 10)],
        "q0002": [timed("dp", "MergeJoin(cast_info title)", 11)],
    }
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_dataset(build_sft_dataset(workload, logs, micro_catalog, "strict", seed=3), a)
    write_dataset(build_sft_dataset(workload, logs, micro_catalog, "strict", seed=3), b)
    assert a.read_bytes() == b.read_bytes()

    records = load_dataset(a)
    assert [r.query_id for r in records] == ["q0001", "q0002"]
    assert records[0].template == template_of(workload[0])
    # q0002's embedded demonstration is its template sibling q0001.
    demo_block = records[1].prompt.split("INPUT:")[0]
    assert render_sql(workload[0]) in demo_block
    assert render_sql(workload[1]) not in demo_block
    # A record carries its INPUT query, so it can demonstrate for other queries.
    assert records[0].sql == render_sql(workload[0])
    assert parse_response(records[0].response) is not None

    raw = [json.loads(line) for line in a.read_text().splitlines()]
    assert set(raw[0]) == {"query_id", "prompt", "response"}


@functools.lru_cache(maxsize=None)
def _fixture_queries():
    """The fixture workload and catalog; the workload's nine queries of its
    most common template form a pool of one template."""
    catalog = load_catalog(FIXTURES_DIR / "catalog.txt")
    return stage_workload(catalog, FIXTURES_DIR / "joins.txt", "1,2,3", 60, 1), catalog


def _left_deep(query):
    first, *rest = sorted(query.tables)
    plan = Leaf(first)
    for table in rest:
        plan = Join("HashJoin", plan, Leaf(table))
    return plan


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_build_sft_dataset_equals_the_reference(data):
    queries, catalog = _fixture_queries()
    key = "movie_keyword,title|movie_keyword.movie_id = title.movie_id"
    if data.draw(st.booleans(), label="one template"):
        queries = [q for q in queries if template_of(q).key() == key]
    # Drawn with repeats, so a workload can hold one SQL text under two ids.
    workload = data.draw(st.lists(st.sampled_from(queries), min_size=1, max_size=12), label="workload")
    log = {qid: [PlanTiming("dp", _left_deep(q), 1)] for qid, q in zip(query_ids(workload), workload)}
    mode = data.draw(st.sampled_from(["strict", "fallback", "none"]), label="mode")
    seed = data.draw(st.integers(0, 9), label="seed")

    def outcome(build):
        try:
            return build(workload, log, catalog, mode, seed)
        except NoDemonstrationAvailable as exc:
            return str(exc)

    assert outcome(build_sft_dataset) == outcome(reference_build_sft_dataset)
