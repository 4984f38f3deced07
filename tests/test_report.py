"""The report stage: one row per test query, against the per-source reference."""

import shutil
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plangen import executor
from plangen.catalog import load_catalog
from plangen.dataset import query_ids
from plangen.executor import read_plan_log, write_plan_log
from plangen.jsonl import read_jsonl, write_jsonl
from plangen.pipeline import STAGE_BY_NAME, PipelineConfig, call_stage, read_workload, run_pipeline
from plangen.plans import FINAL_ANSWER_MARKER, leaves, tree_to_bracket
from plangen.sql import render_sql
from tests.conftest import FIXTURES_DIR, reference_report_json

TABLES = FIXTURES_DIR / "tables"
ALL_TABLES = sorted(load_catalog(FIXTURES_DIR / "catalog.txt").tables)
KINDS = ("valid", "model", "truncated", "swapped", "dropped", "no-marker", "empty")
OPTIMIZERS = ("dp", "greedy", "random")


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("fixture") / "run"
    config = PipelineConfig.from_file(FIXTURES_DIR / "pipeline.cfg")
    run_pipeline(config.with_overrides(out_dir=str(run_dir), tables=str(TABLES),
                                       catalog=str(FIXTURES_DIR / "catalog.txt"),
                                       join_graph=str(FIXTURES_DIR / "joins.txt")))
    queries = read_workload(run_dir / "test.sql")
    model_texts = {}
    for source in ("qit", "qdpo"):
        rows = read_jsonl(run_dir / f"responses_{source}.jsonl",
                          {"query_id": str, "response": str}, lambda row: row["response"])
        model_texts[source] = rows
    return run_dir, queries, read_plan_log(run_dir / "plans_test.jsonl"), model_texts


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("report")


def _response(kind, timings, model_text, optimizer, n) -> str:
    """One response of ``kind`` for a query, built from its logged plans."""
    plan = next(t.plan for t in timings if t.optimizer_id == optimizer)
    bracket = tree_to_bracket(plan)
    valid = f"Step1: ..., Therefore, {FINAL_ANSWER_MARKER} {bracket}."
    leaf = leaves(plan)[n % len(leaves(plan))]
    if kind == "valid":
        return valid
    if kind == "model":
        return model_text
    if kind == "truncated":
        return valid[: n % len(valid)]
    if kind == "swapped":
        other = [t for t in ALL_TABLES if t != leaf][n % (len(ALL_TABLES) - 1)]
        return valid.replace(leaf, other, 1)
    if kind == "dropped":
        return valid.replace(leaf, "", 1)
    if kind == "no-marker":
        return bracket
    return ""


def _run_copy(fixture_run, root, kept: int):
    """A run directory holding the fixture run's first ``kept`` test queries
    and their test plans; returns it with those queries."""
    run_dir, queries, log, _ = fixture_run
    copy = root / "run"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(run_dir, copy)
    kept_queries = queries[:kept]
    lines = [render_sql(q) for q in kept_queries]
    (copy / "test.sql").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    write_plan_log({qid: log[qid] for qid in query_ids(kept_queries)}, copy / "plans_test.jsonl")
    return copy, kept_queries


def _report_bytes(run_dir) -> bytes:
    config = PipelineConfig(tables=str(TABLES), out_dir=str(run_dir))
    call_stage(STAGE_BY_NAME["report"], config)
    return (run_dir / "report.json").read_bytes()


_choice = st.tuples(st.sampled_from(KINDS), st.sampled_from(OPTIMIZERS), st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(kept=st.integers(0, 12), qit=st.lists(_choice, min_size=12, max_size=12),
       qdpo=st.lists(_choice, min_size=12, max_size=12))
def test_report_equals_the_per_source_reference(fixture_run, scratch, kept, qit, qdpo):
    # Valid responses, truncations, swapped or dropped tables, a missing
    # marker and empty text, over a prefix of the test split (possibly none):
    # the report built from per-query rows has the reference's bytes.
    _, _, log, model_texts = fixture_run
    run_dir, kept_queries = _run_copy(fixture_run, scratch, kept)
    for source, choices in (("qit", qit), ("qdpo", qdpo)):
        rows = [
            {"query_id": qid, "response": _response(kind, log[qid], model_texts[source][i], opt, n)}
            for i, (qid, (kind, opt, n)) in enumerate(zip(query_ids(kept_queries), choices))
        ]
        write_jsonl(rows, run_dir / f"responses_{source}.jsonl")
    assert _report_bytes(run_dir) == reference_report_json(run_dir, TABLES)


def test_a_querys_model_plans_share_one_memo(fixture_run, tmp_path, monkeypatch):
    # qit and qdpo give the same valid response to every test query, so the
    # second plan finds every joined subset in the query's memo.
    _, queries, log, _ = fixture_run
    run_dir, _ = _run_copy(fixture_run, tmp_path, len(queries))
    rows = [{"query_id": qid, "response": _response("valid", log[qid], "", "greedy", 0)}
            for qid in query_ids(queries)]
    for source in ("qit", "qdpo"):
        write_jsonl(rows, run_dir / f"responses_{source}.jsonl")
    built = Counter()
    hash_join = executor._hash_join

    def counted(left, right, query):
        # Test queries may repeat a SQL text, so each is told apart by identity.
        covered = frozenset(table for table, _ in left.columns + right.columns)
        built[id(query), covered] += 1
        return hash_join(left, right, query)

    monkeypatch.setattr(executor, "_hash_join", counted)
    config = PipelineConfig(tables=str(TABLES), out_dir=str(run_dir))
    report = call_stage(STAGE_BY_NAME["report"], config)
    assert report["validity"]["qit"]["valid"] == report["validity"]["qdpo"]["valid"] == len(queries)
    assert sum(len(q.tables) - 1 for q in queries) == sum(built.values()) > 0
    assert set(built.values()) == {1}
