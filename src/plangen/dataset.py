"""Instruction-tuning records: prompts, demonstrations, dataset assembly.

A prompt is the fixed instruction paragraph, an optional one-shot planning
demonstration, then an INPUT section carrying the canonical SQL and the
statistics block for the query's tables in FROM-list order. The paired
response renders the best plan observed for the query across the optimizer
plan logs.

Demonstrations exist only in the SFT prompts (and so in the DPO prompts,
which reuse them): ``build_sft_dataset`` draws each query's demonstration
from the other records, a sibling with the same query template (same tables
and join predicates), or in ``fallback`` mode the most similar record. The
tabular model conditions only on ``sql.template_key``, so inference
(``pipeline.decode_query``) builds no prompt; it keeps only the rule of
``require_demonstration``, under which ``strict`` fails without a sibling
and ``fallback`` without any candidate, over the pool records whose SQL
text is not the query's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .catalog import Catalog, serialize_stats
from .errors import PlangenError
from .executor import PlanLog, best_timing
from .jsonl import read_jsonl, write_jsonl
from .plans import render_response
from .sql import QuerySpec, QueryTemplate, parse_once, render_sql, template_of
from .tokenizer import check_response

INSTRUCTION_TEXT = (
    "You are a SQL query optimizer. You will be given a multi-table SQL query "
    "<SQL> and the statistics of the tables involved in the query <Statistics>. "
    "The statistics include the minimum value, maximum value, and the count of "
    "distinct values for each column of each table in the query, in the format "
    "of [min, max, distinct count]. Your task is to generate the optimal "
    "execution plan for the given SQL query. You should represent the execution "
    "plan using a bracket sequence, where HashJoin, NestLoopJoin, or MergeJoin "
    "are used to join the tables in the SQL query. Let's think step by step and "
    "show your reasoning before showing the final result."
)

DEMO_MODES = ("strict", "fallback", "none")


class DatasetError(PlangenError):
    pass


class NoDemonstrationAvailable(DatasetError):
    pass


@dataclass(frozen=True)
class Demonstration:
    sql: str
    statistics: str
    response: str


@dataclass(frozen=True)
class InstructionRecord:
    query_id: str
    prompt: str
    response: str
    sql: str  # the query of the INPUT section
    template: QueryTemplate


def build_prompt(query: QuerySpec, catalog: Catalog, demo: Demonstration | None = None) -> str:
    """Assemble the full prompt text for one query."""
    parts = ["INSTRUCTION: " + INSTRUCTION_TEXT]
    if demo is not None:
        parts.append(
            "<Planning Demonstration>: "
            f"<SQL>: {demo.sql}, <Statistics>: {demo.statistics}, <Response>: {demo.response}"
        )
    parts.append("INPUT:")
    parts.append("<SQL>: " + render_sql(query))
    parts.append("<Statistics>:\n" + serialize_stats(catalog, list(query.from_order)))
    return "\n".join(parts)


def extract_input_sql(prompt: str) -> str:
    """Pull the canonical SQL back out of a prompt's INPUT section."""
    marker = "\nINPUT:\n"
    at = prompt.rfind(marker)
    if at < 0:
        raise DatasetError("prompt has no INPUT section")
    for line in prompt[at + len(marker):].splitlines():
        if line.startswith("<SQL>: "):
            return line[len("<SQL>: "):]
    raise DatasetError("prompt INPUT section has no <SQL> line")


def extract_input_statistics(prompt: str) -> str:
    marker = "\n<Statistics>:\n"
    at = prompt.rfind(marker)
    if at < 0:
        raise DatasetError("prompt has no <Statistics> block")
    return prompt[at + len(marker):]


def require_demonstration(
    template: QueryTemplate, pool: Sequence[InstructionRecord], mode: str, label: str, sql: str | None = None
) -> None:
    """Raise NoDemonstrationAvailable, naming the query by ``label``, when
    ``strict`` finds no pool record sharing ``template`` or ``fallback`` no
    record at all, counting only records whose SQL text is not ``sql``. Each
    scan stops at its first match; ``none`` mode scans nothing."""
    if mode not in DEMO_MODES:
        raise DatasetError(f"unknown demonstration mode {mode!r}")
    if mode == "strict" and not any(r.template == template and r.sql != sql for r in pool):
        raise NoDemonstrationAvailable(f"no record shares the template of query {label}")
    if mode == "fallback" and not any(r.sql != sql for r in pool):
        raise NoDemonstrationAvailable(
            f"no candidate record is left for the demonstration of query {label}"
        )


def demonstration_siblings(
    template: QueryTemplate, candidates: Sequence[InstructionRecord], mode: str, label: str
) -> list[InstructionRecord]:
    """The candidates sharing ``template``, in candidate order; none in ``none``
    mode. Raises as ``require_demonstration`` over every candidate does."""
    require_demonstration(template, candidates, mode, label)
    return [r for r in candidates if r.template == template] if mode != "none" else []


def select_demonstration(
    query: QuerySpec,
    candidates: Sequence[InstructionRecord],
    mode: str,
    rng: random.Random,
    label: str,
) -> InstructionRecord | None:
    """Pick a demonstration record for the query, or None in ``none`` mode.

    A seeded-uniform choice among the siblings (``demonstration_siblings``);
    without one, in ``fallback`` mode, the candidate maximizing table-set
    Jaccard similarity (ties by join-set Jaccard, then query_id).
    """
    template = template_of(query)
    siblings = demonstration_siblings(template, candidates, mode, label)
    if mode == "none":
        return None
    if siblings:
        siblings.sort(key=lambda r: r.query_id)
        return siblings[rng.randrange(len(siblings))]
    return min(
        candidates,
        key=lambda r: (
            -_jaccard(template.tables, r.template.tables),
            -_jaccard(template.joins, r.template.joins),
            r.query_id,
        ),
    )


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def query_ids(queries) -> list[str]:
    """The id of each query of a workload, by its position: q0001, q0002, ..."""
    return [f"q{i + 1:04d}" for i in range(len(queries))]


def build_sft_dataset(
    workload: Sequence[QuerySpec],
    plan_logs: PlanLog,
    catalog: Catalog,
    demo_mode: str = "strict",
    seed: int = 0,
) -> list[InstructionRecord]:
    """One record per query; each response renders the query's best logged
    plan (``best_timing``). Demonstration choices are seeded per query so
    assembly order never matters.
    """
    # Phase one builds every response; phase two can then draw demonstrations
    # from sibling records.
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

    by_template: dict[QueryTemplate, list[InstructionRecord]] = {}
    for bare in pool:
        by_template.setdefault(bare.template, []).append(bare)
    records = []
    for query, bare in zip(workload, pool):
        # String seeding hashes with sha512, stable across processes.
        rng = random.Random(f"{seed}:{bare.query_id}")
        # Other records matter only to a query without a sibling.
        candidates = [r for r in by_template[bare.template] if r.query_id != bare.query_id]
        if not candidates:
            candidates = [r for r in pool if r.query_id != bare.query_id]
        record = select_demonstration(query, candidates, demo_mode, rng, bare.query_id)
        demo = None
        if record is not None:
            demo = Demonstration(record.sql, extract_input_statistics(record.prompt), record.response)
        records.append(replace(bare, prompt=build_prompt(query, catalog, demo)))
    records.sort(key=lambda r: r.query_id)
    return records


def write_dataset(records: Sequence[InstructionRecord], path: str | Path) -> None:
    write_jsonl(
        ({"query_id": r.query_id, "prompt": r.prompt, "response": r.response} for r in records),
        path,
    )


def load_dataset(path: str | Path) -> list[InstructionRecord]:
    """Read a dataset file, recovering each record's query from its prompt."""

    def record(raw: dict) -> InstructionRecord:
        sql = extract_input_sql(raw["prompt"])
        return InstructionRecord(
            raw["query_id"], raw["prompt"], check_response(raw["response"]), sql, template_of(parse_once(sql))
        )

    return read_jsonl(path, {"query_id": str, "prompt": str, "response": str}, record)
