"""Instruction-tuning records: prompts, demonstrations, dataset assembly.

A prompt is the fixed instruction paragraph, an optional one-shot planning
demonstration, then an INPUT section carrying the canonical SQL and the
statistics block for the query's tables in FROM-list order. The paired
response renders the best plan observed for the query across the optimizer
plan logs.

One function, ``prompt_with_demonstration``, adds the one-shot demonstration
to training and inference prompts alike. It draws from the candidates its
caller passes: a sibling record with the same query template (same tables
and join predicates), or in ``fallback`` mode the most similar record.
Instruction tuning (``build_sft_dataset``) drops only the query's own record;
inference (``pipeline.decode_query``) drops every record whose SQL text is
the query's. The tabular model conditions only on ``sql.template_key``, so
demonstrations shape the SFT and DPO prompts but never a decoded response.
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
from .sql import QuerySpec, QueryTemplate, parse_sql, render_sql, template_of

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


def select_demonstration(
    query: QuerySpec,
    pool: Sequence[InstructionRecord],
    mode: str,
    rng: random.Random | None = None,
) -> InstructionRecord | None:
    """Pick a demonstration record for the query, or None in ``none`` mode.

    strict: seeded-uniform choice among records with the exact template;
    raises when none exists.
    fallback: strict first, then the record maximizing table-set Jaccard
    similarity (ties by join-set Jaccard, then query_id).
    """
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
        table_sim = _jaccard(template.tables, r.template.tables)
        join_sim = _jaccard(template.joins, r.template.joins)
        scored.append((-table_sim, -join_sim, r.query_id, r))
    if not scored:
        raise NoDemonstrationAvailable("no candidate record is left for the demonstration")
    scored.sort(key=lambda item: item[:3])
    return scored[0][3]


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def prompt_with_demonstration(
    query: QuerySpec,
    catalog: Catalog,
    candidates: Sequence[InstructionRecord],
    mode: str,
    rng: random.Random,
    label: str,
) -> str:
    """The prompt for ``query``, its demonstration picked from ``candidates``;
    ``label`` names the query when no candidate can be its demonstration."""
    try:
        record = select_demonstration(query, candidates, mode, rng)
    except NoDemonstrationAvailable as exc:
        raise NoDemonstrationAvailable(f"{exc} of query {label}") from None
    demo = None
    if record is not None:
        demo = Demonstration(record.sql, extract_input_statistics(record.prompt), record.response)
    return build_prompt(query, catalog, demo)


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

    records = []
    for query, bare in zip(workload, pool):
        # String seeding hashes with sha512, stable across processes.
        rng = random.Random(f"{seed}:{bare.query_id}")
        candidates = [r for r in pool if r.query_id != bare.query_id]
        prompt = prompt_with_demonstration(query, catalog, candidates, demo_mode, rng, bare.query_id)
        records.append(replace(bare, prompt=prompt))
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
            raw["query_id"], raw["prompt"], raw["response"], sql, template_of(parse_sql(sql))
        )

    return read_jsonl(path, {"query_id": str, "prompt": str, "response": str}, record)
