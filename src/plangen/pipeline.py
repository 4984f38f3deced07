"""End-to-end pipeline: workload, plan logs, datasets, training, report.

The pipeline is the table ``STAGES``: one declaration per stage naming the
config values it reads, the files it reads and writes, and the library
function that does its work. ``run_pipeline`` runs the stages in order, each
guarded by a content hash over everything its declaration names and the
package's sources, and by the digests of the outputs it wrote, so re-running
an unchanged configuration touches nothing and reports every stage as
cached, while a changed output recomputes its stage and a source edit every
stage. The CLI subcommands call the same stage functions. The report stage
reads the test split's artifacts and leaves how they are judged to
``plangen.report``. All artifacts are deterministic functions of the input
files and the configured seeds.

Stage layout inside the run directory:

    workload.sql              generated queries, one canonical SQL per line
    train.sql / test.sql      the split, same format
    plans_train.jsonl         {query_id, optimizer, bracket, time_units}
    plans_test.jsonl          same, for the held-out queries
    sft.jsonl                 {query_id, prompt, response}
    dpo.jsonl                 {query_id, prompt, chosen, rejected, ...}
    qit.ckpt / qdpo.ckpt      model checkpoints (+ .csv loss traces)
    responses_qit.jsonl       {query_id, response} on the test split
    responses_qdpo.jsonl      same, stage-two model
    report.json               dataset sizes, validity, timing quantiles
    stages.json               each stage's hash and output digests, last run
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

from .catalog import Catalog, load_catalog, load_tables
from .costs import CostModel
from .dataset import (
    NoDemonstrationAvailable,
    build_sft_dataset,
    extract_input_sql,
    load_dataset,
    query_ids,
    require_demonstration,
    write_dataset,
)
from .errors import PlangenError
from .executor import PlanLog, micro_execute, read_plan_log, write_plan_log
from .jsonl import located, read_json, read_jsonl, read_lines, write_jsonl
from .model import load_model, save_model
from .optimizers import dp_optimize, greedy_optimize, random_optimize
from .preferences import (
    DEFAULT_RATIO_THRESHOLD,
    PreferenceConfig,
    PreferenceError,
    generate_preferences,
    load_preference_file,
    sort_triples,
    write_preference_file,
)
from .report import build_report, query_rows
from .sql import parse_memo, parse_once, render_sql, template_key, template_of
from .training import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_BETA,
    QDPO_LEARNING_RATE,
    QDPO_STEPS,
    QIT_LEARNING_RATE,
    QIT_STEPS,
    TrainConfig,
    fit_qit_from_records,
    train_qdpo,
    write_trace,
)
from .workload import gen_workload, load_join_graph

import random as _random


class PipelineError(PlangenError):
    pass


SPLIT_MODES = ("random", "by-join-count", "by-template")


# Range rules that a config file and the CLI subcommands share.
def check_split_ratio(ratio: float) -> None:
    if not 0.0 < ratio < 1.0:
        raise PipelineError(f"split ratio must be in (0, 1), got {ratio}")


def check_split_mode(mode: str) -> None:
    if mode not in SPLIT_MODES:
        raise PipelineError(f"unknown split mode {mode!r}")


def check_workload_count(count: int) -> None:
    if count < 1:
        raise PipelineError(f"workload count must be at least 1, got {count}")


# Keys an earlier version read, each with the values it allowed. A config
# may still set one: the value is checked as before and has no effect.
# ``n_contexts`` sized the table contexts were folded into; a context is now
# the full 64-bit hash, so every count gives the same model.
RETIRED_KEYS = {"n_contexts": range(1, 2**31)}


@dataclass(frozen=True)
class PipelineConfig:
    catalog: str = ""
    tables: str = ""
    join_graph: str = ""
    out_dir: str = ""
    workload_count: int = 60
    workload_joins: str = "1,2,3"
    workload_seed: int = 1
    split_ratio: float = 0.8
    split_mode: str = "random"
    split_seed: int = 2
    demo_mode: str = "fallback"
    demo_seed: int = 3
    r0: float = DEFAULT_RATIO_THRESHOLD
    beta: float = DEFAULT_BETA
    batch_size: int = DEFAULT_BATCH_SIZE
    qit_lr: float = QIT_LEARNING_RATE
    qit_steps: int = QIT_STEPS
    qit_seed: int = 4
    qdpo_lr: float = QDPO_LEARNING_RATE
    qdpo_steps: int = QDPO_STEPS
    qdpo_seed: int = 5
    max_len: int = 256
    random_opt_seed: int = 6

    def __post_init__(self):
        check_split_ratio(self.split_ratio)
        check_workload_count(self.workload_count)
        if self.workload_count < 2:
            message = "workload count must be at least 2 to split into train and test"
            raise PipelineError(f"{message}, got {self.workload_count}")
        check_split_mode(self.split_mode)
        if self.max_len < 1:
            raise PipelineError(f"max_len must be at least 1, got {self.max_len}")
        PreferenceConfig(self.r0)  # the training and preference rules, checked as the config loads
        TrainConfig(self.qit_lr, self.qit_steps, self.batch_size, seed=self.qit_seed)
        TrainConfig(self.qdpo_lr, self.qdpo_steps, self.batch_size, self.beta, self.qdpo_seed)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """The config a file sets; an error names the file."""

        def setting(raw: str) -> tuple[str, str] | None:
            line = raw.split("#", 1)[0].strip()
            if not line:
                return None
            if "=" not in line:
                raise PipelineError(f"not key = value: {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in RETIRED_KEYS:
                allowed = RETIRED_KEYS[key]
                if not value.isdecimal() or int(value) not in allowed:
                    raise PipelineError(f"{key} must be from {allowed.start} to {allowed.stop - 1}, got {value}")
                return None
            if key not in {f.name for f in fields(cls)}:
                raise PipelineError(f"unknown config key {key!r}")
            return key, value

        values = dict(read_lines(path, setting))
        try:
            return cls().with_overrides(**values)
        except PlangenError as exc:
            raise PipelineError(f"{path}: {exc}") from None

    def with_overrides(self, **overrides) -> "PipelineConfig":
        coerced = {}
        for f in fields(self):
            if f.name not in overrides or overrides[f.name] is None:
                continue
            value = overrides[f.name]
            if isinstance(value, str) and f.type in ("int", "float"):
                try:
                    value = int(value) if f.type == "int" else float(value)
                except ValueError:
                    message = f"config key {f.name}: expected {f.type}, got {value!r}"
                    raise PipelineError(message) from None
            coerced[f.name] = value
        leftovers = set(overrides) - {f.name for f in fields(self)}
        if leftovers:
            raise PipelineError(f"unknown config keys: {sorted(leftovers)}")
        return replace(self, **coerced)


# --- small file helpers ---


def read_workload(path: str | Path) -> list:
    return read_lines(path, parse_once)


def write_workload(queries, path: str | Path) -> None:
    lines = [render_sql(q) for q in queries]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_responses(path: str | Path, queries) -> list[str]:
    """Each query's response, in query order, from a file of {query_id,
    response} rows: every query has exactly one row and every row names a
    query."""
    by_id = dict(zip(query_ids(queries), queries))
    responses: dict[str, str] = {}

    def pair(row: dict) -> None:
        if row["query_id"] not in by_id:
            raise PipelineError(f"response for unknown query {row['query_id']}")
        if row["query_id"] in responses:
            raise PipelineError(f"second response for {row['query_id']}")
        responses[row["query_id"]] = row["response"]

    read_jsonl(path, {"query_id": str, "response": str}, pair)
    missing = [qid for qid in by_id if qid not in responses]
    if missing:
        raise PipelineError(f"{path}: no response for {missing[0]}")
    return [responses[qid] for qid in by_id]


def require_known(path, ids, known, known_path) -> None:
    """Every id of ``path`` is one of ``known``, read from ``known_path``;
    otherwise name the first unknown id in sort order."""
    unknown = sorted(set(ids).difference(known))
    if unknown:
        raise PipelineError(f"{path}: {unknown[0]}: query not in {known_path}")


# --- library functions the stages are built from ---


def stage_workload(catalog: Catalog, join_graph_path, joins_spec: str, count: int, seed: int):
    """Mixed workload: the count splits evenly across the join counts."""
    check_workload_count(count)
    graph = load_join_graph(join_graph_path)
    try:
        join_counts = [int(part) for part in str(joins_spec).split(",") if part.strip() != ""]
    except ValueError:
        raise PipelineError(f"join counts must be integers, got {joins_spec!r}") from None
    if not join_counts:
        raise PipelineError(f"no join counts in {joins_spec!r}")
    if min(join_counts) < 1:
        raise PipelineError(f"workload_joins needs join counts of at least 1, got {joins_spec!r}")
    queries = []
    base = count // len(join_counts)
    leftover = count - base * len(join_counts)
    for i, n_joins in enumerate(join_counts):
        chunk = base + (1 if i < leftover else 0)
        queries.extend(gen_workload(catalog, graph, n_joins, chunk, seed=seed + n_joins))
    return queries


def split_workload(queries, ratio: float, seed: int, mode: str = "random"):
    """Deterministic train/test split; returns (train, test) query lists,
    and raises if either would be empty."""
    check_split_ratio(ratio)
    check_split_mode(mode)
    n = len(queries)
    n_train = max(1, min(n - 1, round(n * ratio))) if n > 1 else n
    if mode == "random":
        rng = _random.Random(f"split:{seed}")
        order = list(range(n))
        rng.shuffle(order)
        train_idx = sorted(order[:n_train])
    elif mode == "by-join-count":
        # Hold out the hardest queries: the largest join counts become test.
        order = sorted(range(n), key=lambda i: (len(queries[i].joins), i))
        train_idx = sorted(order[:n_train])
    else:  # by-template
        query_keys = [template_of(q).key() for q in queries]
        keys = sorted(set(query_keys))
        rng = _random.Random(f"split-templates:{seed}")
        rng.shuffle(keys)
        held = set()
        test_target = n - n_train
        picked = 0
        for key in keys:
            members = query_keys.count(key)
            if picked + members > test_target and picked > 0:
                continue
            held.add(key)
            picked += members
            if picked >= test_target:
                break
        train_idx = [i for i, key in enumerate(query_keys) if key not in held]
    test_idx = sorted(set(range(n)) - set(train_idx))
    for side, picked in (("train", train_idx), ("test", test_idx)):
        if not picked:
            raise PipelineError(f"{mode} split at ratio {ratio} of {n} queries leaves {side} empty")
    return [queries[i] for i in train_idx], [queries[i] for i in test_idx]


def run_optimizers(queries, catalog: Catalog, tables, random_seed_base: int = 0) -> PlanLog:
    """Plan and micro-time every query under the three personalities."""
    model = CostModel(catalog)
    log = {}
    for index, (query_id, query) in enumerate(zip(query_ids(queries), queries)):
        plans = (
            ("dp", dp_optimize(query, model)),
            ("greedy", greedy_optimize(query, model)),
            ("random", random_optimize(query, seed=random_seed_base + index)),
        )
        memo = {}  # the three plans share the query's subset results
        log[query_id] = [micro_execute(plan, query, tables, name, memo) for name, plan in plans]
    return log


def build_preferences_from_logs(
    sft_records, log: PlanLog, r0: float, log_name: str = "plan log", sft_name: str = "SFT records"
):
    """Preference triples for every query of the log; a query with a single
    plan or with no SFT record is reported as ``log_name: query_id``."""
    config = PreferenceConfig(r0)
    prompts = {r.query_id: r.prompt for r in sft_records}
    require_known(log_name, log, prompts, sft_name)
    triples = []
    for query_id in sorted(log):
        try:
            triples.extend(generate_preferences(log[query_id], prompts[query_id], config, query_id))
        except PreferenceError as exc:
            raise located(exc, f"{log_name}: {query_id}") from None
    return sort_triples(triples)


def decode_query(model, query, catalog: Catalog, pool, demo_mode: str, max_len: int) -> str:
    """Greedy-decode one query from its template key. No prompt is built,
    since the token model reads only the key, but the errors of prompt
    assembly stay: a missing demonstration (``require_demonstration``, where
    no pool record with the query's SQL text is a candidate, and the pool is
    scanned only up to the first record that settles it), then a table the
    catalog lacks."""
    sql = render_sql(query)
    template = template_of(query)
    require_demonstration(template, pool, demo_mode, sql, sql)
    for table in query.from_order:
        catalog.columns(table)
    return model.greedy_decode(template_key(template), max_len)


def infer_responses(model, queries, catalog: Catalog, pool, demo_mode: str, demo_seed: int, max_len: int):
    """Greedy-decode a response for each query; returns {query_id, response} rows.

    ``demo_seed`` is ignored: no demonstration is drawn at inference, since
    the token model never reads one. The argument stays for callers that
    pass the run's config values positionally.
    """
    return [
        {"query_id": qid, "response": decode_query(model, query, catalog, pool, demo_mode, max_len)}
        for qid, query in zip(query_ids(queries), queries)
    ]


# --- stage functions: plain paths in, files out (shared with the CLI) ---
#
# Each takes its input paths, then its output paths, then its config values,
# in the order its declaration in STAGES lists them.


def workload_stage(catalog, join_graph, out, joins: str, count: int, seed: int):
    queries = stage_workload(load_catalog(catalog), join_graph, joins, count, seed)
    write_workload(queries, out)
    return queries


def split_stage(workload, train_out, test_out, ratio: float, seed: int, mode: str):
    check_split_ratio(ratio)  # a range error names no file
    try:
        train, test = split_workload(read_workload(workload), ratio, seed, mode)
    except PipelineError as exc:
        raise located(exc, workload) from None
    write_workload(train, train_out)
    write_workload(test, test_out)
    return train, test


def plans_stage(workload, catalog, tables, out, random_seed: int):
    log = run_optimizers(
        read_workload(workload), load_catalog(catalog), load_tables(tables), random_seed
    )
    write_plan_log(log, out)
    return log


def sft_stage(workload, plans, catalog, out, demo_mode: str, seed: int):
    queries = read_workload(workload)
    log = read_plan_log(plans)
    ids = query_ids(queries)
    require_known(plans, log, ids, workload)
    require_known(workload, ids, log, plans)
    try:
        records = build_sft_dataset(queries, log, load_catalog(catalog), demo_mode, seed)
    except NoDemonstrationAvailable as exc:
        raise located(exc, workload) from None
    write_dataset(records, out)
    return records


def dpo_stage(plans, sft, out, r0: float):
    triples = build_preferences_from_logs(load_dataset(sft), read_plan_log(plans), r0, plans, sft)
    write_preference_file(triples, out)
    return triples


def qit_stage(sft, out, trace_out, lr: float, steps: int, batch_size: int, seed: int):
    pairs = [(template_key(r.template), r.response) for r in load_dataset(sft)]
    config = TrainConfig(learning_rate=lr, steps=steps, batch_size=batch_size, seed=seed)
    model, trace = fit_qit_from_records(pairs, config)
    save_model(model, out)
    if trace_out:
        write_trace(trace, trace_out)
    return trace


def qdpo_stage(
    dpo, init, out, trace_out, lr: float, steps: int, batch_size: int, beta: float, seed: int
):
    triples = read_triples(dpo)
    config = TrainConfig(learning_rate=lr, steps=steps, batch_size=batch_size, beta=beta, seed=seed)
    model, trace = train_qdpo(load_model(init), triples, config)
    save_model(model, out)
    if trace_out:
        write_trace(trace, trace_out)
    return trace


def read_triples(path) -> list[tuple[int, str, str]]:
    """(template key, chosen, rejected) of each triple of a preference file, each distinct
    prompt parsed once; a prompt with no parseable INPUT section is reported as ``path: query_id``."""
    keys, triples = {}, load_preference_file(path)
    for t in triples:
        if t.prompt not in keys:
            try:
                keys[t.prompt] = template_key(template_of(parse_once(extract_input_sql(t.prompt))))
            except PlangenError as exc:
                raise located(exc, f"{path}: {t.query_id}") from None
    return [(keys[t.prompt], t.chosen, t.rejected) for t in triples]


def infer_stage(model, workload, catalog, pool, out, demo_mode: str, max_len: int):
    """Batch inference; ``pool`` may be None when ``demo_mode`` is none."""
    model, queries, catalog = load_model(model), read_workload(workload), load_catalog(catalog)
    try:
        rows = infer_responses(
            model, queries, catalog, load_dataset(pool) if pool else [], demo_mode, None, max_len
        )
    except NoDemonstrationAvailable as exc:
        raise located(exc, pool) from None
    write_jsonl(rows, out)
    return rows


def report_stage(
    workload, train, test, plans_test, sft, dpo, responses_qit, responses_qdpo, tables, out
):
    test_queries = read_workload(test)
    responses = {
        "qit": read_responses(responses_qit, test_queries),
        "qdpo": read_responses(responses_qdpo, test_queries),
    }
    log, test_ids = read_plan_log(plans_test), query_ids(test_queries)
    require_known(plans_test, log, test_ids, test)
    require_known(test, test_ids, log, plans_test)
    report = build_report(query_rows(test_queries, log, responses, load_tables(tables)), responses)
    report["datasets"] = {
        "workload": _count_records(workload),
        "train": _count_records(train),
        "test": len(test_queries),
        "sft_records": _count_records(sft),
        "dpo_triples": _count_records(dpo),
    }
    Path(out).write_text(json.dumps(report, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return report


def _count_records(path) -> int:
    """Records in a one-per-line artifact, counted without parsing them."""
    return len(read_lines(path, str))


def extend_preference_file(plans_new, plans, sft, dpo, out, r0: float):
    """``build_preferences_from_logs`` over the old and new plan logs together,
    written to ``out``. Returns (triples written, those the existing
    preference file ``dpo`` lacks). Every query of the new log and of ``dpo``
    must be in the old log, and every query of ``dpo`` in the SFT records."""
    records = load_dataset(sft)
    old_log, new_log = read_plan_log(plans), read_plan_log(plans_new)
    require_known(plans_new, new_log, old_log, plans)
    existing = load_preference_file(dpo)
    dpo_ids = [t.query_id for t in existing]
    require_known(dpo, dpo_ids, old_log, plans)
    require_known(dpo, dpo_ids, [r.query_id for r in records], sft)
    log = {qid: [*timings, *new_log.get(qid, [])] for qid, timings in old_log.items()}
    triples = build_preferences_from_logs(records, log, r0, plans, sft)
    write_preference_file(triples, out)
    seen = {t.key() for t in existing}
    return triples, [t for t in triples if t.key() not in seen]


# --- the stage table and its content-hash cache ---

CONFIG_PATHS = ("catalog", "tables", "join_graph")


@dataclass(frozen=True)
class Stage:
    """One pipeline stage.

    ``inputs`` name config path fields (CONFIG_PATHS; a directory is hashed
    by content) or files an earlier stage wrote; ``outputs`` name files in
    the run directory; ``params`` name the PipelineConfig values passed on.
    """

    name: str
    fn: Callable
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    params: tuple[str, ...] = ()


_INFER = ("demo_mode", "max_len")

STAGES = (
    Stage("workload", workload_stage, ("catalog", "join_graph"), ("workload.sql",),
          ("workload_joins", "workload_count", "workload_seed")),
    Stage("split", split_stage, ("workload.sql",), ("train.sql", "test.sql"),
          ("split_ratio", "split_seed", "split_mode")),
    Stage("plans-train", plans_stage, ("train.sql", "catalog", "tables"), ("plans_train.jsonl",),
          ("random_opt_seed",)),
    Stage("plans-test", plans_stage, ("test.sql", "catalog", "tables"), ("plans_test.jsonl",),
          ("random_opt_seed",)),
    Stage("sft", sft_stage, ("train.sql", "plans_train.jsonl", "catalog"), ("sft.jsonl",),
          ("demo_mode", "demo_seed")),
    Stage("dpo", dpo_stage, ("plans_train.jsonl", "sft.jsonl"), ("dpo.jsonl",), ("r0",)),
    Stage("train-qit", qit_stage, ("sft.jsonl",), ("qit.ckpt", "qit_trace.csv"),
          ("qit_lr", "qit_steps", "batch_size", "qit_seed")),
    Stage("train-qdpo", qdpo_stage, ("dpo.jsonl", "qit.ckpt"), ("qdpo.ckpt", "qdpo_trace.csv"),
          ("qdpo_lr", "qdpo_steps", "batch_size", "beta", "qdpo_seed")),
    Stage("infer-qit", infer_stage, ("qit.ckpt", "test.sql", "catalog", "sft.jsonl"),
          ("responses_qit.jsonl",), _INFER),
    Stage("infer-qdpo", infer_stage, ("qdpo.ckpt", "test.sql", "catalog", "sft.jsonl"),
          ("responses_qdpo.jsonl",), _INFER),
    Stage("report", report_stage,
          ("workload.sql", "train.sql", "test.sql", "plans_test.jsonl", "sft.jsonl", "dpo.jsonl",
           "responses_qit.jsonl", "responses_qdpo.jsonl", "tables"),
          ("report.json",)),
)
STAGE_BY_NAME = {stage.name: stage for stage in STAGES}


def stage_paths(names, config: PipelineConfig) -> list[Path]:
    return [
        Path(getattr(config, name)) if name in CONFIG_PATHS else Path(config.out_dir) / name
        for name in names
    ]


def call_stage(stage: Stage, config: PipelineConfig):
    """Run one stage's function on config.out_dir, without the cache."""
    return stage.fn(
        *stage_paths(stage.inputs, config),
        *stage_paths(stage.outputs, config),
        *(getattr(config, name) for name in stage.params),
    )


@dataclass
class RunReport:
    report: dict
    stages: list[tuple[str, str]]
    seconds: dict[str, float]  # wall time per stage; kept out of the run directory


@functools.cache
def source_digest(package: Path = Path(__file__).parent) -> str:
    """sha256 of the sorted names and bytes of the .py files in ``package``."""
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


class _StageRunner:
    """Runs declared stages, skipping those whose hash and output digests
    match stages.json."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.manifest_path = Path(config.out_dir) / "stages.json"
        self.manifest = read_json(self.manifest_path) if self.manifest_path.exists() else {}
        self.statuses: list[tuple[str, str]] = []
        self._digests: dict[Path, bytes] = {}

    def _digest(self, path: Path) -> bytes:
        """sha256 of a file, or of a directory's relative names and contents."""
        if path not in self._digests:
            if path.is_dir():
                digest = hashlib.sha256()
                for child in sorted(p for p in path.rglob("*") if p.is_file()):
                    digest.update(child.relative_to(path).as_posix().encode() + b"\0")
                    digest.update(hashlib.sha256(child.read_bytes()).digest())
                self._digests[path] = digest.digest()
            else:
                self._digests[path] = hashlib.sha256(path.read_bytes()).digest()
        return self._digests[path]

    def _stage_hash(self, stage: Stage) -> str:
        declaration = {
            "code": source_digest(),
            "stage": stage.name,
            "function": stage.fn.__name__,
            "inputs": stage.inputs,
            "outputs": stage.outputs,
            "params": {name: getattr(self.config, name) for name in stage.params},
        }
        digest = hashlib.sha256(json.dumps(declaration, sort_keys=True).encode())
        for path in stage_paths(stage.inputs, self.config):
            digest.update(self._digest(path))
        return digest.hexdigest()

    def _save_manifest(self) -> None:
        partial = self.manifest_path.with_name("stages.json.tmp")
        partial.write_text(json.dumps(self.manifest, sort_keys=True, indent=1), encoding="utf-8")
        os.replace(partial, self.manifest_path)

    def run(self, name: str) -> None:
        stage = STAGE_BY_NAME[name]
        stage_hash = self._stage_hash(stage)
        outputs = stage_paths(stage.outputs, self.config)
        if self.manifest.get(name) == {"hash": stage_hash, "outputs": self._output_digests(outputs)}:
            self.statuses.append((name, "cached"))
            return
        for path in outputs:
            self._digests.pop(path, None)
        try:
            call_stage(stage, self.config)
        except PlangenError as exc:
            raise PipelineError(f"stage {name}: {exc}") from exc
        for path in outputs:
            if not path.exists():
                raise PipelineError(f"stage {name} did not produce {path.name}")
        self.manifest[name] = {"hash": stage_hash, "outputs": self._output_digests(outputs)}
        self._save_manifest()
        self.statuses.append((name, "computed"))

    def _output_digests(self, paths: list[Path]) -> dict[str, str]:
        """sha256 of each output that exists, by name."""
        return {path.name: self._digest(path).hex() for path in paths if path.is_file()}


def run_pipeline(config: PipelineConfig) -> RunReport:
    for field_name in (*CONFIG_PATHS, "out_dir"):
        if not getattr(config, field_name):
            raise PipelineError(f"config is missing {field_name}")
    for path in stage_paths(CONFIG_PATHS, config):
        if not path.exists():
            raise PipelineError(f"stage inputs: missing path {path}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = _StageRunner(config)
    seconds = {}
    with parse_memo():  # each distinct query text is parsed once per run
        for stage in STAGES:
            start = time.perf_counter()
            runner.run(stage.name)
            seconds[stage.name] = time.perf_counter() - start
    report = read_json(out / "report.json")
    return RunReport(report=report, stages=runner.statuses, seconds=seconds)
