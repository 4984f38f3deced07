import base64
import functools
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plangen.catalog import Catalog, load_catalog, load_tables
from plangen.cli import cli
from plangen.dataset import (
    DEMO_MODES, InstructionRecord, build_prompt, build_sft_dataset, demonstration_siblings, query_ids,
    require_demonstration,
)
from plangen.errors import PlangenError
from plangen.executor import PlanTiming, read_plan_log, write_plan_log
from plangen.jsonl import write_jsonl
from plangen.model import CHECKPOINT_FORMAT
from plangen import pipeline, sql
from plangen.pipeline import (
    SPLIT_MODES,
    STAGES,
    PipelineConfig,
    PipelineError,
    build_preferences_from_logs,
    call_stage,
    infer_responses,
    run_optimizers,
    read_workload,
    run_pipeline,
    split_workload,
    stage_paths,
    stage_workload,
)
from plangen.plans import JOIN_OPERATORS, Join, Leaf
from plangen.report import nearest_rank, timing_summary
from plangen.sql import SqlSemanticError, parse_memo, parse_sql, render_sql, template_key, template_of
from tests.conftest import cache_hits, reference_decode_query, reference_demonstration_siblings

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fast_config(out_dir, **overrides) -> PipelineConfig:
    base = dict(
        catalog=str(FIXTURES / "catalog.txt"),
        tables=str(FIXTURES / "tables"),
        join_graph=str(FIXTURES / "joins.txt"),
        out_dir=str(out_dir),
        workload_count=20,
        workload_joins="1,2",
        qit_steps=150,
        qdpo_steps=40,
    )
    base.update(overrides)
    return PipelineConfig().with_overrides(**{k: str(v) for k, v in base.items()})


def test_config_file_parse_and_overrides(tmp_path):
    cfg = PipelineConfig.from_file(FIXTURES / "pipeline.cfg")
    assert cfg.workload_count == 60
    assert cfg.split_ratio == 0.8
    assert cfg.demo_mode == "fallback"
    overridden = cfg.with_overrides(workload_count="10", r0="0.9")
    assert overridden.workload_count == 10
    assert overridden.r0 == 0.9


def test_config_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nonsense = 1\n", encoding="utf-8")
    with pytest.raises(PipelineError, match="unknown config key"):
        PipelineConfig.from_file(path)


def test_config_invalid_ratio():
    with pytest.raises(PipelineError, match="split ratio"):
        PipelineConfig(split_ratio=1.5)


def test_config_and_split_reject_an_unknown_split_mode():
    queries = [parse_sql(f"SELECT * FROM title WHERE title.kind_id = {i};") for i in range(5)]
    for split in (lambda: PipelineConfig(split_mode="bogus"),
                  lambda: split_workload(queries, 0.8, 2, mode="bogus")):
        with pytest.raises(PipelineError, match="^unknown split mode 'bogus'$"):
            split()


def _fixture_queries_of_one_template():
    """The fixture workload's nine queries of its most common template."""
    queries = stage_workload(load_catalog(FIXTURES / "catalog.txt"), FIXTURES / "joins.txt",
                             "1,2,3", 60, 1)
    key = "movie_keyword,title|movie_keyword.movie_id = title.movie_id"
    return [q for q in queries if template_of(q).key() == key]


def test_split_never_leaves_a_side_empty():
    """One query cannot fill both sides, and by-template cannot hold out a
    template that is the whole workload."""
    one = [parse_sql("SELECT * FROM title WHERE title.kind_id = 1;")]
    for mode, side in (("random", "test"), ("by-join-count", "test"), ("by-template", "train")):
        with pytest.raises(PipelineError, match=f"^{mode} split at ratio 0.8 of 1 queries leaves {side} empty$"):
            split_workload(one, 0.8, 0, mode)
    nine = _fixture_queries_of_one_template()
    assert len(nine) == 9
    with pytest.raises(PipelineError, match="^by-template split at ratio 0.8 of 9 queries leaves train empty$"):
        split_workload(nine, 0.8, 0, "by-template")
    train, test = split_workload(nine, 0.8, 0, "random")
    assert (len(train), len(test)) == (7, 2)


def test_run_refuses_a_one_query_workload_as_the_config_loads(tmp_path):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(_fixture_config_text(tmp_path / "run"), encoding="utf-8")
    result = invoke("run", "--config", cfg, "--workload-count", 1, "--demo-mode", "none")
    assert result.exit_code == 1, result.output
    assert result.output == "error: --workload-count: workload count must be at least 2 to split into train and test, got 1\n"
    assert not (tmp_path / "run").exists()
    with pytest.raises(PipelineError, match="^workload count must be at least 2"):
        PipelineConfig(workload_count=1)
    args = _gen_workload(tmp_path, FIXTURES / "catalog.txt", FIXTURES / "joins.txt")
    assert invoke(*args, "--count", 1).exit_code == 0
    assert len((tmp_path / "workload.sql").read_text().splitlines()) == 1


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(1, 6),
    joins=st.sampled_from(["1", "2", "3", "1,2", "1,2,3"]),
    split_mode=st.sampled_from(SPLIT_MODES),
    demo_mode=st.sampled_from(DEMO_MODES),
)
def test_a_small_run_judges_something_or_exits_1_naming_a_file(count, joins, split_mode, demo_mode):
    """No config runs to a report over an empty test split or SFT set, and
    every refusal names the flag, the config or the input file it found
    wanting; an exception other than a located error would escape ``invoke``."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, run_dir = Path(tmp) / "pipeline.cfg", Path(tmp) / "run"
        cfg.write_text(_fixture_config_text(run_dir) + "qit_steps = 2\nqdpo_steps = 2\n"
                       "max_len = 16\n", encoding="utf-8")
        result = invoke("run", "--config", cfg, "--workload-count", count, "--workload-joins", joins,
                        "--split-mode", split_mode, "--demo-mode", demo_mode)
        if result.exit_code == 0:
            datasets = json.loads((run_dir / "report.json").read_text())["datasets"]
            assert datasets["test"] > 0 and datasets["sft_records"] > 0
        else:
            assert result.exit_code == 1, result.output
            located = rf"^error: (--workload-count|{re.escape(str(cfg))}|stage [a-z-]+: {re.escape(str(run_dir))}/[a-z_.]+): "
            assert re.match(located, result.output), result.output


def test_a_run_parses_each_distinct_query_text_once_and_the_next_run_again(tmp_path, monkeypatch):
    parsed = []
    parse = sql.parse_sql
    monkeypatch.setattr(sql, "parse_sql", lambda text: parsed.append(text) or parse(text))
    config = fast_config(tmp_path / "first", workload_count=12, qit_steps=2, qdpo_steps=2)
    run_pipeline(config)
    texts = (tmp_path / "first" / "workload.sql").read_text().splitlines()
    assert sorted(parsed) == sorted(set(texts))

    def fault(*args):
        raise PlangenError("injected fault")

    parsed.clear()
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "build_preferences_from_logs", fault)
        with pytest.raises(PipelineError, match="^stage dpo: injected fault$"):
            run_pipeline(replace(config, out_dir=str(tmp_path / "failed")))
    assert sorted(parsed) == sorted(set(texts))
    # The failed run left no memo behind: outside a run every read parses,
    # and a fresh run parses each text once again.
    parsed.clear()
    read_workload(tmp_path / "first" / "workload.sql")
    assert parsed == texts
    parsed.clear()
    run_pipeline(replace(config, out_dir=str(tmp_path / "second")))
    assert sorted(parsed) == sorted(set(texts))


def test_a_bad_workload_line_is_located_on_every_read(tmp_path):
    good, bad = "SELECT * FROM title;", "SELECT * FROM title WHERE title.kind_id = 1.5;"
    first, second = tmp_path / "first.sql", tmp_path / "second.sql"
    first.write_text(f"{good}\n{bad}\n")
    second.write_text(f"{bad}\n")
    with parse_memo():
        for path, line in ((first, 2), (first, 2), (second, 1)):
            with pytest.raises(SqlSemanticError, match=f"^{re.escape(str(path))}:{line}: non-integer"):
                read_workload(path)
        for _ in range(2):
            result = invoke("split-workload", "--workload", first, "--out-train",
                            tmp_path / "train.sql", "--out-test", tmp_path / "test.sql")
            assert result.exit_code == 1
            assert result.output == f"error: {first}:2: non-integer literal '1.5'\n"


@pytest.mark.parametrize(
    "setting", ["max_len = 0", "max_len = -1", "n_contexts = 0", "n_contexts = 2147483648"]
)
def test_config_rejects_a_count_below_one_naming_the_file(tmp_path, setting):
    """Also a retired context count outside the range it had, naming the
    line: a config that was invalid before stays invalid."""
    path = tmp_path / "bad.cfg"
    path.write_text(setting + "\n", encoding="utf-8")
    key, value = setting.split(" = ")
    if key == "max_len":
        where = f"{path}: max_len must be at least 1"
    else:
        where = f"{path}:1: n_contexts must be from 1 to 2147483647, got {value}"
    with pytest.raises(PipelineError, match=f"^{re.escape(where)}"):
        PipelineConfig.from_file(path)


_OUT_OF_RANGE = {
    "beta = 0": "beta must be positive, got 0.0",
    "r0 = 1.5": "ratio threshold must be in (0, 1), got 1.5",
    "qit_steps = -1": "step count must be non-negative, got -1",
    "qdpo_steps = -2": "step count must be non-negative, got -2",
    "qit_lr = 0": "learning rate must be positive, got 0.0",
    "qdpo_lr = -0.1": "learning rate must be positive, got -0.1",
    "batch_size = 0": "batch size must be positive, got 0",
}


@pytest.mark.parametrize("setting", list(_OUT_OF_RANGE))
def test_a_training_value_out_of_range_fails_as_the_config_loads(tmp_path, setting):
    """A training or preference value out of range is refused as the config
    loads, naming the file, before any stage runs."""
    cfg = tmp_path / "p.cfg"
    cfg.write_text(_fixture_config_text(tmp_path / "run") + setting + "\n", encoding="utf-8")
    where = _OUT_OF_RANGE[setting]
    with pytest.raises(PipelineError, match=f"^{re.escape(f'{cfg}: {where}')}$"):
        PipelineConfig.from_file(cfg)
    result = invoke("run", "--config", cfg)
    assert result.exit_code == 1
    assert result.output == f"error: {cfg}: {where}\n"
    assert not (tmp_path / "run" / "stages.json").exists()


_BAD_FLAGS = {
    "--beta": ("0", "beta must be positive, got 0.0"),
    "--r0": ("1.5", "ratio threshold must be in (0, 1), got 1.5"),
    "--workload-count": ("1", "workload count must be at least 2 to split into train and test, got 1"),
    "--qit-steps": ("-1", "step count must be non-negative, got -1"),
}


@pytest.mark.parametrize("flag", list(_BAD_FLAGS))
def test_a_bad_run_flag_is_named_not_the_config_file(tmp_path, flag):
    """The config file's own values are valid, so a flag out of range is
    reported against the flag, with or without a file, and no stage runs."""
    cfg = tmp_path / "p.cfg"
    cfg.write_text(_fixture_config_text(tmp_path / "run"), encoding="utf-8")
    value, problem = _BAD_FLAGS[flag]
    for args in (("--config", cfg), ("--out-dir", tmp_path / "run")):
        result = invoke("run", *args, flag, value)
        assert result.exit_code == 1
        assert result.output == f"error: {flag}: {problem}\n"
    assert not (tmp_path / "run").exists()


def test_a_bad_config_value_is_named_even_when_a_flag_overrides_it(tmp_path):
    """The file is checked before its values are overridden."""
    cfg = tmp_path / "p.cfg"
    cfg.write_text(_fixture_config_text(tmp_path / "run") + "beta = 0\n", encoding="utf-8")
    result = invoke("run", "--config", cfg, "--beta", "0.1")
    assert result.exit_code == 1
    assert result.output == f"error: {cfg}: beta must be positive, got 0.0\n"


@pytest.mark.parametrize("count", [1, 512, 2147483647])
def test_a_retired_context_count_loads_and_changes_nothing(tmp_path, count):
    """A context is the full 64-bit hash, so a config that still sets
    n_contexts, as configs of earlier versions do, loads as if it did not."""
    text = (FIXTURES / "pipeline.cfg").read_text(encoding="utf-8")
    path = tmp_path / "old.cfg"
    path.write_text(text + f"n_contexts = {count}\n", encoding="utf-8")
    assert PipelineConfig.from_file(path) == PipelineConfig.from_file(FIXTURES / "pipeline.cfg")


def test_split_ratio_and_determinism(micro_catalog, micro_join_lines, tmp_path):
    from plangen.workload import gen_workload
    from plangen.sql import JoinPredicate

    graph = []
    for line in micro_join_lines:
        left, right = line.split("=")
        ta, ca = left.strip().split(".")
        tb, cb = right.strip().split(".")
        graph.append(JoinPredicate.normalized(ta, ca, tb, cb))
    queries = gen_workload(micro_catalog, graph, 2, 30, seed=1)
    train_a, test_a = split_workload(queries, 0.8, seed=5)
    train_b, test_b = split_workload(queries, 0.8, seed=5)
    assert [q.raw_sql for q in train_a] == [q.raw_sql for q in train_b]
    assert len(train_a) == 24 and len(test_a) == 6

    by_joins_train, by_joins_test = split_workload(queries, 0.8, seed=5, mode="by-join-count")
    max_train = max(len(q.joins) for q in by_joins_train)
    min_test = min(len(q.joins) for q in by_joins_test)
    assert max_train <= min_test

    from plangen.sql import template_of

    tpl_train, tpl_test = split_workload(queries, 0.8, seed=5, mode="by-template")
    train_keys = {template_of(q).key() for q in tpl_train}
    test_keys = {template_of(q).key() for q in tpl_test}
    assert not train_keys & test_keys


def test_nearest_rank_against_oracle():
    rng = random.Random(3)
    for _ in range(50):
        values = sorted(rng.randint(0, 1000) for _ in range(rng.randint(1, 40)))
        for p in (50, 75, 95, 99):
            # Independent oracle: smallest value covering at least p percent.
            n = len(values)
            want = next(v for k, v in enumerate(values, 1) if k * 100 >= p * n)
            assert nearest_rank(values, p) == want


def test_timing_summary_keys():
    summary = timing_summary([5, 1, 9, 3])
    assert set(summary) == {"count", "mean", "median", "p75", "p95", "p99"}
    assert summary["mean"] == pytest.approx(4.5)
    assert summary["median"] == 3
    assert summary["count"] == 4


def test_missing_catalog_path_names_it(tmp_path):
    config = fast_config(tmp_path / "run", catalog=str(tmp_path / "nope.cat"))
    with pytest.raises(PipelineError, match="nope.cat"):
        run_pipeline(config)


def test_pipeline_rerun_all_cached(tmp_path):
    config = fast_config(tmp_path / "run")
    first = run_pipeline(config)
    assert all(status == "computed" for _, status in first.stages)
    second = run_pipeline(config)
    assert all(status == "cached" for _, status in second.stages)
    assert first.report == second.report
    assert cache_hits(second) == [name for name, _ in second.stages]
    for result in (first, second):
        assert list(result.seconds) == [name for name, _ in result.stages]
        assert all(seconds >= 0 for seconds in result.seconds.values())


def test_pipeline_stage_invalidation(tmp_path):
    config = fast_config(tmp_path / "run")
    run_pipeline(config)
    # Changing a downstream parameter recomputes only from that stage on.
    changed = fast_config(tmp_path / "run", qdpo_steps=41)
    result = run_pipeline(changed)
    statuses = dict(result.stages)
    assert statuses["workload"] == "cached"
    assert statuses["train-qit"] == "cached"
    assert statuses["train-qdpo"] == "computed"
    assert statuses["infer-qdpo"] == "computed"
    # Caching is content-addressed: the report only recomputes if the decoded
    # responses actually changed.


def test_table_edit_recomputes_plans_and_report(tmp_path):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, fixtures)
    paths = dict(
        catalog=fixtures / "catalog.txt", tables=fixtures / "tables", join_graph=fixtures / "joins.txt"
    )
    first = run_pipeline(fast_config(tmp_path / "run", **paths))
    title = fixtures / "tables" / "title.tbl"
    text = title.read_text(encoding="utf-8")
    assert "\n1,3,1928\n" in text
    title.write_text(text.replace("\n1,3,1928\n", "\n0,3,1928\n"), encoding="utf-8")

    rerun = run_pipeline(fast_config(tmp_path / "run", **paths))
    statuses = dict(rerun.stages)
    for name in ("plans-train", "plans-test", "report"):
        assert statuses[name] == "computed", name
    run_pipeline(fast_config(tmp_path / "fresh", **paths))
    assert rerun.report != first.report
    assert (tmp_path / "run" / "report.json").read_bytes() == (
        tmp_path / "fresh" / "report.json"
    ).read_bytes()


def test_interrupted_stage_is_recomputed(tmp_path, monkeypatch):
    import plangen.pipeline as pipeline

    config = fast_config(tmp_path / "run")
    run_pipeline(config)
    complete = (tmp_path / "run" / "dpo.jsonl").read_bytes()

    def crash_mid_write(triples, path):
        Path(path).write_text('{"query_id": "q0', encoding="utf-8")
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "write_preference_file", crash_mid_write)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(fast_config(tmp_path / "run", r0=0.5))

    result = run_pipeline(config)
    assert dict(result.stages)["dpo"] == "computed"
    assert (tmp_path / "run" / "dpo.jsonl").read_bytes() == complete


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _keep_five_lines(path: Path) -> None:
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:5]))


def _unreadable(path: Path) -> None:
    path.write_text("{not json\n")


@pytest.mark.parametrize(
    "name, corrupt, stage",
    [("dpo.jsonl", _keep_five_lines, "dpo"), ("report.json", _unreadable, "report")],
)
def test_changed_output_recomputes_to_a_fresh_run(tmp_path, name, corrupt, stage):
    """A stage whose output no longer holds what it wrote is not cached."""
    run_pipeline(fast_config(tmp_path / "fresh"))
    run_pipeline(fast_config(tmp_path / "run"))
    corrupt(tmp_path / "run" / name)
    statuses = dict(run_pipeline(fast_config(tmp_path / "run")).stages)
    assert statuses[stage] == "computed"
    assert _tree_bytes(tmp_path / "run") == _tree_bytes(tmp_path / "fresh")


def test_stages_json_without_output_digests_recomputes(tmp_path):
    """A manifest written before outputs were digested lists only names; an
    entry that is not an object at all is stale too."""
    config = fast_config(tmp_path / "run")
    run_pipeline(config)
    fresh = _tree_bytes(tmp_path / "run")
    manifest_path = tmp_path / "run" / "stages.json"
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest.values():
        entry["outputs"] = sorted(entry["outputs"])
    manifest["workload"] = "stale"
    manifest_path.write_text(json.dumps(manifest))
    result = run_pipeline(config)
    assert all(status == "computed" for _, status in result.stages)
    assert _tree_bytes(tmp_path / "run") == fresh
    assert all(status == "cached" for _, status in run_pipeline(config).stages)


# Runs the config argv[1] into each run directory that follows, with plangen
# imported from PYTHONPATH, and prints where plangen came from and each run's
# stage statuses.
_RUN_SCRIPT = """
import json, sys
import plangen
from plangen.pipeline import PipelineConfig, run_pipeline
config = PipelineConfig.from_file(sys.argv[1])
runs = [dict(run_pipeline(config.with_overrides(out_dir=d)).stages) for d in sys.argv[2:]]
print(json.dumps({"package": plangen.__file__, "runs": runs}))
"""


def _run_with_package(root: Path, config: Path, *run_dirs: Path) -> list[dict]:
    env = {**os.environ, "PYTHONPATH": str(root)}
    result = subprocess.run([sys.executable, "-c", _RUN_SCRIPT, config, *run_dirs],
                            env=env, capture_output=True, text=True, check=True)
    out = json.loads(result.stdout)
    assert Path(out["package"]).resolve().parent == (root / "plangen").resolve()
    return out["runs"]


def _copy_package(root: Path) -> Path:
    package = root / "plangen"
    shutil.copytree(Path(pipeline.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    return package


def test_a_source_edit_recomputes_every_stage_to_a_fresh_run(tmp_path):
    """A run directory made by one copy of the package is fully cached under
    that copy; after a one-byte edit of its sources every stage recomputes,
    and the run directory equals a fresh run of the edited copy."""
    package = _copy_package(tmp_path / "src")
    config = tmp_path / "fast.cfg"
    config.write_text(_fixture_config_text(tmp_path / "unused") + "workload_count = 20\n"
                      "workload_joins = 1,2\nqit_steps = 150\nqdpo_steps = 40\n")
    first, again = _run_with_package(tmp_path / "src", config, tmp_path / "run", tmp_path / "run")
    assert set(first.values()) == {"computed"} and set(again.values()) == {"cached"}
    model_py = package / "model.py"
    model_py.write_bytes(model_py.read_bytes() + b"\n")
    edited, fresh = _run_with_package(tmp_path / "src", config, tmp_path / "run", tmp_path / "fresh")
    assert len(edited) == len(STAGES) and set(edited.values()) == {"computed"}
    assert set(fresh.values()) == {"computed"}
    assert _tree_bytes(tmp_path / "run") == _tree_bytes(tmp_path / "fresh")


def test_source_digest_covers_each_package_source_and_nothing_else(tmp_path):
    package = _copy_package(tmp_path)
    digest = pipeline.source_digest.__wrapped__  # uncached: the copy changes below
    base = digest(package)
    assert base == pipeline.source_digest()
    (tmp_path / "setup.py").write_text("x = 1\n")  # beside the package, not in it
    (package / "notes.txt").write_text("x = 1\n")  # not a source
    (package / "__pycache__").mkdir()
    (package / "__pycache__" / "model.py").write_text("x = 1\n")
    assert digest(package) == base
    for path in sorted(package.glob("*.py")):
        source = path.read_bytes()
        path.write_bytes(source + b"\n")
        assert digest(package) != base, path.name
        path.write_bytes(source)
    (package / "extra.py").write_text("")
    assert digest(package) != base


@pytest.fixture(scope="module")
def completed_fast_run(tmp_path_factory) -> Path:
    run_dir = tmp_path_factory.mktemp("completed") / "run"
    run_pipeline(fast_config(run_dir))
    return run_dir


_OUTPUT_NAMES = sorted(name for stage in STAGES for name in stage.outputs)
_output_damage = st.tuples(
    st.sampled_from(_OUTPUT_NAMES),
    st.sampled_from(["truncate", "flip", "append", "replace", "delete"]),
    st.integers(0, 2**20),
)


@settings(max_examples=25, deadline=None)
@given(damage=st.lists(_output_damage, min_size=1, max_size=3))
def test_rerun_after_damaged_outputs_equals_a_fresh_run(completed_fast_run, damage):
    fresh = _tree_bytes(completed_fast_run)
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        shutil.copytree(completed_fast_run, run_dir)
        for name, kind, n in damage:
            path = run_dir / name
            data = path.read_bytes() if path.exists() else b""
            if kind == "delete":
                path.unlink(missing_ok=True)
            elif kind == "truncate":
                path.write_bytes(data[: n % max(len(data), 1)])
            elif kind == "flip" and data:
                at = n % len(data)
                path.write_bytes(data[:at] + bytes([data[at] ^ 1]) + data[at + 1:])
            elif kind == "append":
                path.write_bytes(data + b"\n")
            else:
                path.write_bytes(b"x" * (n % 64))
        now = _tree_bytes(run_dir)
        damaged = {name for name in _OUTPUT_NAMES if now.get(name) != fresh[name]}
        result = run_pipeline(fast_config(run_dir))
        recomputed = {name for name, status in result.stages if status == "computed"}
        assert {stage.name for stage in STAGES if damaged & set(stage.outputs)} <= recomputed
        assert _tree_bytes(run_dir) == fresh


_read_paths: list[Path] | None = None


def _record_reads(event, args):
    """Audit hook: while _read_paths is a list, add each file opened read-only."""
    if event == "open" and _read_paths is not None and isinstance(args[0], (str, bytes, os.PathLike)):
        if args[2] is None or args[2] & os.O_ACCMODE == os.O_RDONLY:
            _read_paths.append(Path(os.fsdecode(args[0])).resolve())


@functools.cache
def _install_read_hook() -> None:
    sys.addaudithook(_record_reads)  # audit hooks cannot be removed


def test_every_stage_reads_only_its_declared_inputs(completed_fast_run, tmp_path):
    """The other half of the cache contract: every file a stage reads is in
    its hash. A directory input stands for the files under it."""
    global _read_paths
    run_dir = tmp_path / "run"
    shutil.copytree(completed_fast_run, run_dir)
    config = fast_config(run_dir)
    _install_read_hook()
    for stage in STAGES:
        call_stage(stage, config)  # warm: imports the stage's lazily imported modules
        declared = [path.resolve() for path in stage_paths(stage.inputs, config)]
        _read_paths = []
        try:
            call_stage(stage, config)
            reads = set(_read_paths)
        finally:
            _read_paths = None
        undeclared = sorted(str(path) for path in reads if not _within(path, declared))
        assert not undeclared, (stage.name, undeclared)
        unread = [str(d) for d in declared if not any(_within(path, [d]) for path in reads)]
        assert not unread, (stage.name, unread)
    assert _tree_bytes(run_dir) == _tree_bytes(completed_fast_run)


def _within(path: Path, inputs) -> bool:
    """``path`` is one of ``inputs`` or a file under one of them."""
    return any(path == given or given in path.parents for given in inputs)


def test_run_optimizers_log_matches_golden_digest(tmp_path):
    # 60 queries over 3-5 joins: every personality on the bushy shapes where
    # plan timing does the most work; and 60 over 1-5 joins, so one- and
    # two-join queries are pinned too. The digests pin the log bytes.
    catalog = load_catalog(FIXTURES / "catalog.txt")
    for joins, expected in (
        ("3,4,5", "14f48d875f76664ce715f057b5f56604517a342effe56629595ed64663bf27d1"),
        ("1,2,3,4,5", "e5c5ad5d42592caf0dbdf4b10628ed21fc05a887685858df73760eb72e13b6e1"),
    ):
        queries = stage_workload(catalog, FIXTURES / "joins.txt", joins, 60, 7)
        log = run_optimizers(queries, catalog, load_tables(FIXTURES / "tables"), 11)
        write_plan_log(log, tmp_path / "plans.jsonl")
        digest = hashlib.sha256((tmp_path / "plans.jsonl").read_bytes()).hexdigest()
        assert digest == expected, joins


def _plan_trees(tables):
    """Join trees over ``tables``, split into contiguous runs, in both
    orientations and with every operator at every join."""
    if len(tables) == 1:
        return [Leaf(tables[0])]
    trees = []
    for split in range(1, len(tables)):
        for left in _plan_trees(tables[:split]):
            for right in _plan_trees(tables[split:]):
                trees.extend(Join(op, left, right) for op in JOIN_OPERATORS)
                trees.extend(Join(op, right, left) for op in JOIN_OPERATORS)
    return trees


PLAN_CHOICES = _plan_trees(["cast_info", "movie_keyword", "title"])
PROPERTY_QUERY = parse_sql(
    "SELECT * FROM title, cast_info, movie_keyword WHERE title.movie_id = cast_info.movie_id "
    "AND title.movie_id = movie_keyword.movie_id;"
)


@st.composite
def plan_logs(draw):
    """Logs of 1-6 queries; each query has 2-4 optimizers, and times drawn
    from 1-4 so that ties, also between equal plans, are common."""
    log = {}
    for index in range(draw(st.integers(1, 6))):
        names = draw(st.lists(st.sampled_from(["dp", "greedy", "random", "zeta"]),
                              min_size=2, max_size=4, unique=True))
        log[f"q{index + 1:04d}"] = [
            PlanTiming(name, draw(st.sampled_from(PLAN_CHOICES)), draw(st.integers(1, 4)))
            for name in names
        ]
    return log


def test_read_plan_log_names_the_first_line_of_a_repeated_bad_bracket(tmp_path):
    row = {"query_id": "q0001", "optimizer": "dp", "bracket": "HashJoin(cast_info title)",
           "time_units": 70}
    bad = {"optimizer": "greedy", "bracket": "HashJoin(cast_info"}
    path = tmp_path / "plans.jsonl"
    write_jsonl([row, {**row, "query_id": "q0002"}, {**row, **bad}, {**row, **bad, "query_id": "q0002"}],
                path)
    with pytest.raises(PlangenError, match=f"^{re.escape(str(path))}:3: "):
        read_plan_log(path)


@settings(max_examples=80, deadline=None)
@given(log=plan_logs(), r0=st.sampled_from([0.3, 0.8, 0.95]))
def test_plan_log_round_trip_and_one_best_plan(log, r0):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plans.jsonl"
        write_plan_log(log, path)
        assert read_plan_log(path) == log
    workload = [PROPERTY_QUERY] * len(log)
    records = build_sft_dataset(workload, log, load_catalog(FIXTURES / "catalog.txt"), "none")
    response = {record.query_id: record.response for record in records}
    triples = build_preferences_from_logs(records, log, r0)
    for triple in triples:
        assert triple.chosen == response[triple.query_id]
    # A query yields triples exactly when its fastest plan beats its slowest
    # by the ratio threshold.
    times = {qid: [t.time for t in timings] for qid, timings in log.items()}
    assert {t.query_id for t in triples} == {
        qid for qid, values in times.items() if min(values) / max(values) < r0
    }


def test_report_shape(tmp_path):
    result = run_pipeline(fast_config(tmp_path / "run"))
    report = result.report
    assert set(report["datasets"]) == {"workload", "train", "test", "sft_records", "dpo_triples"}
    for source, summary in report["timings"].items():
        assert {"mean", "median", "p75", "p95", "p99"} <= set(summary)
    assert {"dp", "greedy", "random"} <= set(report["timings"])
    for source in ("qit", "qdpo"):
        v = report["validity"][source]
        assert v["total"] == report["datasets"]["test"]
        assert set(v["errors"]) == {"E1", "E2", "E3"}


# --- CLI ---


def invoke(*args):
    runner = CliRunner()
    return runner.invoke(cli, [str(a) for a in args], catch_exceptions=False)


def test_cli_validate_corpus(tmp_path, movie_plan, movie_query):
    from plangen.plans import render_response
    from plangen.sql import render_sql

    corpus = tmp_path / "corpus.jsonl"
    rows = [
        {"query_sql": render_sql(movie_query), "response": render_response(movie_plan)},
        {
            "query_sql": render_sql(movie_query),
            "response": "Therefore, the final answer is:\nHashJoin(a b",
        },
    ]
    corpus.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    result = invoke("validate", "--corpus", corpus)
    assert result.exit_code == 0
    assert result.output.strip() == "E1=1 E2=1 E3=1 total=1"


def test_cli_hint(tmp_path):
    sql = tmp_path / "q.sql"
    sql.write_text(
        "SELECT * FROM movie_companies, title, movie_info_idx "
        "WHERE title.movie_id = movie_companies.movie_id "
        "AND title.movie_id = movie_info_idx.movie_id;",
        encoding="utf-8",
    )
    result = invoke(
        "hint", "--plan", "HashJoin(movie_info_idx HashJoin(movie_companies title))",
        "--sql", sql,
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == (
        "/*+ Leading((movie_info_idx (movie_companies title))) "
        "HashJoin(movie_companies title) "
        "HashJoin(movie_info_idx movie_companies title) */"
    )
    assert lines[1].startswith("SELECT * FROM ")


def test_cli_hint_table_mismatch_is_domain_error(tmp_path):
    sql = tmp_path / "q.sql"
    sql.write_text("SELECT * FROM a, b WHERE a.x = b.y;", encoding="utf-8")
    runner = CliRunner()
    result = runner.invoke(cli, ["hint", "--plan", "HashJoin(a c)", "--sql", str(sql)])
    assert result.exit_code == 1
    assert "do not match" in result.output


def test_cli_usage_error_exit_code():
    runner = CliRunner()
    result = runner.invoke(cli, ["validate"])  # neither --corpus nor --queries
    assert result.exit_code == 2


def test_cli_chain_equals_run_pipeline(tmp_path):
    """Driving every stage through the CLI reproduces run_pipeline's bytes."""
    pipe_dir = tmp_path / "pipeline"
    config = fast_config(pipe_dir)
    run_pipeline(config)

    chain = tmp_path / "chain"
    chain.mkdir()
    catalog, tables, joins = config.catalog, config.tables, config.join_graph

    r = invoke(
        "gen-workload", "--catalog", catalog, "--join-graph", joins,
        "--n-joins", config.workload_joins, "--count", config.workload_count,
        "--seed", config.workload_seed, "--out", chain / "workload.sql",
    )
    assert r.exit_code == 0, r.output
    r = invoke(
        "split-workload", "--workload", chain / "workload.sql",
        "--ratio", config.split_ratio, "--seed", config.split_seed,
        "--mode", config.split_mode,
        "--out-train", chain / "train.sql", "--out-test", chain / "test.sql",
    )
    assert r.exit_code == 0, r.output
    for part in ("train", "test"):
        r = invoke(
            "run-optimizers", "--workload", chain / f"{part}.sql",
            "--catalog", catalog, "--tables", tables,
            "--random-seed", config.random_opt_seed,
            "--out", chain / f"plans_{part}.jsonl",
        )
        assert r.exit_code == 0, r.output
    r = invoke(
        "gen-sft", "--workload", chain / "train.sql", "--plans", chain / "plans_train.jsonl",
        "--catalog", catalog, "--demo-mode", config.demo_mode,
        "--seed", config.demo_seed, "--out", chain / "sft.jsonl",
    )
    assert r.exit_code == 0, r.output
    r = invoke(
        "gen-dpo", "--plans", chain / "plans_train.jsonl", "--sft", chain / "sft.jsonl",
        "--r0", config.r0, "--out", chain / "dpo.jsonl",
    )
    assert r.exit_code == 0, r.output
    r = invoke(
        "train-qit", "--sft", chain / "sft.jsonl", "--out", chain / "qit.ckpt",
        "--lr", config.qit_lr, "--steps", config.qit_steps,
        "--batch-size", config.batch_size, "--seed", config.qit_seed,
        "--trace", chain / "qit_trace.csv",
    )
    assert r.exit_code == 0, r.output
    r = invoke(
        "train-qdpo", "--dpo", chain / "dpo.jsonl", "--init", chain / "qit.ckpt",
        "--out", chain / "qdpo.ckpt", "--lr", config.qdpo_lr,
        "--steps", config.qdpo_steps, "--batch-size", config.batch_size,
        "--beta", config.beta, "--seed", config.qdpo_seed,
        "--trace", chain / "qdpo_trace.csv",
    )
    assert r.exit_code == 0, r.output
    for source in ("qit", "qdpo"):
        r = invoke(
            "infer", "--model", chain / f"{source}.ckpt", "--workload", chain / "test.sql",
            "--catalog", catalog, "--demo-pool", chain / "sft.jsonl",
            "--demo-mode", config.demo_mode, "--max-len", config.max_len,
            "--out", chain / f"responses_{source}.jsonl",
        )
        assert r.exit_code == 0, r.output
    r = invoke("report", "--run-dir", chain, "--build", "--tables", tables)
    assert r.exit_code == 0, r.output

    artifacts = [
        "workload.sql", "train.sql", "test.sql", "plans_train.jsonl", "plans_test.jsonl",
        "sft.jsonl", "dpo.jsonl", "qit.ckpt", "qdpo.ckpt", "qit_trace.csv",
        "qdpo_trace.csv", "responses_qit.jsonl", "responses_qdpo.jsonl", "report.json",
    ]
    for name in artifacts:
        assert (chain / name).read_bytes() == (pipe_dir / name).read_bytes(), name


def test_cli_extend_dpo_equals_generation_over_all_optimizers(tmp_path):
    pipe_dir = tmp_path / "run"
    config = fast_config(pipe_dir)
    run_pipeline(config)
    records = [json.loads(line) for line in (pipe_dir / "plans_train.jsonl").read_text().splitlines()]
    old = [r for r in records if r["optimizer"] != "random"]
    new = [r for r in records if r["optimizer"] == "random"]
    for name, rows in (("old.jsonl", old), ("new.jsonl", new)):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")

    r = invoke(
        "gen-dpo", "--plans", tmp_path / "old.jsonl", "--sft", pipe_dir / "sft.jsonl",
        "--r0", config.r0, "--out", tmp_path / "dpo_old.jsonl",
    )
    assert r.exit_code == 0, r.output
    r = invoke(
        "extend-dpo", "--plans-new", tmp_path / "new.jsonl", "--plans", tmp_path / "old.jsonl",
        "--sft", pipe_dir / "sft.jsonl", "--dpo", tmp_path / "dpo_old.jsonl",
        "--r0", config.r0, "--out", tmp_path / "dpo_extended.jsonl",
    )
    assert r.exit_code == 0, r.output
    assert (tmp_path / "dpo_old.jsonl").read_bytes() != (pipe_dir / "dpo.jsonl").read_bytes()
    # dpo.jsonl is build_preferences_from_logs over all three optimizers.
    assert (tmp_path / "dpo_extended.jsonl").read_bytes() == (pipe_dir / "dpo.jsonl").read_bytes()


def test_cli_extend_dpo_equals_gen_dpo_when_plans_tie(tmp_path):
    # On this workload two optimizers log the same plan at the same time for
    # some queries, so the best plan is decided by optimizer id alone.
    fixture = ["--catalog", FIXTURES / "catalog.txt"]
    workload, plans, sft = tmp_path / "workload.sql", tmp_path / "plans.jsonl", tmp_path / "sft.jsonl"
    for args in (
        ["gen-workload", *fixture, "--join-graph", FIXTURES / "joins.txt", "--n-joins", "1,2,3,4",
         "--count", 25, "--seed", 1, "--out", workload],
        ["run-optimizers", "--workload", workload, *fixture, "--tables", FIXTURES / "tables",
         "--out", plans],
        ["gen-sft", "--workload", workload, "--plans", plans, *fixture, "--demo-mode", "none",
         "--out", sft],
        ["gen-dpo", "--plans", plans, "--sft", sft, "--out", tmp_path / "dpo.jsonl"],
    ):
        result = invoke(*args)
        assert result.exit_code == 0, result.output
    lines = plans.read_text(encoding="utf-8").splitlines(keepends=True)
    plan_keys = [(r["query_id"], r["bracket"], r["time_units"]) for r in map(json.loads, lines)]
    assert len(set(plan_keys)) < len(plan_keys)  # the workload has ties

    for optimizer in ("dp", "greedy", "random"):
        old = [line for line in lines if json.loads(line)["optimizer"] != optimizer]
        new = [line for line in lines if json.loads(line)["optimizer"] == optimizer]
        for name, rows in (("old.jsonl", old), ("new.jsonl", new), ("both.jsonl", old + new)):
            (tmp_path / name).write_text("".join(rows), encoding="utf-8")
        for args in (
            ["gen-dpo", "--plans", tmp_path / "old.jsonl", "--out", tmp_path / "dpo_old.jsonl"],
            ["gen-dpo", "--plans", tmp_path / "both.jsonl", "--out", tmp_path / "dpo_both.jsonl"],
            ["extend-dpo", "--plans-new", tmp_path / "new.jsonl", "--plans", tmp_path / "old.jsonl",
             "--dpo", tmp_path / "dpo_old.jsonl", "--out", tmp_path / "dpo_extended.jsonl"],
        ):
            result = invoke(*args, "--sft", sft)
            assert result.exit_code == 0, result.output
        extended = (tmp_path / "dpo_extended.jsonl").read_bytes()
        assert extended == (tmp_path / "dpo_both.jsonl").read_bytes(), optimizer
        # The order of the plan log does not matter either.
        assert extended == (tmp_path / "dpo.jsonl").read_bytes(), optimizer


def _fixture_config_text(run_dir) -> str:
    return (
        f"catalog = {FIXTURES / 'catalog.txt'}\n"
        f"tables = {FIXTURES / 'tables'}\n"
        f"join_graph = {FIXTURES / 'joins.txt'}\n"
        f"out_dir = {run_dir}\n"
    )


def _bad_config_value(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(_fixture_config_text(tmp_path / "run") + "workload_count = abc\n", encoding="utf-8")
    return ["run", "--config", cfg], "workload_count"


def _bad_join_counts(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(_fixture_config_text(tmp_path / "run"), encoding="utf-8")
    return ["run", "--config", cfg, "--workload-joins", "1,x"], "1,x"


def _zero_join_count(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(_fixture_config_text(tmp_path / "run"), encoding="utf-8")
    return ["run", "--config", cfg, "--workload-joins", "0,1"], "workload_joins"


def _checkpoint_without_vocab(tmp_path):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_text(
        json.dumps({"format": CHECKPOINT_FORMAT, "n_contexts": 2**64, "rows": [], "logits": ""}),
        encoding="utf-8",
    )
    sql = tmp_path / "q.sql"
    sql.write_text("SELECT * FROM title, cast_info WHERE title.movie_id = cast_info.movie_id;")
    return ["infer", "--model", ckpt, "--sql", sql, "--catalog", FIXTURES / "catalog.txt"], "'vocab'"


def _corpus_without_response(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"query_sql": "SELECT * FROM a;", "response": "x"}\n{"query_sql": "x"}\n')
    return ["validate", "--corpus", corpus], "corpus.jsonl:2: missing key 'response'"


def _corpus_not_json(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("not json\n")
    return ["validate", "--corpus", corpus], "corpus.jsonl:1: not valid JSON"


def _corpus_with_bad_sql(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"query_sql": "SELECT * FROM a;", "response": "x"}\n'
                      '{"query_sql": "SELEC nonsense", "response": "x"}\n')
    return ["validate", "--corpus", corpus], "corpus.jsonl:2: expected SELECT"


def _sft_prompt_without_input(tmp_path):
    sft = tmp_path / "sft.jsonl"
    sft.write_text('{"query_id": "q0001", "prompt": "no input here", "response": "x"}\n')
    return ["train-qit", "--sft", sft, "--out", tmp_path / "qit.ckpt"], (
        "sft.jsonl:1: prompt has no INPUT section"
    )


def _corpus_with_numeric_sql(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"query_sql": 5, "response": "x"}\n')
    return ["validate", "--corpus", corpus], "corpus.jsonl:1: 'query_sql' must be a string, not int"


def _dpo_with_numeric_chosen(tmp_path):
    dpo = tmp_path / "dpo.jsonl"
    dpo.write_text(json.dumps({"query_id": "q0001", "prompt": "p", "chosen": 5, "rejected": "x",
                               "t_star": 1.0, "t_rejected": 2.0}) + "\n")
    init = tmp_path / "qit.ckpt"
    init.write_text("{}")
    return ["train-qdpo", "--dpo", dpo, "--init", init, "--out", tmp_path / "qdpo.ckpt"], (
        "dpo.jsonl:1: 'chosen' must be a string, not int"
    )


def _sft_with_list_response(tmp_path):
    sft = tmp_path / "sft.jsonl"
    sft.write_text('{"query_id": "q0001", "prompt": "p", "response": ["x"]}\n')
    return ["train-qit", "--sft", sft, "--out", tmp_path / "qit.ckpt"], (
        "sft.jsonl:1: 'response' must be a string, not list"
    )


def _workload_with_bad_sql(tmp_path):
    workload = tmp_path / "workload.sql"
    workload.write_text("SELECT * FROM title;\nSELEC broken\n")
    return ["split-workload", "--workload", workload, "--out-train", tmp_path / "train.sql",
            "--out-test", tmp_path / "test.sql"], "workload.sql:2: expected SELECT"


def _contexts_in_config(tmp_path, value):
    """A config that sets the retired n_contexts outside the range it had."""
    cfg, text = tmp_path / "p.cfg", _fixture_config_text(tmp_path / "run")
    cfg.write_text(text + f"n_contexts = {value}\n", encoding="utf-8")
    where = f"{cfg}:{len(text.splitlines()) + 1}"
    return ["run", "--config", cfg], f"{where}: n_contexts must be from 1 to 2147483647, got {value}"


def _zero_contexts_in_config(tmp_path):
    return _contexts_in_config(tmp_path, 0)


def _too_many_contexts_in_config(tmp_path):
    return _contexts_in_config(tmp_path, 2147483648)


def _zero_max_len_in_config(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(_fixture_config_text(tmp_path / "run") + "max_len = 0\n", encoding="utf-8")
    return ["run", "--config", cfg], f"{cfg}: max_len"


def _infer_with_checkpoint(tmp_path, **fields):
    ckpt = tmp_path / "bad.ckpt"
    payload = {"format": CHECKPOINT_FORMAT, "n_contexts": 2**64,
               "vocab": ["<bos>", "<eos>", "<unk>"], "rows": [], "logits": "", **fields}
    ckpt.write_text(json.dumps(payload), encoding="utf-8")
    sql = tmp_path / "q.sql"
    sql.write_text("SELECT * FROM title;")
    return ["infer", "--model", ckpt, "--sql", sql, "--catalog", FIXTURES / "catalog.txt"]


def _logits(*rows):
    """The ``logits`` blob of rows of three float64 values."""
    return base64.b64encode(np.array(rows, dtype="<f8").tobytes()).decode("ascii")


def _checkpoint_with_fractional_contexts(tmp_path):
    return _infer_with_checkpoint(tmp_path, n_contexts=4.5), "bad.ckpt: n_contexts"


def _checkpoint_with_boolean_context_count(tmp_path):
    return _infer_with_checkpoint(tmp_path, n_contexts=True), "bad.ckpt: n_contexts"


def _checkpoint_with_too_many_contexts(tmp_path):
    return _infer_with_checkpoint(tmp_path, n_contexts=2**64 + 1), "bad.ckpt: n_contexts"


def _checkpoint_with_bad_row_key(tmp_path):
    args = _infer_with_checkpoint(tmp_path, rows=["1"], logits=_logits([1.0, 2.0, 3.0]))
    return args, "bad.ckpt: rows holds a context that is not an integer"


def _checkpoint_with_fractional_context(tmp_path):
    args = _infer_with_checkpoint(tmp_path, rows=[1.0], logits=_logits([1.0, 2.0, 3.0]))
    return args, "bad.ckpt: rows holds a context that is not an integer"


def _checkpoint_with_bool_context(tmp_path):
    args = _infer_with_checkpoint(tmp_path, rows=[True], logits=_logits([1.0, 2.0, 3.0]))
    return args, "bad.ckpt: rows holds a context that is not an integer"


def _checkpoint_with_two_keys_for_one_row(tmp_path):
    args = _infer_with_checkpoint(tmp_path, rows=[5, 5], logits=_logits([1.0] * 3, [2.0] * 3))
    return args, "bad.ckpt: rows are not strictly ascending"


def _checkpoint_with_descending_contexts(tmp_path):
    args = _infer_with_checkpoint(tmp_path, rows=[2, 1], logits=_logits([1.0] * 3, [2.0] * 3))
    return args, "bad.ckpt: rows are not strictly ascending"


def _checkpoint_with_context_out_of_range(tmp_path):
    args = _infer_with_checkpoint(tmp_path, rows=[2**64], logits=_logits([1.0, 2.0, 3.0]))
    return args, "bad.ckpt: rows holds a context outside [0, 2**64)"


def _checkpoint_with_negative_context(tmp_path):
    args = _infer_with_checkpoint(tmp_path, rows=[-1], logits=_logits([1.0, 2.0, 3.0]))
    return args, "bad.ckpt: rows holds a context outside [0, 2**64)"


def _checkpoint_with_rows_not_a_list(tmp_path):
    return _infer_with_checkpoint(tmp_path, rows={"1": _logits([1.0, 2.0, 3.0])}), (
        "bad.ckpt: 'rows' must be a list, not dict"
    )


def _checkpoint_with_numeric_row(tmp_path):
    return _infer_with_checkpoint(tmp_path, rows=[1], logits=5), "bad.ckpt: 'logits' must be a string, not int"


def _checkpoint_with_bad_base64(tmp_path):
    args = _infer_with_checkpoint(tmp_path, rows=[1], logits=_logits([1.0, 2.0, 3.0])[:-1] + "!")
    return args, "bad.ckpt: logits is not base64"


def _checkpoint_with_logits_of_another_length(tmp_path):
    args = _infer_with_checkpoint(tmp_path, rows=[1, 2], logits=_logits([1.0, 2.0, 3.0]))
    return args, "bad.ckpt: logits hold 24 bytes, not 2 x 3 float64 values"


def _checkpoint_with_non_finite_logit(tmp_path):
    args = _infer_with_checkpoint(tmp_path, rows=[1], logits=_logits([1.0, float("nan"), 3.0]))
    return args, "bad.ckpt: non-finite parameters"


def _checkpoint_in_format_1(tmp_path):
    args = _infer_with_checkpoint(tmp_path, format="plangen-token-model/1", rows={"1": _logits([1.0, 2.0, 3.0])})
    return args, "bad.ckpt: unsupported checkpoint format 'plangen-token-model/1'"


def _checkpoint_in_format_2(tmp_path):
    """Its contexts are folded into n_contexts rows: read as 64-bit contexts
    they would give a silently wrong model."""
    args = _infer_with_checkpoint(tmp_path, format="plangen-token-model/2", n_contexts=131072,
                                  rows=[1], logits=_logits([1.0, 2.0, 3.0]))
    return args, "bad.ckpt: unsupported checkpoint format 'plangen-token-model/2'"


def _unreadable_stages_json(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(_fixture_config_text(tmp_path / "run"), encoding="utf-8")
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "stages.json").write_text('{"workload": ')
    return ["run", "--config", cfg], "stages.json: not valid JSON"


def _unreadable_report_json(tmp_path):
    (tmp_path / "report.json").write_text("validity: all\n")
    return ["report", "--run-dir", tmp_path], "report.json: not valid JSON"


def _plan_log_case(tmp_path, second_record):
    train = tmp_path / "train.sql"
    train.write_text("SELECT * FROM title, cast_info WHERE title.movie_id = cast_info.movie_id;\n")
    plans = tmp_path / "plans_train.jsonl"
    first = {"query_id": "q0001", "optimizer": "dp", "bracket": "HashJoin(cast_info title)",
             "time_units": 70}
    plans.write_text(json.dumps(first) + "\n" + json.dumps({**first, **second_record}) + "\n")
    return ["gen-sft", "--workload", train, "--plans", plans, "--catalog", FIXTURES / "catalog.txt",
            "--demo-mode", "none", "--out", tmp_path / "sft.jsonl"]


def _plan_log_with_zero_time(tmp_path):
    args = _plan_log_case(tmp_path, {"optimizer": "greedy", "time_units": 0})
    return args, "plans_train.jsonl:2: non-positive execution time 0"


def _plan_log_with_bad_bracket(tmp_path):
    args = _plan_log_case(tmp_path, {"optimizer": "greedy", "bracket": "HashJoin(cast_info",
                                     "time_units": 900})
    return args, "plans_train.jsonl:2: "


def _plan_log_with_repeated_optimizer(tmp_path):
    args = _plan_log_case(tmp_path, {"time_units": 90})
    return args, "plans_train.jsonl:2: second plan of 'dp' for q0001"


def _plan_log_with_one_plan(tmp_path):
    args = _plan_log_case(tmp_path, {"optimizer": "greedy"})
    (tmp_path / "plans_train.jsonl").write_text(
        (tmp_path / "plans_train.jsonl").read_text().splitlines()[0] + "\n"
    )
    assert invoke(*args).exit_code == 0  # gen-sft needs only the best plan
    args = ["gen-dpo", "--plans", tmp_path / "plans_train.jsonl", "--sft", tmp_path / "sft.jsonl",
            "--out", tmp_path / "dpo.jsonl"]
    return args, "plans_train.jsonl: q0001: need at least two optimizer timings, got 1"


def _undecodable_corpus(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b'{"query_sql": "SELECT * FROM title;", "response": "x"}\n\xff\n')
    return ["validate", "--corpus", corpus], "corpus.jsonl:2: not UTF-8 text"


def _plan_log_is_a_directory(tmp_path):
    args = _plan_log_case(tmp_path, {"optimizer": "greedy"})
    (tmp_path / "plans_train.jsonl").unlink()
    (tmp_path / "plans_train.jsonl").mkdir()
    return args, "plans_train.jsonl: Is a directory"


def _gen_sft_strict_without_sibling(tmp_path):
    join = "movie_keyword.movie_id = title.movie_id"
    train = tmp_path / "train.sql"
    train.write_text(f"SELECT * FROM movie_keyword, title WHERE {join};\n"
                     "SELECT * FROM cast_info, title WHERE cast_info.movie_id = title.movie_id;\n"
                     f"SELECT * FROM movie_keyword, title WHERE {join} AND title.kind_id < 3;\n")
    plans = tmp_path / "plans_train.jsonl"
    write_jsonl([{"query_id": qid, "optimizer": "dp", "bracket": f"HashJoin({table} title)",
                  "time_units": 70}
                 for qid, table in (("q0001", "movie_keyword"), ("q0002", "cast_info"),
                                    ("q0003", "movie_keyword"))], plans)
    return ["gen-sft", "--workload", train, "--plans", plans, "--catalog", FIXTURES / "catalog.txt",
            "--demo-mode", "strict", "--out", tmp_path / "sft.jsonl"], (
        f"error: {train}: no record shares the template of query q0002\n"
    )


def _infer_strict_without_sibling(tmp_path):
    pool = tmp_path / "sft.jsonl"
    prompt = "INSTRUCTION: plan\nINPUT:\n<SQL>: SELECT * FROM cast_info;\n<Statistics>:\ncast_info"
    pool.write_text(json.dumps({"query_id": "q0001", "prompt": prompt, "response": "cast_info"}) + "\n")
    args = _infer_with_checkpoint(tmp_path) + ["--demo-pool", pool, "--demo-mode", "strict"]
    return args, "error: no record shares the template of query SELECT * FROM title;\n"


def _infer_fallback_with_only_the_query_in_the_pool(tmp_path):
    pool = tmp_path / "sft.jsonl"
    prompt = "INSTRUCTION: plan\nINPUT:\n<SQL>: SELECT * FROM title;\n<Statistics>:\ntitle"
    pool.write_text(json.dumps({"query_id": "q0001", "prompt": prompt, "response": "title"}) + "\n")
    args = _infer_with_checkpoint(tmp_path) + ["--demo-pool", pool, "--demo-mode", "fallback"]
    return args, (
        "error: no candidate record is left for the demonstration of query SELECT * FROM title;\n"
    )


def _infer_table_absent_from_catalog(tmp_path):
    args = _infer_with_checkpoint(tmp_path)
    (tmp_path / "q.sql").write_text("SELECT * FROM aka_title;")
    return args, "error: unknown table 'aka_title'\n"


def _two_query_logs(tmp_path):
    """A two-query workload, its plan log, SFT records and preference file."""
    workload = tmp_path / "train.sql"
    workload.write_text("SELECT * FROM cast_info, title WHERE cast_info.movie_id = title.movie_id;\n"
                        "SELECT * FROM movie_keyword, title WHERE movie_keyword.movie_id = title.movie_id;\n")
    plans = tmp_path / "plans_train.jsonl"
    write_jsonl([{"query_id": qid, "optimizer": optimizer, "bracket": f"HashJoin({table} title)",
                  "time_units": time_units}
                 for qid, table in (("q0001", "cast_info"), ("q0002", "movie_keyword"))
                 for optimizer, time_units in (("dp", 70), ("greedy", 900))], plans)
    sft, dpo = tmp_path / "sft.jsonl", tmp_path / "dpo.jsonl"
    for args in (
        ["gen-sft", "--workload", workload, "--plans", plans, "--catalog", FIXTURES / "catalog.txt",
         "--demo-mode", "none", "--out", sft],
        ["gen-dpo", "--plans", plans, "--sft", sft, "--out", dpo],
    ):
        assert invoke(*args).exit_code == 0
    return workload, plans, sft, dpo


def _gen_sft_fallback_on_one_query(tmp_path):
    workload, plans, _, _ = _two_query_logs(tmp_path)
    workload.write_text(workload.read_text().splitlines()[0] + "\n")
    plans.write_text("".join(line + "\n" for line in plans.read_text().splitlines()[:2]))
    return ["gen-sft", "--workload", workload, "--plans", plans, "--catalog", FIXTURES / "catalog.txt",
            "--demo-mode", "fallback", "--out", tmp_path / "sft_one.jsonl"], (
        f"error: {workload}: no candidate record is left for the demonstration of query q0001\n"
    )


def _gen_sft_plan_log_beyond_the_workload(tmp_path):
    workload, plans, _, _ = _two_query_logs(tmp_path)
    workload.write_text(workload.read_text().splitlines()[0] + "\n")
    return ["gen-sft", "--workload", workload, "--plans", plans, "--catalog", FIXTURES / "catalog.txt",
            "--demo-mode", "none", "--out", tmp_path / "sft_one.jsonl"], (
        f"error: {plans}: q0002: query not in {workload}\n"
    )


def _gen_sft_workload_query_without_plans(tmp_path):
    workload, plans, _, _ = _two_query_logs(tmp_path)
    plans.write_text("".join(line + "\n" for line in plans.read_text().splitlines()[:2]))
    return ["gen-sft", "--workload", workload, "--plans", plans, "--catalog", FIXTURES / "catalog.txt",
            "--demo-mode", "none", "--out", tmp_path / "sft_one.jsonl"], (
        f"error: {workload}: q0002: query not in {plans}\n"
    )


def _gen_dpo_plan_log_query_without_sft_record(tmp_path):
    _, plans, sft, _ = _two_query_logs(tmp_path)
    sft.write_text(sft.read_text().splitlines()[0] + "\n")
    return ["gen-dpo", "--plans", plans, "--sft", sft, "--out", tmp_path / "dpo_one.jsonl"], (
        f"error: {plans}: q0002: query not in {sft}\n"
    )


def _dpo_without_input(tmp_path):
    """_two_query_logs' preference file with the INPUT section cut from its
    first prompt, and a stage-one checkpoint trained on its SFT records."""
    _, _, sft, dpo = _two_query_logs(tmp_path)
    rows = [json.loads(line) for line in dpo.read_text().splitlines()]
    assert rows[0]["query_id"] == "q0001"
    rows[0]["prompt"] = rows[0]["prompt"].split("\nINPUT:\n")[0]
    write_jsonl(rows, dpo)
    qit = tmp_path / "qit.ckpt"
    assert invoke("train-qit", "--sft", sft, "--out", qit, "--steps", 5).exit_code == 0
    return dpo, qit


def _with_bos(path, field: str) -> int:
    """Appends the token <bos> to ``field`` of the last row of the JSON Lines
    file ``path``; returns that row's line number."""
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[-1][field] += " <bos>"
    write_jsonl(rows, path)
    return len(rows)


def _train_qit_response_with_bos(tmp_path):
    """Training on a <bos> would put a row after <bos>, where a decode stops."""
    _, _, sft, _ = _two_query_logs(tmp_path)
    line = _with_bos(sft, "response")
    return ["train-qit", "--sft", sft, "--out", tmp_path / "qit.ckpt", "--steps", 5], (
        f"error: {sft}:{line}: response holds the token <bos>\n"
    )


def _train_qdpo_with_bos(tmp_path, field):
    _, _, sft, dpo = _two_query_logs(tmp_path)
    qit = tmp_path / "qit.ckpt"
    assert invoke("train-qit", "--sft", sft, "--out", qit, "--steps", 5).exit_code == 0
    line = _with_bos(dpo, field)
    return ["train-qdpo", "--dpo", dpo, "--init", qit, "--out", tmp_path / "qdpo.ckpt", "--steps", 5], (
        f"error: {dpo}:{line}: {field} holds the token <bos>\n"
    )


def _train_qdpo_chosen_with_bos(tmp_path):
    return _train_qdpo_with_bos(tmp_path, "chosen")


def _train_qdpo_rejected_with_bos(tmp_path):
    return _train_qdpo_with_bos(tmp_path, "rejected")


def _train_qdpo_prompt_without_input(tmp_path):
    dpo, qit = _dpo_without_input(tmp_path)
    return ["train-qdpo", "--dpo", dpo, "--init", qit, "--out", tmp_path / "qdpo.ckpt",
            "--steps", 5], f"error: {dpo}: q0001: prompt has no INPUT section\n"


def _grad_check_dpo_prompt_without_input(tmp_path):
    dpo, qit = _dpo_without_input(tmp_path)
    return ["grad-check", "--model", qit, "--loss", "dpo", "--dpo", dpo], (
        f"error: {dpo}: q0001: prompt has no INPUT section\n"
    )


def _extend_dpo_case(tmp_path, old_rows, new_row):
    """extend-dpo over _two_query_logs: --plans holds ``old_rows`` of its plan
    log, --plans-new holds row ``new_row`` as a new optimizer's plan."""
    _, plans, sft, dpo = _two_query_logs(tmp_path)
    rows = [json.loads(line) for line in plans.read_text().splitlines()]
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    write_jsonl(rows[old_rows], old)
    write_jsonl([{**rows[new_row], "optimizer": "random"}], new)
    return ["extend-dpo", "--plans-new", new, "--plans", old, "--sft", sft, "--dpo", dpo,
            "--out", tmp_path / "dpo_extended.jsonl"], old, sft


def _extend_dpo_new_query_not_in_plans(tmp_path):
    args, old, _ = _extend_dpo_case(tmp_path, slice(0, 2), 3)
    return args, f"new.jsonl: q0002: query not in {old}"


def _extend_dpo_triple_not_in_plans(tmp_path):
    args, old, _ = _extend_dpo_case(tmp_path, slice(0, 2), 0)
    return args, f"dpo.jsonl: q0002: query not in {old}"


def _extend_dpo_triple_not_in_sft(tmp_path):
    args, _, sft = _extend_dpo_case(tmp_path, slice(None), 0)
    sft.write_text(sft.read_text().splitlines()[0] + "\n")
    return args, f"dpo.jsonl: q0002: query not in {sft}"


def _extend_dpo_plan_log_query_not_in_sft(tmp_path):
    args, old, sft = _extend_dpo_case(tmp_path, slice(None), 0)
    sft.write_text(sft.read_text().splitlines()[0] + "\n")
    dpo = tmp_path / "dpo.jsonl"
    dpo.write_text(dpo.read_text().splitlines()[0] + "\n")
    return args, f"{old}: q0002: query not in {sft}"


def _extend_dpo_optimizer_already_in_plans(tmp_path):
    args, old, _ = _extend_dpo_case(tmp_path, slice(None), 0)
    new = tmp_path / "new.jsonl"
    write_jsonl([{**json.loads(new.read_text()), "optimizer": "dp"}], new)
    return args, f"{old}: q0001: duplicate optimizer ids"


def _run_optimizers_on_tables(tmp_path, tables):
    workload = tmp_path / "workload.sql"
    workload.write_text("SELECT * FROM title;\n")
    return ["run-optimizers", "--workload", workload, "--catalog", FIXTURES / "catalog.txt",
            "--tables", tables, "--out", tmp_path / "plans.jsonl"]


def _tables_path_is_a_file(tmp_path):
    tables = FIXTURES / "catalog.txt"
    return _run_optimizers_on_tables(tmp_path, tables), f"{tables}: not a directory"


def _tables_directory_without_tbl_files(tmp_path):
    tables = tmp_path / "tables"
    tables.mkdir()
    return _run_optimizers_on_tables(tmp_path, tables), f"{tables}: no .tbl files"


def _gen_workload(tmp_path, catalog, joins):
    return ["gen-workload", "--catalog", catalog, "--join-graph", joins, "--out",
            tmp_path / "workload.sql"]


def _bad_join_edge(tmp_path):
    joins = tmp_path / "joins.txt"
    joins.write_text("# edges\ntitle.movie_id = cast_info\n")
    return _gen_workload(tmp_path, FIXTURES / "catalog.txt", joins), (
        "joins.txt:2: bad join edge 'title.movie_id = cast_info'"
    )


def _bad_catalog_field(tmp_path):
    catalog = tmp_path / "bad.cat"
    lines = (FIXTURES / "catalog.txt").read_text().splitlines()
    catalog.write_text("\n".join(lines[:2] + ["", "cast_info|movie_id:0:59"] + lines[4:]) + "\n")
    return _gen_workload(tmp_path, catalog, FIXTURES / "joins.txt"), (
        "bad.cat:4: expected col:min:max:distinct, got 'movie_id:0:59'"
    )


def _run_optimizers_with_table(tmp_path, text):
    tables = tmp_path / "tables"
    shutil.copytree(FIXTURES / "tables", tables)
    (tables / "title.tbl").write_text(text)
    workload = tmp_path / "workload.sql"
    workload.write_text("SELECT * FROM title, cast_info WHERE title.movie_id = cast_info.movie_id;\n")
    return ["run-optimizers", "--workload", workload, "--catalog", FIXTURES / "catalog.txt",
            "--tables", tables, "--out", tmp_path / "plans.jsonl"]


def _ragged_table_row(tmp_path):
    args = _run_optimizers_with_table(tmp_path, "movie_id,kind_id\n0,1\n\n2\n")
    return args, "title.tbl:4: row has 1 values, expected 2"


def _non_integer_table_cell(tmp_path):
    args = _run_optimizers_with_table(tmp_path, "movie_id,kind_id\n\n\n0,x\n")
    return args, "title.tbl:4: non-integer cell"


def _hint_with_bad_sql(tmp_path):
    sql = tmp_path / "q.sql"
    sql.write_text("SELECT * FROM title WHERE")
    return ["hint", "--plan", "HashJoin(cast_info title)", "--sql", sql], "q.sql: "


def _responses_case(tmp_path, ids):
    test = tmp_path / "test.sql"
    test.write_text("SELECT * FROM title;\nSELECT * FROM cast_info;\n")
    responses = tmp_path / "responses_qit.jsonl"
    write_jsonl([{"query_id": qid, "response": "title"} for qid in ids], responses)
    return test, responses


def _validate_responses(tmp_path, ids):
    test, responses = _responses_case(tmp_path, ids)
    return ["validate", "--queries", test, "--responses", responses]


def _validate_missing_response(tmp_path):
    return _validate_responses(tmp_path, ["q0001"]), "responses_qit.jsonl: no response for q0002"


def _validate_unknown_response(tmp_path):
    args = _validate_responses(tmp_path, ["q0001", "q0999", "q0002"])
    return args, "responses_qit.jsonl:2: response for unknown query q0999"


def _validate_repeated_response(tmp_path):
    args = _validate_responses(tmp_path, ["q0001", "q0002", "q0001"])
    return args, "responses_qit.jsonl:3: second response for q0001"


def _report_build_unknown_response(tmp_path):
    _responses_case(tmp_path, ["q0001", "q0002", "q0999"])
    args = ["report", "--run-dir", tmp_path, "--build", "--tables", FIXTURES / "tables"]
    return args, "responses_qit.jsonl:3: response for unknown query q0999"


def _report_build_with_plans(tmp_path, plan_ids):
    """report --build over two single-table test queries, a valid response to
    each from both models, and a test plan log of the queries ``plan_ids``."""
    test = tmp_path / "test.sql"
    test.write_text("SELECT * FROM title;\nSELECT * FROM cast_info;\n")
    for name in ("workload.sql", "train.sql"):
        shutil.copy(test, tmp_path / name)
    for name in ("sft.jsonl", "dpo.jsonl"):
        (tmp_path / name).write_text("")
    tables = {"q0001": "title", "q0002": "cast_info"}
    for source in ("qit", "qdpo"):
        write_jsonl([{"query_id": qid, "response": f"the final answer is: {table}"}
                     for qid, table in tables.items()], tmp_path / f"responses_{source}.jsonl")
    plans = tmp_path / "plans_test.jsonl"
    write_jsonl([{"query_id": qid, "optimizer": "dp", "bracket": tables.get(qid, "title"),
                  "time_units": 1} for qid in plan_ids], plans)
    return ["report", "--run-dir", tmp_path, "--build", "--tables", FIXTURES / "tables"], test, plans


def _report_build_test_query_without_plans(tmp_path):
    args, test, plans = _report_build_with_plans(tmp_path, ["q0001"])
    return args, f"{test}: q0002: query not in {plans}"


def _report_build_plans_of_unknown_query(tmp_path):
    args, test, plans = _report_build_with_plans(tmp_path, ["q0001", "q0002", "q0003"])
    return args, f"{plans}: q0003: query not in {test}"


def _split_workload_ratio(tmp_path, ratio):
    workload = tmp_path / "workload.sql"
    workload.write_text("".join(f"SELECT * FROM title WHERE title.kind_id < {k};\n" for k in range(60)))
    return ["split-workload", "--workload", workload, "--ratio", ratio, "--out-train",
            tmp_path / "train.sql", "--out-test", tmp_path / "test.sql"], (
        f"error: split ratio must be in (0, 1), got {float(ratio)}\n"
    )


def _split_workload_ratio_above_one(tmp_path):
    return _split_workload_ratio(tmp_path, 1.5)


def _split_workload_negative_ratio(tmp_path):
    return _split_workload_ratio(tmp_path, -1)


def _split_workload_by_template_of_one_template(tmp_path):
    workload = tmp_path / "workload.sql"
    workload.write_text("".join(render_sql(q) + "\n" for q in _fixture_queries_of_one_template()))
    return ["split-workload", "--workload", workload, "--mode", "by-template", "--out-train",
            tmp_path / "train.sql", "--out-test", tmp_path / "test.sql"], (
        f"error: {workload}: by-template split at ratio 0.8 of 9 queries leaves train empty\n"
    )


def _gen_workload_negative_count(tmp_path):
    args = _gen_workload(tmp_path, FIXTURES / "catalog.txt", FIXTURES / "joins.txt")
    return args + ["--count", -5], "error: workload count must be at least 1, got -5\n"


def _negative_workload_count_in_config(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(_fixture_config_text(tmp_path / "run") + "workload_count = -5\n", encoding="utf-8")
    return ["run", "--config", cfg], f"error: {cfg}: workload count must be at least 1, got -5\n"


def _grad_check_flag(tmp_path, flag, value):
    sft = tmp_path / "sft.jsonl"
    prompt = "INSTRUCTION: plan\nINPUT:\n<SQL>: SELECT * FROM title;\n<Statistics>:\ntitle"
    sft.write_text(json.dumps({"query_id": "q0001", "prompt": prompt, "response": "title"}) + "\n")
    assert invoke("train-qit", "--sft", sft, "--out", tmp_path / "qit.ckpt", "--steps", 1).exit_code == 0
    return ["grad-check", "--model", tmp_path / "qit.ckpt", "--loss", "sft", "--sft",
            tmp_path / "sft.jsonl", flag, value], (
        f"error: {flag} must be at least 1, got {value}: nothing would be checked\n"
    )


def _grad_check_zero_samples(tmp_path):
    return _grad_check_flag(tmp_path, "--samples", 0)


def _grad_check_negative_samples(tmp_path):
    return _grad_check_flag(tmp_path, "--samples", -3)


def _grad_check_zero_limit(tmp_path):
    return _grad_check_flag(tmp_path, "--limit", 0)


def _grad_check_negative_limit(tmp_path):
    return _grad_check_flag(tmp_path, "--limit", -1)


@pytest.mark.parametrize(
    "case",
    [_bad_config_value, _bad_join_counts, _zero_join_count, _checkpoint_without_vocab,
     _corpus_without_response, _corpus_not_json, _corpus_with_bad_sql, _sft_prompt_without_input,
     _corpus_with_numeric_sql, _dpo_with_numeric_chosen, _sft_with_list_response,
     _workload_with_bad_sql, _zero_contexts_in_config, _zero_max_len_in_config,
     _checkpoint_with_fractional_contexts, _too_many_contexts_in_config,
     _checkpoint_with_too_many_contexts, _checkpoint_in_format_2, _train_qit_response_with_bos,
     _train_qdpo_chosen_with_bos, _train_qdpo_rejected_with_bos,
     _checkpoint_with_two_keys_for_one_row,
     _checkpoint_with_bad_row_key, _checkpoint_with_numeric_row, _checkpoint_with_fractional_context,
     _checkpoint_with_bool_context, _checkpoint_with_descending_contexts,
     _checkpoint_with_context_out_of_range, _checkpoint_with_negative_context,
     _checkpoint_with_rows_not_a_list, _checkpoint_with_bad_base64,
     _checkpoint_with_logits_of_another_length, _checkpoint_with_non_finite_logit,
     _checkpoint_in_format_1, _checkpoint_with_boolean_context_count, _unreadable_stages_json,
     _unreadable_report_json, _plan_log_with_zero_time, _plan_log_with_bad_bracket,
     _plan_log_with_repeated_optimizer, _plan_log_with_one_plan, _undecodable_corpus,
     _plan_log_is_a_directory, _bad_join_edge, _bad_catalog_field, _ragged_table_row,
     _non_integer_table_cell, _hint_with_bad_sql, _validate_missing_response,
     _validate_unknown_response, _validate_repeated_response, _report_build_unknown_response,
     _gen_sft_strict_without_sibling, _infer_strict_without_sibling, _tables_path_is_a_file,
     _tables_directory_without_tbl_files, _infer_fallback_with_only_the_query_in_the_pool,
     _gen_sft_fallback_on_one_query, _extend_dpo_new_query_not_in_plans,
     _extend_dpo_triple_not_in_plans, _extend_dpo_triple_not_in_sft,
     _gen_sft_plan_log_beyond_the_workload, _gen_dpo_plan_log_query_without_sft_record,
     _extend_dpo_plan_log_query_not_in_sft, _train_qdpo_prompt_without_input,
     _grad_check_dpo_prompt_without_input, _extend_dpo_optimizer_already_in_plans,
     _report_build_test_query_without_plans, _report_build_plans_of_unknown_query,
     _gen_sft_workload_query_without_plans, _infer_table_absent_from_catalog,
     _split_workload_ratio_above_one, _split_workload_negative_ratio, _gen_workload_negative_count,
     _split_workload_by_template_of_one_template, _negative_workload_count_in_config, _grad_check_zero_samples, _grad_check_negative_samples,
     _grad_check_zero_limit, _grad_check_negative_limit],
)
def test_cli_bad_inputs_exit_1_naming_the_problem(tmp_path, case):
    args, where = case(tmp_path)
    result = invoke(*args)
    assert result.exit_code == 1, result.output
    assert where in result.output


def test_cli_commands_name_an_undecodable_input(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"SELECT\n\xff\n")
    catalog, joins = FIXTURES / "catalog.txt", FIXTURES / "joins.txt"
    for args in (
        ["train-qit", "--sft", bad, "--out", tmp_path / "qit.ckpt"],
        ["infer", "--model", bad, "--sql", bad, "--catalog", catalog],
        ["gen-sft", "--workload", bad, "--plans", bad, "--catalog", catalog,
         "--out", tmp_path / "sft.jsonl"],
        ["run", "--config", bad],
        ["gen-workload", "--catalog", bad, "--join-graph", joins, "--out", tmp_path / "w.sql"],
        ["validate", "--corpus", bad],
    ):
        result = invoke(*args)
        assert result.exit_code == 1, result.output
        assert f"{bad}:2: not UTF-8 text" in result.output


def test_cli_report_build_reports_every_optimizer(tmp_path):
    run_dir = tmp_path / "run"
    config = fast_config(run_dir, workload_count=10, qit_steps=20, qdpo_steps=5)
    run_pipeline(config)
    plans = run_dir / "plans_test.jsonl"
    rows = [json.loads(line) for line in plans.read_text().splitlines()]
    extra = [{**row, "optimizer": "dp2"} for row in rows if row["optimizer"] == "dp"]
    write_jsonl(rows + extra, plans)
    result = invoke("report", "--run-dir", run_dir, "--build", "--tables", config.tables, "--json")
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["timings"]["dp2"] == report["timings"]["dp"]


def test_cli_report_build_counts_a_response_without_a_plan_as_invalid(tmp_path):
    args, _, _ = _report_build_with_plans(tmp_path, ["q0001", "q0002"])
    # q0001's one table, but no final-answer marker, so no plan.
    write_jsonl([{"query_id": "q0001", "response": "title"},
                 {"query_id": "q0002", "response": "the final answer is: cast_info"}],
                tmp_path / "responses_qit.jsonl")
    result = invoke(*args, "--json")
    assert result.exit_code == 0, result.output
    validity = json.loads(result.output)["validity"]
    assert validity["qit"] == {"total": 2, "valid": 1, "rate": 0.5,
                               "errors": {"E1": 0, "E2": 0, "E3": 1}}
    assert validity["qdpo"]["valid"] == 2


def test_cli_infer_single_query(tmp_path):
    pipe_dir = tmp_path / "run"
    config = fast_config(pipe_dir)
    run_pipeline(config)
    # Decode one of the training queries directly.
    first_sql = (pipe_dir / "train.sql").read_text().splitlines()[0]
    sql_file = tmp_path / "one.sql"
    sql_file.write_text(first_sql, encoding="utf-8")
    result = invoke(
        "infer", "--model", pipe_dir / "qit.ckpt", "--sql", sql_file,
        "--catalog", config.catalog, "--demo-pool", pipe_dir / "sft.jsonl",
        "--demo-mode", "fallback",
    )
    assert result.exit_code == 0
    assert "final answer" in result.output
    # Inference draws no demonstration, so it takes no seed for one.
    result = invoke("infer", "--model", pipe_dir / "qit.ckpt", "--sql", sql_file,
                    "--catalog", config.catalog, "--demo-seed", 3)
    assert result.exit_code == 2
    assert "--demo-seed" in result.output


class _KeyEcho:
    """A model whose greedy decode returns the key it was given."""

    def greedy_decode(self, key, max_len):
        return key


_CAST_JOIN = "cast_info.movie_id = title.movie_id"
_KEYWORD_JOIN = "movie_keyword.movie_id = title.movie_id"
# Three templates; several SQL texts share one.
_POOL_SQLS = (
    f"SELECT * FROM cast_info, title WHERE {_CAST_JOIN} AND cast_info.role_id < 4;",
    f"SELECT * FROM cast_info, title WHERE {_CAST_JOIN} AND title.kind_id > 2;",
    f"SELECT * FROM cast_info, title WHERE {_CAST_JOIN};",
    f"SELECT * FROM movie_keyword, title WHERE {_KEYWORD_JOIN};",
    f"SELECT * FROM movie_keyword, title WHERE {_KEYWORD_JOIN} AND title.product_year < 1990;",
    f"SELECT * FROM cast_info, movie_keyword, title WHERE {_CAST_JOIN} AND {_KEYWORD_JOIN};",
)


def _outcome(decode):
    """The rows ``decode`` returns, or the class and message of the error it raises."""
    try:
        return decode()
    except PlangenError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def fixture_catalog():
    return load_catalog(FIXTURES / "catalog.txt")


@settings(max_examples=200, deadline=None)
@given(
    pool_sqls=st.lists(st.sampled_from(_POOL_SQLS), max_size=5),
    query_sqls=st.lists(st.sampled_from(_POOL_SQLS), min_size=1, max_size=3),
    mode=st.sampled_from(DEMO_MODES),
    seed=st.integers(0, 2**32),
    absent_table=st.sampled_from((None, "movie_keyword", "title")),
)
def test_inference_equals_the_demonstration_drawing_reference(
    fixture_catalog, pool_sqls, query_sqls, mode, seed, absent_table
):
    # Inference without a prompt returns what the reference's prompt-building
    # decode returns, and fails where it fails, with the same error: strict
    # and fallback availability (no pool record with the query's SQL text is
    # a candidate), then the catalog check.
    pool = []
    for qid, sql in zip(query_ids(pool_sqls), pool_sqls):
        query = parse_sql(sql)
        pool.append(InstructionRecord(qid, build_prompt(query, fixture_catalog),
                                      f"response of {qid}", render_sql(query), template_of(query)))
    catalog = Catalog({name: columns for name, columns in fixture_catalog.tables.items()
                       if name != absent_table})
    queries = [parse_sql(sql) for sql in query_sqls]
    expected = _outcome(lambda: [
        {"query_id": qid,
         "response": reference_decode_query(_KeyEcho(), query, catalog, pool, mode, seed, 256, qid)}
        for qid, query in zip(query_ids(queries), queries)
    ])
    got = _outcome(lambda: infer_responses(_KeyEcho(), queries, catalog, pool, mode, seed, 256))
    assert got == expected
    if isinstance(got, list):
        # The model receives the query's template key.
        assert [row["response"] for row in got] == [template_key(template_of(q)) for q in queries]


def _records(sqls):
    return [InstructionRecord(qid, f"prompt of {qid}", f"response of {qid}", render_sql(query), template_of(query))
            for qid, query in zip(query_ids(sqls), map(parse_sql, sqls))]


@settings(max_examples=300, deadline=None)
@given(
    pool_sqls=st.lists(st.sampled_from(_POOL_SQLS), max_size=5),
    query_sql=st.sampled_from(_POOL_SQLS),
    mode=st.sampled_from((*DEMO_MODES, "bogus")),
)
@example(pool_sqls=[], query_sql=_POOL_SQLS[0], mode="strict")
@example(pool_sqls=[], query_sql=_POOL_SQLS[0], mode="fallback")
@example(pool_sqls=[_POOL_SQLS[0]] * 2, query_sql=_POOL_SQLS[0], mode="fallback")
@example(pool_sqls=[_POOL_SQLS[0]], query_sql=_POOL_SQLS[0], mode="strict")
@example(pool_sqls=[_POOL_SQLS[3], _POOL_SQLS[0]], query_sql=_POOL_SQLS[0], mode="strict")
@example(pool_sqls=[_POOL_SQLS[1]], query_sql=_POOL_SQLS[0], mode="bogus")
def test_the_demonstration_check_raises_what_the_sibling_list_over_a_pool_copy_raised(
    pool_sqls, query_sql, mode
):
    # Every mode, an unknown one too; an empty pool, a pool of only the
    # query's own text, and strict with no sibling of another text. The check
    # raises the same error class and message as the sibling list over the
    # pool records whose text is not the query's, or nothing where it did not.
    pool, query = _records(pool_sqls), parse_sql(query_sql)
    sql, template = render_sql(query), template_of(query)

    def reference_check():
        reference_demonstration_siblings(template, [r for r in pool if r.sql != sql], mode, sql)

    assert _outcome(lambda: require_demonstration(template, pool, mode, sql, sql)) == _outcome(reference_check)
    assert (_outcome(lambda: demonstration_siblings(template, pool, mode, sql))
            == _outcome(lambda: reference_demonstration_siblings(template, pool, mode, sql)))


def test_the_demonstration_check_stops_at_the_record_that_settles_it():
    own, sibling, _, other = _records(_POOL_SQLS[:4])

    def pool(*settling):
        yield from settling
        raise AssertionError("the check read past the record that settles it")

    require_demonstration(own.template, pool(own, other), "fallback", own.sql, own.sql)
    require_demonstration(own.template, pool(own, other, sibling), "strict", own.sql, own.sql)
    require_demonstration(own.template, pool(), "none", own.sql, own.sql)


def test_cli_grad_check(tmp_path):
    pipe_dir = tmp_path / "run"
    config = fast_config(pipe_dir)
    run_pipeline(config)
    result = invoke(
        "grad-check", "--model", pipe_dir / "qit.ckpt", "--loss", "sft",
        "--sft", pipe_dir / "sft.jsonl", "--samples", 50, "--limit", 2,
    )
    assert result.exit_code == 0, result.output
    assert result.output.startswith("pass")
    result = invoke(
        "grad-check", "--model", pipe_dir / "qdpo.ckpt", "--loss", "dpo",
        "--dpo", pipe_dir / "dpo.jsonl", "--reference", pipe_dir / "qit.ckpt",
        "--samples", 50, "--limit", 2,
    )
    assert result.exit_code == 0, result.output


def test_cli_run_and_report(tmp_path):
    cfg_file = tmp_path / "p.cfg"
    run_dir = tmp_path / "run"
    cfg_file.write_text(
        f"catalog = {FIXTURES / 'catalog.txt'}\n"
        f"tables = {FIXTURES / 'tables'}\n"
        f"join_graph = {FIXTURES / 'joins.txt'}\n"
        f"out_dir = {run_dir}\n"
        "workload_count = 12\n"
        "workload_joins = 1\n"
        "qit_steps = 60\n"
        "qdpo_steps = 10\n",
        encoding="utf-8",
    )
    result = invoke("run", "--config", cfg_file)
    assert result.exit_code == 0, result.output
    assert "stage workload: computed" in result.output
    assert re.search(r"^stage report: computed in \d+\.\d{3} s$", result.output, re.MULTILINE)
    assert "Median" in result.output

    result = invoke("report", "--run-dir", run_dir, "--json")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert "timings" in report and "validity" in report


def test_cli_run_flags_override_config(tmp_path):
    cfg_file = tmp_path / "p.cfg"
    run_dir = tmp_path / "run"
    cfg_file.write_text(
        f"catalog = {FIXTURES / 'catalog.txt'}\n"
        f"tables = {FIXTURES / 'tables'}\n"
        f"join_graph = {FIXTURES / 'joins.txt'}\n"
        f"out_dir = {run_dir}\n"
        "workload_count = 30\n"
        "workload_joins = 1\n"
        "qit_steps = 40\n"
        "qdpo_steps = 5\n",
        encoding="utf-8",
    )
    result = invoke("run", "--config", cfg_file, "--workload-count", 8)
    assert result.exit_code == 0, result.output
    assert len((run_dir / "workload.sql").read_text().splitlines()) == 8
