"""Tiny-size self-test of the benchmark.

    PYTHONPATH=src python -m pytest -q perfbench

Runs every workload shrunk to a dozen queries, checks that each metric named
in BENCHMARK.json is emitted with its unit, and that the correctness gate
fails on corrupted artifacts.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"workload_count": 12, "qit_steps": 10, "qdpo_steps": 3, "n_contexts": 512}


def tiny(name: str) -> run.Workload:
    workload = run.WORKLOADS[name]
    return dataclasses.replace(workload, overrides={**workload.overrides, **TINY}, stream_count=10)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result, extra = run.run_workload(tiny(name), seed=3, seconds=0.01, trace=trace)
    assert result["correct"], extra
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == wanted
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_every_bounded_workload_exists():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    bench = run.Bench(run.Plangen(), tiny("plan_heavy"), seed=5, work=tmp_path_factory.mktemp("bench"))
    prepared = bench.prepare()
    bench.cold(prepared)
    return prepared.run_dir


def corrupted_copy(run_dir: Path, tmp_path: Path, name: str, edit) -> Path:
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    path = copy / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return copy


def test_gate_passes_on_intact_artifacts(run_dir):
    assert gate.check_plan_logs(run_dir) > 0
    gate.check_identical(gate.digest_tree(run_dir), gate.digest_tree(run_dir), "same")


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace('"time_units": ', '"time_units": -', 1),
        lambda text: text.replace("title", "titel", 1),
        lambda text: "\n".join(text.splitlines()[1:]) + "\n",
    ],
    ids=["time_units", "leaves", "missing_record"],
)
def test_gate_fails_on_corrupted_plan_log(run_dir, tmp_path, edit):
    copy = corrupted_copy(run_dir, tmp_path, "plans_train.jsonl", edit)
    with pytest.raises(gate.GateError):
        gate.check_plan_logs(copy)


def test_gate_fails_when_one_byte_changes(run_dir, tmp_path):
    copy = corrupted_copy(run_dir, tmp_path, "report.json", lambda text: text.replace("1", "2", 1))
    with pytest.raises(gate.GateError, match="report.json"):
        gate.check_identical(gate.digest_tree(run_dir), gate.digest_tree(copy), "repeat")


def test_gate_fails_when_a_rerun_recomputes(run_dir):
    digests = gate.digest_tree(run_dir)
    statuses = [(stage, "cached") for stage in run.tracing.STAGES]
    gate.check_cached_rerun(statuses, digests, digests)
    statuses[3] = (statuses[3][0], "computed")
    with pytest.raises(gate.GateError):
        gate.check_cached_rerun(statuses, digests, digests)


def test_gate_fails_on_a_valid_plan_with_wrong_tables():
    sql = "SELECT * FROM cast_info, title WHERE cast_info.movie_id = title.movie_id;"
    gate.check_served_plan("Therefore, the final answer is:\nHashJoin(title cast_info).", sql)
    with pytest.raises(gate.GateError):
        gate.check_served_plan("Therefore, the final answer is:\nHashJoin(title movie_info).", sql)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode not in (0, None)
    assert done.stdout == ""
