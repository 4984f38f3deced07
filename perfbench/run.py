"""plangen benchmark: end-to-end workloads, correctness gate, traced run.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 60 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

    scaled      300 queries over joins 1-5 with the shipped training settings;
                dominated by training (not bounded in BENCHMARK.json: a run
                holds too few of its long cold runs to average out a shared
                host, and a third bounded workload would not fit the time the
                benchmark may take)
    plan_heavy  400 queries over joins 3-5 with 20 QIT and 5 QDPO steps;
                dominated by plan collection, the model barely matters
    serve       set-up is a cold run of the shipped fixture config and
                loading its model; then a closed loop plans a seeded stream
                of fresh join-1..5 queries

A run repeats rounds of set-up, cold run, cached reruns and serving passes
for --seconds and reports the median of each timing over the rounds.

Every input is generated from --seed; plangen only ever receives the
generated config files and queries, and runs in this process. Artifacts go to
a temporary directory under .perfbench-work/ that is removed at exit; a
traced run also writes its spans to .perfbench-out/.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1, with the per-layer metrics of a separate traced
run. The exit code is 0 when every correctness check passed, 1 when one
failed, and 2 when the checkout holds no plangen sources.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import tracing

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIG = ROOT / "fixtures" / "pipeline.cfg"
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"

SEEDED_KEYS = ("workload_seed", "split_seed", "demo_seed", "qit_seed", "qdpo_seed", "random_opt_seed")
MIN_REPEATS = 2      # rounds per timed run, at least
PASSES = 4           # serving passes per round
RERUNS = 10          # cached reruns per round


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict          # applied to the shipped config
    stream_joins: str        # join counts of the served fresh queries
    stream_count: int        # fresh queries per serving pass
    serve: bool = False      # True: shipped config and seeds; set-up is its cold run and model load


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scaled", {"workload_count": 300, "workload_joins": "1,2,3,4,5"}, "1,2,3,4,5", 500),
        Workload(
            "plan_heavy",
            {"workload_count": 400, "workload_joins": "3,4,5", "qit_steps": 20, "qdpo_steps": 5},
            "3,4,5",
            500,
        ),
        Workload("serve", {}, "1,2,3,4,5", 1000, serve=True),
    )
}


class MissingProgram(Exception):
    pass


class Plangen:
    """The plangen modules, imported from this checkout's src/ only."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "plangen" / "__init__.py").is_file() or not SHIPPED_CONFIG.is_file():
            raise MissingProgram(f"no plangen sources under {src} or no {SHIPPED_CONFIG.name}")
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        import numpy
        import plangen
        from plangen import catalog, errors, hints, pipeline, validator

        if Path(plangen.__file__).resolve().parent != src / "plangen":
            raise MissingProgram(f"plangen imported from {plangen.__file__}, not from {src}")
        self.numpy, self.plangen = numpy, plangen
        self.catalog, self.errors, self.hints = catalog, errors, hints
        self.pipeline, self.validator = pipeline, validator


@dataclass
class Run:
    """One prepared run directory with its generated config."""

    run_dir: Path
    config: object
    stream: list            # fresh QuerySpecs to serve
    catalog: object


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    checks: int = 0


class Bench:
    def __init__(self, pg: Plangen, workload: Workload, seed: int, work: Path):
        self.pg, self.w, self.work = pg, workload, work
        self.tally = Tally()
        self.rng = random.Random(f"perfbench:{workload.name}:{seed}")
        self.config_seeds = {key: self.rng.randrange(1, 2**31) for key in SEEDED_KEYS}
        self.stream_seed = self.rng.randrange(1, 2**31)
        self.runs = 0
        self.reference_digests = None
        self.reference_responses = None
        self.valid_rate = self.report_valid_rate = None

    # --- set-up ---

    def prepare(self) -> Run:
        """Fresh run directory, generated config file, fresh query stream."""
        self.runs += 1
        base = self.work / f"run{self.runs}"
        base.mkdir()
        pl = self.pg.pipeline
        values = dataclasses.asdict(pl.PipelineConfig.from_file(SHIPPED_CONFIG))
        values.update(self.w.overrides)
        if not self.w.serve:
            values.update(self.config_seeds)
        values.update(
            catalog=ROOT / "fixtures" / "catalog.txt",
            tables=ROOT / "fixtures" / "tables",
            join_graph=ROOT / "fixtures" / "joins.txt",
            out_dir=base / "run",
        )
        config_path = base / "pipeline.cfg"
        config_path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
        config = pl.PipelineConfig.from_file(config_path)
        catalog = self.pg.catalog.load_catalog(config.catalog)
        stream = pl.stage_workload(
            catalog, config.join_graph, self.w.stream_joins, self.w.stream_count, self.stream_seed
        )
        return Run(base / "run", config, stream, catalog)

    # --- operations: a pipeline run or a served query ---

    def attempt(self, fn, *args):
        self.tally.attempted += 1
        try:
            return fn(*args)
        except self.pg.errors.PlangenError as exc:
            self.tally.failed += 1
            self.tally.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def cold(self, run: Run) -> float:
        """Time a cold run_pipeline and check its artifacts."""
        start = time.perf_counter()
        result = self.attempt(self.pg.pipeline.run_pipeline, run.config)
        elapsed = time.perf_counter() - start
        if result is None:
            raise gate.GateError(f"cold pipeline run failed: {self.tally.errors[-1]}")
        digests = gate.digest_tree(run.run_dir)
        if self.reference_digests is None:
            self.reference_digests = digests
        gate.check_identical(self.reference_digests, digests, "repeat of the cold run")
        self.tally.checks += gate.check_plan_logs(run.run_dir)
        return elapsed

    def reruns(self, run: Run, count: int) -> list[float]:
        """Time unchanged reruns; each must be fully cached and change no bytes."""
        before = gate.digest_tree(run.run_dir)
        times = []
        for _ in range(count):
            start = time.perf_counter()
            result = self.attempt(self.pg.pipeline.run_pipeline, run.config)
            elapsed = time.perf_counter() - start
            if result is None:
                raise gate.GateError(f"cached rerun failed: {self.tally.errors[-1]}")
            gate.check_cached_rerun(result.stages, before, gate.digest_tree(run.run_dir))
            times.append(elapsed)
        return times

    def load_server(self, run: Run):
        pool = self.pg.pipeline.load_dataset(run.run_dir / "sft.jsonl")
        return self.pg.pipeline.load_model(run.run_dir / "qdpo.ckpt"), pool

    def serve_pass(self, run: Run, server) -> list[float]:
        """Plan every stream query once: demonstration, prompt, greedy decode,
        validation and, for valid plans, hints. Returns each query's seconds
        (inf where it raised). The first pass then checks every valid plan
        and its hints; later passes must return the same responses."""
        model, pool = server
        pl, config = self.pg.pipeline, run.config
        first = self.reference_responses is None
        latencies, served, digest = [], [], hashlib.sha256()
        for query in run.stream:
            start = time.perf_counter()
            rows = self.attempt(
                pl.infer_responses, model, [query], run.catalog, pool,
                config.demo_mode, config.demo_seed, config.max_len,
            )
            if rows is None:
                latencies.append(math.inf)
                continue
            report = self.pg.validator.validate(rows[0]["response"], query)
            hint = self.pg.hints.emit_hints(report.plan) if report.valid else None
            latencies.append(time.perf_counter() - start)
            digest.update(rows[0]["response"].encode() + b"\0")
            if first and report.valid:
                served.append((query, rows[0]["response"], report.plan, hint))
        if not first:
            if digest.hexdigest() != self.reference_responses:
                raise gate.GateError("a repeated serving pass produced different responses")
            return latencies
        for query, response, plan, hint in served:
            sql = pl.render_sql(query)
            gate.check_served_plan(response, sql)
            bracket = self.pg.plangen.tree_to_bracket
            if bracket(self.pg.hints.parse_hints(hint)) != bracket(plan):
                raise gate.GateError(f"hints do not round-trip for {sql}")
            self.tally.checks += 1
        self.reference_responses = digest.hexdigest()
        self.valid_rate = len(served) / len(run.stream)
        report_row = json.loads((run.run_dir / "report.json").read_text(encoding="utf-8"))
        self.report_valid_rate = report_row["validity"]["qdpo"]["rate"]
        return latencies

    # --- timed workloads ---

    def timed(self, seconds: float) -> dict:
        """End-to-end metrics: name -> (value, unit, note).

        A run repeats rounds of set-up, cold run, cached reruns and serving
        passes; a round starts only if it is expected to end within
        `seconds`. Co-tenants on a shared machine change its speed by up to
        2x every few seconds, so every timing is a median over the rounds of
        the whole run: of the set-ups, cold runs, reruns and passes. A served
        query's time is the median of its passes; p50 and p99 are taken over
        the queries, and plans_per_s is the closed loop's rate at those times.
        """
        setup, cold, rerun, passes = [], [], [], []
        start, round_s = time.perf_counter(), 0.0
        while len(cold) < MIN_REPEATS or time.perf_counter() - start + round_s <= seconds:
            t0 = time.perf_counter()
            run = self.prepare()
            if not self.w.serve:
                setup.append(time.perf_counter() - t0)
            cold.append(self.cold(run))
            server = self.load_server(run)
            if self.w.serve:
                setup.append(time.perf_counter() - t0)
            rerun.extend(self.reruns(run, RERUNS))
            for _ in range(PASSES):
                passes.append(self.serve_pass(run, server))
            server = None  # one model in memory at a time
            shutil.rmtree(run.run_dir.parent)
            round_s = time.perf_counter() - t0

        per_query = (statistics.median(times) for times in zip(*passes))
        ordered = sorted(x for x in per_query if x != math.inf)
        served = f"{len(ordered)} queries, median of {len(passes)} passes each"
        median = statistics.median
        return {
            "setup_s": (median(setup), "s", f"median of {len(setup)} set-ups"),
            "pipeline_s": (median(cold), "s", f"median of {len(cold)} cold runs"),
            "rerun_s": (median(rerun), "s", f"median of {len(rerun)} cached reruns"),
            "plan_p50_ms": (nearest_rank(ordered, 50) * 1e3, "ms", served),
            "plan_p99_ms": (nearest_rank(ordered, 99) * 1e3, "ms", served),
            "plans_per_s": (len(ordered) / math.fsum(ordered), "1/s", served + ", one after another"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss"),
        }

    # --- traced run ---

    def traced(self) -> tuple[dict, dict]:
        """One untraced cold run, then a traced cold run, rerun and serving pass."""
        baseline = self.prepare()
        untraced_s = self.cold(baseline)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            tracer.run_id = "setup"
            run = self.prepare()
            tracer.run_id = "cold"
            traced_s = self.cold(run)
            tracer.run_id = "rerun"
            self.reruns(run, 1)
            tracer.run_id = "serve"
            self.serve_pass(run, self.load_server(run))
        finally:
            tracer.restore()
        ckpt = run.run_dir / "qdpo.ckpt"
        payload = json.loads(ckpt.read_text(encoding="utf-8"))
        model = self.pg.pipeline.load_model(ckpt)
        facts = {
            "checkpoint_bytes": ckpt.stat().st_size,
            "theta_bytes": sum(
                v.nbytes for v in vars(model).values() if isinstance(v, self.pg.numpy.ndarray)
            ),
            "touched_row_share": len(payload["rows"]) / payload["n_contexts"],
        }
        metrics = {
            name: (value, unit, "")
            for name, (value, unit) in tracing.layer_metrics(tracer, facts).items()
        }
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s", f"traced {traced_s:.3f} s - untraced {untraced_s:.3f} s")
        return metrics, tracer.dump()


def nearest_rank(ordered: list[float], percentile: float) -> float:
    rank = max(1, -(-len(ordered) * percentile // 100))
    return ordered[int(rank) - 1]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(pg: Plangen, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": pg.numpy.__version__,
        "plangen": pg.plangen.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, extra) where extra holds the
    environment, failures and, when traced, the span dump."""
    pg = Plangen()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    bench = Bench(pg, workload, seed, work)
    extra = {"environment": environment(pg, seed), "workload": workload.name}
    correct, metrics = True, {}
    try:
        if trace:
            metrics, extra["trace"] = bench.traced()
        else:
            metrics = bench.timed(seconds)
    except gate.GateError as exc:
        correct = False
        extra["gate_failure"] = str(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    if bench.tally.failed:
        correct = False
    extra["valid_rate"] = {"stream": bench.valid_rate, "report_qdpo": bench.report_valid_rate}
    extra["errors"] = bench.tally.errors[:20]
    extra["checks"] = bench.tally.checks
    extra["notes"] = {name: note for name, (_, _, note) in metrics.items() if note}
    result = {
        "correct": correct,
        "attempted": max(bench.tally.attempted, 1),
        "failed": bench.tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    return result, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, extra = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(extra["environment"], sort_keys=True))
    metrics = result["metrics"]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps(extra, indent=1) + "\n", encoding="utf-8")
        print(f"spans written to {out.relative_to(ROOT)}")
        top = list(extra.get("trace", {}).get("by_name", {}).items())[:8]
        for name, row in top:
            print(f"  self {row['self_s']:9.4f} s  total {row['total_s']:9.4f} s  {row['calls']:7d} calls  {name}")
    for name, entry in metrics.items():
        note = extra["notes"].get(name, "")
        print(f"  {name:34s} {entry['value']:14.6g} {entry['unit']:6s} {note}")
    valid = extra["valid_rate"]
    if valid["stream"] is not None:
        print(f"  {'valid_rate':34s} {valid['stream']:14.6g} share  over {WORKLOADS[args.workload].stream_count} "
              f"stream queries; qdpo row of report.json {valid['report_qdpo']:.6g}")
    error_rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':34s} {error_rate:14.6g} share  {result['failed']} of {result['attempted']} operations raised")
    for message in extra["errors"]:
        print(f"  error: {message}")
    verdict = "passed" if result["correct"] else "FAILED: " + extra.get("gate_failure", "operations raised")
    print(f"correctness gate {verdict} ({extra['checks']} plan checks)")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
