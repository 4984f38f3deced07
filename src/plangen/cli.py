"""Command-line interface.

Every subcommand is a thin wrapper over the library functions; exit codes
are 0 on success, 1 on a domain error, 2 on a usage error.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from . import pipeline as pl
from .catalog import load_catalog
from .dataset import DEMO_MODES, load_dataset
from .errors import PlangenError
from .hints import emit_hints
from .jsonl import read_text
from .model import load_model
from .plans import bracket_to_tree
from .preferences import DEFAULT_RATIO_THRESHOLD
from .report import format_report
from .sql import parse_sql, render_sql, template_key
from .training import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_BETA,
    QDPO_LEARNING_RATE,
    QDPO_STEPS,
    QIT_LEARNING_RATE,
    QIT_STEPS,
    dpo_grad_check,
    sft_grad_check,
)
from .validator import classify_corpus, classify_corpus_file


def _domain_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PlangenError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


@click.group()
def cli():
    """Plan-generation toolkit: datasets, training, validation, hints."""


@cli.command("gen-workload")
@click.option("--catalog", "catalog_path", required=True, type=click.Path(exists=True))
@click.option("--join-graph", required=True, type=click.Path(exists=True))
@click.option("--n-joins", default="2", show_default=True, help="Join count, or comma list to mix.")
@click.option("--count", default=50, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", required=True, type=click.Path())
@_domain_errors
def gen_workload_cmd(catalog_path, join_graph, n_joins, count, seed, out):
    """Generate a random SPJ workload over a join graph."""
    queries = pl.workload_stage(catalog_path, join_graph, out, n_joins, count, seed)
    click.echo(f"wrote {len(queries)} queries to {out}")


@cli.command("split-workload")
@click.option("--workload", required=True, type=click.Path(exists=True))
@click.option("--ratio", default=0.8, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--mode", default="random", show_default=True,
              type=click.Choice(pl.SPLIT_MODES))
@click.option("--out-train", required=True, type=click.Path())
@click.option("--out-test", required=True, type=click.Path())
@_domain_errors
def split_workload_cmd(workload, ratio, seed, mode, out_train, out_test):
    """Split a workload file into train and test parts."""
    train, test = pl.split_stage(workload, out_train, out_test, ratio, seed, mode)
    click.echo(f"train={len(train)} test={len(test)}")


@cli.command("run-optimizers")
@click.option("--workload", required=True, type=click.Path(exists=True))
@click.option("--catalog", "catalog_path", required=True, type=click.Path(exists=True))
@click.option("--tables", "tables_dir", required=True, type=click.Path(exists=True))
@click.option("--random-seed", default=0, show_default=True, type=int)
@click.option("--out", required=True, type=click.Path())
@_domain_errors
def run_optimizers_cmd(workload, catalog_path, tables_dir, random_seed, out):
    """Plan every query with the three personalities and micro-time the plans."""
    log = pl.plans_stage(workload, catalog_path, tables_dir, out, random_seed)
    click.echo(f"wrote {sum(map(len, log.values()))} plan records to {out}")


@cli.command("gen-sft")
@click.option("--workload", required=True, type=click.Path(exists=True))
@click.option("--plans", required=True, type=click.Path(exists=True))
@click.option("--catalog", "catalog_path", required=True, type=click.Path(exists=True))
@click.option("--demo-mode", default="strict", show_default=True,
              type=click.Choice(DEMO_MODES))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", required=True, type=click.Path())
@_domain_errors
def gen_sft_cmd(workload, plans, catalog_path, demo_mode, seed, out):
    """Build the instruction-tuning dataset from a workload and its plan log."""
    records = pl.sft_stage(workload, plans, catalog_path, out, demo_mode, seed)
    click.echo(f"wrote {len(records)} records to {out}")


@cli.command("gen-dpo")
@click.option("--plans", required=True, type=click.Path(exists=True))
@click.option("--sft", required=True, type=click.Path(exists=True))
@click.option("--r0", default=DEFAULT_RATIO_THRESHOLD, show_default=True, type=float)
@click.option("--out", required=True, type=click.Path())
@_domain_errors
def gen_dpo_cmd(plans, sft, r0, out):
    """Build the preference dataset from plan timings."""
    triples = pl.dpo_stage(plans, sft, out, r0)
    click.echo(f"wrote {len(triples)} triples to {out}")


@cli.command("extend-dpo")
@click.option("--plans-new", required=True, type=click.Path(exists=True),
              help="Plan log of the newly added optimizer(s).")
@click.option("--plans", required=True, type=click.Path(exists=True),
              help="Plan log of the existing optimizers.")
@click.option("--sft", required=True, type=click.Path(exists=True))
@click.option("--dpo", required=True, type=click.Path(exists=True),
              help="Existing preference dataset to extend.")
@click.option("--r0", default=DEFAULT_RATIO_THRESHOLD, show_default=True, type=float)
@click.option("--out", required=True, type=click.Path())
@_domain_errors
def extend_dpo_cmd(plans_new, plans, sft, dpo, r0, out):
    """Extend a preference dataset with new optimizers' plans."""
    triples, added = pl.extend_preference_file(plans_new, plans, sft, dpo, out, r0)
    click.echo(f"added {len(added)} triples; wrote {len(triples)} to {out}")


@cli.command("train-qit")
@click.option("--sft", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
@click.option("--lr", default=QIT_LEARNING_RATE, show_default=True, type=float)
@click.option("--steps", default=QIT_STEPS, show_default=True, type=int)
@click.option("--batch-size", default=DEFAULT_BATCH_SIZE, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--trace", type=click.Path(), default=None, help="Loss trace CSV path.")
@_domain_errors
def train_qit_cmd(sft, out, lr, steps, batch_size, seed, trace):
    """Stage one: instruction tuning on the SFT dataset."""
    rows = pl.qit_stage(sft, out, trace, lr, steps, batch_size, seed)
    final = rows[-1].loss if rows else float("nan")
    click.echo(f"trained {steps} steps; final batch loss {final:.4f}; saved {out}")


@cli.command("train-qdpo")
@click.option("--dpo", required=True, type=click.Path(exists=True))
@click.option("--init", "init_ckpt", required=True, type=click.Path(exists=True),
              help="Stage-one checkpoint to start from (also the frozen reference).")
@click.option("--out", required=True, type=click.Path())
@click.option("--lr", default=QDPO_LEARNING_RATE, show_default=True, type=float)
@click.option("--steps", default=QDPO_STEPS, show_default=True, type=int)
@click.option("--batch-size", default=DEFAULT_BATCH_SIZE, show_default=True, type=int)
@click.option("--beta", default=DEFAULT_BETA, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--trace", type=click.Path(), default=None)
@_domain_errors
def train_qdpo_cmd(dpo, init_ckpt, out, lr, steps, batch_size, beta, seed, trace):
    """Stage two: preference optimization against the frozen stage-one model."""
    rows = pl.qdpo_stage(dpo, init_ckpt, out, trace, lr, steps, batch_size, beta, seed)
    margin = rows[-1].margin if rows else float("nan")
    click.echo(f"trained {steps} steps; final mean margin {margin:.4f}; saved {out}")


@cli.command("infer")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--sql", "sql_file", type=click.Path(exists=True), default=None,
              help="File holding one query.")
@click.option("--workload", type=click.Path(exists=True), default=None,
              help="Batch mode: workload file, one query per line.")
@click.option("--catalog", "catalog_path", required=True, type=click.Path(exists=True))
@click.option("--demo-pool", type=click.Path(exists=True), default=None,
              help="SFT dataset that --demo-mode requires a demonstration from.")
@click.option("--demo-mode", default="none", show_default=True,
              type=click.Choice(DEMO_MODES))
@click.option("--max-len", default=256, show_default=True, type=int)
@click.option("--out", type=click.Path(), default=None, help="Batch mode output JSONL.")
@_domain_errors
def infer_cmd(model_path, sql_file, workload, catalog_path, demo_pool, demo_mode, max_len, out):
    """Decode a response for one query, or for a workload in batch mode."""
    if (sql_file is None) == (workload is None):
        raise click.UsageError("pass exactly one of --sql or --workload")
    if demo_mode != "none" and not demo_pool:
        raise click.UsageError(f"--demo-mode {demo_mode} needs --demo-pool")
    if workload:
        if not out:
            raise click.UsageError("--workload mode needs --out")
        rows = pl.infer_stage(model_path, workload, catalog_path, demo_pool, out, demo_mode, max_len)
        click.echo(f"wrote {len(rows)} responses to {out}")
        return
    query = read_text(sql_file, parse_sql)
    pool = load_dataset(demo_pool) if demo_pool else []
    model, catalog = load_model(model_path), load_catalog(catalog_path)
    click.echo(pl.decode_query(model, query, catalog, pool, demo_mode, max_len))


@cli.command("validate")
@click.option("--corpus", type=click.Path(exists=True), default=None,
              help="JSONL of {query_sql, response}.")
@click.option("--queries", type=click.Path(exists=True), default=None,
              help="Workload file; --responses names its queries q0001, q0002, ... in order.")
@click.option("--responses", type=click.Path(exists=True), default=None,
              help="JSONL of {query_id, response}.")
@_domain_errors
def validate_cmd(corpus, queries, responses):
    """Classify generated responses; prints E1/E2/E3 counts."""
    if corpus:
        summary = classify_corpus_file(corpus)
    elif queries and responses:
        workload = pl.read_workload(queries)
        summary = classify_corpus(zip(pl.read_responses(responses, workload), workload))
    else:
        raise click.UsageError("pass --corpus, or --queries with --responses")
    click.echo(summary.line())


@cli.command("hint")
@click.option("--plan", "bracket", required=True, help="Plan in bracket form.")
@click.option("--sql", "sql_file", required=True, type=click.Path(exists=True))
@_domain_errors
def hint_cmd(bracket, sql_file):
    """Print the hinted SQL for a plan: hint comment, then the canonical query."""
    query = read_text(sql_file, parse_sql)
    plan = bracket_to_tree(bracket)
    from .plans import leaves

    if set(leaves(plan)) != set(query.tables):
        raise PlangenError(
            f"plan tables {sorted(set(leaves(plan)))} do not match query tables "
            f"{sorted(query.tables)}"
        )
    click.echo(emit_hints(plan))
    click.echo(render_sql(query))


@cli.command("grad-check")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--loss", required=True, type=click.Choice(["sft", "dpo"]))
@click.option("--sft", "sft_path", type=click.Path(exists=True), default=None)
@click.option("--dpo", "dpo_path", type=click.Path(exists=True), default=None)
@click.option("--reference", type=click.Path(exists=True), default=None,
              help="Frozen reference checkpoint (dpo loss only; defaults to --model).")
@click.option("--beta", default=DEFAULT_BETA, show_default=True, type=float)
@click.option("--h", "step", default=1e-5, show_default=True, type=float)
@click.option("--tolerance", default=1e-5, show_default=True, type=float)
@click.option("--samples", default=200, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--limit", default=4, show_default=True, type=int,
              help="Number of dataset rows fed to the checked loss.")
@_domain_errors
def grad_check_cmd(model_path, loss, sft_path, dpo_path, reference, beta, step,
                   tolerance, samples, seed, limit):
    """Verify analytic gradients with central finite differences."""
    for flag, value in (("--samples", samples), ("--limit", limit)):
        if value < 1:
            raise PlangenError(f"{flag} must be at least 1, got {value}: nothing would be checked")
    model = load_model(model_path)
    if loss == "sft":
        if not sft_path:
            raise click.UsageError("--loss sft needs --sft")
        pairs = [(template_key(r.template), r.response) for r in load_dataset(sft_path)][:limit]
        report = sft_grad_check(model, pairs, step, tolerance, samples, seed)
    else:
        if not dpo_path:
            raise click.UsageError("--loss dpo needs --dpo")
        triples = pl.read_triples(dpo_path)[:limit]
        ref_model = load_model(reference) if reference else model
        report = dpo_grad_check(model, ref_model, triples, beta, step, tolerance, samples, seed)
    status = "pass" if report.passed else "FAIL"
    click.echo(
        f"{status}: max relative error {report.max_rel_error:.3e} over {report.checked} parameters"
    )
    if not report.passed:
        sys.exit(1)


@cli.command("report")
@click.option("--run-dir", required=True, type=click.Path(exists=True))
@click.option("--build", is_flag=True,
              help="Rebuild report.json from the run directory's artifacts.")
@click.option("--tables", "tables_dir", type=click.Path(exists=True), default=None,
              help="Needed with --build.")
@click.option("--json", "as_json", is_flag=True, help="Print machine-readable JSON.")
@_domain_errors
def report_cmd(run_dir, build, tables_dir, as_json):
    """Print a run report; --build reconstructs it from the artifacts."""
    run = Path(run_dir)
    if build:
        if not tables_dir:
            raise click.UsageError("--build needs --tables")
        config = pl.PipelineConfig(tables=tables_dir, out_dir=run_dir)
        pl.call_stage(pl.STAGE_BY_NAME["report"], config)
    report_file = run / "report.json"
    if not report_file.exists():
        raise PlangenError(f"{report_file} does not exist (run the pipeline or pass --build)")
    report = pl.read_json(report_file)
    if as_json:
        click.echo(json.dumps(report, sort_keys=True))
    else:
        click.echo(format_report(report))


@cli.command("run")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--catalog", default=None, type=click.Path())
@click.option("--tables", default=None, type=click.Path())
@click.option("--join-graph", default=None, type=click.Path())
@click.option("--out-dir", default=None, type=click.Path())
@click.option("--workload-count", default=None, type=int)
@click.option("--workload-joins", default=None)
@click.option("--demo-mode", default=None, type=click.Choice(DEMO_MODES))
@click.option("--split-mode", default=None, type=click.Choice(pl.SPLIT_MODES))
@click.option("--r0", default=None, type=float)
@click.option("--beta", default=None, type=float)
@click.option("--qit-steps", default=None, type=int)
@click.option("--qdpo-steps", default=None, type=int)
@_domain_errors
def run_cmd(config_path, **flags):
    """Run the whole pipeline from a config file; flags override the file."""
    if config_path:
        config = pl.PipelineConfig.from_file(config_path, **flags)
    else:
        config = pl.PipelineConfig().with_overrides(**flags)
    result = pl.run_pipeline(config)
    for name, status in result.stages:
        click.echo(f"stage {name}: {status} in {result.seconds[name]:.3f} s")
    click.echo(format_report(result.report))


def main():
    cli(prog_name="plangen")


if __name__ == "__main__":
    main()
