"""In-memory spans around plangen's public calls, and the per-layer metrics.

The tracer never edits plangen: it rebinds names from outside. A function is
replaced by a timing wrapper in every plangen module that imported it (so
``plangen.pipeline.run_optimizers`` and ``plangen.dataset.build_prompt`` are
both caught where they are called), and a method is replaced on its class.
Spans carry a name, start, end, parent span and run id; a span's self time is
its duration minus the time its child spans cover. ``Tracer.restore`` puts
every original back, so timed runs are never traced.

A span name is ``<layer>.<call>``; the layer is the plangen module the call
belongs to. Per-layer metrics are derived from spans and from counters taken
off call results after the span has closed, so counting costs the span
nothing.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# Layers in the order their metrics are reported; `<layer>.self_s` is the
# self time of all the layer's spans.
LAYERS = (
    "pipeline",
    "workload",
    "catalog",
    "optimizers",
    "costs",
    "executor",
    "preferences",
    "dataset",
    "sql",
    "tokenizer",
    "model",
    "training",
    "validator",
    "hints",
)

STAGES = (
    "workload",
    "split",
    "plans-train",
    "plans-test",
    "sft",
    "dpo",
    "train-qit",
    "train-qdpo",
    "infer-qit",
    "infer-qdpo",
    "report",
)

DP_JOIN_COUNTS = (1, 2, 3, 4, 5)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.run_id = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- spans ---

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> float:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span.end - span.start

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name, after=None):
        """Timing wrapper; ``name`` may be a function of the call's arguments.

        ``after(tracer, args, kwargs, result, seconds)`` runs once the span
        has closed, to take counts off the result.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.close(span)
            if after is not None:
                after(tracer, args, kwargs, result, seconds)
            return result

        return traced

    # --- rebinding ---

    def hook_function(self, module, attr: str, name, after=None) -> None:
        """Rebind ``module.attr`` in every plangen module that holds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, after)
        holders = [
            mod
            for mod_name, mod in sorted(sys.modules.items())
            if mod_name.split(".")[0] == "plangen" and mod is not None
        ]
        for mod in holders:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def hook_method(self, cls, attr: str, name, after=None) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, after))

    def restore(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    # --- summaries ---

    def self_times(self) -> list[float]:
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total seconds, self seconds)."""
        out: dict[str, tuple[int, float, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            calls, total, self_s = out.get(span.name, (0, 0.0, 0.0))
            out[span.name] = (calls + 1, total + span.end - span.start, self_s + own)
        return out

    def dump(self) -> dict:
        totals = self.totals()
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run_id}
                for s in self.spans
            ],
            "by_name": {
                name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in sorted(totals.items(), key=lambda kv: -kv[1][2])
            },
            "counters": dict(sorted(self.counters.items())),
        }


def install(tracer: Tracer) -> None:
    """Hook every public call the per-layer metrics are taken from."""
    from plangen import costs, dataset, executor, hints, model, optimizers, pipeline, sql
    from plangen import preferences, tokenizer, training, validator, workload, catalog

    def count_dp(t, args, kwargs, result, seconds):
        t.count(f"optimizers.dp_s_by_joins.{len(args[0].joins)}", seconds)
        t.count(f"optimizers.dp_calls_by_joins.{len(args[0].joins)}")

    def count_touches(t, args, kwargs, result, seconds):
        t.count("executor.row_touches", result.time)

    def count_qdpo_steps(t, args, kwargs, result, seconds):
        t.count("training.qdpo_steps", len(result[1]))

    def count_decode(t, args, kwargs, result, seconds):
        max_len = kwargs.get("max_len", args[2] if len(args) > 2 else None)
        steps = len(tokenizer.split_tokens(result)) + 1
        t.count("model.decode_tokens", min(steps, max_len) if max_len else steps)

    def count_valid(t, args, kwargs, result, seconds):
        t.count("validator.valid", int(result.valid))

    def count_stage(t, args, kwargs, result, seconds):
        # The runner appends the stage's status as it finishes.
        t.count("pipeline.stages")
        t.count("pipeline.cached_stages", int(args[0].statuses[-1][1] == "cached"))

    tracer.hook_function(pipeline, "run_pipeline", "pipeline.run")
    tracer.hook_method(
        pipeline._StageRunner, "run", lambda args: f"pipeline.stage.{args[1]}", count_stage
    )
    tracer.hook_function(pipeline, "run_optimizers", "pipeline.run_optimizers")
    tracer.hook_function(workload, "gen_workload", "workload.gen_workload")
    tracer.hook_function(catalog, "load_catalog", "catalog.load")
    tracer.hook_function(catalog, "load_tables", "catalog.load")
    tracer.hook_function(optimizers, "dp_optimize", "optimizers.dp", count_dp)
    tracer.hook_function(optimizers, "greedy_optimize", "optimizers.greedy")
    tracer.hook_function(optimizers, "random_optimize", "optimizers.random")
    tracer.hook_method(costs.CostModel, "subset_cardinality", "costs.subset_cardinality")
    tracer.hook_function(executor, "micro_execute", "executor.micro_execute", count_touches)
    tracer.hook_function(preferences, "generate_preferences", "preferences.generate")
    tracer.hook_function(dataset, "build_sft_dataset", "dataset.build_sft")
    tracer.hook_function(dataset, "select_demonstration", "dataset.select_demonstration")
    tracer.hook_function(dataset, "build_prompt", "dataset.build_prompt")
    tracer.hook_function(sql, "parse_sql", "sql.parse_sql")
    tracer.hook_function(tokenizer, "tokenize", "tokenizer.tokenize")
    tracer.hook_method(model.TokenModel, "encode_response", "model.encode_response")
    tracer.hook_method(model.TokenModel, "greedy_decode", "model.greedy_decode", count_decode)
    tracer.hook_function(model, "save_model", "model.save")
    tracer.hook_function(model, "load_model", "model.load")
    tracer.hook_function(training, "fit_qit_from_records", "training.qit")
    tracer.hook_function(training, "train_qdpo", "training.qdpo", count_qdpo_steps)
    tracer.hook_function(training, "mean_margin", "training.mean_margin")
    tracer.hook_function(training, "encode_triples", "training.encode_triples")
    tracer.hook_function(validator, "validate", "validator.validate", count_valid)
    tracer.hook_function(hints, "emit_hints", "hints.emit")


def layer_metrics(tracer: Tracer, model_facts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a finished trace: name -> (value, unit).

    ``model_facts`` carries what is read off the qdpo checkpoint and model
    rather than off a call: checkpoint_bytes, theta_bytes, touched_row_share.
    """
    totals = tracer.totals()
    counters = tracer.counters

    def busy(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    put("training.qit_s", busy("training.qit"), "s")
    put("training.qdpo_s", busy("training.qdpo"), "s")
    put("training.mean_margin_s", busy("training.mean_margin"), "s")
    put("training.mean_margin_calls", calls("training.mean_margin"), "count")
    put("training.encode_triples_s", busy("training.encode_triples"), "s")
    put("training.qdpo_steps_per_s", ratio(counters.get("training.qdpo_steps", 0), busy("training.qdpo")), "1/s")

    decode_tokens = counters.get("model.decode_tokens", 0)
    put("model.encode_response_s", busy("model.encode_response"), "s")
    put("model.greedy_decode_s", busy("model.greedy_decode"), "s")
    put("model.decode_tokens", decode_tokens, "count")
    put("model.decode_us_per_token", ratio(busy("model.greedy_decode") * 1e6, decode_tokens), "us")
    put("model.save_s", busy("model.save"), "s")
    put("model.load_s", busy("model.load"), "s")
    put("model.checkpoint_bytes", model_facts["checkpoint_bytes"], "bytes")
    put("model.theta_bytes", model_facts["theta_bytes"], "bytes")
    put("model.touched_row_share", model_facts["touched_row_share"], "share")
    put("tokenizer.tokenize_s", busy("tokenizer.tokenize"), "s")

    put("optimizers.dp_s", busy("optimizers.dp"), "s")
    for k in DP_JOIN_COUNTS:
        put(
            f"optimizers.dp_ms_by_joins.{k}",
            ratio(counters.get(f"optimizers.dp_s_by_joins.{k}", 0) * 1e3,
                  counters.get(f"optimizers.dp_calls_by_joins.{k}", 0)),
            "ms",
        )
    put("optimizers.greedy_s", busy("optimizers.greedy"), "s")
    put("optimizers.random_s", busy("optimizers.random"), "s")
    put("costs.subset_cardinality_calls", calls("costs.subset_cardinality"), "count")
    put("costs.subset_cardinality_s", busy("costs.subset_cardinality"), "s")
    put("executor.micro_execute_calls", calls("executor.micro_execute"), "count")
    put("executor.micro_execute_s", busy("executor.micro_execute"), "s")
    put("executor.row_touches", counters.get("executor.row_touches", 0), "count")

    put("dataset.build_sft_s", busy("dataset.build_sft"), "s")
    put("dataset.select_demonstration_s", busy("dataset.select_demonstration"), "s")
    put("dataset.build_prompt_s", busy("dataset.build_prompt"), "s")
    put("sql.parse_sql_calls", calls("sql.parse_sql"), "count")
    put("sql.parse_sql_s", busy("sql.parse_sql"), "s")
    put("validator.validate_s", busy("validator.validate"), "s")
    put("validator.valid_share", ratio(counters.get("validator.valid", 0), calls("validator.validate")), "share")
    put("hints.emit_s", busy("hints.emit"), "s")

    for stage in STAGES:
        put(f"pipeline.stage.{stage}_s", busy(f"pipeline.stage.{stage}"), "s")
    put("pipeline.cache_hit_ratio", ratio(counters.get("pipeline.cached_stages", 0), counters.get("pipeline.stages", 0)), "share")
    put("preferences.generate_s", busy("preferences.generate"), "s")
    put("workload.gen_workload_s", busy("workload.gen_workload"), "s")
    put("catalog.load_s", busy("catalog.load"), "s")

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, own) in totals.items():
        layer_self[name.split(".")[0]] += own
    for layer in LAYERS:
        put(f"{layer}.self_s", layer_self[layer], "s")
    return metrics
