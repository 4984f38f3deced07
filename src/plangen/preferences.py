"""Preference triple generation from multi-optimizer plan timings.

For one query, the fastest plan becomes the single preferred response; every
other plan whose time ratio t_best / t_i falls strictly below the threshold
becomes a dispreferred partner. ``executor.best_timing`` picks the fastest
plan, as it does for the instruction-tuning response: ties break on the
lexicographically smallest bracket, then on the smallest optimizer id.
Queries yielding no dispreferred plan contribute nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import PlangenError
from .executor import PlanTiming, best_timing
from .jsonl import NUMBER, read_jsonl, write_jsonl
from .plans import render_response
from .tokenizer import check_response


DEFAULT_RATIO_THRESHOLD = 0.95


class PreferenceError(PlangenError):
    pass


@dataclass(frozen=True)
class PreferenceConfig:
    """Threshold for the best-to-other time ratio, in (0, 1)."""

    ratio_threshold: float = DEFAULT_RATIO_THRESHOLD

    def __post_init__(self):
        if not 0.0 < self.ratio_threshold < 1.0:
            raise PreferenceError(
                f"ratio threshold must be in (0, 1), got {self.ratio_threshold}"
            )


@dataclass(frozen=True)
class PreferenceTriple:
    query_id: str
    prompt: str
    chosen: str
    rejected: str
    t_chosen: int
    t_rejected: int
    chosen_optimizer: str
    rejected_optimizer: str

    def key(self) -> tuple[str, str, str, str]:
        """Identity across preference files. It includes the rejected
        optimizer, so two optimizers that logged the same plan each count."""
        return (self.query_id, self.chosen, self.rejected, self.rejected_optimizer)


def _triple(query_id: str, prompt: str, chosen: PlanTiming, rejected: PlanTiming) -> PreferenceTriple:
    return PreferenceTriple(
        query_id=query_id,
        prompt=prompt,
        chosen=render_response(chosen.plan),
        rejected=render_response(rejected.plan),
        t_chosen=chosen.time,
        t_rejected=rejected.time,
        chosen_optimizer=chosen.optimizer_id,
        rejected_optimizer=rejected.optimizer_id,
    )


def generate_preferences(
    timings: Sequence[PlanTiming],
    prompt: str,
    config: PreferenceConfig,
    query_id: str = "",
) -> list[PreferenceTriple]:
    """Algorithm over one query's k plan timings; needs k >= 2."""
    if len(timings) < 2:
        raise PreferenceError(f"need at least two optimizer timings, got {len(timings)}")
    ids = [t.optimizer_id for t in timings]
    if len(set(ids)) != len(ids):
        raise PreferenceError(f"duplicate optimizer ids in {ids}")

    best = best_timing(timings)
    return [
        _triple(query_id, prompt, best, timing)
        for timing in timings
        if best.time / timing.time < config.ratio_threshold
    ]


def sort_triples(triples: Sequence[PreferenceTriple]) -> list[PreferenceTriple]:
    return sorted(triples, key=lambda t: (t.query_id, t.rejected_optimizer))


def write_preference_file(triples: Sequence[PreferenceTriple], path: str | Path) -> None:
    write_jsonl(
        (
            {
                "query_id": t.query_id,
                "prompt": t.prompt,
                "chosen": t.chosen,
                "rejected": t.rejected,
                "t_star": t.t_chosen,
                "t_rejected": t.t_rejected,
                "chosen_optimizer": t.chosen_optimizer,
                "rejected_optimizer": t.rejected_optimizer,
            }
            for t in sort_triples(triples)
        ),
        path,
    )


def load_preference_file(path: str | Path) -> list[PreferenceTriple]:
    fields = {
        "query_id": str, "prompt": str, "chosen": str, "rejected": str,
        "t_star": NUMBER, "t_rejected": NUMBER,
    }

    def triple(raw: dict) -> PreferenceTriple:
        return PreferenceTriple(
            query_id=raw["query_id"],
            prompt=raw["prompt"],
            chosen=check_response(raw["chosen"], "chosen"),
            rejected=check_response(raw["rejected"], "rejected"),
            t_chosen=raw["t_star"],
            t_rejected=raw["t_rejected"],
            chosen_optimizer=raw.get("chosen_optimizer", ""),
            rejected_optimizer=raw.get("rejected_optimizer", ""),
        )

    return read_jsonl(path, fields, triple)
