import itertools

import pytest

from plangen.executor import PlanTiming, write_plan_log
from plangen.jsonl import write_jsonl
from plangen.pipeline import extend_preference_file
from plangen.plans import Join, Leaf, parse_response, tree_to_bracket
from plangen.preferences import (
    PreferenceConfig,
    PreferenceError,
    generate_preferences,
    load_preference_file,
    sort_triples,
    write_preference_file,
)

PLAN_A = Join("HashJoin", Leaf("a"), Leaf("b"))
PLAN_B = Join("MergeJoin", Leaf("a"), Leaf("b"))
PLAN_C = Join("NestLoopJoin", Leaf("a"), Leaf("b"))
PLAN_D = Join("HashJoin", Leaf("b"), Leaf("a"))


def timings(*entries):
    return [PlanTiming(name, plan, t) for name, plan, t in entries]


def brute_force_pairs(entries, threshold):
    """Independent oracle: full scan for the minimum, then pairwise ratios."""
    best_time = min(t for _, _, t in entries)
    best_candidates = sorted(
        (tree_to_bracket(p) for _, p, t in entries if t == best_time)
    )
    best_bracket = best_candidates[0]
    pairs = set()
    for _, plan, t in entries:
        if best_time / t < threshold:
            pairs.add((best_bracket, tree_to_bracket(plan)))
    return pairs


def triple_pairs(triples):
    return {
        (tree_to_bracket(parse_response(t.chosen)), tree_to_bracket(parse_response(t.rejected)))
        for t in triples
    }


def test_generate_matches_brute_force():
    entries = [("dp", PLAN_A, 100), ("greedy", PLAN_B, 180), ("random", PLAN_C, 400)]
    config = PreferenceConfig(0.95)
    got = generate_preferences(timings(*entries), "prompt", config, "q1")
    assert len(got) == 2
    assert triple_pairs(got) == brute_force_pairs(entries, 0.95)
    ratios = [t.t_chosen / t.t_rejected for t in got]
    assert ratios == pytest.approx([100 / 180, 100 / 400])
    # Output order follows optimizer input order.
    assert [t.rejected_optimizer for t in got] == ["greedy", "random"]


def test_equal_times_yield_nothing():
    got = generate_preferences(
        timings(("a", PLAN_A, 100), ("b", PLAN_B, 100)), "p", PreferenceConfig(0.95)
    )
    assert got == []


def test_threshold_is_strict():
    # 95/100 == 0.95 exactly: not below the threshold, no triple.
    got = generate_preferences(
        timings(("a", PLAN_A, 95), ("b", PLAN_B, 100)), "p", PreferenceConfig(0.95)
    )
    assert got == []
    # One unit faster crosses it.
    got = generate_preferences(
        timings(("a", PLAN_A, 94), ("b", PLAN_B, 100)), "p", PreferenceConfig(0.95)
    )
    assert len(got) == 1
    assert got[0].chosen_optimizer == "a"
    assert got[0].t_chosen < got[0].t_rejected


def test_tie_break_lexicographic_bracket():
    # Two optimizers tie on time; the lexicographically smaller bracket wins.
    got = generate_preferences(
        timings(("x", PLAN_D, 50), ("y", PLAN_A, 50), ("z", PLAN_C, 200)),
        "p",
        PreferenceConfig(0.95),
    )
    assert len(got) == 1
    chosen_bracket = tree_to_bracket(parse_response(got[0].chosen))
    assert chosen_bracket == min(tree_to_bracket(PLAN_A), tree_to_bracket(PLAN_D))


def test_requires_two_timings():
    with pytest.raises(PreferenceError, match="at least two"):
        generate_preferences(timings(("a", PLAN_A, 10)), "p", PreferenceConfig())


def test_duplicate_optimizer_rejected():
    with pytest.raises(PreferenceError, match="duplicate"):
        generate_preferences(
            timings(("a", PLAN_A, 10), ("a", PLAN_B, 20)), "p", PreferenceConfig()
        )


def test_config_validation():
    with pytest.raises(PreferenceError):
        PreferenceConfig(0.0)
    with pytest.raises(PreferenceError):
        PreferenceConfig(1.0)


def test_r0_monotonicity():
    entries = [("a", PLAN_A, 100), ("b", PLAN_B, 140), ("c", PLAN_C, 103)]
    previous = set()
    for r0 in (0.6, 0.7, 0.8, 0.9, 0.999999999):
        got = triple_pairs(
            generate_preferences(timings(*entries), "p", PreferenceConfig(r0))
        )
        assert previous <= got
        previous = got


def test_chosen_time_strictly_smaller():
    entries = [("a", PLAN_A, 100), ("b", PLAN_B, 180), ("c", PLAN_C, 400)]
    for t in generate_preferences(timings(*entries), "p", PreferenceConfig(0.95)):
        assert t.t_chosen < t.t_rejected
        assert parse_response(t.chosen) != parse_response(t.rejected)


PROMPT = "p\nINPUT:\n<SQL>: SELECT * FROM a, b WHERE a.x = b.x;"


def extend(tmp_path, old, new, r0=0.95):
    """extend_preference_file for one query q: ``old`` timings in --plans,
    ``new`` in --plans-new, and a --dpo file generated from ``old``.
    Returns (triples written, triples added)."""
    sft, plans, plans_new, dpo = (
        tmp_path / name for name in ("sft.jsonl", "old.jsonl", "new.jsonl", "dpo.jsonl")
    )
    write_jsonl([{"query_id": "q", "prompt": PROMPT, "response": "a"}], sft)
    write_plan_log({"q": old}, plans)
    write_plan_log({"q": new}, plans_new)
    write_preference_file(generate_preferences(old, PROMPT, PreferenceConfig(r0), "q"), dpo)
    return extend_preference_file(plans_new, plans, sft, dpo, tmp_path / "extended.jsonl", r0)


def test_extend_new_optimizer_wins(tmp_path):
    old = timings(("a", PLAN_A, 100), ("b", PLAN_B, 180))
    new = timings(("c", PLAN_C, 50))
    written, added = extend(tmp_path, old, new)
    assert len(added) == 2
    assert all(t.chosen_optimizer == "c" for t in added)
    # The old triple's chosen plan is superseded, so only the added ones stay.
    assert written == added
    assert triple_pairs(written) == brute_force_pairs(
        [("a", PLAN_A, 100), ("b", PLAN_B, 180), ("c", PLAN_C, 50)], 0.95
    )


def test_extend_new_optimizer_wins_but_margin_too_small(tmp_path):
    old = timings(("a", PLAN_A, 100), ("b", PLAN_B, 180))
    written, added = extend(tmp_path, old, timings(("c", PLAN_C, 99)))
    # 99/100 is not under the threshold, so the 100-unit plan stays out;
    # 99/180 qualifies.
    assert [(t.chosen_optimizer, t.rejected_optimizer) for t in added] == [("c", "b")]
    assert written == added


def test_extend_new_optimizer_loses(tmp_path):
    old = timings(("a", PLAN_A, 100), ("b", PLAN_B, 180))
    written, added = extend(tmp_path, old, timings(("c", PLAN_C, 500)))
    assert [(t.chosen_optimizer, t.rejected_optimizer) for t in added] == [("a", "c")]
    # The incumbent's triple stays.
    assert [(t.chosen_optimizer, t.rejected_optimizer) for t in written] == [("a", "b"), ("a", "c")]


def test_extend_new_optimizer_wins_time_tie_by_bracket(tmp_path):
    # The new plan ties the incumbent's time but sorts first by bracket, so a
    # from-scratch run would choose it; extension must agree.
    old = timings(("x", PLAN_C, 100), ("y", PLAN_B, 180))
    assert len(generate_preferences(old, "p", PreferenceConfig(0.95))) == 1
    assert tree_to_bracket(PLAN_A) < tree_to_bracket(PLAN_C)
    written, added = extend(tmp_path, old, timings(("z", PLAN_A, 100)))
    assert [(t.chosen_optimizer, t.rejected_optimizer) for t in added] == [("z", "y")]
    assert written == added


def test_extend_rejects_duplicate_optimizer(tmp_path):
    old = timings(("a", PLAN_A, 100), ("b", PLAN_B, 180))
    with pytest.raises(PreferenceError, match="old.jsonl: q: duplicate optimizer ids"):
        extend(tmp_path, old, timings(("a", PLAN_C, 10)))


def test_extend_equals_scratch_exhaustively(tmp_path):
    """Over a grid of timing layouts, the added triples are exactly the
    oracle's pairs over all three optimizers less those over the old two."""
    plans = {"a": PLAN_A, "b": PLAN_B, "c": PLAN_C}
    for ta, tb, tc in itertools.product((50, 100, 105, 400), repeat=3):
        old = [("a", plans["a"], ta), ("b", plans["b"], tb)]
        new = [("c", plans["c"], tc)]
        written, added = extend(tmp_path, timings(*old), timings(*new))
        expected = brute_force_pairs(old + new, 0.95)
        assert triple_pairs(written) == expected, (ta, tb, tc)
        assert triple_pairs(added) == expected - brute_force_pairs(old, 0.95), (ta, tb, tc)


def test_preference_file_round_trip(tmp_path):
    entries = [("dp", PLAN_A, 100), ("greedy", PLAN_B, 180), ("random", PLAN_C, 400)]
    got = generate_preferences(timings(*entries), "p", PreferenceConfig(0.95), "q7")
    path = tmp_path / "dpo.jsonl"
    write_preference_file(got, path)
    loaded = load_preference_file(path)
    assert sort_triples(got) == loaded
    # Sorted by (query_id, rejected optimizer).
    assert [t.rejected_optimizer for t in loaded] == sorted(
        t.rejected_optimizer for t in loaded
    )
