import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plangen.hints import HintError, emit_hints, parse_hints
from plangen.plans import Join, Leaf, PlanError, SingleTablePlan, bracket_to_tree, leaves, tree_to_bracket
from tests.conftest import random_plan, reference_parse_hints


def reparse_oracle(hint: str):
    """Independent check that a hint string is shaped like the emission rules:
    one Leading clause, then one method hint per join node."""
    assert hint.startswith("/*+ ") and hint.endswith(" */")
    body = hint[4:-3]
    assert body.startswith("Leading(")
    methods = re.findall(r"(HashJoin|MergeJoin|NestLoop)\(([^()]+)\)", body[len("Leading("):])
    return methods


def test_movie_plan_hint_golden(movie_plan):
    # Golden constructed by hand from the emission rules.
    assert emit_hints(movie_plan) == (
        "/*+ Leading((movie_info_idx (movie_companies title))) "
        "HashJoin(movie_companies title) "
        "HashJoin(movie_info_idx movie_companies title) */"
    )


def test_two_table_merge_join():
    plan = Join("MergeJoin", Leaf("a"), Leaf("b"))
    assert emit_hints(plan) == "/*+ Leading((a b)) MergeJoin(a b) */"


def test_nest_loop_keyword_mapping():
    plan = Join("NestLoopJoin", Leaf("a"), Leaf("b"))
    hint = emit_hints(plan)
    assert "NestLoop(a b)" in hint
    assert "NestLoopJoin" not in hint
    assert parse_hints(hint) == plan


def test_single_table_rejected():
    with pytest.raises(SingleTablePlan):
        emit_hints(Leaf("t"))


def test_parse_round_trip_movie(movie_plan):
    assert parse_hints(emit_hints(movie_plan)) == movie_plan


def test_parse_empty_text():
    with pytest.raises(HintError):
        parse_hints("")


def test_parse_unknown_method_keyword():
    with pytest.raises(HintError, match="unknown method keyword"):
        parse_hints("/*+ Leading((a b)) SortJoin(a b) */")


def test_parse_missing_method_hint():
    with pytest.raises(HintError, match="no method hint covers"):
        parse_hints("/*+ Leading((a b)) */")


def test_method_hint_count_equals_join_count():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(2, 8)
        plan = random_plan(rng, [f"t{i}" for i in range(n)])
        methods = reparse_oracle(emit_hints(plan))
        assert len(methods) == n - 1


def test_round_trip_500_random_plans():
    rng = random.Random(41)
    for _ in range(500):
        n = rng.randint(2, 10)
        tables = [f"t{i}" for i in range(n)]
        rng.shuffle(tables)
        plan = random_plan(rng, tables)
        hint = emit_hints(plan)
        assert parse_hints(hint) == plan
        # Method hint tables follow left-to-right leaf order of each node.
        for _, args in reparse_oracle(hint):
            listed = args.split()
            assert set(listed) <= set(leaves(plan))


def test_name_against_a_parenthesis_is_an_operand():
    hint = "/*+ Leading((t3(t1 t2))) HashJoin(t1 t2) NestLoop(t3 t1 t2) */"
    expected = Join("NestLoopJoin", Leaf("t3"), Join("HashJoin", Leaf("t1"), Leaf("t2")))
    assert parse_hints(hint) == reference_parse_hints(hint) == expected


@pytest.mark.parametrize(
    "hint",
    [
        "/*+ Leading(((a b) a)) HashJoin(a b) */",
        "/*+ Leading((HashJoin a)) MergeJoin(HashJoin a) */",
    ],
)
def test_leading_clause_must_be_a_bracket_plan(hint):
    # The reference parser accepts a repeated table and a table named like a
    # join operator; no bracket form holds either plan.
    with pytest.raises(PlanError):
        bracket_to_tree(tree_to_bracket(reference_parse_hints(hint)))
    with pytest.raises(HintError):
        parse_hints(hint)


HINT_TOKENS = ["(", ")", "HashJoin", "NestLoop", "Leading(", "*/", " ", "t0", "t1"]
_PIECE_RE = re.compile(r"\s+|[()]|[^\s()]+")

# (kind, on a grammar piece rather than one character, index, inserted text)
hint_edits = st.tuples(
    st.sampled_from(["insert", "delete", "replace"]),
    st.booleans(),
    st.integers(min_value=0),
    st.one_of(st.sampled_from(HINT_TOKENS), st.characters()),
)


def apply_edit(text: str, edit) -> str:
    kind, on_piece, index, token = edit
    units = _PIECE_RE.findall(text) if on_piece else list(text)
    at = index % (len(units) + 1)
    if kind == "insert":
        units.insert(at, token)
    elif at < len(units):
        units[at:at + 1] = [] if kind == "delete" else [token]
    return "".join(units)


def _outcome(parse, text):
    try:
        return parse(text)
    except HintError:
        return HintError


@settings(max_examples=400, deadline=None)
@given(
    n=st.integers(2, 10),
    seed=st.integers(0, 2**32 - 1),
    gaps=st.lists(st.sampled_from([" ", "", "\n\t"])),
    edits=st.lists(hint_edits, max_size=4),
)
def test_parse_hints_agrees_with_reference_parser(n, seed, gaps, edits):
    rng = random.Random(seed)
    tables = [f"t{i}" for i in range(n)]
    rng.shuffle(tables)
    # The emitted hint, its whitespace runs replaced by the gaps in turn.
    gap = iter(gaps)
    pieces = _PIECE_RE.findall(emit_hints(random_plan(rng, tables)))
    text = "".join(next(gap, p) if p.isspace() else p for p in pieces)
    for edit in edits:
        text = apply_edit(text, edit)
    expected = _outcome(reference_parse_hints, text)
    actual = _outcome(parse_hints, text)
    if expected is not HintError and actual is HintError:
        # Only the plans of test_leading_clause_must_be_a_bracket_plan.
        with pytest.raises(PlanError):
            bracket_to_tree(tree_to_bracket(expected))
    else:
        assert actual == expected
