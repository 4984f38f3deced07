import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plangen.plans import (
    PlanError,
    DanglingReference,
    DuplicateTable,
    Join,
    Leaf,
    MissingFinalAnswer,
    MissingOperand,
    PlanningPath,
    RedundantOperand,
    ReusedIntermediate,
    SingleTablePlan,
    StepCountMismatch,
    UnbalancedBracket,
    UnknownOperator,
    bracket_to_tree,
    leaves,
    parse_response,
    path_to_tree,
    render_response,
    tree_to_bracket,
    tree_to_path,
)
from tests.conftest import join_count, random_plan

MOVIE_BRACKET = "HashJoin(movie_info_idx HashJoin(movie_companies title))"

MOVIE_RESPONSE = (
    "Step1: [movie_companies, title, HashJoin],\n"
    "Step2: [movie_info_idx, HashJoin(movie_companies title), HashJoin],\n"
    "\n"
    "Therefore, the final answer is:\n"
    "HashJoin(movie_info_idx HashJoin(movie_companies title))."
)


def cfg_recognizer(text: str) -> bool:
    """Independent grammar oracle: B := name | Op '(' B ' ' B ')'.

    Implemented by recursive descent over a regex token stream, written
    before and apart from the production parser.
    """
    tokens = re.findall(r"[()]|[^\s()]+", text)

    def node(pos):
        if pos >= len(tokens) or tokens[pos] in "()":
            return None
        if pos + 1 < len(tokens) and tokens[pos + 1] == "(":
            if tokens[pos] not in ("HashJoin", "MergeJoin", "NestLoopJoin"):
                return None
            after_left = node(pos + 2)
            if after_left is None:
                return None
            after_right = node(after_left)
            if after_right is None:
                return None
            if after_right >= len(tokens) or tokens[after_right] != ")":
                return None
            return after_right + 1
        if tokens[pos] in ("HashJoin", "MergeJoin", "NestLoopJoin"):
            return None
        return pos + 1

    end = node(0)
    return end == len(tokens) and end is not None


def postorder_oracle(plan) -> list[tuple]:
    """Independent post-order traversal collecting join nodes, left first."""
    out = []
    stack = [(plan, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Leaf):
            continue
        if expanded:
            out.append(node)
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
    return out


def test_movie_tree_to_bracket(movie_plan):
    assert tree_to_bracket(movie_plan) == MOVIE_BRACKET


def test_leaf_bracket():
    assert tree_to_bracket(Leaf("title")) == "title"


def test_two_leaf_bracket():
    assert tree_to_bracket(Join("MergeJoin", Leaf("a"), Leaf("b"))) == "MergeJoin(a b)"


def test_bracket_to_movie_tree(movie_plan):
    assert bracket_to_tree(MOVIE_BRACKET) == movie_plan


def test_bracket_accepts_space_before_paren(movie_plan):
    assert bracket_to_tree("HashJoin (movie_info_idx HashJoin(movie_companies title))") == movie_plan


def test_bracket_unbalanced():
    with pytest.raises(UnbalancedBracket):
        bracket_to_tree("HashJoin(a b")


def test_bracket_redundant_operand():
    # The CFG oracle agrees this string is outside the grammar.
    assert not cfg_recognizer("HashJoin(a b c)")
    with pytest.raises(RedundantOperand):
        bracket_to_tree("HashJoin(a b c)")


def test_bracket_missing_operand():
    assert not cfg_recognizer("HashJoin(a)")
    with pytest.raises(MissingOperand):
        bracket_to_tree("HashJoin(a)")


def test_bracket_unknown_operator():
    assert not cfg_recognizer("SortJoin(a b)")
    with pytest.raises(UnknownOperator):
        bracket_to_tree("SortJoin(a b)")


def test_bracket_duplicate_table():
    with pytest.raises(DuplicateTable):
        bracket_to_tree("HashJoin(a a)")


def test_bracket_extra_close():
    with pytest.raises(UnbalancedBracket):
        bracket_to_tree("HashJoin(a b))")


def test_empty_bracket():
    with pytest.raises(MissingOperand):
        bracket_to_tree("   ")


def test_tree_to_path_movie(movie_plan):
    path = tree_to_path(movie_plan)
    assert path.steps == (
        ("movie_companies", "title", "HashJoin"),
        ("movie_info_idx", "HashJoin(movie_companies title)", "HashJoin"),
    )


def test_tree_to_path_single_join():
    path = tree_to_path(Join("MergeJoin", Leaf("a"), Leaf("b")))
    assert path.steps == (("a", "b", "MergeJoin"),)


def test_tree_to_path_left_deep_chain():
    plan = Leaf("t1")
    for name in ("t2", "t3", "t4"):
        plan = Join("HashJoin", plan, Leaf(name))
    path = tree_to_path(plan)
    oracle = postorder_oracle(plan)
    assert len(path.steps) == 3
    assert [s[2] for s in path.steps] == [n.op for n in oracle]
    # Each step after the first references the previous step's bracket form.
    for prev, step in zip(oracle, path.steps[1:]):
        assert step[0] == tree_to_bracket(prev)


def test_tree_to_path_rejects_single_table():
    with pytest.raises(SingleTablePlan):
        tree_to_path(Leaf("t"))


def test_path_to_tree_movie(movie_plan):
    assert path_to_tree(tree_to_path(movie_plan)) == movie_plan


def test_path_to_tree_empty():
    with pytest.raises(StepCountMismatch):
        path_to_tree(PlanningPath(()))


def test_path_to_tree_dangling_reference():
    path = PlanningPath(
        (
            ("a", "b", "HashJoin"),
            ("c", "MergeJoin(x y)", "HashJoin"),
        )
    )
    with pytest.raises(DanglingReference):
        path_to_tree(path)


def test_path_to_tree_reused_intermediate():
    path = PlanningPath(
        (
            ("a", "b", "HashJoin"),
            ("c", "HashJoin(a b)", "HashJoin"),
            ("d", "HashJoin(a b)", "HashJoin"),
        )
    )
    with pytest.raises(ReusedIntermediate):
        path_to_tree(path)


def test_path_to_tree_unreferenced_intermediate():
    path = PlanningPath(
        (
            ("a", "b", "HashJoin"),
            ("c", "d", "HashJoin"),
        )
    )
    with pytest.raises(StepCountMismatch):
        path_to_tree(path)


def test_render_response_movie_golden(movie_plan):
    assert render_response(movie_plan) == MOVIE_RESPONSE


def test_render_response_two_tables():
    text = render_response(Join("MergeJoin", Leaf("a"), Leaf("b")))
    assert text == (
        "Step1: [a, b, MergeJoin],\n\nTherefore, the final answer is:\nMergeJoin(a b)."
    )


def test_render_response_bushy_round_trip():
    plan = Join(
        "HashJoin",
        Join("MergeJoin", Leaf("a"), Leaf("b")),
        Join("NestLoopJoin", Leaf("c"), Join("HashJoin", Leaf("d"), Leaf("e"))),
    )
    text = render_response(plan)
    assert len([ln for ln in text.splitlines() if ln.startswith("Step")]) == 4
    assert parse_response(text) == plan


def test_parse_response_movie(movie_plan):
    assert parse_response(MOVIE_RESPONSE) == movie_plan


def test_parse_response_with_chatter(movie_plan):
    noisy = "Sure! Let me think.\nblah blah\n" + MOVIE_RESPONSE
    assert parse_response(noisy) == movie_plan


def test_parse_response_empty():
    with pytest.raises(MissingFinalAnswer):
        parse_response("")
    with pytest.raises(MissingFinalAnswer):
        parse_response(MOVIE_BRACKET + ".")


def test_round_trip_1000_random_plans():
    rng = random.Random(17)
    for _ in range(1000):
        n = rng.randint(2, 12)
        tables = [f"t{i}" for i in range(n)]
        rng.shuffle(tables)
        plan = random_plan(rng, tables)
        bracket = tree_to_bracket(plan)
        assert cfg_recognizer(bracket)
        assert bracket_to_tree(bracket) == plan
        path = tree_to_path(plan)
        assert len(path.steps) == n - 1
        assert path_to_tree(path) == plan
        assert parse_response(render_response(plan)) == plan


def test_bracket_injective_on_random_plans():
    rng = random.Random(23)
    seen = {}
    for _ in range(300):
        n = rng.randint(2, 8)
        plan = random_plan(rng, [f"t{i}" for i in range(n)])
        bracket = tree_to_bracket(plan)
        if bracket in seen:
            assert seen[bracket] == plan
        seen[bracket] = plan
    distinct_plans = {tree_to_bracket(p) for p in seen.values()}
    assert len(distinct_plans) == len(seen)


def test_leaves_and_join_count(movie_plan):
    assert leaves(movie_plan) == ["movie_info_idx", "movie_companies", "title"]
    assert join_count(movie_plan) == 2


@given(st.text(alphabet="ab into() HashJoinMerge[],:.\n", max_size=80))
def test_bracket_parser_is_total(text):
    # Arbitrary input either parses or raises a structured plan error.
    try:
        plan = bracket_to_tree(text)
    except PlanError:
        return
    assert bracket_to_tree(tree_to_bracket(plan)) == plan


@given(st.text(max_size=120))
def test_parse_response_is_total(text):
    try:
        parse_response(text)
    except PlanError:
        pass
