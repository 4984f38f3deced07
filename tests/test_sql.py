import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plangen.catalog import load_catalog
from plangen.errors import PlangenError
from plangen.sql import (
    JoinPredicate,
    QueryTemplate,
    Selection,
    SqlSemanticError,
    SqlSyntaxError,
    parse_sql,
    render_sql,
    template_key,
    template_of,
)
from plangen.workload import gen_workload, load_join_graph
from tests.conftest import FIXTURES_DIR, MOVIE_SQL, blake2b64, reference_parse_sql


def test_parse_movie_query(movie_query):
    assert movie_query.tables == {"movie_companies", "title", "movie_info_idx"}
    assert movie_query.from_order == ("movie_companies", "title", "movie_info_idx")
    assert len(movie_query.joins) == 2
    assert len(movie_query.selections) == 3
    assert JoinPredicate.normalized("title", "movie_id", "movie_companies", "movie_id") in movie_query.joins
    assert Selection("movie_companies", "company_type_id", "=", 1) in movie_query.selections


def test_parse_single_table():
    q = parse_sql("SELECT * FROM t1;")
    assert q.tables == {"t1"}
    assert q.joins == frozenset()
    assert q.selections == ()


def test_disconnected_join_graph_rejected():
    with pytest.raises(SqlSemanticError, match="disconnected"):
        parse_sql("SELECT * FROM a, b WHERE a.x = 1;")


def test_projection_rejected():
    with pytest.raises(SqlSemanticError, match="SELECT \\*"):
        parse_sql("SELECT a.x FROM a;")


def test_or_rejected():
    with pytest.raises(SqlSemanticError, match="unsupported construct"):
        parse_sql("SELECT * FROM a, b WHERE a.x = b.y OR a.z = 1;")


def test_non_integer_literal_rejected():
    with pytest.raises(SqlSemanticError, match="non-integer literal"):
        parse_sql("SELECT * FROM a WHERE a.x < 1.5;")


def test_self_join_rejected():
    with pytest.raises(SqlSemanticError, match="self-join"):
        parse_sql("SELECT * FROM a, b WHERE a.x = a.y AND a.z = b.z;")


def test_duplicate_from_table_rejected():
    with pytest.raises(SqlSemanticError, match="listed twice"):
        parse_sql("SELECT * FROM a, a WHERE a.x = a.y;")


def test_alias_rejected():
    with pytest.raises(SqlSemanticError, match="alias"):
        parse_sql("SELECT * FROM movies m;")


def test_non_equi_join_rejected():
    with pytest.raises(SqlSemanticError, match="non-equi join"):
        parse_sql("SELECT * FROM a, b WHERE a.x < b.y;")


def test_missing_semicolon_positioned():
    with pytest.raises(SqlSyntaxError, match="offset"):
        parse_sql("SELECT * FROM a")


def test_unknown_table_in_predicate():
    with pytest.raises(SqlSemanticError, match="unknown table"):
        parse_sql("SELECT * FROM a WHERE b.x = 1;")


def test_render_parse_fixpoint(movie_query):
    canonical = render_sql(movie_query)
    reparsed = parse_sql(canonical)
    assert render_sql(reparsed) == canonical
    assert reparsed.tables == movie_query.tables
    assert reparsed.joins == movie_query.joins
    assert reparsed.selections == movie_query.selections
    # Canonical text sorts the FROM list and conjuncts.
    assert canonical == (
        "SELECT * FROM movie_companies, movie_info_idx, title "
        "WHERE movie_companies.company_type_id = 1 "
        "AND movie_companies.movie_id = title.movie_id "
        "AND movie_info_idx.movie_id = title.movie_id "
        "AND title.product_year < 1904 AND title.product_year > 58;"
    )


def test_template_ignores_selection_literals(movie_query):
    variant = parse_sql(MOVIE_SQL.replace("1904", "1950"))
    assert template_of(variant) == template_of(movie_query)
    assert template_of(variant).key() == template_of(movie_query).key()


def test_template_single_table():
    t = template_of(parse_sql("SELECT * FROM t1;"))
    assert t.tables == {"t1"}
    assert t.joins == frozenset()


def test_templates_differ_on_join_predicates():
    a = parse_sql("SELECT * FROM a, b WHERE a.x = b.y;")
    b = parse_sql("SELECT * FROM a, b WHERE a.x = b.z;")
    assert template_of(a) != template_of(b)


@given(st.permutations(["movie_companies", "title", "movie_info_idx"]), st.integers(0, 3000))
def test_template_invariant_under_permutation_and_literals(order, literal):
    conjuncts = [
        "title.movie_id = movie_companies.movie_id",
        "title.movie_id = movie_info_idx.movie_id",
        f"title.product_year < {literal}",
    ]
    sql = f"SELECT * FROM {', '.join(order)} WHERE {' AND '.join(reversed(conjuncts))};"
    base = parse_sql(
        "SELECT * FROM movie_companies, title, movie_info_idx "
        "WHERE title.movie_id = movie_companies.movie_id "
        "AND title.movie_id = movie_info_idx.movie_id AND title.product_year < 7;"
    )
    assert template_of(parse_sql(sql)) == template_of(base)


# --- differential properties against the parser the one-pass lexer replaced ---

_CATALOG = load_catalog(FIXTURES_DIR / "catalog.txt")
_JOIN_GRAPH = load_join_graph(FIXTURES_DIR / "joins.txt")
_SQL_PIECES = [
    "SELECT", "FROM", "WHERE", "AND", "OR", "IN", "select", "where", "and", "*", ",", ".", ";",
    "=", "<=", ">=", "<", ">", "-", "0", "42", "1.5", "-7", "(", ")", " ", "\n", "\t", "title",
    "movie_id", "t.", "$", "\u0663", "\u00a0",
]
_sql_edits = st.tuples(
    st.sampled_from(["insert", "delete", "truncate", "swapcase"]),
    st.integers(0, 10_000),
    st.integers(1, 12),
    st.sampled_from(_SQL_PIECES),
)


def _workload_sql(n_joins: int, seed: int) -> str:
    return gen_workload(_CATALOG, _JOIN_GRAPH, n_joins, 1, seed)[0].raw_sql


def _parse_outcome(parse, text):
    """The QuerySpec, or the error's class and message (offset included)."""
    try:
        return parse(text)
    except PlangenError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "text",
    [
        "", "   \n", "SELECT", "select * from a;", "SELECT * FROM a $;", "SELECT * FROM a;$",
        "SELECT * FROM a;  \t\n", "SELECT * FROM a;;", "SELECT * FROM a, ;",
        "SELECT * FROM a WHERE a.x = 1 WHERE a.y = 2;", "SELECT * FROM a WHERE a.x = \u0663;",
        "SELECT\u00a0*\u00a0FROM a;", "SELECT * FROM a WHERE a.x = -;", "SELECT * FROM a WHERE a.x == 1;",
        "SELECT * FROM a, b WHERE a.x = b.y AND a.z <= -4 AND b.w >= 7 AND b.v <> 1;",
        "SELECT * FROM a WHERE a . x = 1 ;", "SELECT * FROM where;", "SELECT * FROM a WHERE a.x = 1 AND;",
    ],
)
def test_parse_sql_agrees_with_reference_on_edge_cases(text):
    assert _parse_outcome(parse_sql, text) == _parse_outcome(reference_parse_sql, text)


@settings(max_examples=200, deadline=None)
@given(n_joins=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_parse_sql_agrees_with_reference_on_workload_queries(n_joins, seed):
    sql = _workload_sql(n_joins, seed)
    parsed = parse_sql(sql)
    assert parsed == reference_parse_sql(sql)
    assert parsed.raw_sql == sql and len(parsed.joins) == n_joins


@settings(max_examples=400, deadline=None)
@given(
    n_joins=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    edits=st.lists(_sql_edits, min_size=1, max_size=4),
)
def test_parse_sql_agrees_with_reference_on_mutated_text(n_joins, seed, edits):
    """Insertions of SQL characters and keywords, deletions, truncations and
    case changes: the same QuerySpec, or the same error class, message and
    offset."""
    text = _workload_sql(n_joins, seed)
    for kind, index, width, piece in edits:
        at = index % (len(text) + 1)
        if kind == "insert":
            text = text[:at] + piece + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + width:]
        elif kind == "swapcase":
            text = text[:at] + text[at:at + 4 * width].swapcase() + text[at + 4 * width:]
        else:
            text = text[:at]
    assert _parse_outcome(parse_sql, text) == _parse_outcome(reference_parse_sql, text)


_NAMES = st.text(min_size=1, max_size=8)


@st.composite
def _templates(draw):
    """Templates of random, possibly non-ASCII, table and column names."""
    tables = sorted(draw(st.frozensets(_NAMES, min_size=1, max_size=5)))
    side = st.tuples(st.sampled_from(tables), _NAMES)
    joins = draw(st.frozensets(st.builds(lambda a, b: JoinPredicate.normalized(*a, *b), side, side), max_size=4))
    return QueryTemplate(frozenset(tables), joins)


@settings(max_examples=200, deadline=None)
@given(template=_templates())
def test_template_key_is_the_blake2b_of_the_template_text(template):
    assert template_key(template) == blake2b64("template:" + template.key())
