import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plangen.catalog import (
    CatalogError,
    ColumnStats,
    MicroTable,
    derive_stats,
    load_catalog,
    serialize_stats,
)
from tests.conftest import catalog_from_tables, save_catalog, table_names


def test_load_catalog_movie_tables(tmp_path, movie_catalog):
    assert table_names(movie_catalog) == ["title", "movie_companies", "movie_info_idx"]
    cols = movie_catalog.columns("title")
    assert [c for c, _ in cols] == ["movie_id", "kind_id", "product_year", "imdb_id"]
    assert cols[0][1] == ColumnStats(0, 2527968, 2527969)
    assert movie_catalog.column_stats("movie_companies", "company_type_id") == ColumnStats(1, 2, 2)


def test_load_catalog_empty_file(tmp_path):
    path = tmp_path / "empty.cat"
    path.write_text("", encoding="utf-8")
    catalog = load_catalog(path)
    assert table_names(catalog) == []


def test_load_catalog_duplicate_table(tmp_path):
    path = tmp_path / "dup.cat"
    path.write_text("t|a:0:1:2\nt|b:0:1:2\n", encoding="utf-8")
    with pytest.raises(CatalogError, match="duplicate table 't'"):
        load_catalog(path)


def test_load_catalog_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.cat"
    path.write_text("t|a:0:1\n", encoding="utf-8")
    with pytest.raises(CatalogError, match=re.escape(f"{path}:1: ")):
        load_catalog(path)


def test_load_catalog_invariant_violation_names_column(tmp_path):
    path = tmp_path / "bad.cat"
    path.write_text("t|a:5:1:2\n", encoding="utf-8")
    with pytest.raises(CatalogError, match=r"t\.a"):
        load_catalog(path)


def test_column_stats_invariants():
    with pytest.raises(CatalogError):
        ColumnStats(0, 9, 11)  # distinct exceeds the value range
    with pytest.raises(CatalogError):
        ColumnStats(3, 1, 1)
    # distinct 0 leaves min/max unconstrained relative to each other
    ColumnStats(0, 0, 0)


def test_catalog_round_trip(tmp_path, movie_catalog):
    text = save_catalog(movie_catalog)
    path = tmp_path / "again.cat"
    path.write_text(text, encoding="utf-8")
    assert load_catalog(path) == movie_catalog
    assert save_catalog(load_catalog(path)) == text


def test_derive_stats_direct_counts():
    table = MicroTable("t", ("c",), ((1,), (3,), (3,)))
    assert derive_stats(table) == [("c", ColumnStats(1, 3, 2))]


def test_derive_stats_empty_convention():
    table = MicroTable("t", ("c",), ())
    assert derive_stats(table) == [("c", ColumnStats(0, 0, 0))]


def test_derive_stats_negative_values():
    # Oracle: exact scan over the rows.
    rows = [(-1,), (7,)]
    lo, hi, distinct = min(r[0] for r in rows), max(r[0] for r in rows), len({r[0] for r in rows})
    table = MicroTable("t", ("c",), tuple(rows))
    assert derive_stats(table) == [("c", ColumnStats(lo, hi, distinct))]


@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=1, max_size=40))
def test_derive_stats_permutation_invariant(rows):
    table = MicroTable("t", ("a", "b"), tuple(rows))
    shuffled = MicroTable("t", ("a", "b"), tuple(reversed(rows)))
    assert derive_stats(table) == derive_stats(shuffled)


@given(st.lists(st.integers(-1000, 1000), min_size=0, max_size=60))
def test_derived_stats_always_satisfy_invariants(values):
    table = MicroTable("t", ("c",), tuple((v,) for v in values))
    [(_, stats)] = derive_stats(table)
    assert stats.distinct_count >= 0
    if stats.distinct_count > 0:
        assert stats.min_value <= stats.max_value
    assert stats.distinct_count <= stats.max_value - stats.min_value + 1


def test_micro_table_rejects_ragged_rows():
    with pytest.raises(CatalogError, match="row 1"):
        MicroTable("t", ("a", "b"), ((1, 2), (3,)))


def test_serialize_stats_movie_companies(movie_catalog):
    text = serialize_stats(movie_catalog, ["movie_companies"])
    assert text == (
        "movie_companies (movie_id: [-1,2525401,1087136], "
        "company_id: [1,234997,234997], company_type_id: [1,2,2])."
    )


def test_serialize_stats_empty():
    table = MicroTable("t", ("c",), ((1,),))
    catalog = catalog_from_tables([table])
    assert serialize_stats(catalog, []) == ""


def test_serialize_stats_two_tables_golden(movie_catalog):
    # Golden fixed from the block grammar: blocks joined by ",\n", one
    # trailing period.
    text = serialize_stats(movie_catalog, ["movie_companies", "movie_info_idx"])
    assert text == (
        "movie_companies (movie_id: [-1,2525401,1087136], "
        "company_id: [1,234997,234997], company_type_id: [1,2,2]),\n"
        "movie_info_idx (movie_info_idx_id: [0,1380033,1380034], "
        "movie_id: [-1,2525449,459876])."
    )
    assert text.count(".") == 1


def test_serialize_stats_unknown_table(movie_catalog):
    with pytest.raises(CatalogError, match="unknown table"):
        serialize_stats(movie_catalog, ["nope"])


def test_serialize_stats_reparse_recovers_fields(movie_catalog):
    # Grammar-checker oracle: re-parse the emitted string and recover every
    # (table, column, min, max, distinct) tuple exactly.
    import re

    text = serialize_stats(movie_catalog, table_names(movie_catalog))
    assert text.endswith(".")
    recovered = {}
    for block in text[:-1].split(",\n"):
        m = re.fullmatch(r"(\w+) \((.*)\)", block)
        assert m, block
        name, cols = m.groups()
        entries = re.findall(r"(\w+): \[(-?\d+),(-?\d+),(\d+)\]", cols)
        recovered[name] = [(c, int(a), int(b), int(d)) for c, a, b, d in entries]
    expected = {
        name: [(c, s.min_value, s.max_value, s.distinct_count) for c, s in cols]
        for name, cols in movie_catalog.tables.items()
    }
    assert recovered == expected
