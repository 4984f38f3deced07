"""The one input reader: every format returns or names the path."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plangen.catalog import load_catalog, load_tables
from plangen.errors import PlangenError
from plangen.jsonl import InputError, read_jsonl, read_lines, read_text
from plangen.model import CHECKPOINT_FORMAT, load_model
from plangen.pipeline import PipelineConfig, read_workload
from plangen.workload import WorkloadError, load_join_graph

FILE_READERS = {
    "read_workload": read_workload,
    "load_catalog": load_catalog,
    "load_join_graph": load_join_graph,
    "PipelineConfig.from_file": PipelineConfig.from_file,
    "read_jsonl": lambda path: read_jsonl(path, {"query_id": str}),
    "load_model": load_model,
}


# Lines of every format, so generated files get past the first line.
SAMPLE_LINES = [
    "title|movie_id:0:59:60|kind_id:1:7:7",
    "cast_info|movie_id:0:59:41|role_id:1:11:11",
    "title.movie_id = cast_info.movie_id",
    "SELECT * FROM title, cast_info WHERE title.movie_id = cast_info.movie_id;",
    "workload_count = 12  # queries",
    "movie_id,kind_id",
    "0,1",
    '{"query_id": "q0001", "response": "x"}',
    f'{{"format": "{CHECKPOINT_FORMAT}", "n_contexts": 18446744073709551616, "vocab": ["<bos>", "<eos>", "<unk>"], '
    '"rows": [1], "logits": "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"}',
]
CONTENTS = (
    st.binary()
    | st.text().map(str.encode)
    | st.lists(
        st.sampled_from(SAMPLE_LINES) | st.text(alphabet="title.movie_id=|:,#0123456789-{}\"[] "),
        max_size=6,
    ).map(lambda lines: "\n".join(lines).encode())
)


def _returns_or_names(reader, path: Path, prefix: Path):
    try:
        reader(path)
    except PlangenError as exc:
        assert str(exc).startswith(str(prefix)), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    reader=st.sampled_from(sorted(FILE_READERS) + ["load_tables"]),
    content=CONTENTS | st.none(),
)
def test_every_reader_returns_or_raises_naming_the_path(reader, content):
    """``content`` None makes the input a directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tbl"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        if reader == "load_tables":
            _returns_or_names(load_tables, Path(tmp), Path(tmp))
        else:
            _returns_or_names(FILE_READERS[reader], path, path)


def test_read_lines_numbers_physical_lines_and_keeps_the_error_class(tmp_path):
    path = tmp_path / "joins.txt"
    path.write_text("\n# a comment\n\ntitle.movie_id = title.kind_id\n")
    with pytest.raises(WorkloadError, match=f"^{path}:4: self-join edge$"):
        load_join_graph(path)
    assert read_lines(path, lambda line: None if line.startswith("#") else line) == [
        "title.movie_id = title.kind_id"
    ]


def test_read_text_names_missing_files_directories_and_bad_bytes(tmp_path):
    with pytest.raises(InputError, match=f"^{tmp_path / 'nope'}: No such file"):
        read_text(tmp_path / "nope")
    with pytest.raises(InputError, match=f"^{tmp_path}: Is a directory"):
        read_text(tmp_path)
    path = tmp_path / "bad.sql"
    path.write_bytes(b"SELECT\r\n*\rFROM \xc3\x28\n")
    with pytest.raises(InputError, match=f"^{path}:3: not UTF-8 text$"):
        read_text(path)


def test_read_jsonl_names_json_nested_too_deep_for_the_parser(tmp_path):
    path = tmp_path / "deep.jsonl"
    path.write_text("{}\n" + "[" * 100_000 + "\n")
    with pytest.raises(InputError, match=f"^{path}:2: not valid JSON"):
        read_jsonl(path, {})
