"""The one reader every input file goes through, and the JSON Lines writer.

Each format is a converter that ``read_text`` applies to a whole file or
``read_lines`` to each non-blank line; a fault reads ``path: message`` or
``path:line: message``. Records are written one sorted-key, ASCII-escaped
JSON object per line, so equal records give equal bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from .errors import PlangenError


class InputError(PlangenError):
    pass


NUMBER = (int, float)
_KINDS = {str: "a string", NUMBER: "a number", list: "a list", dict: "an object"}


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    lines = [json.dumps(r, sort_keys=True, ensure_ascii=True) for r in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def located(exc: PlangenError, where) -> PlangenError:
    """``exc``, its class kept, with ``where: `` in front of its message."""
    exc.args = (f"{where}: {exc}",)
    return exc


def read_text(path: str | Path, convert: Callable[[str], Any] = str):
    """``convert`` of the file's text. A missing file, a directory, bytes that
    are not UTF-8 and a PlangenError from ``convert`` all name the path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        line = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        raise InputError(f"{path}:{line}: not UTF-8 text") from None
    try:
        return convert(text)
    except PlangenError as exc:
        raise located(exc, path) from None


def read_lines(path: str | Path, convert: Callable[[str], Any]) -> list:
    """``convert`` of every non-blank line; a None result (a comment) is left out."""
    values = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            value = convert(line)
        except PlangenError as exc:
            raise located(exc, f"{path}:{lineno}") from None
        if value is not None:
            values.append(value)
    return values


def _json_object(text: str, fields: Mapping = {}) -> dict:
    """The JSON object in ``text``, holding ``fields`` of their types."""
    try:
        row = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a too long number or too deep nesting
        raise InputError(f"not valid JSON ({getattr(exc, 'msg', exc)})") from None
    if not isinstance(row, dict):
        raise InputError("not a JSON object")
    return require_fields(row, fields)


def require_fields(row: dict, fields: Mapping) -> dict:
    """``row``, if it holds ``fields`` of their types."""
    missing = [key for key in fields if key not in row]
    if missing:
        raise InputError(f"missing key {missing[0]!r}")
    wrong = [key for key, kind in fields.items() if not isinstance(row[key], kind)]
    if wrong:
        expected = _KINDS[fields[wrong[0]]]
        raise InputError(f"{wrong[0]!r} must be {expected}, not {type(row[wrong[0]]).__name__}")
    return row


def read_json(path: str | Path, fields: Mapping = {}, convert: Callable = lambda row: row):
    """``convert`` of a file holding one JSON object, such as a checkpoint."""
    return read_text(path, lambda text: convert(_json_object(text, fields)))


def read_jsonl(path: str | Path, fields: Mapping, convert: Callable = lambda row: row) -> list:
    """``convert`` of the JSON object on every non-blank line."""
    return read_lines(path, lambda line: convert(_json_object(line, fields)))
