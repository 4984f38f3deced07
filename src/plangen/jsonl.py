"""JSON Lines artifacts: the one reader and writer every dataset goes through.

Records are written one sorted-key, ASCII-escaped JSON object per line with
a trailing newline, so equal records always give equal bytes. The reader
reports malformed input, a required field of the wrong type, and errors in
converting a row, as a PlangenError naming ``path:line``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from .errors import PlangenError


class JsonlError(PlangenError):
    pass


NUMBER = (int, float)


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    lines = [json.dumps(r, sort_keys=True, ensure_ascii=True) for r in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_jsonl(
    path: str | Path,
    fields: Mapping[str, type | tuple[type, ...]],
    convert: Callable[[dict], Any] = lambda row: row,
) -> list:
    """``convert`` of every non-blank line, a JSON object that holds at least
    ``fields``, each an instance of its type (``str`` or ``NUMBER``). A
    PlangenError that ``convert`` raises names the row's line."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JsonlError(f"{path}:{lineno}: not valid JSON ({exc.msg})") from None
        if not isinstance(row, dict):
            raise JsonlError(f"{path}:{lineno}: expected a JSON object")
        missing = [key for key in fields if key not in row]
        if missing:
            raise JsonlError(f"{path}:{lineno}: missing key {missing[0]!r}")
        wrong = [key for key, kind in fields.items() if not isinstance(row[key], kind)]
        if wrong:
            expected = "a string" if fields[wrong[0]] is str else "a number"
            raise JsonlError(
                f"{path}:{lineno}: {wrong[0]!r} must be {expected}, not {type(row[wrong[0]]).__name__}"
            )
        try:
            rows.append(convert(row))
        except PlangenError as exc:
            raise JsonlError(f"{path}:{lineno}: {exc}") from None
    return rows
