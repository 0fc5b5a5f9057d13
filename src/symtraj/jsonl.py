"""Line-delimited JSON helpers shared by the dataset and CLI modules."""

from __future__ import annotations

import json
import os
from pathlib import Path


# json.dumps builds a new encoder on every call unless called with defaults.
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


class FormatError(ValueError):
    """A JSONL file (or one of its records) is malformed."""


def read_jsonl(path, convert=None) -> list:
    """The records of a JSONL file, each passed through convert when given.

    A KeyError, AttributeError, TypeError or ValueError from convert (a
    missing key, or a value of the wrong type or out of range) becomes a
    FormatError naming the file and line.
    """
    records = []
    text = Path(path).read_text(encoding="utf-8")
    # Records end at "\n" only: write_jsonl leaves U+2028, U+2029 and U+0085
    # unescaped inside strings, and str.splitlines() would break at them.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise FormatError(f"{path}:{lineno}: expected an object, got {type(rec).__name__}")
        if convert is not None:
            try:
                rec = convert(rec)
            except KeyError as exc:
                raise FormatError(f"{path}:{lineno}: missing key {exc}") from exc
            except (AttributeError, TypeError, ValueError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
        records.append(rec)
    return records


def write_jsonl(path, records) -> None:
    """Write records as JSON lines, replacing the file only once all are written."""
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(_ENCODER.encode(rec))
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
