"""Helpers for soundcue's documents: JSON read with field-path
diagnostics, canonical JSON and block-formatted CSV written.

Every CSV soundcue writes formats its floats with `format_floats` and
joins them with `csv_block`, a block of `CSV_BLOCK_ROWS` rows at a time,
so one block's strings exist at once, not the whole table's.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import SchemaError

CSV_BLOCK_ROWS = 4096


def read_text(path, what: str = "document") -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError("", f"{what} {path} is not UTF-8 text: {exc}") from exc


def parse_json(text: str, what: str = "document") -> object:
    """The JSON value of `text`. Malformed JSON, an integer too long to
    convert and nesting too deep to decode are all bad input."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError("", f"{what} is not valid JSON: {exc}") from exc


def dump_json(obj) -> str:
    """Canonical rendering: sorted keys, 2-space indent, trailing newline.

    Floats go through repr (shortest round-trip form), so serialization is
    byte-deterministic and loads back to bit-identical values.
    """
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def as_array(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected an array, got {type(value).__name__}")
    return value


def as_string(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a string, got {type(value).__name__}")
    return value


def as_number(value, path: str) -> float:
    """A finite number: NaN and Infinity parse as JSON but are no valid field value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(path, f"expected a finite number, got {value}")
    return number


def as_integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    return value


def as_boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(path, f"expected a boolean, got {type(value).__name__}")
    return value


def get(obj: dict, key: str, path: str):
    """Fetch a required field; the error names the missing field's full path."""
    if key not in obj:
        raise SchemaError(f"{path}.{key}" if path else key, "missing required field")
    return obj[key]


def reject_unknown(obj: dict, known, path: str) -> None:
    for key in obj:
        if key not in known:
            raise SchemaError(f"{path}.{key}" if path else key, "unknown field")


def format_floats(values: np.ndarray) -> list[str]:
    """`repr` of each float64 in the one-dimensional `values`, the
    shortest string that reads back to the same float.

    `repr` is called once per distinct value: the values are told apart
    by their bits (the int64 view), so -0.0 stays apart from 0.0, and
    each value's string is gathered back by the inverse index.
    """
    _, first, inverse = np.unique(values.view(np.int64), return_index=True, return_inverse=True)
    texts = np.array([repr(v) for v in values[first].tolist()], dtype=object)
    return texts[inverse].tolist()


def csv_block(columns: Sequence[Sequence[str]]) -> str:
    """The CSV rows of one block, each ended by a newline, from each column's cells."""
    return "\n".join(map(",".join, zip(*columns))) + "\n"
