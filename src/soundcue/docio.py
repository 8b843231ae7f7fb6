"""Helpers for soundcue's documents: JSON read with field-path
diagnostics, canonical JSON and block-formatted CSV written.

Every parser (manifest, timeline, scene, plan) reads each JSON object
through one `Fields` reader: each field is named once, in its read, with
an `as_*` checker and an optional default. The reader builds every field
path from its parent path and the key (`objects[0].track_id`; a root key
is just `track_id`), and rejects the keys nobody read as unknown fields
when the object's `with` block ends. `array_of` gives an array's items
their index paths (`tracks[0]`), and `nullable` lets a field be null.

Every CSV soundcue writes formats its floats with `format_floats` and
joins them with `csv_block`, a block of `CSV_BLOCK_ROWS` rows at a time,
so in each process that writes it one block's strings exist at once, not
the whole table's.
"""

from __future__ import annotations

import functools
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


def as_file_name(value, path: str) -> str:
    """A string that can name a file inside an output directory: not empty,
    not `.` or `..`, and holding no `/`, `\\` or NUL."""
    name = as_string(value, path)
    if name in ("", ".", "..") or any(c in name for c in "/\\\x00"):
        raise SchemaError(path, f"{name!r} cannot name a file: it is empty, . or .., or holds a /, \\ or NUL")
    return name


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


_REQUIRED = object()


class Fields:
    """The field reader of one JSON object (see the module docstring).

    `read(key, check, default)` reads a field with a checker
    `check(value, path)`; without a `default` an absent key is a missing
    required field. `enum` reads a string field as an Enum member, and
    `at(key)` is the key's field path. Leaving the `with` block without
    an error rejects the first key never read as an unknown field.
    """

    __slots__ = ("obj", "path", "_prefix", "_asked")

    def __init__(self, value, path: str = ""):
        self.obj = value if isinstance(value, dict) else as_object(value, path)
        self.path = path
        self._prefix = f"{path}." if path else ""
        self._asked = set()

    def __enter__(self) -> "Fields":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._asked.issuperset(self.obj):
            key = next(k for k in self.obj if k not in self._asked)
            # a key that is no name (empty, dotted...) is quoted like a map key
            raise SchemaError(self.at(key) if key.isidentifier() else f"{self.path}[{key!r}]", "unknown field")

    def at(self, key: str) -> str:
        return self._prefix + key

    def read(self, key: str, check, default=_REQUIRED):
        self._asked.add(key)
        if key in self.obj:
            return check(self.obj[key], self._prefix + key)
        if default is _REQUIRED:
            raise SchemaError(self.at(key), "missing required field")
        return default

    def enum(self, key: str, enum_type, what: str, default=_REQUIRED):
        """The member of `enum_type` whose value the string field holds; `what` names the enum in errors."""
        name = self.read(key, as_string, _REQUIRED if default is _REQUIRED else default.value)
        member = _members(enum_type).get(name)
        if member is None:
            raise SchemaError(self.at(key), f"unknown {what} {name!r}")
        return member


@functools.cache
def _members(enum_type) -> dict:
    """Each member of `enum_type` by its value: a lookup, not the slower `enum_type(value)`."""
    return {member.value: member for member in enum_type}


def nullable(check):
    """A checker that reads null as None and any other value with `check`."""

    def check_nullable(value, path: str):
        return None if value is None else check(value, path)

    return check_nullable


def array_of(check):
    """A checker for an array whose items each pass `check`, at their index paths."""

    def check_array(value, path: str) -> list:
        return [check(item, f"{path}[{i}]") for i, item in enumerate(as_array(value, path))]

    return check_array


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
