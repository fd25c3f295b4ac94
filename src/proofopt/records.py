"""Core record types passed between pipeline stages."""

from __future__ import annotations

import functools
import json
import math
import re
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from enum import Enum

from . import lexer
from .errors import MalformedInput


class Measure(str, Enum):
    """Complexity measure a proof is scored by."""

    TOKEN_LENGTH = "length"
    HEARTBEATS = "heartbeats"


PROOF_DELIMITER = ":= by"


def split_source(text: str) -> tuple[str, str] | None:
    """(head, tail) of text around its first ':= by', raw, when Lean reads
    that delimiter as code; None when text has none, or its first lies in a
    comment or a string. The one place a proof text's statement ends. The
    '--' appended before stripping tells code from an unclosed string:
    after code it is a comment and dropped, inside a string it is kept."""
    head, delimiter, tail = text.partition(PROOF_DELIMITER)
    if delimiter and lexer.strip_lean_comments(head + delimiter + "--").endswith(delimiter):
        return head, tail
    return None


@dataclass
class ProofRecord:
    """A theorem statement plus proof body, the unit of every pipeline.

    ``statement`` holds everything up to (but not including) the ``:= by``
    delimiter; ``proof`` holds the body after it. ``full_source`` starts the
    delimiter's own line when the statement's last line holds a ``--``
    comment, which would otherwise swallow it. A statement whose
    full_source split_source would split elsewhere (one holding ':= by', or
    a comment or string it does not close) is a ValueError.
    """

    id: str
    statement: str
    proof: str

    def __post_init__(self):
        split = split_source(self.full_source)
        if split is None or not split[0].startswith(self.statement):
            raise ValueError(
                f"statement {self.statement!r:.60} holds '{PROOF_DELIMITER}',"
                " or a comment or string it does not close"
            )

    @property
    def full_source(self) -> str:
        gap = "\n" if "--" in self.statement.rpartition("\n")[2] else " "
        return f"{self.statement}{gap}{PROOF_DELIMITER}\n{self.proof}"

    @classmethod
    def from_source(cls, source: str, id: str = "") -> "ProofRecord":
        """Split a statement-plus-proof text by split_source; a text that
        does not split is MalformedInput, a ValueError."""
        split = split_source(source)
        if split is None:
            raise MalformedInput(f"record {id!r}: source has no '{PROOF_DELIMITER}' delimiter")
        return cls(id=id, statement=split[0].rstrip(), proof=split[1].strip("\n"))


def read_jsonl(stream) -> list[dict]:
    """Parse a JSONL stream, skipping blank lines."""
    out = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"line {lineno}: malformed JSON ({exc})") from exc
    return out


_KIND_NAMES = {str: "a UTF-8 string", int: "an integer", float: "a number", bool: "true or false",
               list: "a list", dict: "a JSON object", type(None): "null"}


def _outer(kind):
    """The class of kind without its arguments: list for list[T], and dict
    for a dataclass, which a JSON object holds."""
    kind = typing.get_origin(kind) or kind
    return dict if is_dataclass(kind) else kind


def _is_kind(value, kind) -> bool:
    """Whether value, at its top level, is a JSON value of kind."""
    if isinstance(kind, types.UnionType):
        return any(_is_kind(value, k) for k in typing.get_args(kind))
    kind = _outer(kind)
    if issubclass(kind, Enum):
        return any(_is_kind(value, type(m.value)) and value == m.value for m in kind)
    if kind is str:  # JSON decodes a lone surrogate escape, which UTF-8 cannot encode
        return isinstance(value, str) and not re.search("[\ud800-\udfff]", value)
    if isinstance(value, float) and not math.isfinite(value):  # NaN, Infinity, 1e309
        return False
    accepted = (int, float) if kind is float else kind
    return isinstance(value, accepted) and isinstance(value, bool) == (kind is bool)


def _kind_name(kind) -> str:
    if isinstance(kind, types.UnionType):
        return " or ".join(map(_kind_name, typing.get_args(kind)))
    kind = _outer(kind)
    if issubclass(kind, Enum):
        return " or ".join(repr(m.value) for m in kind)
    return _KIND_NAMES[kind]


def _decode(value, kind, what: str, error, strict: bool):
    """value read as kind (see from_json), or raise error naming what and value."""
    if not _is_kind(value, kind):
        raise error(f"{what} must be {_kind_name(kind)}, not {value!r:.60}")
    if isinstance(kind, types.UnionType):
        kind = next(k for k in typing.get_args(kind) if _is_kind(value, k))
    args = typing.get_args(kind)
    if isinstance(value, list) and args:  # list[T]
        return [_decode(v, args[0], f"{what}[{i}]", error, strict) for i, v in enumerate(value)]
    if isinstance(value, dict) and args:  # dict[str, T]
        return {_decode(k, args[0], f"{what} key", error, strict):
                _decode(v, args[1], f"{what} {k}", error, strict) for k, v in value.items()}
    if is_dataclass(kind):
        return from_json(kind, value, what, error, strict)
    return kind(value) if issubclass(kind, Enum) else value


@functools.cache
def _fields(cls) -> tuple[tuple[str, object, bool], ...]:
    """(name, type hint, required) of each field of dataclass cls."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    )


def from_json(cls, obj, what: str, error=MalformedInput, strict=False, index=None):
    """The dataclass cls built from the JSON object obj, each field read at
    its type hint; raise error naming what for the first value that does not
    fit. A hint is str, int, float, bool, list, dict, X | None, list[T],
    dict[str, T], an Enum (read by value) or a dataclass (read by this
    function). Nothing is coerced: a bool is never a number, an int counts
    as a float, NaN and the infinities are no number, and a string holding
    a lone surrogate is not a string. A field with a default may be absent,
    and only the hint says what it may hold: ``bool = None`` is never null.
    A field named id, a string or an integer, is stored as a string and
    names the row in every later error, as ``what 'id'``; until then an
    error names it ``what index`` when an index is given. A ValueError or
    an error from ``__post_init__`` is raised as error too, named. With
    strict, a key that names no field is an error, at every level; without
    it, such keys are ignored."""
    name = what if index is None else f"{what} {index}"
    if not isinstance(obj, dict):
        raise error(f"{name} must be a JSON object, not {obj!r:.60}")
    spec = _fields(cls)
    if strict and (unknown := obj.keys() - {key for key, _, _ in spec}):
        raise error(f"{name} has unknown keys: {sorted(unknown)}")
    values = {}
    for key, hint, required in spec:
        if key == "id" and key in obj:
            values[key] = str(_decode(obj[key], str | int, f"{name} id", error, strict))
            name = f"{what} {values[key]!r}"
        elif key in obj:
            values[key] = _decode(obj[key], hint, f"{name} {key}", error, strict)
        elif required:
            raise error(f"{name} missing field {key!r}")
    try:
        return cls(**values)
    except (ValueError, error) as exc:
        raise error(f"{name}: {exc}") from None


def write_jsonl(stream, objects) -> None:
    """Write each object as one JSON line, a dataclass at any depth as asdict
    gives it: the one row serialiser, whose lines from_json reads back."""
    for obj in objects:
        stream.write(json.dumps(obj, ensure_ascii=False, default=asdict) + "\n")
