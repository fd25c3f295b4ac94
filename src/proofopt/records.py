"""Core record types passed between pipeline stages."""

from __future__ import annotations

import json
import re
import types
from dataclasses import asdict, dataclass
from enum import Enum

from .errors import MalformedInput


class Measure(str, Enum):
    """Complexity measure a proof is scored by."""

    TOKEN_LENGTH = "length"
    HEARTBEATS = "heartbeats"


PROOF_DELIMITER = ":= by"


@dataclass
class ProofRecord:
    """A theorem statement plus proof body, the unit of every pipeline.

    ``statement`` holds everything up to (but not including) the ``:= by``
    delimiter; ``proof`` holds the body after it.
    """

    id: str
    statement: str
    proof: str
    source_tag: str = ""

    @property
    def full_source(self) -> str:
        return f"{self.statement} {PROOF_DELIMITER}\n{self.proof}"

    @classmethod
    def from_source(cls, source: str, id: str = "", source_tag: str = "") -> "ProofRecord":
        """Split a statement-plus-proof text at the first ':= by'."""
        head, sep, tail = source.partition(PROOF_DELIMITER)
        if not sep:
            raise ValueError(f"record {id!r}: source has no '{PROOF_DELIMITER}' delimiter")
        return cls(id=id, statement=head.rstrip(), proof=tail.strip("\n"), source_tag=source_tag)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj) -> "ProofRecord":
        id = str(typed_field(obj, "id", (str, int), "proof record"))
        what = f"proof record {id!r}"
        return cls(
            id=id,
            statement=typed_field(obj, "statement", str, what),
            proof=typed_field(obj, "proof", str, what),
            source_tag=typed_field(obj, "source_tag", str, what, default=""),
        )


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


_REQUIRED = object()
_KIND_NAMES = {str: "a UTF-8 string", int: "an integer", float: "a number", bool: "true or false",
               list: "a list", dict: "a JSON object", type(None): "null"}


def _is_kind(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_is_kind(value, k) for k in kind)
    if isinstance(kind, types.GenericAlias):  # list[T]
        return isinstance(value, list) and all(_is_kind(v, kind.__args__[0]) for v in value)
    if kind is str:  # JSON decodes a lone surrogate escape, which UTF-8 cannot encode
        return isinstance(value, str) and not re.search("[\ud800-\udfff]", value)
    accepted = (int, float) if kind is float else kind
    return isinstance(value, accepted) and isinstance(value, bool) == (kind is bool)


def _kind_name(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(map(_kind_name, kind))
    if isinstance(kind, types.GenericAlias):
        return f"a list with each item {_kind_name(kind.__args__[0])}"
    return _KIND_NAMES[kind]


def typed_field(obj, key: str, kind, what: str, error=MalformedInput, default=_REQUIRED):
    """obj[key] if it is a JSON value of kind (str, int, float, bool, list,
    dict, type(None) for null, a tuple of them, or list[T]), default if key
    is absent; else raise error naming what, key and value. A bool is never
    a number, an int counts as a float, and nothing is coerced."""
    if not isinstance(obj, dict):
        raise error(f"{what} must be a JSON object, not {obj!r:.60}")
    if key not in obj:
        if default is _REQUIRED:
            raise error(f"{what} missing field {key!r}")
        return default
    value = obj[key]
    if not _is_kind(value, kind):
        raise error(f"{what} {key} must be {_kind_name(kind)}, not {value!r:.60}")
    return value


def write_jsonl(stream, objects) -> None:
    for obj in objects:
        stream.write(json.dumps(obj, ensure_ascii=False) + "\n")
