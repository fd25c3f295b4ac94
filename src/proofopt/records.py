"""Core record types passed between pipeline stages."""

from __future__ import annotations

import json
from dataclasses import dataclass
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
        return {
            "id": self.id,
            "statement": self.statement,
            "proof": self.proof,
            "source_tag": self.source_tag,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ProofRecord":
        try:
            return cls(
                id=str(obj["id"]),
                statement=obj["statement"],
                proof=obj["proof"],
                source_tag=obj.get("source_tag", ""),
            )
        except (KeyError, TypeError) as exc:
            raise MalformedInput(f"bad proof record {str(obj)[:60]} ({exc!r})") from None


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


def write_jsonl(stream, objects) -> None:
    for obj in objects:
        stream.write(json.dumps(obj, ensure_ascii=False) + "\n")
