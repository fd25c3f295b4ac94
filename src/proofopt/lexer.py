"""Lean proof tokenizer and token-count metric.

The token count is the contract here: several downstream numbers depend on
this exact function, so the quirks below (greedy block-comment deletion,
operator merge order, empty lines counting one field) are deliberate and
must not be "fixed".
"""

from __future__ import annotations

import re

from .errors import NoProofDelimiter

# Multi-character operators merged back together after character-level
# splitting. The replacement happens on the space-joined line in this exact
# order, so earlier entries can shadow later ones (e.g. '..' before '...').
OPERATORS = (
    ":=", "!=", "&&", "-.", "->", "<-", "..", "...", "::", ":>",
    "<;>", ";;", "==", "||", "=>", "<=", ">=", "⁻¹", "?_",
)

_SPACED = tuple((" ".join(op), op) for op in OPERATORS)

# Characters that extend the current token (besides alphanumerics).
_TOKEN_CHARS = "_.'"

_BLOCK_COMMENT = re.compile(r" */-.*-/", re.DOTALL)
_LINE_COMMENT = re.compile(r" *--.*")

# Emitted by the CLI when the delimiter is missing, mirroring the checker
# pipeline's conventional failure value.
SENTINEL_LENGTH = 10**9


def strip_statement(text: str) -> str:
    """Drop the theorem statement, keeping the trimmed proof body.

    Splits at the first ':= by' if present, otherwise at the first ':='.
    """
    if ":= by" in text:
        return text.split(":= by", maxsplit=1)[1].strip()
    if ":=" in text:
        return text.split(":=", maxsplit=1)[1].strip()
    raise NoProofDelimiter("text contains neither ':= by' nor ':='")


def strip_comments(text: str) -> str:
    """Delete comments.

    Block comments are removed with a greedy match: everything from the
    first '/-' through the last '-/' goes, including any code in between.
    Line comments are then removed to end of line.
    """
    text = _BLOCK_COMMENT.sub("", text)
    return _LINE_COMMENT.sub("", text)


def lex(text: str) -> list[list[str]]:
    """Tokenize into lines of tokens.

    Alphanumerics plus ``_ . '`` accumulate into a token; a space flushes it;
    any other character flushes and is emitted on its own. Spaced spellings
    of the operator table are then merged, in table order, on the joined
    line. An empty line yields a single empty token.
    """
    lines: list[list[str]] = []
    for raw in text.splitlines():
        tokens: list[str] = []
        current = ""
        for ch in raw:
            if ch == " ":
                if current:
                    tokens.append(current)
                    current = ""
            elif ch.isalnum() or ch in _TOKEN_CHARS:
                current += ch
            else:
                if current:
                    tokens.append(current)
                    current = ""
                tokens.append(ch)
        if current:
            tokens.append(current)
        joined = " ".join(tokens)
        for spaced, compact in _SPACED:
            if spaced in joined:
                joined = joined.replace(spaced, compact)
        lines.append(joined.split(" "))
    return lines


def tokens(text: str) -> list[str]:
    """The tokens of text without its comments, in order, empty ones dropped."""
    return [token for line in lex(strip_comments(text)) for token in line if token]


def proof_length(statement_and_proof: str) -> int:
    """Token count of the proof body of a statement-plus-proof text.

    Raises NoProofDelimiter when no proof body can be located; callers that
    need the sentinel convention should catch it and use SENTINEL_LENGTH.
    """
    proof = strip_statement(statement_and_proof)
    proof = strip_comments(proof)
    # Counting goes through a join and re-split of the tokenized lines, which
    # drops trailing empty lines (e.g. from trailing comment-only lines).
    # That quirk is part of the metric.
    rendered = "\n".join(" ".join(line) for line in lex(proof))
    return sum(len(line.split(" ")) for line in rendered.splitlines())
