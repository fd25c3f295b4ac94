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

# lex's token: a str pattern's \w is str.isalnum() plus _, at every code point.
_TOKEN = re.compile(r"[\w.']+|[^ ]")

_BLOCK_COMMENT = re.compile(r" */-.*-/", re.DOTALL)
_LINE_COMMENT = re.compile(r" *--.*")

# The pieces of a text as Lean reads it: outside a comment a char literal
# (a ' that follows no identifier character), a string literal, a raw string
# (an r that follows none, then n #s and a ", closed by a " and n #s), a
# «»-quoted name, a line comment, a block comment's opening, or a run of
# other text, where an unclosed string, raw string or name runs to the end of
# the text; inside a block comment an opening, a closing, or a run of other text.
_LEAN_CODE = re.compile(
    r"""(?<![\w'])'(?:\\.|[^\\])'|"(?:\\.|[^"\\])*"?|(?<![\w'])r(#*)"(?:.*?"\1|.*)|«[^»]*»?"""
    r"""|--[^\n]*|/-|(?:[^"'/r«-]+|r(?![#"]))+|.""", re.DOTALL
)
_LEAN_COMMENT = re.compile(r"/-|-/|[^/-]+|.", re.DOTALL)

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


def strip_lean_comments(text: str) -> str:
    """Blank comments as Lean reads them, which is not the metric's rule
    (strip_comments): block comments nest, a line comment runs to the end of
    its line, and a string or char literal holds no comment."""
    kept, depth, at = [], 0, 0
    while at < len(text):
        piece = (_LEAN_COMMENT if depth else _LEAN_CODE).match(text, at).group()
        at += len(piece)
        if depth or piece == "/-":
            depth += (piece == "/-") - (piece == "-/")
            piece = " "
        kept.append("" if piece.startswith("--") else piece)
    return "".join(kept)


def lex(text: str) -> list[list[str]]:
    """Tokenize into lines of tokens.

    A line's tokens are the matches of _TOKEN: a run of alphanumerics and
    ``_ . '``, or any one other character but a space. Spaced spellings
    of the operator table are then merged, in table order, on the joined
    line. An empty line yields a single empty token.
    """
    lines: list[list[str]] = []
    for raw in text.splitlines():
        joined = " ".join(_TOKEN.findall(raw))
        for spaced, compact in _SPACED:
            if spaced in joined:
                joined = joined.replace(spaced, compact)
        lines.append(joined.split(" "))
    return lines


def tokens(text: str, lean: bool = False) -> list[str]:
    """The tokens of text without its comments, in order, empty ones dropped:
    the comments strip_comments deletes, or with lean those Lean reads."""
    text = strip_lean_comments(text) if lean else strip_comments(text)
    return [token for line in lex(text) for token in line if token]


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
