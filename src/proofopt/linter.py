"""Dead-tactic removal driven by the checker's unused-tactic diagnostics,
checked through the caller's VerdictMemo. A proof goes in and comes out
as a text: an edit deletes spans from the text's lines and rejoins them,
and a round that removes nothing returns the text it was given."""

from __future__ import annotations

import re

from .backends import VerdictMemo
from .errors import NotValidInput

_NOOP_DIAGNOSTIC = re.compile(r"'(?P<tactic>[^']+)' tactic does nothing")

COMBINATOR = "<;>"
MAX_ROUNDS = 10


def _delete_span(lines: list[str], line_no: int, column: int, tactic: str) -> bool:
    """Remove one flagged tactic occurrence in place.

    Also removes a combinator directly joining it to a neighbor, and drops
    the line entirely if nothing is left. Returns False when the reported
    position does not actually hold the tactic.
    """
    index = line_no - 1
    if index >= len(lines):
        return False
    text = lines[index]
    if text[column : column + len(tactic)] != tactic:
        return False
    left = text[:column]
    right = text[column + len(tactic) :]
    if left.rstrip().endswith(COMBINATOR):
        left = left.rstrip()[: -len(COMBINATOR)].rstrip() + " "
    elif right.lstrip().startswith(COMBINATOR):
        right = " " + right.lstrip()[len(COMBINATOR) :].lstrip()
    merged = (left + right).rstrip()
    if merged.strip():
        lines[index] = merged
    else:
        del lines[index]
    return True


def lint_once(source: str, memo: VerdictMemo) -> tuple[str, int]:
    """One lint round: collect do-nothing diagnostics and delete each span.
    Returns the edited text, or source itself when nothing was removed, and
    the count removed.

    The edited proof is not guaranteed valid; the fixpoint loop re-verifies.
    """
    verdict = memo.verify(source)
    if not verdict.ok:
        raise NotValidInput("proof does not verify before linting")
    spans = []
    for diag in verdict.diagnostics:
        m = _NOOP_DIAGNOSTIC.search(diag.message.partition("\n")[0])  # not in a goal below
        if m:
            spans.append((diag.line, diag.column, m.group("tactic")))
    # Delete right-to-left, bottom-to-top so earlier spans stay addressable.
    lines = source.splitlines()
    removed = sum(_delete_span(lines, *span) for span in sorted(spans, reverse=True))
    return ("\n".join(lines) if removed else source), removed


def lint_fixpoint(source: str, memo: VerdictMemo) -> str:
    """Repeat lint rounds until nothing is removed, at most MAX_ROUNDS.

    Each round makes one check: the check of a round's edit decides whether
    the edit is kept, and the next round's check of it is a memo hit. If a
    round's edits break the proof, that whole round is reverted and the loop
    stops, so the result always verifies.
    """
    for _ in range(MAX_ROUNDS):
        edited, removed = lint_once(source, memo)
        if removed == 0 or not memo.verify(edited).ok:
            break
        source = edited
    return source
