"""Dead-tactic removal driven by the checker's unused-tactic diagnostics,
checked through the caller's VerdictMemo and kept by backends.admissible.
A proof goes in and comes out as a text: an edit deletes spans from its
body's lines and rejoins them, and a round that removes nothing returns
the text it was given."""

from __future__ import annotations

import re

from .backends import VerdictMemo, admissible
from .records import split_source

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
    the count removed. A round never edits a statement: it ignores each
    diagnostic before split_source's delimiter, and returns a text that
    split_source refuses unchecked. The fixpoint loop judges the edit.
    """
    if (split := split_source(source)) is None:
        return source, 0
    *above, last = split[0].split("\n")  # the delimiter is at (len(above) + 1, len(last))
    spans = []
    for diag in memo.verify(source).diagnostics:
        m = _NOOP_DIAGNOSTIC.search(diag.message.partition("\n")[0])  # not in a goal below
        if m and (diag.line, diag.column) >= (len(above) + 1, len(last)):
            spans.append((diag.line, diag.column, m.group("tactic")))
    # Delete right-to-left, bottom-to-top so earlier spans stay addressable.
    lines = source.splitlines()
    removed = sum(_delete_span(lines, *span) for span in sorted(spans, reverse=True))
    return ("\n".join(lines) if removed else source), removed


def lint_fixpoint(source: str, memo: VerdictMemo, statement: str) -> str:
    """Repeat lint rounds until nothing is removed, at most MAX_ROUNDS.

    A source that is not admissible against statement is returned as it is.
    Each round makes one check: the rule's answer on a round's edit decides
    whether the edit is kept, and the next round's check of it is a memo
    hit. A round whose edit the rule refuses is reverted whole and the loop
    stops, so the result is admissible whenever the source is.
    """
    if not admissible(memo.check(source), statement):
        return source
    for _ in range(MAX_ROUNDS):
        edited, removed = lint_once(source, memo)
        if removed == 0 or not admissible(memo.check(edited), statement):
            break
        source = edited
    return source
