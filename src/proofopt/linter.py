"""Dead-tactic removal driven by the checker's unused-tactic diagnostics."""

from __future__ import annotations

import re

from .backends import Verdict, Verifier
from .errors import NotValidInput
from .records import ProofRecord

_NOOP_DIAGNOSTIC = re.compile(r"'(?P<tactic>[^']+)' tactic does nothing")

COMBINATOR = "<;>"


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


def lint_once(
    record: ProofRecord, verifier: Verifier, verdict: Verdict | None = None
) -> tuple[ProofRecord, int]:
    """One lint round: collect do-nothing diagnostics and delete each span.

    ``verdict`` is the record's check, when the caller has already made it;
    otherwise the round makes that check. The edited proof is not guaranteed
    valid; the fixpoint loop re-verifies.
    """
    if verdict is None:
        verdict = verifier.verify(record.full_source)
    if not verdict.ok:
        raise NotValidInput(f"proof {record.id!r} does not verify before linting")
    spans = []
    for diag in verdict.diagnostics:
        m = _NOOP_DIAGNOSTIC.search(diag.message)
        if m:
            spans.append((diag.line, diag.column, m.group("tactic")))
    if not spans:
        return record, 0
    # Delete right-to-left, bottom-to-top so earlier spans stay addressable.
    spans.sort(reverse=True)
    lines = record.full_source.splitlines()
    removed = 0
    for line_no, column, tactic in spans:
        if _delete_span(lines, line_no, column, tactic):
            removed += 1
    edited = ProofRecord.from_source(
        "\n".join(lines), id=record.id, source_tag=record.source_tag
    )
    return edited, removed


def lint_fixpoint(record: ProofRecord, verifier: Verifier, max_rounds: int = 10) -> ProofRecord:
    """Repeat lint rounds until nothing is removed or the bound is hit.

    Each round makes one check: the check of a round's edit decides whether
    the edit is kept, and its diagnostics drive the next round. If a round's
    edits break the proof, that whole round is reverted and the loop stops,
    so the result always verifies.
    """
    current = record
    verdict = None
    for _ in range(max_rounds):
        edited, removed = lint_once(current, verifier, verdict)
        if removed == 0:
            break
        verdict = verifier.verify(edited.full_source)
        if not verdict.ok:
            break
        current = edited
    return current
