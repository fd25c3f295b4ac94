"""Iterative best-of-k proof shortening.

Each iteration samples k candidate rewrites, verifies them, and adopts one
by a single acceptance rule (``_adopt``): the lowest-scored ``admissible``
entry that strictly beats the current score. A repair stage can kick in
after an iteration where nothing verified; repaired proofs are linted,
best-first, and judged by the same rule, since repairs tend to come back longer than what
they replace. Within one proof's loop every check goes through a
VerdictMemo, so a text with a valid or invalid verdict is not sent to the
checker again.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .backends import (
    CandidateResult,
    Repairer,
    Simplifier,
    VerdictMemo,
    VerdictStatus,
    Verifier,
    admissible,
    format_error_report,
)
from .linter import lint_fixpoint, lint_once
from .records import Measure, ProofRecord, split_source

REPAIR_REPORT_LIMIT = 6000
SKIPPED_NOTE = "skipped: input does not verify"


@dataclass
class RepairEntry:
    """One fix of a repair stage, as its trace records it. linted_score is
    the fix's score after linting, or its bound when it was not linted, and
    None for a fix that is not admissible."""

    status: VerdictStatus
    score: int | None = None
    linted_score: int | None = None


@dataclass
class RepairStage:
    attempted: int = 0
    valid: int = 0
    truncated_reports: int = 0
    candidates: list[RepairEntry] = field(default_factory=list)
    adopted: int | None = None


@dataclass
class IterationRecord:
    index: int
    k_requested: int
    temperature: float
    candidates: list[CandidateResult]
    adopted: int | None
    score_before: int
    score_after: int
    source_after: str
    note: str = ""
    repair: RepairStage | None = None


def map_in_order(fn, items: list, width: int) -> list:
    """fn over items on a pool of width threads, never more than there are
    items, with the results in input order. No items start no pool."""
    if not items:
        return []
    with ThreadPoolExecutor(max_workers=min(width, len(items))) as pool:
        return list(pool.map(fn, items))


def _adopt(best_score: int, entries: list[CandidateResult], statement: str) -> int | None:
    """The acceptance rule: the index of the lowest-scored admissible entry
    scoring strictly below best_score, the lowest index among ties; or None."""
    adopted = None
    for i, entry in enumerate(entries):
        if admissible(entry, statement) and entry.score < best_score:
            best_score, adopted = entry.score, i
    return adopted


def _adopt_into(
    itrec: IterationRecord, entries: list[CandidateResult], statement: str
) -> int | None:
    """Apply the acceptance rule against itrec's incumbent, a proof of
    statement still in its source_after: the winner's score and text, the
    text its check saw, become itrec's score_after and source_after.
    Returns its index, or None."""
    adopted = _adopt(itrec.score_after, entries, statement)
    if adopted is not None:
        winner = entries[adopted]
        itrec.score_after, itrec.source_after = winner.score, winner.text
    return adopted


def shorten_iteration(
    source: str,
    statement: str,
    k: int,
    simplifier: Simplifier,
    memo: VerdictMemo,
    temperature: float,
    index: int,
) -> IterationRecord:
    """One best-of-k round from source, an incumbent proof of statement.
    Every check and score goes through the proof's memo, which carries the
    measure, and each candidate is stored as its check came back. The
    round's source_after is source unless a candidate passes the acceptance
    rule; a source without a score is skipped, with score 0."""
    score = memo.check(source).score
    itrec = IterationRecord(
        index=index,
        k_requested=k,
        temperature=temperature,
        candidates=[],
        adopted=None,
        score_before=score or 0,
        score_after=score or 0,
        source_after=source,
    )
    if score is None:
        itrec.note = SKIPPED_NOTE
        return itrec
    raw = simplifier.simplify(source, k, temperature=temperature)
    # Identical candidate texts are verified once, and share one result;
    # @k accounting still uses the requested k.
    unique = list(dict.fromkeys(raw))
    checked = dict(zip(unique, memo.check_all(unique)))
    itrec.candidates = [checked[text] for text in raw]
    itrec.adopted = _adopt_into(itrec, itrec.candidates, statement)
    return itrec


def _repair_stage(
    statement: str,
    itrec: IterationRecord,
    repairer: Repairer,
    memo: VerdictMemo,
    budget: int,
) -> RepairStage:
    """Repair the failed candidates of itrec, an iteration of a proof of
    statement, as proofs of statement, and adopt a fix into itrec by the
    acceptance rule. Returns the stage's record.

    Failed texts are repaired on the repairer's pool and their fixes checked
    on the verifier's; results are folded in input order, so the stage's
    record does not depend on which call finished first.

    A fix is judged by the acceptance rule on its linted text and score, and
    only the lowest can win, so fixes are linted best-first. An admissible
    fix's bound is the memo's score_bound of its first lint round's edit,
    which needs no check beyond the fix's own. An unlinted fix stands in
    with its bound as its score; while the rule's winner is one, the fixes
    of its bound are linted to their fixpoint together. An unlinted fix is
    never adopted, and its ``linted_score`` is its bound. This adopts what
    linting every fix would whenever each lint reaches its fixpoint in one
    round; a first edit that the rule refuses reverts to the fix, which
    scores at least the bound. Lean's unused-tactic linter reports every
    unused tactic of a declaration at once, so a second round needs a
    removal that leaves another tactic unused. Under heartbeats every bound
    is 0, and every fix is linted in one batch, on the verifier's pool."""

    def request(text: str, status: VerdictStatus) -> tuple[str, str]:
        """The failed proof of a failed text, and its error report."""
        # The memo keeps an invalid text's verdict, so its diagnostics cost no
        # check; a timeout or a crash was dropped and is not checked again.
        diagnostics = ()
        if status is VerdictStatus.INVALID:
            diagnostics = memo.verify(text).diagnostics
        split = split_source(text)
        failed_proof = split[1].strip("\n") if split else text
        return failed_proof, format_error_report(text, diagnostics) or "proof failed to verify"

    def bound(fix: CandidateResult) -> int | None:
        if not admissible(fix, statement):
            return None
        # the fix's own check was its first lint round's, so this is a memo hit
        return memo.score_bound(lint_once(fix.text, memo)[0])

    # A text sampled more than once is repaired once, in first-seen order.
    failed = [(c.text, c.status) for c in itrec.candidates if c.status is not VerdictStatus.VALID]
    requests = [request(*entry) for entry in list(dict.fromkeys(failed))[:budget]]
    repaired = repairer.map(
        lambda req: repairer.repair(statement, req[0], req[1][:REPAIR_REPORT_LIMIT]), requests
    )
    checked = memo.check_all([fix for fixes in repaired for fix in fixes])
    # until it is linted, a fix stands in at its bound
    fixes = [replace(fix, score=bound(fix)) for fix in checked]
    unlinted = [i for i, fix in enumerate(fixes) if fix.score is not None]
    while (winner := _adopt(itrec.score_after, fixes, statement)) in unlinted:
        batch = [i for i in unlinted if fixes[i].score == fixes[winner].score]
        unlinted = [i for i in unlinted if i not in batch]
        linted = memo.verifier.map(lambda i: lint_fixpoint(fixes[i].text, memo, statement), batch)
        for i, fix in zip(batch, linted):
            fixes[i] = fix
    return RepairStage(
        attempted=len(checked),
        valid=sum(c.status is VerdictStatus.VALID for c in checked),
        truncated_reports=sum(len(report) > REPAIR_REPORT_LIMIT for _, report in requests),
        candidates=[RepairEntry(c.status, c.score, f.score) for c, f in zip(checked, fixes)],
        adopted=_adopt_into(itrec, fixes, statement),
    )


def shorten_loop(
    record: ProofRecord,
    schedule: list[tuple[int, float]],
    simplifier: Simplifier,
    verifier: Verifier,
    measure: Measure = Measure.TOKEN_LENGTH,
    repairer: Repairer | None = None,
    repair_budget: int = 4,
    on_iteration=None,
    resume_from: list[IterationRecord] | None = None,
) -> list[IterationRecord]:
    """Run the whole shortening schedule for one proof; returns its
    iterations, the resumed ones first.

    ``schedule`` is a list of (k, temperature) pairs. ``on_iteration`` is
    called with each finished IterationRecord, which is how partial traces
    get persisted. ``resume_from`` holds iterations already finished, kept
    as they are. Every iteration starts from the last source_after, the text
    its check saw, or from the input's text for the first, so a resumed run
    goes on as an uninterrupted one. The loop builds one VerdictMemo for this
    proof, which carries the measure: every check and score below goes
    through it. A proof whose every iteration so far was skipped never
    verified: each later iteration is written as skipped, as its row was,
    without a check. After a proof has verified, a skipped iteration (its
    incumbent's check timed out or crashed) is checked again at the next.
    """
    if not schedule:
        raise ValueError("schedule must be nonempty")
    memo = VerdictMemo(verifier, measure)
    iterations = list(resume_from or [])
    for index in range(len(iterations), len(schedule)):
        k, temperature = schedule[index]
        if iterations and all(itrec.note == SKIPPED_NOTE for itrec in iterations):
            itrec = replace(iterations[-1], index=index, k_requested=k, temperature=temperature)
        else:
            source = iterations[-1].source_after if iterations else record.full_source
            itrec = shorten_iteration(
                source, record.statement, k, simplifier, memo, temperature, index
            )
        no_valid = itrec.candidates and all(
            c.status is not VerdictStatus.VALID for c in itrec.candidates
        )
        if repairer is not None and no_valid:
            itrec.repair = _repair_stage(record.statement, itrec, repairer, memo, repair_budget)
        iterations.append(itrec)
        if on_iteration is not None:
            on_iteration(itrec)
    return iterations
