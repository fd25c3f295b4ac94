"""Iterative best-of-k proof shortening.

Each iteration samples k candidate rewrites, verifies them, and adopts the
shortest valid one that strictly beats the current score. A repair stage can
kick in after an iteration where nothing verified; repaired proofs are
linted and adopted only if strictly shorter, since repairs tend to come
back longer than what they replace. Within one proof's loop every check goes
through a VerdictMemo, so a text with a valid or invalid verdict is not sent
to the checker again.
"""

from __future__ import annotations

import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

from . import lexer
from .backends import (
    Repairer,
    Simplifier,
    Verdict,
    VerdictStatus,
    Verifier,
    format_error_report,
    truncate_error_report,
)
from .errors import ParseFailure
from .linter import lint_fixpoint
from .records import Measure, ProofRecord

REPAIR_REPORT_LIMIT = 6000


@dataclass
class CandidateResult:
    text: str
    status: VerdictStatus
    score: int | None = None


@dataclass
class RepairStage:
    attempted: int = 0
    valid: int = 0
    truncated_reports: int = 0
    candidates: list[dict] = field(default_factory=list)
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

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class ShorteningTrace:
    proof_id: str
    measure: str
    iterations: list[IterationRecord] = field(default_factory=list)

    @property
    def final_source(self) -> str | None:
        return self.iterations[-1].source_after if self.iterations else None

    def to_json(self) -> dict:
        return {
            "proof_id": self.proof_id,
            "measure": self.measure,
            "iterations": [it.to_json() for it in self.iterations],
        }


def iteration_from_json(obj: dict) -> IterationRecord:
    """Rebuild a persisted iteration record (inverse of to_json)."""
    repair = obj.get("repair")
    stage = None
    if repair is not None:
        stage = RepairStage(
            attempted=repair["attempted"],
            valid=repair["valid"],
            truncated_reports=repair.get("truncated_reports", 0),
            candidates=list(repair.get("candidates", [])),
            adopted=repair.get("adopted"),
        )
    return IterationRecord(
        index=obj["index"],
        k_requested=obj["k_requested"],
        temperature=obj["temperature"],
        candidates=[
            CandidateResult(c["text"], VerdictStatus(c["status"]), c.get("score"))
            for c in obj["candidates"]
        ],
        adopted=obj.get("adopted"),
        score_before=obj["score_before"],
        score_after=obj["score_after"],
        source_after=obj["source_after"],
        note=obj.get("note", ""),
        repair=stage,
    )


class VerdictMemo:
    """Remembers the conclusive verdicts of the checks made for one proof.

    It stands in front of a Verifier, asks for heartbeats on every check or
    on none, as the measure needs, and keys on the source alone. Only VALID
    and INVALID verdicts are kept, so a timeout or crash is checked again
    when next asked for. A hit neither calls the verifier nor takes one of
    its admission slots. Every proof has its own statement, so checks never
    repeat across proofs and one memo per proof needs no size limit.
    """

    def __init__(self, verifier: Verifier, measure: Measure = Measure.TOKEN_LENGTH):
        self.verifier = verifier
        self.cfg = verifier.cfg
        self.want_heartbeats = measure is Measure.HEARTBEATS
        self._lock = threading.Lock()
        self._verdicts: dict[str, Verdict] = {}

    def verify(self, source: str) -> Verdict:
        with self._lock:
            verdict = self._verdicts.get(source)
        if verdict is None:
            verdict = self.verifier.verify(source, self.want_heartbeats)
            if verdict.status in (VerdictStatus.VALID, VerdictStatus.INVALID):
                with self._lock:
                    self._verdicts[source] = verdict
        return verdict


def _memo(verifier: Verifier | VerdictMemo, measure: Measure) -> VerdictMemo:
    if isinstance(verifier, VerdictMemo):
        return verifier
    return VerdictMemo(verifier, measure)


def _check(text: str, memo: VerdictMemo, measure: Measure) -> tuple[Verdict, int | None]:
    """Verdict and score of a statement-plus-proof under the measure."""
    verdict = memo.verify(text)
    if measure is Measure.TOKEN_LENGTH:
        return verdict, lexer.proof_length(text)
    return verdict, verdict.heartbeats


def _verify_candidates(
    candidates: list[str], verifier: VerdictMemo, measure: Measure
) -> list[tuple[Verdict, int | None]]:
    def check(text: str) -> tuple[Verdict, int | None]:
        verdict, score = _check(text, verifier, measure)
        return verdict, score if verdict.ok else None

    if not candidates:
        return []
    with ThreadPoolExecutor(max_workers=max(1, verifier.cfg.max_parallel)) as pool:
        return list(pool.map(check, candidates))


def shorten_iteration(
    record: ProofRecord,
    k: int,
    simplifier: Simplifier,
    verifier: Verifier,
    measure: Measure = Measure.TOKEN_LENGTH,
    temperature: float | None = None,
    index: int = 0,
    context: str = "",
) -> tuple[ProofRecord, IterationRecord]:
    """One best-of-k round. Keeps the input record untouched unless a valid
    candidate scores strictly below it."""
    if temperature is None:
        temperature = simplifier.cfg.temperature
    verifier = _memo(verifier, measure)
    verdict, score_before = _check(record.full_source, verifier, measure)
    if score_before is None or not verdict.ok:
        itrec = IterationRecord(
            index=index,
            k_requested=k,
            temperature=temperature,
            candidates=[],
            adopted=None,
            score_before=score_before or 0,
            score_after=score_before or 0,
            source_after=record.full_source,
            note="skipped: input does not verify",
        )
        return record, itrec

    raw = simplifier.simplify(record.full_source, k, temperature=temperature, context=context)
    # Identical candidate texts are verified once; @k accounting still uses
    # the requested k.
    seen: dict[str, int] = {}
    unique: list[str] = []
    for text in raw:
        if text not in seen:
            seen[text] = len(unique)
            unique.append(text)
    checked = _verify_candidates(unique, verifier, measure)

    results = []
    for text in raw:
        verdict, score = checked[seen[text]]
        results.append(CandidateResult(text=text, status=verdict.status, score=score))

    adopted = None
    best_score = score_before
    for i, cand in enumerate(results):
        if cand.status is VerdictStatus.VALID and cand.score is not None:
            if cand.score < best_score:
                best_score = cand.score
                adopted = i

    if adopted is None:
        after = record
        score_after = score_before
    else:
        after = ProofRecord.from_source(
            results[adopted].text, id=record.id, source_tag=record.source_tag
        )
        score_after = results[adopted].score

    itrec = IterationRecord(
        index=index,
        k_requested=k,
        temperature=temperature,
        candidates=results,
        adopted=adopted,
        score_before=score_before,
        score_after=score_after,
        source_after=after.full_source,
    )
    return after, itrec


def _repair_stage(
    record: ProofRecord,
    current_score: int,
    itrec: IterationRecord,
    repairer: Repairer,
    verifier: VerdictMemo,
    measure: Measure,
    budget: int,
) -> tuple[ProofRecord, int, RepairStage]:
    """Repair the iteration's failed candidates. Returns the record to carry
    on with, its score and the stage's record."""
    stage = RepairStage()
    best = record
    best_score = current_score
    # A text sampled more than once is repaired once, in first-seen order.
    failed = list(
        dict.fromkeys(c.text for c in itrec.candidates if c.status is not VerdictStatus.VALID)
    )
    for text in failed[:budget]:
        # the candidate's own check, asked for again to get its diagnostics
        verdict, _ = _check(text, verifier, measure)
        report = format_error_report(text, verdict.diagnostics) or "proof failed to verify"
        report, truncated = truncate_error_report(report, REPAIR_REPORT_LIMIT)
        stage.truncated_reports += int(truncated)
        try:
            failed_record = ProofRecord.from_source(text, id=record.id)
            statement, failed_proof = failed_record.statement, failed_record.proof
        except ValueError:
            statement, failed_proof = record.statement, text
        fixes = repairer.repair(statement, failed_proof, report)
        for fix in fixes:
            stage.attempted += 1
            # this check is also the first lint round's
            fix_verdict, raw_score = _check(fix, verifier, measure)
            entry = {"status": fix_verdict.status.value, "score": None, "linted_score": None}
            if fix_verdict.ok:
                stage.valid += 1
                entry["score"] = raw_score
                linted = lint_fixpoint(ProofRecord.from_source(fix, id=record.id), verifier)
                _, linted_score = _check(linted.full_source, verifier, measure)
                entry["linted_score"] = linted_score
                if linted_score is not None and linted_score < best_score:
                    best = linted
                    best_score = linted_score
                    stage.adopted = stage.attempted - 1
            stage.candidates.append(entry)
    return best, best_score, stage


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
    context: str = "",
) -> ShorteningTrace:
    """Run the whole shortening schedule for one proof.

    ``schedule`` is a list of (k, temperature) pairs. ``on_iteration`` is
    called with each finished IterationRecord, which is how partial traces
    get persisted. ``resume_from`` replays already-finished iterations
    instead of recomputing them. Every check goes through one VerdictMemo
    for this proof.
    """
    if not schedule:
        raise ValueError("schedule must be nonempty")
    verifier = _memo(verifier, measure)
    trace = ShorteningTrace(proof_id=record.id, measure=measure.value)
    current = record
    done = 0
    if resume_from:
        trace.iterations.extend(resume_from)
        done = len(resume_from)
        last = resume_from[-1]
        current = ProofRecord.from_source(
            last.source_after, id=record.id, source_tag=record.source_tag
        )
    for index, (k, temperature) in enumerate(schedule):
        if index < done:
            continue
        current, itrec = shorten_iteration(
            current,
            k,
            simplifier,
            verifier,
            measure,
            temperature=temperature,
            index=index,
            context=context,
        )
        no_valid = itrec.candidates and all(
            c.status is not VerdictStatus.VALID for c in itrec.candidates
        )
        if repairer is not None and no_valid:
            current, itrec.score_after, itrec.repair = _repair_stage(
                current, itrec.score_after, itrec, repairer, verifier, measure, repair_budget
            )
            itrec.source_after = current.full_source
        trace.iterations.append(itrec)
        if on_iteration is not None:
            on_iteration(itrec)
    return trace


# --- file-level decomposition -------------------------------------------------

_DECLARATION = re.compile(r"^(theorem|lemma)\s+(\S+)", re.MULTILINE)


@dataclass
class DecompositionUnit:
    name: str
    text: str  # full declaration text, statement and proof
    depends_on: list[str] = field(default_factory=list)


@dataclass
class DecompositionPlan:
    header: str  # imports, options, macros before the first declaration
    units: list[DecompositionUnit]

    def reassemble(self, replacements: dict[str, str] | None = None) -> str:
        replacements = replacements or {}
        parts = [self.header] if self.header else []
        for unit in self.units:
            parts.append(replacements.get(unit.name, unit.text))
        return "\n".join(p.rstrip() + "\n" for p in parts)


def decompose(file_text: str) -> DecompositionPlan:
    """Split a Lean file at top-level theorem/lemma declarations and record
    which units mention which others."""
    matches = list(_DECLARATION.finditer(file_text))
    if not matches:
        raise ParseFailure("no top-level theorem or lemma declarations found")
    header = file_text[: matches[0].start()].rstrip()
    units = []
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(file_text)
        units.append(DecompositionUnit(name=m.group(2), text=file_text[m.start() : end].rstrip()))
    names = {u.name for u in units}
    for unit in units:
        try:
            body = lexer.strip_comments(lexer.strip_statement(unit.text))
        except Exception:
            body = ""
        tokens = {t for line in lexer.lex(body) for t in line}
        unit.depends_on = [
            other.name for other in units if other.name != unit.name and other.name in tokens
        ]
    return DecompositionPlan(header=header, units=units)


def _unit_statement(unit_text: str) -> str:
    head, sep, _ = unit_text.partition(":= by")
    if not sep:
        head, sep, _ = unit_text.partition(":=")
    return head.rstrip()


def shorten_file(
    file_text: str,
    schedule: list[tuple[int, float]],
    simplifier: Simplifier,
    verifier: Verifier,
    measure: Measure = Measure.TOKEN_LENGTH,
    repairer: Repairer | None = None,
) -> tuple[str, dict[str, ShorteningTrace]]:
    """Shorten each declaration of a file independently and reassemble.

    The prompt for a unit carries the statements (never the proofs) of the
    units it depends on, in declaration order. A unit that cannot be
    shortened, or cannot even be parsed into statement and proof, keeps its
    original text.
    """
    plan = decompose(file_text)
    order = {u.name: i for i, u in enumerate(plan.units)}
    by_name = {u.name: u for u in plan.units}
    replacements: dict[str, str] = {}
    traces: dict[str, ShorteningTrace] = {}
    for unit in plan.units:
        try:
            record = ProofRecord.from_source(unit.text, id=unit.name)
        except ValueError:
            continue
        deps = sorted(unit.depends_on, key=order.get)
        context = "\n\n".join(
            _unit_statement(by_name[d].text) + " := by sorry" for d in deps
        )
        trace = shorten_loop(
            record, schedule, simplifier, verifier, measure, repairer=repairer, context=context
        )
        traces[unit.name] = trace
        final = trace.final_source
        if final is not None and final != record.full_source:
            replacements[unit.name] = final
    return plan.reassemble(replacements), traces
