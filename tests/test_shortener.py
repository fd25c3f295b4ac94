import hashlib
import io
import json
import shlex
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofopt.backends import (
    BackendConfig,
    SubprocessVerifier,
    Verdict,
    VerdictStatus,
    format_error_report,
)
from proofopt.errors import BackendUnavailable
from proofopt.linter import lint_fixpoint
from proofopt.mocks import MockRepairer, MockSimplifier, MockVerifier
from proofopt.records import PROOF_DELIMITER, Measure, ProofRecord, from_json, write_jsonl
from proofopt.reports import TraceRow
from proofopt.shortener import (
    REPAIR_REPORT_LIMIT,
    CandidateResult,
    IterationRecord,
    RepairEntry,
    RepairStage,
    VerdictMemo,
    shorten_iteration,
    shorten_loop,
)
from proofopt.training_data import SimplificationPair, compute_rewards

from conftest import COMMENT_CHECKER, mock_cfg, python_checker


def record(proof: str, id: str = "t") -> ProofRecord:
    return ProofRecord(id=id, statement="theorem t : 1 = 1", proof=proof)


def first_iteration(start: ProofRecord, k: int, simplifier, memo) -> IterationRecord:
    """The first iteration of start's loop, from its own text, scored as
    shorten_loop scores it."""
    score = memo.check(start.full_source).score
    return shorten_iteration(start.full_source, score, start.statement, k, simplifier, memo, 1.0, 0)


def test_memo_scores_by_measure():
    verifier = MockVerifier(mock_cfg(heartbeats_per_token=5, noop_tactics=["simp"]))
    source = "t := by\n  rfl\n  simp"
    assert VerdictMemo(verifier).check(source) == CandidateResult(source, VerdictStatus.VALID, 2)
    memo = VerdictMemo(verifier, Measure.HEARTBEATS)
    assert memo.check(source).score == 10
    # every check is linted, whatever the measure
    assert [d.message for d in memo.verify(source).diagnostics] == ["'simp' tactic does nothing"]
    assert verifier.calls == 2


def test_iteration_adopts_strictly_shorter():
    verifier = MockVerifier(mock_cfg())
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="rfl"))
    start = record("  norm_num\n  ring\n  rfl")
    itrec = first_iteration(start, 3, simplifier, VerdictMemo(verifier))
    assert itrec.adopted == 0  # tie-break picks the lowest index
    assert itrec.source_after == "theorem t : 1 = 1 := by\n  rfl"
    assert itrec.score_after < itrec.score_before
    assert itrec.score_after == 1


def test_iteration_keeps_input_when_no_improvement():
    verifier = MockVerifier(mock_cfg())
    simplifier = MockSimplifier(mock_cfg(mode="echo"))
    start = record("  rfl")
    itrec = first_iteration(start, 4, simplifier, VerdictMemo(verifier))
    assert itrec.adopted is None
    assert itrec.source_after == start.full_source
    assert itrec.score_after == itrec.score_before


def test_iteration_ignores_invalid_candidates():
    verifier = MockVerifier(mock_cfg(fail_token="rfl"))
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="rfl"))
    start = record("  norm_num\n  ring")
    itrec = first_iteration(start, 2, simplifier, VerdictMemo(verifier))
    assert itrec.adopted is None
    assert itrec.source_after == start.full_source
    assert all(c.status is VerdictStatus.INVALID for c in itrec.candidates)


class TermModeSimplifier(MockSimplifier):
    """Returns a term-mode proof: it has ':=' but no ':= by'."""

    def _simplify(self, source, k, temperature):
        return ["theorem t : 1 = 1 := rfl"] * k


def test_iteration_never_adopts_a_term_mode_candidate():
    start = record("  skip\n  rfl")
    simplifier = TermModeSimplifier(mock_cfg())
    itrec = first_iteration(start, 2, simplifier, VerdictMemo(MockVerifier(mock_cfg())))
    # it verifies and scores lower, through the lexer's ':=' fallback
    assert itrec.candidates[0].status is VerdictStatus.VALID
    assert itrec.candidates[0].score < itrec.score_before
    assert itrec.adopted is None
    assert itrec.source_after == start.full_source


@pytest.mark.parametrize("statement,adopted", [
    ("theorem foo : True", None),
    ("theorem foo (x : Nat) : x + 0 = x", 0),
    ("theorem  foo (x : Nat) : -- the claim\n    x + 0 = x", 0),
    ("theorem foo /- renamed? no -/ (x : Nat) : x + 0 = x", 0),
], ids=["rewritten", "same", "whitespace-and-line-comment", "block-comment"])
def test_loop_adopts_only_a_candidate_that_proves_the_incumbents_statement(statement, adopted):
    """A candidate proves the incumbent's statement when the two lex to the
    same tokens: an edit of whitespace or comments passes, and a candidate
    that proves another statement is never adopted, however short it is."""

    class RewritingSimplifier(MockSimplifier):
        def _simplify(self, source, k, temperature):
            return [f"{statement} := by\n  trivial"] * k

    start = ProofRecord(id="foo", statement="theorem foo (x : Nat) : x + 0 = x",
                        proof="  induction x\n  rfl\n  simp")
    iterations = shorten_loop(start, [(2, 1.0)], RewritingSimplifier(mock_cfg()),
                         MockVerifier(mock_cfg()))
    itrec = iterations[0]
    assert [c.status for c in itrec.candidates] == [VerdictStatus.VALID] * 2
    assert itrec.candidates[0].score < itrec.score_before
    assert itrec.adopted == adopted
    if adopted is None:
        assert iterations[-1].source_after == start.full_source
    else:
        assert iterations[-1].source_after == f"{statement} := by\n  trivial"


def test_iteration_survives_a_candidate_without_a_proof_body():
    class BareSimplifier(MockSimplifier):
        def _simplify(self, source, k, temperature):
            return ["  rfl"] * k  # tactics only, no statement

    start = record("  skip\n  rfl")
    simplifier = BareSimplifier(mock_cfg())
    itrec = first_iteration(start, 2, simplifier, VerdictMemo(MockVerifier(mock_cfg())))
    assert [c.status for c in itrec.candidates] == [VerdictStatus.INVALID] * 2
    assert [c.score for c in itrec.candidates] == [None, None]
    assert itrec.source_after == start.full_source


def test_iteration_skips_nonverifying_input():
    """An input that does not verify is checked once, and every row of the
    schedule is written as skipped, with score 0, from the input's text."""
    verifier = MockVerifier(mock_cfg(fail_token="FAIL"))
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="rfl"))
    start = record("  FAIL")
    iterations = shorten_loop(start, [(2, 1.0), (2, 0.5)], simplifier, verifier)
    assert verifier.calls == 1
    assert [itrec.index for itrec in iterations] == [0, 1]
    assert [itrec.temperature for itrec in iterations] == [1.0, 0.5]
    for itrec in iterations:
        assert itrec.note == "skipped: input does not verify"
        assert itrec.candidates == []
        assert (itrec.score_before, itrec.score_after) == (0, 0)
        assert itrec.source_after == start.full_source


def test_duplicate_candidates_verified_once():
    verifier = MockVerifier(mock_cfg())
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="rfl"))
    start = record("  norm_num\n  ring")
    itrec = shorten_iteration(
        start.full_source, 2, start.statement, 16, simplifier, VerdictMemo(verifier), 1.0, 0
    )
    # no check of the incumbent, whose score is given; one of the single unique text
    assert verifier.calls == 1
    assert len(itrec.candidates) == 16
    assert itrec.k_requested == 16
    assert itrec.score_before == 2


def test_heartbeats_incumbent_scored_and_checked_once():
    verifier = MockVerifier(mock_cfg(heartbeats_per_token=10))
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="rfl"))
    start = record("  norm_num\n  ring")
    iterations = shorten_loop(
        start, [(3, 1.0), (3, 1.0)], simplifier, verifier, Measure.HEARTBEATS
    )
    # one heartbeats check of the input, one of the single unique candidate;
    # the second row starts from the first's score, and its candidate is a hit
    assert verifier.calls == 2
    assert [(it.score_before, it.score_after) for it in iterations] == [(20, 10), (10, 10)]


def test_loop_monotone_and_resumable():
    schedule = [(4, 1.0), (4, 1.0), (2, 0.5)]
    verifier = MockVerifier(mock_cfg())
    simplifier = MockSimplifier(mock_cfg(mode="drop_lines", seed=9))
    start = record("  have h : 1 = 1 := rfl\n  norm_num\n  ring\n  exact h", id="mono")

    seen = []
    iterations = shorten_loop(
        start, schedule, simplifier, verifier, on_iteration=lambda it: seen.append(it)
    )
    scores = [it.score_before for it in iterations] + [iterations[-1].score_after]
    assert scores == sorted(scores, reverse=True)
    assert len(seen) == len(schedule)

    # replaying a prefix must give a byte-identical remainder
    resumed = shorten_loop(
        start, schedule, simplifier, verifier, resume_from=iterations[:2]
    )
    assert json.dumps(list(map(asdict, resumed))) == json.dumps(list(map(asdict, iterations)))


def test_loop_rejects_empty_schedule():
    with pytest.raises(ValueError):
        shorten_loop(record("  rfl"), [], None, None)


def _written(obj) -> str:
    """The line that records.write_jsonl writes for obj."""
    stream = io.StringIO()
    write_jsonl(stream, [obj])
    return stream.getvalue()


def _shortened_rows():
    """A proof record, its first iteration as a trace line writes it, that
    iteration as a row of shorten's stdout, and a simplification pair."""
    start = record("  a\n  b\n  c")
    verifier = MockVerifier(mock_cfg())
    simplifier = MockSimplifier(mock_cfg(mode="drop_lines", seed=1))
    itrec = shorten_loop(start, [(3, 1.0)], simplifier, verifier)[0]
    pair = SimplificationPair(start.id, start.full_source, itrec.source_after, 1, True)
    return [start, itrec, TraceRow(**vars(itrec), proof_id=start.id), pair]


@pytest.mark.parametrize("obj", _shortened_rows(), ids=lambda obj: type(obj).__name__)
def test_write_jsonl_row_round_trip(obj):
    assert from_json(type(obj), json.loads(_written(obj)), "row") == obj


# text that UTF-8 can hold: no lone surrogates
TEXTS = st.text(st.characters(exclude_categories=("Cs",)), max_size=20)
SCORES = st.none() | st.integers()
STATUSES = st.sampled_from(VerdictStatus)
REPAIR_STAGES = st.builds(
    RepairStage, st.integers(), st.integers(), st.integers(),
    st.lists(st.builds(RepairEntry, STATUSES, SCORES, SCORES), max_size=3), SCORES,
)
ITERATIONS = st.builds(
    IterationRecord, st.integers(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.builds(CandidateResult, TEXTS, STATUSES, SCORES), max_size=3), SCORES,
    st.integers(), st.integers(), TEXTS, TEXTS, st.none() | REPAIR_STAGES,
)


@settings(max_examples=200, deadline=None)
@given(ITERATIONS)
def test_iteration_record_round_trips_with_any_repair_stage(itrec):
    assert from_json(IterationRecord, json.loads(_written(itrec)), "row") == itrec


def test_repair_stage_guard_rejects_longer():
    verifier = MockVerifier(mock_cfg(fail_token="zeta"))
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="zeta"))
    repairer = MockRepairer(mock_cfg(mode="longer", padding=6))
    start = record("  norm_num\n  ring")
    iterations = shorten_loop(
        start, [(2, 1.0)], simplifier, verifier, repairer=repairer, repair_budget=2
    )
    stage = iterations[0].repair
    assert stage is not None
    assert stage.attempted > 0
    assert stage.adopted is None
    assert iterations[-1].source_after == start.full_source


def test_repair_stage_adopts_shorter():
    verifier = MockVerifier(mock_cfg(fail_token="zeta", noop_tactics=[]))
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="zeta"))
    repairer = MockRepairer(mock_cfg(mode="shorter", proof_body="rfl"))
    start = record("  norm_num\n  ring\n  simp")
    iterations = shorten_loop(
        start, [(2, 1.0)], simplifier, verifier, repairer=repairer, repair_budget=1
    )
    stage = iterations[0].repair
    assert stage.valid > 0
    assert stage.adopted is not None
    assert iterations[-1].source_after.endswith("rfl")
    assert iterations[0].score_after == 1
    assert verifier.verify(iterations[-1].source_after).ok


def test_a_mock_fix_of_a_statement_ending_in_a_line_comment_is_adopted():
    """The mock repairer joins statement and body as full_source does, so a
    trailing `--` comment does not swallow the fix's `:= by`."""
    verifier = MockVerifier(mock_cfg())
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="FAIL"))
    repairer = MockRepairer(mock_cfg(mode="shorter", proof_body="rfl"))
    statement = "theorem t : 1 = 1 -- c"
    start = ProofRecord("t", statement, "  norm_num\n  ring\n  simp")
    [iteration] = shorten_loop(start, [(2, 1.0)], simplifier, verifier, repairer=repairer)
    assert iteration.repair.adopted is not None
    assert (iteration.score_before, iteration.score_after) == (3, 1)
    assert iteration.source_after == ProofRecord("t", statement, "  rfl").full_source


def test_repair_stage_never_adopts_a_term_mode_fix():
    class TermModeRepairer(MockRepairer):
        def _repair(self, statement, failed_proof, error_report):
            return [statement + " := rfl"]

    verifier = MockVerifier(mock_cfg(fail_token="zeta"))
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="zeta"))
    start = record("  norm_num\n  ring")
    iterations = shorten_loop(
        start, [(2, 1.0)], simplifier, verifier, repairer=TermModeRepairer(mock_cfg())
    )
    stage = iterations[0].repair
    assert stage.candidates == [RepairEntry(VerdictStatus.VALID, 1, None)]
    assert stage.valid == 1
    assert stage.adopted is None
    assert iterations[-1].source_after == start.full_source


def test_repair_stage_never_lints_or_adopts_a_fix_that_rewrites_the_statement():
    class RewritingRepairer(MockRepairer):
        def _repair(self, statement, failed_proof, error_report):
            return ["theorem t : True := by\n  trivial"]

    verifier = MockVerifier(mock_cfg(fail_token="zeta"))
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="zeta"))
    start = record("  norm_num\n  ring")
    iterations = shorten_loop(
        start, [(2, 1.0)], simplifier, verifier, repairer=RewritingRepairer(mock_cfg())
    )
    stage = iterations[0].repair
    assert stage.candidates == [RepairEntry(VerdictStatus.VALID, 1, None)]
    assert stage.adopted is None
    assert iterations[-1].source_after == start.full_source


@pytest.mark.parametrize(
    "text",
    ["zeta", "theorem t : 1 = 1 := zeta", "theorem t : 1 = 1 -- := by zeta\n:= by\n  zeta"],
    ids=["bare", "term", "hidden"],
)
def test_repair_stage_repairs_a_failed_candidate_without_a_tactic_block(text):
    """A failed candidate that does not split (records.split_source: no
    ':= by', or a first one in a comment) is repaired with the record's
    statement and its whole text as the failed proof."""
    asked = []

    class SpyRepairer(MockRepairer):
        def _repair(self, statement, failed_proof, error_report):
            asked.append((statement, failed_proof))
            return super()._repair(statement, failed_proof, error_report)

    class FixedSimplifier(MockSimplifier):
        def _simplify(self, source, k, temperature):
            return [text] * k

    start = record("  norm_num\n  ring")
    verifier = MockVerifier(mock_cfg(fail_token="zeta"))
    repairer = SpyRepairer(mock_cfg(mode="shorter", proof_body="rfl"))
    iterations = shorten_loop(start, [(2, 1.0)], FixedSimplifier(mock_cfg()), verifier,
                         repairer=repairer)
    assert [c.status for c in iterations[0].candidates] == [VerdictStatus.INVALID] * 2
    assert asked == [(start.statement, text)]
    assert iterations[0].repair.adopted == 0
    assert iterations[-1].source_after == f"{start.statement} := by\n  rfl"


def test_repair_stage_asks_for_a_fix_of_the_incumbents_statement():
    """A failed candidate that rewrote the statement is repaired as a proof
    of the statement being shortened, so its fix can be adopted."""
    asked = []

    class SpyRepairer(MockRepairer):
        def _repair(self, statement, failed_proof, error_report):
            asked.append((statement, failed_proof))
            return super()._repair(statement, failed_proof, error_report)

    class RewritingSimplifier(MockSimplifier):
        def _simplify(self, source, k, temperature):
            return ["theorem t : True := by\n  zeta"] * k

    start = record("  norm_num\n  ring")
    verifier = MockVerifier(mock_cfg(fail_token="zeta"))
    repairer = SpyRepairer(mock_cfg(mode="shorter", proof_body="rfl"))
    iterations = shorten_loop(start, [(2, 1.0)], RewritingSimplifier(mock_cfg()), verifier,
                         repairer=repairer)
    assert [c.status for c in iterations[0].candidates] == [VerdictStatus.INVALID] * 2
    assert asked == [(start.statement, "  zeta")]
    assert iterations[0].repair.adopted == 0
    assert iterations[-1].source_after == f"{start.statement} := by\n  rfl"


# A checker that gives no sorry warning: it passes every file but one that
# holds zeta.
_SILENT_CHECKER = """\
import sys
if "zeta" in open(sys.argv[1], encoding="utf-8").read():
    print(sys.argv[1] + ":2:2: error: unknown identifier 'zeta'")
"""


@pytest.mark.parametrize("body,sound", [
    ("sorry", False),
    ("admit", False),
    ("exact (sorry)", False),
    ("exact sorry_lemma -- no sorry here", True),
    ("/- admit -/ rfl", True),
], ids=["sorry", "admit", "nested", "name-and-comment", "block-comment"])
def test_a_proof_holding_a_sorry_or_admit_token_is_never_admissible(tmp_path, body, sound):
    """However the checker judges it, a sorry or admit token keeps a
    candidate from adoption and reward, and a fix from linting."""
    script = tmp_path / "checker.py"
    script.write_text(_SILENT_CHECKER, encoding="utf-8")
    command = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {{file}}"
    verifier = SubprocessVerifier(
        BackendConfig(kind="subprocess_verifier", command_template=command)
    )
    start = record("  norm_num\n  ring\n  simp\n  linarith\n  omega")

    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body=body))
    itrec = shorten_loop(start, [(1, 1.0)], simplifier, verifier)[0]
    [candidate] = itrec.candidates
    assert candidate.status is VerdictStatus.VALID and candidate.score < itrec.score_before
    assert (itrec.adopted == 0) is sound
    [entry] = compute_rewards(itrec.score_before, itrec.candidates, start.statement).entries
    assert (entry.reward > 0) is sound

    failing = MockSimplifier(mock_cfg(mode="constant", proof_body="zeta"))
    repairer = MockRepairer(mock_cfg(mode="shorter", proof_body=body))
    iterations = shorten_loop(start, [(1, 1.0)], failing, verifier, repairer=repairer)
    stage = iterations[0].repair
    [fix] = stage.candidates
    assert fix.status is VerdictStatus.VALID
    assert (fix.linted_score is not None) is sound
    assert (stage.adopted == 0) is sound


class ListingVerifier(MockVerifier):
    """A MockVerifier that lists each text it checks in ``checked``."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.checked = []

    def _verify(self, source, want_heartbeats):
        self.checked.append(source)
        return super()._verify(source, want_heartbeats)


class FixedTextSimplifier(MockSimplifier):
    """Samples options["text"] k times, whatever the source; the key is taken
    out before the mock reads the rest."""

    def __init__(self, cfg):
        self.text = cfg.options.pop("text")
        super().__init__(cfg)

    def _simplify(self, source, k, temperature):
        return [self.text] * k


def test_the_adopted_text_is_the_text_its_check_saw(tmp_path):
    """A winner whose statement ends in a line comment is adopted as it was
    checked, and the next iteration starts from that valid text."""
    winner = "theorem t : 1 = 1 -- shortened\n:= by\n  rfl"
    command = python_checker(tmp_path, COMMENT_CHECKER)
    verifier = SubprocessVerifier(
        BackendConfig(kind="subprocess_verifier", command_template=command)
    )
    start = record("  norm_num\n  ring\n  rfl")
    simplifier = FixedTextSimplifier(mock_cfg(text=winner))
    first, second = shorten_loop(start, [(1, 1.0), (1, 1.0)], simplifier, verifier)
    assert first.adopted == 0 and first.source_after == winner
    assert second.note == "" and second.score_before == first.score_after == 1


@pytest.mark.parametrize("measure", list(Measure))
def test_a_one_line_winner_is_checked_once(measure):
    """The next iteration starts from the winner's own text, a memo hit."""
    winner = "theorem t : 1 = 1 := by rfl"
    verifier = ListingVerifier(mock_cfg())
    start = record("  norm_num\n  rfl")
    simplifier = FixedTextSimplifier(mock_cfg(text=winner))
    iterations = shorten_loop(start, [(2, 1.0), (2, 1.0)], simplifier, verifier, measure)
    first, second = iterations
    assert first.source_after == winner
    assert verifier.checked == [start.full_source, winner]
    assert second.score_before == first.score_after < first.score_before


def test_a_one_line_fix_is_checked_once():
    """A fix's own check is its first lint round's, whatever its layout."""
    fix = "theorem t : 1 = 1 := by rfl"

    class OneLineRepairer(MockRepairer):
        def _repair(self, statement, failed_proof, error_report):
            return [fix]

    verifier = ListingVerifier(mock_cfg(fail_token="zeta"))
    start = record("  norm_num\n  ring")
    failing = MockSimplifier(mock_cfg(mode="constant", proof_body="zeta"))
    iterations = shorten_loop(start, [(1, 1.0)], failing, verifier,
                         repairer=OneLineRepairer(mock_cfg()))
    [itrec] = iterations
    assert itrec.repair.adopted == 0 and itrec.source_after == fix
    assert verifier.checked == [start.full_source, "theorem t : 1 = 1 := by\n  zeta", fix]


def test_repair_stage_repairs_each_failed_text_once():
    repaired = []

    class SpyRepairer(MockRepairer):
        def _repair(self, statement, failed_proof, error_report):
            repaired.append(failed_proof)
            return super()._repair(statement, failed_proof, error_report)

    verifier = MockVerifier(mock_cfg(fail_token="zeta"))
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="zeta"))
    repairer = SpyRepairer(mock_cfg(mode="longer", padding=1))
    iterations = shorten_loop(
        record("  norm_num\n  ring"),
        [(4, 1.0)],
        simplifier,
        verifier,
        repairer=repairer,
        repair_budget=4,
    )
    assert len(iterations[0].candidates) == 4
    assert repaired == ["  zeta"]
    assert iterations[0].repair.attempted == 1


def test_repair_stage_does_not_recheck_a_timed_out_candidate():
    checked, reports = [], []

    class SpyVerifier(MockVerifier):
        def _verify(self, source, want_heartbeats):
            checked.append(source)
            return super()._verify(source, want_heartbeats)

    class SpyRepairer(MockRepairer):
        def _repair(self, statement, failed_proof, error_report):
            reports.append(error_report)
            return super()._repair(statement, failed_proof, error_report)

    verifier = SpyVerifier(mock_cfg(timeout_token="slow"))
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="slow"))
    repairer = SpyRepairer(mock_cfg(mode="shorter", proof_body="rfl"))
    iterations = shorten_loop(
        record("  norm_num\n  ring"), [(2, 1.0)], simplifier, verifier, repairer=repairer,
        repair_budget=2,
    )
    timed_out = iterations[0].candidates[0]
    assert timed_out.status is VerdictStatus.TIMEOUT
    assert checked.count(timed_out.text) == 1
    assert reports == ["proof failed to verify"]
    assert iterations[0].repair.adopted == 0
    assert verifier.calls == 3  # the incumbent, the timed-out candidate and the fix


def _reference_adoption(best, entries):
    """The lowest index among the smallest scores below best, over
    (eligible, score) pairs."""
    below = [(score, i) for i, (eligible, score) in enumerate(entries) if eligible and score < best]
    return min(below)[1] if below else None


@pytest.mark.parametrize("measure", list(Measure))
def test_acceptance_rule_recomputed_from_traces(measure):
    iteration_adoptions = repair_adoptions = 0
    for mode in ("shorter", "longer", "delete_flagged"):
        for seed in range(8):
            iterations, verifier = _memo_scenario(mode, seed, measure)
            rescore = VerdictMemo(verifier, measure)
            source = ProofRecord(id="g", statement="theorem g : 1 = 1", proof=MEMO_PROOF).full_source
            for it in iterations:
                assert it.score_before == rescore.check(source).score
                entries = [
                    (c.status is VerdictStatus.VALID and c.score is not None
                     and PROOF_DELIMITER in c.text, c.score)
                    for c in it.candidates
                ]
                assert it.adopted == _reference_adoption(it.score_before, entries)
                score, after = it.score_before, source
                if it.adopted is not None:
                    iteration_adoptions += 1
                    score = it.candidates[it.adopted].score
                    after = ProofRecord.from_source(it.candidates[it.adopted].text).full_source
                if it.repair is not None:
                    fixes = [
                        (c.status is VerdictStatus.VALID and c.linted_score is not None, c.linted_score)
                        for c in it.repair.candidates
                    ]
                    assert it.repair.adopted == _reference_adoption(score, fixes)
                    if it.repair.adopted is not None:
                        repair_adoptions += 1
                        score = it.repair.candidates[it.repair.adopted].linted_score
                        after = it.source_after  # the linted text is not in the trace
                assert (it.score_after, it.source_after) == (score, after)
                assert rescore.check(it.source_after).score == it.score_after
                source = it.source_after
    assert iteration_adoptions and repair_adoptions


REPAIR_PROOF = "\n".join(
    "  " + tactic
    for tactic in [
        "skip", "norm_num", "key", "ring", "skip", "simp", "linarith", "skip", "omega", "exact h"
    ]
)


class KeyRepairer(MockRepairer):
    """Appends the required token to the failed proof, so every fix verifies
    and scores by what the failed text kept."""

    def _repair(self, statement, failed_proof, error_report):
        return [statement + " := by\n" + failed_proof.rstrip("\n") + "\n  key"]


def _repair_scenario(repairer, max_parallel, schedule=((4, 1.0), (4, 0.8)), budget=3):
    # seed 9 fails all four first-round candidates, with three distinct
    # texts whose fixes lint to 2, 1 and 5 tokens
    verifier = MockVerifier(
        mock_cfg(require_token="key", noop_tactics=["skip"], max_parallel=max_parallel)
    )
    simplifier = MockSimplifier(mock_cfg(mode="drop_lines", seed=9, drop_probability=0.75))
    start = ProofRecord(id="o", statement="theorem o : 1 = 1", proof=REPAIR_PROOF)
    return shorten_loop(
        start, list(schedule), simplifier, verifier, repairer=repairer, repair_budget=budget
    )


def test_repair_stage_folds_in_input_order():
    serial = _repair_scenario(KeyRepairer(mock_cfg()), max_parallel=1)
    stages = [it.repair for it in serial]
    assert stages[0] is not None and len({c.linted_score for c in stages[0].candidates}) == 3
    firsts = {
        ProofRecord.from_source(it.candidates[0].text, id="o").proof
        for it in serial
        if it.repair is not None
    }

    class SlowFirstRepairer(KeyRepairer):
        def _repair(self, statement, failed_proof, error_report):
            if failed_proof in firsts:
                time.sleep(0.3)
            return super()._repair(statement, failed_proof, error_report)

    concurrent = _repair_scenario(SlowFirstRepairer(mock_cfg()), max_parallel=2)
    assert [it.repair for it in concurrent] == stages
    assert json.dumps(list(map(asdict, concurrent))) == json.dumps(list(map(asdict, serial)))


def test_repair_stage_repairs_concurrently():
    barrier = threading.Barrier(2, timeout=5)

    class MeetingRepairer(KeyRepairer):
        def _repair(self, statement, failed_proof, error_report):
            barrier.wait()  # breaks unless a second repair is in flight
            return super()._repair(statement, failed_proof, error_report)

    iterations = _repair_scenario(
        MeetingRepairer(mock_cfg()), max_parallel=2, schedule=[(4, 1.0)], budget=2
    )
    assert iterations[0].repair.attempted == 2


def test_repair_not_triggered_when_any_candidate_valid():
    verifier = MockVerifier(mock_cfg())
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="rfl"))
    repairer = MockRepairer(mock_cfg(mode="shorter"))
    iterations = shorten_loop(
        record("  norm_num\n  ring"), [(2, 1.0)], simplifier, verifier, repairer=repairer
    )
    assert iterations[0].repair is None


class RecordingRepairer(MockRepairer):
    """Remembers the fixes that inner returned for each failed proof."""

    def __init__(self, inner):
        super().__init__(mock_cfg())
        self.inner = inner
        self.fixes = {}

    def _repair(self, statement, failed_proof, error_report):
        fixes = self.inner._repair(statement, failed_proof, error_report)
        self.fixes[(statement, failed_proof)] = fixes
        return fixes


class BodiesRepairer(MockRepairer):
    """Returns one fix per proof body in options["bodies"]; the key is taken
    out before the mock reads the rest."""

    def __init__(self, cfg):
        self.bodies = cfg.options.pop("bodies")
        super().__init__(cfg)

    def _repair(self, statement, failed_proof, error_report):
        return [statement + " := by\n" + body for body in self.bodies]


def _eager_repair(itrec, source, fixes_of, verifier_cfg, measure, budget):
    """Adopted index, score and source of an iteration's repair stage when
    every valid tactic fix is linted to its fixpoint."""
    memo = VerdictMemo(MockVerifier(verifier_cfg), measure)
    failed = [c.text for c in itrec.candidates if c.status is not VerdictStatus.VALID]
    linted = []
    for text in list(dict.fromkeys(failed))[:budget]:
        failed_record = ProofRecord.from_source(text)
        for fix in fixes_of[(failed_record.statement, failed_record.proof)]:
            if memo.check(fix).status is VerdictStatus.VALID and PROOF_DELIMITER in fix:
                fixed = lint_fixpoint(fix, memo, ProofRecord.from_source(source).statement)
                linted.append((fixed.score, fixed.text))
            else:
                linted.append((None, None))
    below = [(score, i) for i, (score, _) in enumerate(linted)
             if score is not None and score < itrec.score_before]
    if not below:
        return None, itrec.score_before, source
    score, i = min(below)
    return i, score, linted[i][1]


EAGER_SCENARIOS = [
    # (verifier options, simplifier options, repairer); these seeds fail
    # every candidate of one to three iterations
    *[
        ({"require_token": "key", "noop_tactics": ["skip"]},
         {"mode": "drop_lines", "seed": seed, "drop_probability": 0.75},
         repairer)
        for repairer in (
            MockRepairer(mock_cfg(mode="shorter", proof_body="key\n  skip\n  ring")),
            MockRepairer(mock_cfg(mode="longer", padding=2)),
            KeyRepairer(mock_cfg()),
        )
        for seed in (1, 2, 17, 28, 36)
    ],
    # every first lint edit removes the required token and fails its check,
    # so each linted fix reverts to its raw text, which scores above its bound
    ({"require_token": "skip", "noop_tactics": ["skip"]},
     {"mode": "constant", "proof_body": "FAIL"},
     BodiesRepairer(mock_cfg(bodies=["  skip\n  skip\n  skip\n  a", "  skip\n  a\n  b",
                                     "  a\n  b", "  skip\n  skip\n  a\n  b\n  c"]))),
]


@pytest.mark.parametrize("measure", list(Measure))
def test_repair_stage_adopts_as_eager_linting_would(measure):
    repaired = []  # per scenario, the repair stages and how many adopted
    for verifier_options, simplifier_options, inner in EAGER_SCENARIOS:
        verifier_cfg = mock_cfg(**verifier_options)
        repairer = RecordingRepairer(inner)
        start = ProofRecord(id="g", statement="theorem g : 1 = 1", proof=MEMO_PROOF)
        iterations = shorten_loop(
            start, [(4, 1.0), (4, 0.8), (4, 0.5)], MockSimplifier(mock_cfg(**simplifier_options)),
            MockVerifier(verifier_cfg), measure, repairer=repairer, repair_budget=3,
        )
        source, stages, adopted = start.full_source, 0, 0
        for it in iterations:
            if it.repair is not None:
                expected = _eager_repair(it, source, repairer.fixes, verifier_cfg, measure, 3)
                assert (it.repair.adopted, it.score_after, it.source_after) == expected
                stages += 1
                adopted += it.repair.adopted is not None
            source = it.source_after
        repaired.append((stages, adopted))
    assert sum(s for s, _ in repaired) > 20 and sum(a for _, a in repaired) > 10
    assert repaired[-1][1] > 0  # a fix whose first edit failed its check was adopted


# per measure, the checks of each EAGER_SCENARIOS loop, in order
EAGER_CHECKS = {
    Measure.TOKEN_LENGTH: [11, 12, 9, 9, 8, 13, 12, 16, 22, 19, 11, 11, 9, 11, 8, 7],
    Measure.HEARTBEATS: [11, 12, 9, 9, 8, 13, 12, 16, 22, 19, 11, 11, 9, 13, 10, 8],
}


@pytest.mark.parametrize("measure", list(Measure))
def test_repair_stage_check_counts_over_the_eager_scenarios(measure):
    """The checks that each EAGER_SCENARIOS loop makes, run as
    test_repair_stage_adopts_as_eager_linting_would runs it."""
    calls = []
    for verifier_options, simplifier_options, repairer in EAGER_SCENARIOS:
        verifier = MockVerifier(mock_cfg(**verifier_options))
        start = ProofRecord(id="g", statement="theorem g : 1 = 1", proof=MEMO_PROOF)
        shorten_loop(
            start, [(4, 1.0), (4, 0.8), (4, 0.5)], MockSimplifier(mock_cfg(**simplifier_options)),
            verifier, measure, repairer=repairer, repair_budget=3,
        )
        calls.append(verifier.calls)
    assert calls == EAGER_CHECKS[measure]


def test_repair_stage_cuts_a_report_over_the_limit_and_counts_it():
    """The repairer is sent the first REPAIR_REPORT_LIMIT characters of a
    failed text's report; a report over the limit counts in
    truncated_reports, one at or under it arrives whole."""
    verifier = MockVerifier(mock_cfg())
    start = record("  norm_num\n  ring")

    def report(text: str) -> str:
        return format_error_report(text, verifier.verify(text).diagnostics)

    def failing(length: int) -> str:
        """A failed proof of start's statement whose report has length characters."""
        text = f"{start.statement} := by\n  FAIL\n  -- "
        return text + "x" * (length - len(report(text)))

    lengths = [REPAIR_REPORT_LIMIT + 1, REPAIR_REPORT_LIMIT, 100]
    texts = [failing(length) for length in lengths]
    assert [len(report(text)) for text in texts] == lengths
    sent = {}

    class ReportRecorder(MockRepairer):
        def _repair(self, statement, failed_proof, error_report):
            sent[failed_proof] = error_report
            return super()._repair(statement, failed_proof, error_report)

    class Failing(MockSimplifier):
        def _simplify(self, source, k, temperature):
            return texts

    iterations = shorten_loop(
        start, [(3, 1.0)], Failing(mock_cfg()), verifier, repairer=ReportRecorder(mock_cfg())
    )
    assert sent == {
        ProofRecord.from_source(text).proof: report(text)[:REPAIR_REPORT_LIMIT] for text in texts
    }
    assert len(sent[ProofRecord.from_source(texts[0]).proof]) == REPAIR_REPORT_LIMIT
    assert iterations[0].repair.truncated_reports == 1


def _bounded_fixes_scenario(measure):
    """Four valid fixes whose first lint edits keep 3, 1, 2 and 4 tokens, the
    lint edits the verifier was asked to check, and the threads that checked
    them."""
    checked = []

    class SpyVerifier(MockVerifier):
        def _verify(self, source, want_heartbeats):
            checked.append((source, threading.current_thread()))
            return super()._verify(source, want_heartbeats)

    bodies = ["  skip\n  a\n  b\n  c", "  skip\n  a", "  skip\n  a\n  b",
              "  skip\n  skip\n  a\n  b\n  c\n  d"]
    start = ProofRecord(id="g", statement="theorem g : 1 = 1", proof=MEMO_PROOF)
    iterations = shorten_loop(
        start, [(2, 1.0)], MockSimplifier(mock_cfg(mode="constant", proof_body="FAIL")),
        SpyVerifier(mock_cfg(noop_tactics=["skip"])), measure,
        repairer=BodiesRepairer(mock_cfg(bodies=bodies)),
    )
    itrec = iterations[0]
    known = {start.full_source, *(c.text for c in itrec.candidates)}
    known.update(f"{start.statement} := by\n{body}" for body in bodies)
    edits = [(text, thread) for text, thread in checked if text not in known]
    return itrec, [text for text, _ in edits], {thread for _, thread in edits}


def test_repair_stage_lints_only_the_fix_that_can_win():
    itrec, edits, _ = _bounded_fixes_scenario(Measure.TOKEN_LENGTH)
    assert edits == ["theorem g : 1 = 1 := by\n  a"]
    assert itrec.repair.adopted == 1
    assert itrec.score_after == 1
    assert [c.linted_score for c in itrec.repair.candidates] == [3, 1, 2, 4]


def test_repair_stage_lints_every_fix_under_heartbeats():
    itrec, edits, threads = _bounded_fixes_scenario(Measure.HEARTBEATS)
    assert len(edits) == 4
    assert threading.current_thread() not in threads  # linted on the verifier's pool
    assert itrec.repair.adopted == 1
    assert [c.linted_score for c in itrec.repair.candidates] == [300, 100, 200, 400]


# --- verdict memo -------------------------------------------------------------

MEMO_PROOF = "\n".join(
    "  " + tactic
    for tactic in [
        "skip",
        "norm_num",
        "ring",
        "simp <;> skip",
        "linarith",
        "key",
        "nlinarith",
        "skip",
        "positivity",
        "omega",
        "exact h",
        "skip",
    ]
)


def _memo_scenario(mode, seed, measure):
    """A seeded loop that repairs, lints and rescores along the way."""
    verifier = MockVerifier(mock_cfg(require_token="key", noop_tactics=["skip"]))
    simplifier = MockSimplifier(mock_cfg(mode="drop_lines", seed=seed, drop_probability=0.6))
    repairer = MockRepairer(mock_cfg(mode=mode, proof_body="key\n  skip\n  ring", padding=2))
    start = ProofRecord(id="g", statement="theorem g : 1 = 1", proof=MEMO_PROOF)
    iterations = shorten_loop(
        start,
        [(4, 1.0), (4, 0.8), (4, 0.5)],
        simplifier,
        verifier,
        measure,
        repairer=repairer,
        repair_budget=3,
    )
    return iterations, verifier


@pytest.mark.parametrize("measure", list(Measure))
def test_memo_checks_each_key_once(monkeypatch, measure):
    texts = []
    original = VerdictMemo.verify

    def recording(self, source):
        texts.append(source)
        return original(self, source)

    monkeypatch.setattr(VerdictMemo, "verify", recording)
    iterations, verifier = _memo_scenario("shorter", 12, measure)
    assert any(it.repair is not None and it.repair.adopted is not None for it in iterations)
    assert verifier.calls == len(set(texts))
    assert len(texts) > len(set(texts))  # repeats were asked for and answered


def test_check_all_checks_on_the_verifiers_pool_in_input_order():
    class ThreadNamingVerifier(MockVerifier):
        def _verify(self, source, want_heartbeats):
            threads.add(threading.current_thread())
            return super()._verify(source, want_heartbeats)

    threads = set()
    verifier = ThreadNamingVerifier(mock_cfg(max_parallel=1))
    texts = ["t := by rfl", "t := by FAIL", "t := by rfl"]
    results = VerdictMemo(verifier).check_all(texts)
    assert [r.text for r in results] == texts
    assert [r.status for r in results] == [
        VerdictStatus.VALID, VerdictStatus.INVALID, VerdictStatus.VALID
    ]
    assert verifier.calls == 2  # the repeat, queued behind its first check, is a hit
    assert len(threads) == 1 and threading.main_thread() not in threads
    verifier.close()


def test_memo_asks_again_after_timeout():
    class FlakyVerifier(MockVerifier):
        def _verify(self, source, want_heartbeats):
            if self.calls == 0:
                self.calls += 1
                return Verdict(VerdictStatus.TIMEOUT)
            return super()._verify(source, want_heartbeats)

    verifier = FlakyVerifier(mock_cfg())
    memo = VerdictMemo(verifier)
    assert memo.verify("t := by rfl").status is VerdictStatus.TIMEOUT
    assert memo.verify("t := by rfl").ok
    assert memo.verify("t := by rfl").ok
    assert verifier.calls == 2


def test_memo_keeps_every_verdict_under_concurrent_use():
    class CountingVerifier(MockVerifier):
        def __init__(self, cfg):
            super().__init__(cfg)
            self.keys = []
            self._keys_lock = threading.Lock()

        def _verify(self, source, want_heartbeats):
            with self._keys_lock:
                self.keys.append(source)
            return super()._verify(source, want_heartbeats)

    verifier = CountingVerifier(mock_cfg(max_parallel=8))
    memo = VerdictMemo(verifier)
    texts = [f"t := by\n  tac{i}" + ("\n  FAIL" if i % 3 == 0 else "") for i in range(60)]
    requests = [text for text in texts for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            verdicts = list(pool.map(memo.verify, requests, timeout=30))
    finally:
        sys.setswitchinterval(interval)
    assert [v.ok for v in verdicts] == ["FAIL" not in text for text in requests]
    first_pass = len(verifier.keys)
    assert len(verifier.keys) == len(texts)
    for text in requests:
        memo.verify(text)
    assert len(verifier.keys) == first_pass  # every verdict was kept


class BlockedVerifier(MockVerifier):
    """Holds every check until released, then answers or raises."""

    def __init__(self, cfg, error=None):
        super().__init__(cfg)
        self.started = threading.Event()
        self.release = threading.Event()
        self.error = error

    def _verify(self, source, want_heartbeats):
        self.started.set()
        assert self.release.wait(5)
        verdict = super()._verify(source, want_heartbeats)
        if self.error is not None:
            raise self.error
        return verdict


def _ask_during_check(memo, verifier, text):
    """Futures of two requests for one text, the second made while the
    first one's check is held."""
    asking = threading.Event()

    def second():
        asking.set()
        return memo.verify(text)

    with ThreadPoolExecutor(max_workers=2) as pool:
        first = pool.submit(memo.verify, text)
        assert verifier.started.wait(5)
        later = pool.submit(second)
        assert asking.wait(5)
        time.sleep(0.2)  # time to wait on the check in flight, or to start another
        verifier.release.set()
    return first, later


def test_memo_shares_a_check_in_flight():
    verifier = BlockedVerifier(mock_cfg(max_parallel=2))
    memo = VerdictMemo(verifier)
    first, later = _ask_during_check(memo, verifier, "t := by rfl")
    assert first.result().ok
    assert later.result() is first.result()
    assert verifier.calls == 1


def test_memo_delivers_a_failed_check_to_every_waiter():
    verifier = BlockedVerifier(mock_cfg(max_parallel=2), error=BackendUnavailable("down"))
    memo = VerdictMemo(verifier)
    first, later = _ask_during_check(memo, verifier, "t := by rfl")
    for future in (first, later):
        with pytest.raises(BackendUnavailable):
            future.result()
    assert verifier.calls == 1
    verifier.error = None
    assert memo.verify("t := by rfl").ok  # the failure was not kept
    assert verifier.calls == 2


# sha256 of the JSON of {"proof_id", "measure", "iterations"} for each
# _memo_scenario, recorded before checks were remembered. None of these loops samples a failed text
# twice, so deduplication before repair leaves them alone too.
MOCK_TRACE_DIGESTS = {
    ("shorter", 12, "length"): "0e9da659942e23db351dae9209e53f07c283bf9d41ffc605cffc31af30a64514",
    ("shorter", 12, "heartbeats"): "082b97a78a7b9a323730d5e0edb9bac7a588cf88c36a477ff4e75d1a060af1d9",
    ("longer", 32, "length"): "a83047f643e7718202b89e04a9f2e3f455dd95be506e5882b43800f09e23e8f1",
    ("longer", 32, "heartbeats"): "c2339f2bc4779d7dac363935db8e3dd1669e2ab084a8f4a6487939558cfcb9e0",
    ("delete_flagged", 12, "length"): "a11ca66a5863135ea6c46f3ff202c80fd09fce4e7387c79f199542127167f7ac",
    ("delete_flagged", 12, "heartbeats"): "d1af02721f145e1bff5c38ca2f6b38d1b384258fcc57b58e25f4ec44c35a1662",
}


@pytest.mark.parametrize("mode,seed,measure", list(MOCK_TRACE_DIGESTS))
def test_memo_leaves_mock_traces_unchanged(mode, seed, measure):
    iterations, _ = _memo_scenario(mode, seed, Measure(measure))
    trace = {"proof_id": "g", "measure": measure, "iterations": list(map(asdict, iterations))}
    blob = json.dumps(trace).encode()
    assert hashlib.sha256(blob).hexdigest() == MOCK_TRACE_DIGESTS[(mode, seed, measure)]
