from dataclasses import replace

import pytest

from proofopt import lexer
from proofopt.backends import Diagnostic, VerdictMemo, judge
from proofopt.linter import lint_fixpoint, lint_once
from proofopt.mocks import MockVerifier
from proofopt.records import Measure

from conftest import mock_cfg


def make_verifier(**options):
    options.setdefault("noop_tactics", ["skip", "ring_nf"])
    return MockVerifier(mock_cfg(**options))


STATEMENT = "theorem t : 1 = 1"


def source(proof: str) -> str:
    return f"{STATEMENT} := by\n{proof}"


def test_removes_flagged_tactic_lines():
    verifier = make_verifier()
    linted, removed = lint_once(source("  skip\n  rfl"), VerdictMemo(verifier))
    assert removed == 1
    assert linted == source("  rfl")


def test_removes_multiple_per_round():
    verifier = make_verifier()
    linted, removed = lint_once(source("  skip\n  rfl\n  ring_nf"), VerdictMemo(verifier))
    assert removed == 2
    assert linted == source("  rfl")


def test_combinator_removed_with_tactic():
    verifier = make_verifier()
    linted, _ = lint_once(source("  rfl <;> skip"), VerdictMemo(verifier))
    assert linted == source("  rfl")
    linted, _ = lint_once(source("  skip <;> rfl"), VerdictMemo(verifier))
    assert "<;>" not in linted
    assert "rfl" in linted


def test_rejects_invalid_input():
    # an invalid text comes back unchanged after its one check
    verifier = make_verifier()
    start = source("  skip\n  FAIL")
    assert lint_fixpoint(start, VerdictMemo(verifier), STATEMENT) == start
    assert verifier.calls == 1


def test_lint_once_leaves_a_flagged_name_in_the_statement():
    verifier = make_verifier()
    start = "theorem t (skip : Nat) : 1 = 1 := by\n  skip\n  rfl"
    linted, removed = lint_once(start, VerdictMemo(verifier))
    assert (linted, removed) == ("theorem t (skip : Nat) : 1 = 1 := by\n  rfl", 1)


def test_lint_once_returns_a_text_that_does_not_split_unchecked():
    verifier = make_verifier()
    start = "theorem t : 1 = 1 := rfl\n  skip"
    assert lint_once(start, VerdictMemo(verifier)) == (start, 0)
    assert verifier.calls == 0


def test_fixpoint_reverts_a_round_whose_edit_is_not_admissible():
    # deleting `skip` leaves a string holding '--', which the metric reads
    # as a comment: the edit verifies, but the rule refuses it
    verifier = make_verifier()
    start = source('  have := "-skip-"\n  rfl')
    assert lint_fixpoint(start, VerdictMemo(verifier), STATEMENT) == start
    assert verifier.calls == 2


def test_fixpoint_does_not_keep_an_edit_without_a_heartbeat_count():
    class CountsOnlyItsInput(MockVerifier):
        def _verify(self, text, want_heartbeats):
            verdict = super()._verify(text, want_heartbeats)
            return verdict if "skip" in text else replace(verdict, heartbeats=None)

    start = source("  skip\n  rfl")
    memo = VerdictMemo(CountsOnlyItsInput(mock_cfg(noop_tactics=["skip"])), Measure.HEARTBEATS)
    assert lint_fixpoint(start, memo, STATEMENT) == start


def test_fixpoint_removes_everything_flagged():
    verifier = make_verifier()
    start = source("  skip\n  skip <;> skip\n  rfl\n  ring_nf")
    linted = lint_fixpoint(start, VerdictMemo(verifier), STATEMENT)
    assert "skip" not in linted
    assert "ring_nf" not in linted
    assert verifier.verify(linted).ok


def test_fixpoint_idempotent():
    verifier = make_verifier()
    once = lint_fixpoint(source("  skip\n  rfl"), VerdictMemo(verifier), STATEMENT)
    twice = lint_fixpoint(once, VerdictMemo(verifier), STATEMENT)
    assert once == twice


def test_fixpoint_never_lengthens():
    verifier = make_verifier()
    start = source("  skip\n  rfl <;> skip\n  ring_nf")
    linted = lint_fixpoint(start, VerdictMemo(verifier), STATEMENT)
    assert lexer.proof_length(linted) <= lexer.proof_length(start)


def test_fixpoint_reverts_breaking_round():
    # the flagged tactic is also required for validity, so its removal breaks
    # the proof and the round must roll back
    verifier = make_verifier(noop_tactics=["rfl"], require_token="rfl")
    start = source("  rfl")
    linted = lint_fixpoint(start, VerdictMemo(verifier), STATEMENT)
    assert linted == start
    assert verifier.verify(linted).ok


def test_fixpoint_one_check_per_round():
    # first check flags `skip`; the edit's check finds nothing left to remove
    verifier = make_verifier()
    linted = lint_fixpoint(source("  skip\n  rfl"), VerdictMemo(verifier), STATEMENT)
    assert linted == source("  rfl")
    assert verifier.calls == 2
    # a breaking round is rolled back after its single check
    verifier = make_verifier(noop_tactics=["rfl"], require_token="rfl")
    lint_fixpoint(source("  rfl"), VerdictMemo(verifier), STATEMENT)
    assert verifier.calls == 2


def test_fixpoint_round_bound():
    verifier = make_verifier()
    calls_before = verifier.calls
    lint_fixpoint(source("  rfl"), VerdictMemo(verifier), STATEMENT)
    # nothing flagged: a single lint round, no re-verification needed
    assert verifier.calls - calls_before == 1


def test_stale_diagnostic_position_is_skipped():
    # a diagnostic pointing at text that is not the named tactic is ignored
    from proofopt.linter import _delete_span

    lines = ["  rfl"]
    assert _delete_span(lines, 1, 2, "skip") is False
    assert lines == ["  rfl"]


@pytest.mark.parametrize("line,column", [(2, 0), (9, 2)], ids=["wrong-column", "past-the-end"])
def test_lint_once_skips_a_diagnostic_whose_position_does_not_hold_the_tactic(line, column):
    class StaleVerifier(MockVerifier):
        def _verify(self, source, want_heartbeats):
            return judge([Diagnostic("warning", line, column, "'skip' tactic does nothing")])

    start = source("  skip\n  rfl")  # skip is at line 2, column 2
    linted, removed = lint_once(start, VerdictMemo(StaleVerifier(mock_cfg())))
    assert (linted, removed) == (start, 0)


def test_lint_once_matches_a_do_nothing_tactic_on_a_message_first_line_only():
    class GoalVerifier(MockVerifier):
        def _verify(self, source, want_heartbeats):
            message = "some note\n'skip' tactic does nothing"  # a line under the message
            return judge([Diagnostic("warning", 2, 2, message)])

    start = source("  skip\n  rfl")  # skip is at line 2, column 2
    linted, removed = lint_once(start, VerdictMemo(GoalVerifier(mock_cfg())))
    assert (linted, removed) == (start, 0)
