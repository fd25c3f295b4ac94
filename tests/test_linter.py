import pytest

from proofopt import lexer
from proofopt.backends import MockVerifier
from proofopt.errors import NotValidInput
from proofopt.linter import lint_fixpoint, lint_once
from proofopt.records import ProofRecord

from conftest import mock_cfg


def make_verifier(**options):
    options.setdefault("noop_tactics", ["skip", "ring_nf"])
    return MockVerifier(mock_cfg(**options))


def record(proof: str) -> ProofRecord:
    return ProofRecord(id="t", statement="theorem t : 1 = 1", proof=proof)


def test_removes_flagged_tactic_lines():
    verifier = make_verifier()
    linted, removed = lint_once(record("  skip\n  rfl"), verifier)
    assert removed == 1
    assert linted.proof == "  rfl"


def test_removes_multiple_per_round():
    verifier = make_verifier()
    linted, removed = lint_once(record("  skip\n  rfl\n  ring_nf"), verifier)
    assert removed == 2
    assert linted.proof == "  rfl"


def test_combinator_removed_with_tactic():
    verifier = make_verifier()
    linted, _ = lint_once(record("  rfl <;> skip"), verifier)
    assert linted.proof == "  rfl"
    linted, _ = lint_once(record("  skip <;> rfl"), verifier)
    assert "<;>" not in linted.proof
    assert "rfl" in linted.proof


def test_rejects_invalid_input():
    verifier = make_verifier()
    with pytest.raises(NotValidInput):
        lint_once(record("  FAIL"), verifier)


def test_fixpoint_removes_everything_flagged():
    verifier = make_verifier()
    linted = lint_fixpoint(record("  skip\n  skip <;> skip\n  rfl\n  ring_nf"), verifier)
    assert "skip" not in linted.proof
    assert "ring_nf" not in linted.proof
    assert verifier.verify(linted.full_source).ok


def test_fixpoint_idempotent():
    verifier = make_verifier()
    once = lint_fixpoint(record("  skip\n  rfl"), verifier)
    twice = lint_fixpoint(once, verifier)
    assert once.full_source == twice.full_source


def test_fixpoint_never_lengthens():
    verifier = make_verifier()
    start = record("  skip\n  rfl <;> skip\n  ring_nf")
    linted = lint_fixpoint(start, verifier)
    assert lexer.proof_length(linted.full_source) <= lexer.proof_length(start.full_source)


def test_fixpoint_reverts_breaking_round():
    # the flagged tactic is also required for validity, so its removal breaks
    # the proof and the round must roll back
    verifier = make_verifier(noop_tactics=["rfl"], require_token="rfl")
    start = record("  rfl")
    linted = lint_fixpoint(start, verifier)
    assert linted.proof == "  rfl"
    assert verifier.verify(linted.full_source).ok


def test_fixpoint_one_check_per_round():
    # first check flags `skip`; the edit's check finds nothing left to remove
    verifier = make_verifier()
    linted = lint_fixpoint(record("  skip\n  rfl"), verifier)
    assert linted.proof == "  rfl"
    assert verifier.calls == 2
    # a breaking round is rolled back after its single check
    verifier = make_verifier(noop_tactics=["rfl"], require_token="rfl")
    lint_fixpoint(record("  rfl"), verifier)
    assert verifier.calls == 2


def test_fixpoint_round_bound():
    verifier = make_verifier()
    calls_before = verifier.calls
    lint_fixpoint(record("  rfl"), verifier, max_rounds=10)
    # nothing flagged: a single lint round, no re-verification needed
    assert verifier.calls - calls_before == 1


def test_stale_diagnostic_position_is_skipped():
    # a diagnostic pointing at text that is not the named tactic is ignored
    from proofopt.linter import _delete_span

    lines = ["  rfl"]
    assert _delete_span(lines, 1, 2, "skip") is False
    assert lines == ["  rfl"]
