"""Checks against a real Lean toolchain of the output formats that every other
backend test fakes: the message line, the sorry warning, the heartbeat count
and the unused-tactic message. Core Lean only, no Mathlib.

Skipped unless PROOFOPT_LEAN_CMD holds a command_template with {file}, for
example PROOFOPT_LEAN_CMD='lake env lean {file}'.
"""

import os

import pytest

from proofopt.backends import SORRY_WARNING, BackendConfig, SubprocessVerifier, VerdictStatus
from proofopt.linter import lint_fixpoint
from proofopt.records import ProofRecord
from proofopt.shortener import VerdictMemo

LEAN_CMD = os.environ.get("PROOFOPT_LEAN_CMD", "")

pytestmark = pytest.mark.skipif(not LEAN_CMD, reason="PROOFOPT_LEAN_CMD is not set")


@pytest.fixture(scope="module")
def lean():
    return SubprocessVerifier(
        BackendConfig(kind="subprocess_verifier", command_template=LEAN_CMD, timeout=300)
    )


def test_a_core_proof_is_valid(lean):
    # run first: a checker that rejects the prepended lint directive fails here
    verdict = lean.verify("theorem t : 1 = 1 := by rfl")
    assert verdict.status is VerdictStatus.VALID, verdict.diagnostics


def test_an_unknown_identifier_is_an_error_at_its_source_line(lean):
    verdict = lean.verify("theorem t : 1 = 1 := by\n  exact no_such_lemma")
    assert verdict.status is VerdictStatus.INVALID
    errors = [d for d in verdict.diagnostics if d.severity == "error"]
    assert errors and errors[0].line == 2, verdict.diagnostics
    assert "no_such_lemma" in errors[0].message


def test_sorry_gives_its_warning_and_an_invalid_verdict(lean):
    verdict = lean.verify("theorem t : 1 = 2 := by\n  sorry")
    assert verdict.status is VerdictStatus.INVALID
    assert any(
        d.severity == "warning" and d.message.startswith(SORRY_WARNING)
        for d in verdict.diagnostics
    ), verdict.diagnostics


def test_heartbeats_are_counted(lean):
    verdict = lean.verify("theorem t : 1 = 1 := by rfl", want_heartbeats=True)
    assert verdict.ok, verdict.diagnostics
    assert isinstance(verdict.heartbeats, int), verdict.diagnostics


def test_a_skip_before_rfl_is_flagged_and_linted_away(lean):
    start = "theorem t : 1 = 1 := by\n  skip\n  rfl"
    verdict = lean.verify(start)
    assert verdict.ok, verdict.diagnostics
    assert any("'skip' tactic does nothing" in d.message for d in verdict.diagnostics), (
        verdict.diagnostics
    )
    assert lint_fixpoint(start, VerdictMemo(lean), "theorem t : 1 = 1") == (
        "theorem t : 1 = 1 := by\n  rfl"
    )


def test_a_statement_ending_in_a_line_comment_renders_to_a_proof_lean_accepts(lean):
    record = ProofRecord(id="t", statement="theorem t : 1 = 1 -- from a .lean file", proof="  rfl")
    assert record.full_source == "theorem t : 1 = 1 -- from a .lean file\n:= by\n  rfl"
    verdict = lean.verify(record.full_source)
    assert verdict.status is VerdictStatus.VALID, verdict.diagnostics
