import hashlib
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from proofopt.backends import MockRepairer, MockSimplifier, MockVerifier, Verdict, VerdictStatus
from proofopt.errors import ParseFailure
from proofopt.records import Measure, ProofRecord
from proofopt.shortener import (
    VerdictMemo,
    _check,
    decompose,
    iteration_from_json,
    shorten_file,
    shorten_iteration,
    shorten_loop,
)

from conftest import mock_cfg


def record(proof: str, id: str = "t") -> ProofRecord:
    return ProofRecord(id=id, statement="theorem t : 1 = 1", proof=proof)


def test_memo_scores_by_measure():
    verifier = MockVerifier(mock_cfg(heartbeats_per_token=5, noop_tactics=["simp"]))
    source = "t := by\n  rfl\n  simp"
    assert _check(source, VerdictMemo(verifier), Measure.TOKEN_LENGTH)[1] == 2
    verdict, score = _check(source, VerdictMemo(verifier, Measure.HEARTBEATS), Measure.HEARTBEATS)
    assert score == 10
    # every check is linted, whatever the measure
    assert [d.message for d in verdict.diagnostics] == ["'simp' tactic does nothing"]
    assert verifier.calls == 2


def test_iteration_adopts_strictly_shorter():
    verifier = MockVerifier(mock_cfg())
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="rfl"))
    start = record("  norm_num\n  ring\n  rfl")
    after, itrec = shorten_iteration(start, 3, simplifier, verifier)
    assert itrec.adopted == 0  # tie-break picks the lowest index
    assert after.proof == "  rfl"
    assert itrec.score_after < itrec.score_before
    assert itrec.score_after == 1


def test_iteration_keeps_input_when_no_improvement():
    verifier = MockVerifier(mock_cfg())
    simplifier = MockSimplifier(mock_cfg(mode="echo"))
    start = record("  rfl")
    after, itrec = shorten_iteration(start, 4, simplifier, verifier)
    assert itrec.adopted is None
    assert after.full_source == start.full_source
    assert itrec.score_after == itrec.score_before


def test_iteration_ignores_invalid_candidates():
    verifier = MockVerifier(mock_cfg(fail_token="rfl"))
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="rfl"))
    start = record("  norm_num\n  ring")
    after, itrec = shorten_iteration(start, 2, simplifier, verifier)
    assert itrec.adopted is None
    assert after.full_source == start.full_source
    assert all(c.status is VerdictStatus.INVALID for c in itrec.candidates)


def test_iteration_skips_nonverifying_input():
    verifier = MockVerifier(mock_cfg(fail_token="FAIL"))
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="rfl"))
    start = record("  FAIL")
    after, itrec = shorten_iteration(start, 2, simplifier, verifier)
    assert itrec.note == "skipped: input does not verify"
    assert itrec.candidates == []
    assert after.full_source == start.full_source


def test_duplicate_candidates_verified_once():
    verifier = MockVerifier(mock_cfg())
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="rfl"))
    start = record("  norm_num\n  ring")
    calls_before = verifier.calls
    _, itrec = shorten_iteration(start, 16, simplifier, verifier)
    # precondition check plus one verification for the single unique text
    assert verifier.calls - calls_before == 2
    assert len(itrec.candidates) == 16
    assert itrec.k_requested == 16


def test_heartbeats_incumbent_scored_and_checked_once():
    verifier = MockVerifier(mock_cfg(heartbeats_per_token=10))
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="rfl"))
    start = record("  norm_num\n  ring")
    _, itrec = shorten_iteration(start, 3, simplifier, verifier, Measure.HEARTBEATS)
    # one heartbeats check of the incumbent, one of the single unique candidate
    assert verifier.calls == 2
    assert itrec.score_before == 20
    assert itrec.score_after == 10


def test_loop_monotone_and_resumable():
    schedule = [(4, 1.0), (4, 1.0), (2, 0.5)]
    verifier = MockVerifier(mock_cfg())
    simplifier = MockSimplifier(mock_cfg(mode="drop_lines", seed=9))
    start = record("  have h : 1 = 1 := rfl\n  norm_num\n  ring\n  exact h", id="mono")

    seen = []
    trace = shorten_loop(
        start, schedule, simplifier, verifier, on_iteration=lambda it: seen.append(it)
    )
    scores = [it.score_before for it in trace.iterations] + [trace.iterations[-1].score_after]
    assert scores == sorted(scores, reverse=True)
    assert len(seen) == len(schedule)

    # replaying a prefix must give a byte-identical remainder
    resumed = shorten_loop(
        start, schedule, simplifier, verifier, resume_from=trace.iterations[:2]
    )
    assert json.dumps(resumed.to_json()) == json.dumps(trace.to_json())


def test_loop_rejects_empty_schedule():
    with pytest.raises(ValueError):
        shorten_loop(record("  rfl"), [], None, None)


def test_iteration_record_round_trip():
    verifier = MockVerifier(mock_cfg())
    simplifier = MockSimplifier(mock_cfg(mode="drop_lines", seed=1))
    trace = shorten_loop(record("  a\n  b\n  c"), [(3, 1.0)], simplifier, verifier)
    itrec = trace.iterations[0]
    assert iteration_from_json(json.loads(json.dumps(itrec.to_json()))) == itrec


def test_repair_stage_guard_rejects_longer():
    verifier = MockVerifier(mock_cfg(fail_token="zeta"))
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="zeta"))
    repairer = MockRepairer(mock_cfg(mode="longer", padding=6))
    start = record("  norm_num\n  ring")
    trace = shorten_loop(
        start, [(2, 1.0)], simplifier, verifier, repairer=repairer, repair_budget=2
    )
    stage = trace.iterations[0].repair
    assert stage is not None
    assert stage.attempted > 0
    assert stage.adopted is None
    assert trace.final_source == start.full_source


def test_repair_stage_adopts_shorter():
    verifier = MockVerifier(mock_cfg(fail_token="zeta", noop_tactics=[]))
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="zeta"))
    repairer = MockRepairer(mock_cfg(mode="shorter", proof_body="rfl"))
    start = record("  norm_num\n  ring\n  simp")
    trace = shorten_loop(
        start, [(2, 1.0)], simplifier, verifier, repairer=repairer, repair_budget=1
    )
    stage = trace.iterations[0].repair
    assert stage.valid > 0
    assert stage.adopted is not None
    assert trace.final_source.endswith("rfl")
    assert trace.iterations[0].score_after == 1
    assert verifier.verify(trace.final_source).ok


def test_repair_stage_repairs_each_failed_text_once():
    repaired = []

    class SpyRepairer(MockRepairer):
        def _repair(self, statement, failed_proof, error_report, n, temperature):
            repaired.append(failed_proof)
            return super()._repair(statement, failed_proof, error_report, n, temperature)

    verifier = MockVerifier(mock_cfg(fail_token="zeta"))
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="zeta"))
    repairer = SpyRepairer(mock_cfg(mode="longer", padding=1))
    trace = shorten_loop(
        record("  norm_num\n  ring"),
        [(4, 1.0)],
        simplifier,
        verifier,
        repairer=repairer,
        repair_budget=4,
    )
    assert len(trace.iterations[0].candidates) == 4
    assert repaired == ["  zeta"]
    assert trace.iterations[0].repair.attempted == 1


def test_repair_not_triggered_when_any_candidate_valid():
    verifier = MockVerifier(mock_cfg())
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="rfl"))
    repairer = MockRepairer(mock_cfg(mode="shorter"))
    trace = shorten_loop(
        record("  norm_num\n  ring"), [(2, 1.0)], simplifier, verifier, repairer=repairer
    )
    assert trace.iterations[0].repair is None


FILE_TEXT = """import Mathlib

lemma helper (n : ℕ) : n = n := by
  skip
  rfl

theorem main (n : ℕ) : n = n := by
  have h := helper n
  skip
  exact h
"""


def test_decompose_units_and_dependencies():
    plan = decompose(FILE_TEXT)
    assert plan.header == "import Mathlib"
    assert [u.name for u in plan.units] == ["helper", "main"]
    assert plan.units[0].depends_on == []
    assert plan.units[1].depends_on == ["helper"]


def test_decompose_requires_declarations():
    with pytest.raises(ParseFailure):
        decompose("import Mathlib\n\n#eval 1\n")


def test_reassemble_identity():
    plan = decompose(FILE_TEXT)
    assert decompose(plan.reassemble()).units[1].text == plan.units[1].text


def test_shorten_file_rewrites_units_in_place():
    verifier = MockVerifier(mock_cfg())
    simplifier = MockSimplifier(mock_cfg(mode="strip_noops", noop_lines=["skip"]))
    rewritten, traces = shorten_file(FILE_TEXT, [(2, 1.0)], simplifier, verifier)
    assert "skip" not in rewritten
    assert set(traces) == {"helper", "main"}
    assert rewritten.startswith("import Mathlib")
    # the rewritten file still decomposes into the same unit names
    assert [u.name for u in decompose(rewritten).units] == ["helper", "main"]


def test_shorten_file_passes_dependency_context():
    captured = []

    class SpySimplifier(MockSimplifier):
        def _simplify(self, source, k, temperature, context):
            captured.append((source, context))
            return super()._simplify(source, k, temperature, context)

    verifier = MockVerifier(mock_cfg())
    simplifier = SpySimplifier(mock_cfg(mode="echo"))
    shorten_file(FILE_TEXT, [(1, 1.0)], simplifier, verifier)
    contexts = {src.splitlines()[0].split()[1]: ctx for src, ctx in captured}
    assert contexts["helper"] == ""
    assert "lemma helper" in contexts["main"]
    assert ":= by sorry" in contexts["main"]
    assert "rfl" not in contexts["main"]  # statements only, never proofs


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
    trace = shorten_loop(
        start,
        [(4, 1.0), (4, 0.8), (4, 0.5)],
        simplifier,
        verifier,
        measure,
        repairer=repairer,
        repair_budget=3,
    )
    return trace, verifier


@pytest.mark.parametrize("measure", list(Measure))
def test_memo_checks_each_key_once(monkeypatch, measure):
    texts = []
    original = VerdictMemo.verify

    def recording(self, source):
        texts.append(source)
        return original(self, source)

    monkeypatch.setattr(VerdictMemo, "verify", recording)
    trace, verifier = _memo_scenario("shorter", 12, measure)
    assert any(it.repair is not None and it.repair.adopted is not None for it in trace.iterations)
    assert verifier.calls == len(set(texts))
    assert len(texts) > len(set(texts))  # repeats were asked for and answered


def test_memo_asks_again_after_timeout():
    class FlakyVerifier(MockVerifier):
        def _verify(self, source, want_heartbeats):
            if self.calls == 0:
                self.calls += 1
                return Verdict(VerdictStatus.TIMEOUT)
            return super()._verify(source, want_heartbeats)

    verifier = FlakyVerifier(mock_cfg())
    memo = VerdictMemo(verifier)
    assert memo.cfg is verifier.cfg
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
    assert len(set(verifier.keys)) == len(texts)
    for text in requests:
        memo.verify(text)
    assert len(verifier.keys) == first_pass  # every verdict was kept


# sha256 of json.dumps(trace.to_json()) for each _memo_scenario, recorded
# before checks were remembered. None of these loops samples a failed text
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
    trace, _ = _memo_scenario(mode, seed, Measure(measure))
    blob = json.dumps(trace.to_json()).encode()
    assert hashlib.sha256(blob).hexdigest() == MOCK_TRACE_DIGESTS[(mode, seed, measure)]
