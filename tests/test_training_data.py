import json
import math
import random

import pytest

from proofopt import lexer, training_data
from proofopt.backends import (
    BackendConfig,
    Diagnostic,
    Verdict,
    VerdictStatus,
    Verifier,
    extract_code_block,
)
from proofopt.errors import MissingVerdict, ZeroOriginal
from proofopt.records import ProofRecord
from proofopt.training_data import (
    AUTO_MACRO,
    LENGTH_RATIO,
    SimplificationPair,
    build_expit_dataset,
    compute_rewards,
    emit_sft_records,
    filter_trivial,
    passes_length_filter,
)


def rec(id, proof):
    return ProofRecord(id=id, statement=f"theorem {id} : 1 = 1", proof=proof)


VALID = Verdict(VerdictStatus.VALID)
INVALID = Verdict(VerdictStatus.INVALID)


def proof_of_length(id, n):
    return rec(id, "\n".join("  rfl" for _ in range(n)))


def test_length_filter_boundary_is_inclusive():
    x = proof_of_length("x", 10)
    assert lexer.proof_length(x.full_source) == 10
    assert passes_length_filter(x, proof_of_length("y", 8))
    assert not passes_length_filter(x, proof_of_length("y", 9))


def test_build_dataset_filters_and_pairs():
    seeds = [proof_of_length("a", 10), proof_of_length("b", 10)]
    results = {
        "a": (proof_of_length("a'", 4), VALID),
        "b": (proof_of_length("b'", 9), VALID),  # misses the ratio, dropped
    }
    pairs = build_expit_dataset(seeds, results)
    assert [(p.input_proof.id, p.output_proof.id) for p in pairs] == [("a", "a'")]
    assert not pairs[0].transitive


def test_build_dataset_requires_verdicts():
    seeds = [proof_of_length("a", 10)]
    with pytest.raises(MissingVerdict):
        build_expit_dataset(seeds, {"a": (proof_of_length("a'", 4), None)})
    with pytest.raises(MissingVerdict):
        build_expit_dataset(seeds, {"a": (proof_of_length("a'", 4), INVALID)})


def test_build_dataset_transitive_pairs():
    seed = proof_of_length("a", 10)
    ancestor = proof_of_length("a", 30)
    best = proof_of_length("a'", 4)
    pairs = build_expit_dataset([seed], {"a": (best, VALID)}, {"a": ancestor})
    assert len(pairs) == 2
    assert pairs[1].transitive
    assert pairs[1].input_proof is ancestor
    # no transitive pair when the "ancestor" is just the seed itself
    pairs = build_expit_dataset([seed], {"a": (best, VALID)}, {"a": seed})
    assert len(pairs) == 1


def test_build_dataset_transitive_pair_also_ratio_checked():
    seed = proof_of_length("a", 10)
    ancestor = proof_of_length("a", 11)
    best = proof_of_length("a'", 9)  # 9 <= 0.8*11 fails, 9 <= 0.8*10 fails too
    assert build_expit_dataset([seed], {"a": (best, VALID)}, {"a": ancestor}) == []
    best = proof_of_length("a'", 8)  # passes both
    assert len(build_expit_dataset([seed], {"a": (best, VALID)}, {"a": ancestor})) == 2


class StatementVerifier(Verifier):
    """Marks a probe valid iff the statement carries an EASY marker; SLOW
    markers time out. Used to drive the triviality filter."""

    def __init__(self):
        super().__init__(BackendConfig(kind="mock"))
        self.probes = []

    def _verify(self, source, want_heartbeats):
        self.probes.append(source)
        if "SLOW" in source:
            return Verdict(VerdictStatus.TIMEOUT)
        if "EASY" in source:
            return Verdict(VerdictStatus.VALID)
        return Verdict(VerdictStatus.INVALID, diagnostics=(Diagnostic("error", 1, 0, "nope"),))


def test_filter_trivial():
    theorems = [
        ProofRecord(id="e", statement="theorem e : EASY", proof="  long proof"),
        ProofRecord(id="h", statement="theorem h : HARD", proof="  long proof"),
        ProofRecord(id="s", statement="theorem s : SLOW", proof="  long proof"),
    ]
    verifier = StatementVerifier()
    kept, discarded = filter_trivial(theorems, verifier)
    assert [t.id for t in kept] == ["h", "s"]  # timeouts stay in the dataset
    assert [t.id for t in discarded] == ["e"]
    for probe in verifier.probes:
        assert probe.startswith(AUTO_MACRO)
        assert probe.rstrip().endswith("AUTO")


def test_rewards_basic():
    original = proof_of_length("x", 10)
    candidates = [
        (proof_of_length("c0", 5), True),   # reward 0.5
        (proof_of_length("c1", 5), False),  # invalid: 0
        (proof_of_length("c2", 15), True),  # longer: 0
        (proof_of_length("c3", 10), True),  # equal length: 0
    ]
    group = compute_rewards(original, candidates)
    rewards = [e.reward for e in group.entries]
    assert rewards == pytest.approx([0.5, 0.0, 0.0, 0.0])
    advantages = [e.advantage for e in group.entries]
    assert advantages == pytest.approx([0.375, -0.125, -0.125, -0.125])
    assert sum(advantages) == pytest.approx(0.0, abs=1e-12)
    assert not any(e.omit for e in group.entries)


def test_rewards_sign_convention_switch():
    original = proof_of_length("x", 10)
    candidates = [(proof_of_length("c0", 5), True)]
    positive = compute_rewards(original, candidates).entries[0].reward
    literal = compute_rewards(original, candidates, positive_shortening=False).entries[0].reward
    assert positive == pytest.approx(0.5)
    assert literal == pytest.approx(-0.5)


def test_rewards_zero_advantage_flag():
    original = proof_of_length("x", 10)
    # every candidate identical: all advantages are exactly zero
    group = compute_rewards(original, [(proof_of_length("c", 5), True)] * 3)
    assert all(e.advantage == 0.0 for e in group.entries)
    assert all(e.omit for e in group.entries)
    mixed = compute_rewards(
        original, [(proof_of_length("c", 5), True), (proof_of_length("d", 20), True)]
    )
    assert [e.omit for e in mixed.entries] == [False, False]


def test_rewards_zero_original():
    empty = ProofRecord(id="z", statement="theorem z : 1 = 1", proof="")
    with pytest.raises(ZeroOriginal):
        compute_rewards(empty, [(proof_of_length("c", 1), True)])
    with pytest.raises(ValueError):
        compute_rewards(proof_of_length("x", 3), [])


def test_rewards_random_groups_sum_to_zero():
    rng = random.Random(17)
    for _ in range(200):
        original = proof_of_length("x", rng.randint(1, 40))
        candidates = [
            (proof_of_length(f"c{i}", rng.randint(1, 60)), rng.random() < 0.6)
            for i in range(rng.randint(1, 12))
        ]
        group = compute_rewards(original, candidates)
        assert math.fsum(e.advantage for e in group.entries) == pytest.approx(0.0, abs=1e-12)


def test_emit_sft_round_trip():
    pair = SimplificationPair(
        input_proof=proof_of_length("a", 10),
        output_proof=proof_of_length("b", 4),
        origin_iteration=2,
        transitive=True,
    )
    (record,) = list(emit_sft_records([pair]))
    assert pair.input_proof.full_source in record["prompt"]
    assert extract_code_block(record["completion"]) == pair.output_proof.full_source
    meta = json.loads(json.dumps(record["meta"]))
    assert meta["input_source"] == pair.input_proof.full_source
    assert meta["output_source"] == pair.output_proof.full_source
    assert meta["iteration"] == 2 and meta["transitive"]


def test_ratio_constant():
    assert LENGTH_RATIO == 0.8
