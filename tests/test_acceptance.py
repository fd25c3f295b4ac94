"""End-to-end acceptance checks.

One test per contract point, each printing a single PASS/FAIL line so the
whole gate can be read off the captured output at a glance.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from dataclasses import asdict
from decimal import Decimal, getcontext

import pytest

from proofopt import lexer
from proofopt.backends import VerdictMemo, VerdictStatus, extract_code_block, same_statement
from proofopt.estimators import (
    SampleSet,
    dataset_aggregate,
    effective_scores,
    max_at_k,
    min_at_k,
    red_at_k,
)
from proofopt.linter import lint_fixpoint
from proofopt.mocks import MockRepairer, MockSimplifier, MockVerifier
from proofopt.records import ProofRecord, split_source
from proofopt.reports import atk_table, corpus_stats
from proofopt.shortener import CandidateResult, shorten_loop
from proofopt.training_data import (
    LENGTH_RATIO,
    build_expit_dataset,
    compute_rewards,
    emit_sft_records,
)

from conftest import DATA_DIR, mock_cfg
from lexer_oracle import reference_proof_length


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[criterion] {name}: FAIL")
        raise
    print(f"[criterion] {name}: PASS")


# --- 1. lexer bit-exactness ---------------------------------------------------

CAPTION_LENGTHS = {
    "mathd_algebra_338_orig.lean": 214,
    "mathd_algebra_338_simp.lean": 11,
    "putnam_2015_a2_orig.lean": 324,
    "putnam_2015_a2_simp.lean": 82,
    "putnam_1968_a1_simp.lean": 76,
}


def _mutations(source, rng, count):
    inserts = [" ", "\n", "\n\n", ":=", ":= by", "<;>", "-- trailing note",
               "/- block -/", "⁻¹", "?_", "x1", ". "]
    out = []
    for _ in range(count):
        text = source
        for _ in range(rng.randrange(1, 5)):
            pos = rng.randrange(len(text) + 1)
            if rng.random() < 0.5:
                text = text[:pos] + rng.choice(inserts) + text[pos:]
            else:
                cut = rng.randrange(1, 12)
                text = text[:pos] + text[pos + cut :]
        out.append(text)
    return out


def test_criterion_lexer_bitexact():
    with criterion("lexer bit-exactness on 200+ snippets"):
        rng = random.Random(1)
        snippets = []
        for path in sorted(DATA_DIR.glob("*.lean")):
            source = path.read_text()
            snippets.append(source)
            snippets.extend(_mutations(source, rng, 16))
        assert len(snippets) >= 200
        start = time.perf_counter()
        mismatches = 0
        for snippet in snippets:
            try:
                ours = lexer.proof_length(snippet)
            except lexer.NoProofDelimiter:
                ours = lexer.SENTINEL_LENGTH
            if ours != reference_proof_length(snippet):
                mismatches += 1
        elapsed = time.perf_counter() - start
        assert mismatches == 0
        assert elapsed < 5.0
        for name, expected in CAPTION_LENGTHS.items():
            assert lexer.proof_length((DATA_DIR / name).read_text()) == expected


@pytest.mark.xfail(
    reason="the published listing of this proof measures 1083, not the 1097 its "
    "caption states; the listing text was reflowed for layout and blank lines "
    "count toward the metric",
    strict=True,
)
def test_criterion_lexer_putnam_1968_caption_value():
    source = (DATA_DIR / "putnam_1968_a1_orig.lean").read_text()
    assert lexer.proof_length(source) == 1097


# --- 2. estimator unbiasedness ------------------------------------------------


def test_criterion_estimator_unbiased():
    with criterion("estimator matches subset enumeration (n <= 12)"):
        rng = random.Random(2)
        start = time.perf_counter()
        for n in range(1, 13):
            for k in range(1, n + 1):
                for _ in range(100):
                    values = [rng.uniform(-100, 100) for _ in range(n)]
                    combos = list(itertools.combinations(values, k))
                    exact_max = sum(max(c) for c in combos) / len(combos)
                    exact_min = sum(min(c) for c in combos) / len(combos)
                    assert abs(max_at_k(values, k) - exact_max) < 1e-9
                    assert abs(min_at_k(values, k) - exact_min) < 1e-9
                sample = [rng.uniform(-100, 100) for _ in range(n)]
                assert abs(max_at_k(sample, 1) - sum(sample) / n) < 1e-12
                assert abs(max_at_k(sample, n) - max(sample)) < 1e-12
                assert abs(min_at_k(sample, n) - min(sample)) < 1e-12
        assert time.perf_counter() - start < 30.0


# --- 3. estimator stability at scale ------------------------------------------


def _decimal_max_at_k(values, k):
    getcontext().prec = 60
    ordered = sorted(Decimal(v) for v in values)
    n = len(ordered)
    weights = [Decimal(0)] * n
    weights[n - 1] = Decimal(k) / Decimal(n)
    for i in range(n - 1, k - 1, -1):  # w_i = w_{i+1} * (i-k+1)/i, 1-based
        weights[i - 1] = weights[i] * Decimal(i - k + 1) / Decimal(i)
    return sum(w * v for w, v in zip(weights, ordered))


def test_criterion_estimator_stability():
    with criterion("estimator stable at n=10000, k=500"):
        rng = random.Random(3)
        n, k = 10000, 500
        for _ in range(20):
            values = [rng.randint(1, 3000) for _ in range(n)]
            got = max_at_k(values, k)
            assert math.isfinite(got)
            want = float(_decimal_max_at_k(values, k))
            assert got == pytest.approx(want, rel=1e-6)
            got_min = min_at_k(values, k)
            want_min = -float(_decimal_max_at_k([-v for v in values], k))
            assert math.isfinite(got_min)
            assert got_min == pytest.approx(want_min, rel=1e-6)


# --- 4. shortening loop invariants --------------------------------------------


def _synthetic_corpus(rng, size=50):
    corpus = []
    for i in range(size):
        body = ["  anchor"] + [
            rng.choice(["  norm_num", "  ring", "  simp", "  omega", "  tauto"])
            for _ in range(rng.randint(2, 10))
        ]
        rng.shuffle(body)
        corpus.append(
            ProofRecord(id=f"syn{i}", statement=f"theorem syn{i} : 1 = 1", proof="\n".join(body))
        )
    return corpus


class StatementRewritingSimplifier(MockSimplifier):
    """Replaces every third candidate with the shortest valid proof of
    another statement, which the acceptance rule must never adopt."""

    def _simplify(self, source, k, temperature):
        out = super()._simplify(source, k, temperature)
        return [("theorem other : True := by\n  anchor" if i % 3 == 0 else text)
                for i, text in enumerate(out)]


def _run_corpus(corpus, seed, simplifier_cls=MockSimplifier):
    verifier = MockVerifier(mock_cfg(require_token="anchor"))
    simplifier = simplifier_cls(mock_cfg(mode="drop_lines", seed=seed, drop_probability=0.5))
    schedule = [(4, 1.0), (4, 1.0), (2, 0.5)]
    return [shorten_loop(r, schedule, simplifier, verifier) for r in corpus]


def test_criterion_shortening_invariants():
    with criterion("shortening loop invariants on a 50-proof corpus"):
        rng = random.Random(4)
        corpus = _synthetic_corpus(rng)
        traces = _run_corpus(corpus, seed=11)
        verifier = MockVerifier(mock_cfg(require_token="anchor"))
        saw_all_invalid = 0
        for record, iterations in zip(corpus, traces):
            previous = record.full_source
            scores = []
            for itrec in iterations:
                scores.append(itrec.score_before)
                if itrec.candidates and all(c.status != "valid" for c in itrec.candidates):
                    saw_all_invalid += 1
                    assert itrec.source_after == previous
                previous = itrec.source_after
            scores.append(iterations[-1].score_after)
            assert scores == sorted(scores, reverse=True)
            assert verifier.verify(iterations[-1].source_after).ok
        assert saw_all_invalid > 0  # the corpus must actually exercise the branch

        again = _run_corpus(corpus, seed=11)
        first = json.dumps([list(map(asdict, t)) for t in traces], sort_keys=True)
        second = json.dumps([list(map(asdict, t)) for t in again], sort_keys=True)
        assert first == second

        # a simplifier that rewrites statements: the rewrites are valid and
        # shortest, but every proof keeps its statement
        rewritten = _run_corpus(corpus, seed=11, simplifier_cls=StatementRewritingSimplifier)
        for record, iterations in zip(corpus, rewritten):
            for itrec in iterations:
                assert ProofRecord.from_source(itrec.source_after).statement == record.statement
                assert all(c.status == "valid" and c.score == 1 for c in itrec.candidates[::3])
            assert verifier.verify(iterations[-1].source_after).ok
        assert any(it.adopted is not None for t in rewritten for it in t)


# --- 5. linter ----------------------------------------------------------------


def test_criterion_linter():
    with criterion("linter removes all flagged tactics, idempotent, monotone"):
        rng = random.Random(5)
        noops = ["skip", "ring_nf", "try_this"]
        verifier = MockVerifier(mock_cfg(noop_tactics=noops))
        for i in range(100):
            real = [rng.choice(["  norm_num", "  simp", "  rfl"]) for _ in range(rng.randint(1, 5))]
            lines = real[:]
            for _ in range(rng.randint(1, 6)):
                lines.insert(rng.randrange(len(lines) + 1), "  " + rng.choice(noops))
            # some statements bind a flagged name, which lint must leave alone
            binder = f" ({rng.choice(noops)} : Nat)" if i % 3 == 0 else ""
            statement = f"theorem l{i}{binder} : 1 = 1"
            record = ProofRecord(id=f"l{i}", statement=statement, proof="\n".join(lines))
            result = lint_fixpoint(record.full_source, memo := VerdictMemo(verifier), statement)
            assert result == memo.check(result.text)
            linted = result.text
            head, body = split_source(linted)
            assert same_statement(head, statement)
            assert not set(lexer.tokens(body)) & set(noops)
            assert lint_fixpoint(linted, VerdictMemo(verifier), statement).text == linted
            assert lexer.proof_length(linted) <= lexer.proof_length(record.full_source)


# --- 6. repair guard ----------------------------------------------------------


def _repair_run(repairer_options, size=30):
    rng = random.Random(6)
    verifier = MockVerifier(mock_cfg(fail_token="zeta"))
    simplifier = MockSimplifier(mock_cfg(mode="constant", proof_body="zeta"))
    repairer = MockRepairer(mock_cfg(**repairer_options))
    stages = []
    for i in range(size):
        proof = "\n".join("  norm_num" for _ in range(rng.randint(3, 8)))
        record = ProofRecord(id=f"r{i}", statement=f"theorem r{i} : 1 = 1", proof=proof)
        iterations = shorten_loop(record, [(3, 1.0)], simplifier, verifier, repairer=repairer)
        stage = iterations[0].repair
        assert stage is not None and stage.attempted > 0
        stages.append((record, iterations, stage))
    return stages


def test_criterion_repair_guard():
    with criterion("repair guard: longer repairs 0% adopted, shorter 100%"):
        for record, iterations, stage in _repair_run({"mode": "longer", "padding": 12}):
            assert stage.adopted is None
            assert iterations[-1].source_after == record.full_source
        for record, iterations, stage in _repair_run({"mode": "shorter", "proof_body": "rfl"}):
            assert stage.adopted is not None
            assert iterations[0].score_after < iterations[0].score_before
            assert iterations[-1].source_after.endswith("rfl")


# --- 7. expert-iteration dataset ----------------------------------------------


def test_criterion_expit_dataset():
    with criterion("dataset pairs respect the 0.8 ratio, ancestry, round-trip"):
        rng = random.Random(7)
        seeds, results, ancestry = [], {}, {}
        for i in range(80):
            long = "\n".join("  rfl" for _ in range(rng.randint(5, 30)))
            seed = ProofRecord(id=f"d{i}", statement=f"theorem d{i} : 1 = 1", proof=long)
            seeds.append(seed)
            short = "\n".join("  rfl" for _ in range(rng.randint(1, 30)))
            results[seed.id] = f"{seed.statement} := by\n{short}"
            if rng.random() < 0.4:
                ancestry[seed.id] = ProofRecord(
                    id=f"d{i}~", statement=seed.statement, proof=long + "\n  ring\n  ring"
                )
        pairs = build_expit_dataset(seeds, results, ancestry)

        for pair in pairs:
            len_in = reference_proof_length(pair.input)
            len_out = reference_proof_length(pair.output)
            assert len_out <= LENGTH_RATIO * len_in
            assert pair.output == results[pair.id]
            source = ancestry[pair.id] if pair.transitive else seeds[int(pair.id[1:])]
            assert pair.input == source.full_source

        direct = {p.id for p in pairs if not p.transitive}
        transitive = {p.id for p in pairs if p.transitive}
        for seed in seeds:
            best = results[seed.id]
            qualifies = (
                reference_proof_length(best)
                <= LENGTH_RATIO * reference_proof_length(seed.full_source)
            )
            assert (seed.id in direct) == qualifies
            ancestor = ancestry.get(seed.id)
            expect_transitive = (
                qualifies
                and ancestor is not None
                and reference_proof_length(best)
                <= LENGTH_RATIO * reference_proof_length(ancestor.full_source)
            )
            assert (seed.id in transitive) == expect_transitive

        for pair, record in zip(pairs, emit_sft_records(pairs)):
            serialized = json.loads(json.dumps(record, ensure_ascii=False))
            assert serialized["meta"]["id"] == pair.id
            assert serialized["meta"]["input_source"] == pair.input
            assert serialized["meta"]["output_source"] == pair.output
            assert extract_code_block(serialized["completion"]) == pair.output
            assert pair.input in serialized["prompt"]


# --- 8. reward groups ---------------------------------------------------------


def test_criterion_reward_groups():
    with criterion("rewards: zero-sum advantages on 1000 random groups"):
        rng = random.Random(8)
        for _ in range(1000):
            orig_len = rng.randint(1, 50)
            candidates = [
                (rng.randint(1, 70), rng.random() < 0.6) for _ in range(rng.randint(1, 10))
            ]
            results = [
                CandidateResult("theorem r : 1 = 1 := by\n  rfl",
                                VerdictStatus.VALID if valid else VerdictStatus.INVALID, cand_len)
                for cand_len, valid in candidates
            ]
            group = compute_rewards(orig_len, results, "theorem r : 1 = 1")
            assert abs(math.fsum(e.advantage for e in group.entries)) < 1e-12
            for entry, (cand_len, valid) in zip(group.entries, candidates):
                if not valid or cand_len > orig_len:
                    assert entry.reward == 0.0
                else:
                    assert entry.reward == pytest.approx((orig_len - cand_len) / orig_len)
                assert entry.omit == (entry.advantage == 0.0)


# --- 9. report identities -----------------------------------------------------


def test_criterion_report_identities():
    with criterion("report identities: red@k and corpus quartiles"):
        rng = random.Random(9)
        for _ in range(40):
            sets = [
                SampleSet(
                    original_score=rng.randint(1, 400),
                    candidates=tuple(
                        (rng.randint(1, 500), rng.random() < 0.7) for _ in range(6)
                    ),
                )
                for _ in range(10)
            ]
            for k in (1, 2, 4, 6):
                for samples in sets:
                    red = red_at_k(samples, k)
                    identity = 1 - min_at_k(effective_scores(samples), k) / samples.original_score
                    assert abs(red - identity) < 1e-12
                table = atk_table(sets, [k])
                per = [(min_at_k(effective_scores(s), k), red_at_k(s, k)) for s in sets]
                mean_min, mean_red = dataset_aggregate(per)
                assert table[0]["min_at_k"] == pytest.approx(mean_min, abs=1e-12)
                assert table[0]["red_at_k"] == pytest.approx(mean_red, abs=1e-12)

        # a 302-token proof cut to 152 tokens is a 49.7% reduction
        example = SampleSet(original_score=302, candidates=((152, True),))
        assert red_at_k(example, 1) == pytest.approx(1 - 152 / 302, abs=1e-12)
        assert round(100 * red_at_k(example, 1), 1) == 49.7

        for _ in range(100):
            scores = [rng.randint(1, 2000) for _ in range(rng.randint(1, 80))]
            stats = corpus_stats(scores)
            ordered = sorted(scores)
            for value, q in ((stats["q1"], 0.25), (stats["median"], 0.5), (stats["q3"], 0.75)):
                pos = q * (len(ordered) - 1)
                lo = int(pos)
                hi = min(lo + 1, len(ordered) - 1)
                want = ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])
                assert value == pytest.approx(want, abs=1e-9)
            assert stats["min"] == ordered[0] and stats["max"] == ordered[-1]
            assert stats["mean"] == pytest.approx(sum(scores) / len(scores))
