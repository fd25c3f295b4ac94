import json
import math
import random
from pathlib import Path

import pytest

from proofopt import lexer, training_data
from proofopt.backends import (
    SORRY_TOKENS,
    SORRY_WARNING,
    BackendConfig,
    CandidateResult,
    Diagnostic,
    SubprocessVerifier,
    Verdict,
    VerdictStatus,
    Verifier,
    admissible,
    extract_code_block,
    judge,
    same_statement,
)
from proofopt.errors import MalformedInput, ZeroOriginal
from proofopt.cli import main
from proofopt.records import PROOF_DELIMITER, ProofRecord, read_jsonl, write_jsonl
from proofopt.mocks import MockSimplifier
from proofopt.shortener import _adopt
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

from conftest import COMMENT_CHECKER, CliRunner, python_checker
from lexer_oracle import reference_proof_length


def rec(id, proof):
    """A record of theorem id; a result id' proves the statement of its seed id."""
    theorem = id.rstrip("'")
    return ProofRecord(id=id, statement=f"theorem {theorem} : 1 = 1", proof=proof)


def proof_of_length(id, n):
    return rec(id, "\n".join("  rfl" for _ in range(n)))


def test_length_filter_boundary_is_inclusive():
    x = proof_of_length("x", 10).full_source
    assert lexer.proof_length(x) == 10
    assert passes_length_filter(x, proof_of_length("y", 8).full_source)
    assert not passes_length_filter(x, proof_of_length("y", 9).full_source)


def test_build_dataset_filters_and_pairs():
    seeds = [proof_of_length("a", 10), proof_of_length("b", 10), proof_of_length("c", 10)]
    results = {
        "a": proof_of_length("a'", 4).full_source,
        "b": proof_of_length("b'", 9).full_source,  # misses the ratio, dropped
    }  # c has no result: nothing was adopted for it
    pairs = build_expit_dataset(seeds, results)
    assert pairs == [SimplificationPair("a", seeds[0].full_source, results["a"])]


def test_build_dataset_transitive_pairs():
    seed = proof_of_length("a", 10)
    ancestor = proof_of_length("a", 30)
    best = proof_of_length("a'", 4).full_source
    pairs = build_expit_dataset([seed], {"a": best}, {"a": ancestor})
    assert len(pairs) == 2
    assert pairs[1] == SimplificationPair("a", ancestor.full_source, best, transitive=True)
    # no transitive pair when the "ancestor" is just the seed itself
    pairs = build_expit_dataset([seed], {"a": best}, {"a": seed})
    assert len(pairs) == 1


def test_build_dataset_transitive_pair_also_ratio_checked():
    seed = proof_of_length("a", 10)
    ancestor = proof_of_length("a", 11)
    best = proof_of_length("a'", 9).full_source  # 9 <= 0.8*11 fails, 9 <= 0.8*10 fails too
    assert build_expit_dataset([seed], {"a": best}, {"a": ancestor}) == []
    best = proof_of_length("a'", 8).full_source  # passes both
    assert len(build_expit_dataset([seed], {"a": best}, {"a": ancestor})) == 2


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


def test_filter_trivial_probes_a_statement_that_ends_in_a_line_comment(tmp_path):
    """The probe is the theorem's full_source with the proof AUTO, so the
    ':= by' after a statement whose last line holds a '--' comment starts
    its own line, and a checker that reads the comment as Lean does sees it."""
    checker = python_checker(tmp_path, COMMENT_CHECKER)
    verifier = SubprocessVerifier(BackendConfig(kind="subprocess_verifier",
                                                command_template=checker))
    theorems = [ProofRecord("a", "theorem a : 1 = 1 -- easy", "  rfl"),
                ProofRecord("b", "theorem b : 1 = 1", "  rfl")]
    assert filter_trivial(theorems, verifier) == ([], theorems)


STATEMENT = "theorem x : 1 = 1"


def scored(score, valid=True) -> CandidateResult:
    """A tactic proof of STATEMENT with score score and the verdict valid."""
    status = VerdictStatus.VALID if valid else VerdictStatus.INVALID
    return CandidateResult(f"{STATEMENT} := by\n  rfl", status, score)


def test_rewards_basic():
    candidates = [
        scored(5),   # reward 0.5
        scored(5, False),  # invalid: 0
        scored(15),  # longer: 0
        scored(10),  # equal length: 0
        scored(None),  # no score, so no length: 0
    ]
    group = compute_rewards(10, candidates, STATEMENT, group_id="x#0")
    assert (group.id, group.group_size) == ("x#0", 5)
    rewards = [e.reward for e in group.entries]
    assert rewards == pytest.approx([0.5, 0.0, 0.0, 0.0, 0.0])
    advantages = [e.advantage for e in group.entries]
    assert advantages == pytest.approx([0.4, -0.1, -0.1, -0.1, -0.1])
    assert sum(advantages) == pytest.approx(0.0, abs=1e-12)
    assert [e.valid for e in group.entries] == [True, False, True, True, True]
    assert not any(e.omit for e in group.entries)


def test_rewards_sign_convention_switch():
    positive = compute_rewards(10, [scored(5)], STATEMENT).entries[0].reward
    literal = compute_rewards(10, [scored(5)], STATEMENT, positive_shortening=False)
    assert positive == pytest.approx(0.5)
    assert literal.entries[0].reward == pytest.approx(-0.5)


def test_rewards_zero_advantage_flag():
    # every candidate identical: all advantages are exactly zero
    group = compute_rewards(10, [scored(5)] * 3, STATEMENT)
    assert all(e.advantage == 0.0 for e in group.entries)
    assert all(e.omit for e in group.entries)
    mixed = compute_rewards(10, [scored(5), scored(20)], STATEMENT)
    assert [e.omit for e in mixed.entries] == [False, False]


def test_rewards_zero_original():
    with pytest.raises(ZeroOriginal, match="'z#0'"):
        compute_rewards(0, [scored(1)], STATEMENT, group_id="z#0")
    with pytest.raises(ValueError):
        compute_rewards(3, [], STATEMENT)


def test_rewards_random_groups_sum_to_zero():
    rng = random.Random(17)
    for _ in range(200):
        candidates = [
            scored(rng.randint(1, 60), rng.random() < 0.6) for _ in range(rng.randint(1, 12))
        ]
        group = compute_rewards(rng.randint(1, 40), candidates, STATEMENT)
        assert math.fsum(e.advantage for e in group.entries) == pytest.approx(0.0, abs=1e-12)


def test_emit_sft_round_trip():
    pair = SimplificationPair(
        id="a",
        input=proof_of_length("a", 10).full_source,
        output=proof_of_length("a'", 4).full_source + "\n\n",  # trailing blank lines kept
        iteration=2,
        transitive=True,
    )
    (record,) = list(emit_sft_records([pair]))
    assert pair.input in record["prompt"]
    assert record["completion"] == f"```lean4\n{pair.output}\n```"
    assert extract_code_block(record["completion"]) == pair.output.strip("\n")
    meta = json.loads(json.dumps(record["meta"]))
    assert meta == {"id": "a", "iteration": 2, "transitive": True,
                    "input_source": pair.input, "output_source": pair.output}


def test_ratio_constant():
    assert LENGTH_RATIO == 0.8


# --- reward and dataset build over a mock shorten run -------------------------

SHORTEN_CONFIG = {
    "backends": {
        "verifier": {"kind": "mock",
                     "options": {"noop_tactics": ["skip"], "require_token": "norm_num"}},
        "simplifier": {"kind": "mock",
                       "options": {"mode": "drop_lines", "drop_probability": 0.6, "seed": 5}},
        "repairer": {"kind": "mock",
                     "options": {"mode": "shorter", "proof_body": "norm_num\n  skip"}},
    },
    "schedule": "3x3",
}


def shorten_seeds() -> list[ProofRecord]:
    """Proofs that shrink, one already minimal (flat), one whose best
    shortening misses the length filter (wide), and one that does not
    verify (bad): the mock verifier requires norm_num."""
    seeds = []
    for i in range(6):
        lines = ["  skip", "  have h : 1 = 1 := rfl", "  norm_num"]
        lines += [f"  simp only [h, Nat.add_comm] at h{j}" for j in range(i)] + ["  exact h"]
        seeds.append(rec(f"s{i}", "\n".join(lines)))
    wide = "  norm_num [Nat.add_comm, Nat.mul_comm, Nat.add_assoc, Nat.mul_assoc]\n  rfl"
    return seeds + [rec("flat", "  norm_num"), rec("wide", wide), rec("bad", "  simp\n  rfl")]


def run_cli(argv) -> list[dict]:
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    return [json.loads(line) for line in result.output.splitlines()]


def shorten_rows(tmp_path, seeds, config) -> str:
    """The file of a seeded mock shorten run's output over seeds, repair on."""
    (tmp_path / "config.json").write_text(json.dumps(config))
    with open(tmp_path / "seeds.jsonl", "w") as handle:
        write_jsonl(handle, seeds)
    run_cli(["--config", str(tmp_path / "config.json"), "shorten", str(tmp_path / "seeds.jsonl"),
             "--repair", "on", "-o", str(tmp_path / "out.jsonl")])
    return str(tmp_path / "out.jsonl")


def former_rewards(source: str, candidates: list[dict], sign: float) -> list[float]:
    """The rewards that reward gave when its rows were hand-built: the
    iteration's input as the group's proof, and each candidate as its proof
    body with a valid flag, here the trace's verdict, both measured by the
    lexer."""
    original = ProofRecord.from_source(source)
    len_x = lexer.proof_length(original.full_source)
    rewards = []
    for candidate in candidates:
        body = ProofRecord.from_source(candidate["text"]).proof
        len_y = lexer.proof_length(f"{original.statement} := by\n{body}")
        valid = candidate["status"] == "valid"
        rewards.append(sign * (len_x - len_y) / len_x if valid and len_y <= len_x else 0.0)
    return rewards


@pytest.mark.parametrize("literal", [False, True], ids=["positive", "literal-sign"])
def test_reward_over_shorten_output_matches_the_former_rewards(tmp_path, literal):
    seeds = shorten_seeds()
    out = shorten_rows(tmp_path, seeds, SHORTEN_CONFIG)
    rows = [row for row in read_jsonl(Path(out).read_text().splitlines()) if "summary" not in row]
    groups = run_cli(["reward", out] + ["--literal-sign"] * literal)
    sampled = [row for row in rows if row["candidates"]]
    assert len(sampled) < len(rows)  # bad's iterations were skipped: no group
    assert [g["id"] for g in groups] == [f"{r['proof_id']}#{r['index']}" for r in sampled]
    inputs = {}  # each iteration starts from the last one's source_after
    for seed in seeds:
        inputs[seed.id, 0] = seed.full_source
    for row in rows:
        inputs[row["proof_id"], row["index"] + 1] = row["source_after"]
    repaired = 0
    for group, row in zip(groups, sampled):
        entries = group["entries"]
        assert group["group_size"] == len(entries) == len(row["candidates"])
        assert abs(math.fsum(e["advantage"] for e in entries)) < 1e-12
        expected = former_rewards(inputs[row["proof_id"], row["index"]], row["candidates"],
                                  -1.0 if literal else 1.0)
        assert [e["reward"] for e in entries] == expected
        assert [e["valid"] for e in entries] == [c["status"] == "valid" for c in row["candidates"]]
        assert [e["omit"] for e in entries] == [e["advantage"] == 0.0 for e in entries]
        repaired += row["repair"] is not None
    assert repaired and any(e["reward"] for g in groups for e in g["entries"])


def test_dataset_build_over_shorten_output_pairs_each_adopted_result_that_passes_the_filter(
    tmp_path,
):
    seeds = shorten_seeds()
    out = shorten_rows(tmp_path, seeds, SHORTEN_CONFIG)
    rows = [row for row in read_jsonl(Path(out).read_text().splitlines()) if "summary" not in row]
    pairs = run_cli(["dataset", "build", "--seeds", str(tmp_path / "seeds.jsonl"),
                     "--results", out])
    expected, adopted = {}, set()
    for seed in seeds:
        own = [row for row in rows if row["proof_id"] == seed.id]
        final = own[-1]["source_after"]
        if any(row["score_after"] < row["score_before"] for row in own):
            adopted.add(seed.id)
            if reference_proof_length(final) <= LENGTH_RATIO * reference_proof_length(
                seed.full_source
            ):
                expected[seed.id] = final
    assert {p["id"]: p["output"] for p in pairs} == expected
    seed_texts = {s.id: s.full_source for s in seeds}
    assert all(p["input"] == seed_texts[p["id"]] for p in pairs)
    # some adopted results miss the filter, and some proofs adopted nothing,
    # among them one shortened only by a repair
    assert set(expected) < adopted < {s.id for s in seeds}
    assert any(row["repair"] and row["repair"]["adopted"] is not None
               and row["proof_id"] in expected for row in rows)


def test_reward_pays_exactly_the_candidates_that_shorten_could_adopt(tmp_path, monkeypatch):
    """Over a seeded mock shorten run with repair on, whose simplifier also
    rewrites statements and gives term-mode proofs, a candidate's reward is
    nonzero exactly when the acceptance rule adopts it alone against its
    row's score_before and statement."""
    simplify = MockSimplifier._simplify

    def rewriting(self, source, k, temperature):
        out = simplify(self, source, k, temperature)
        # each still verifies exactly when the candidate it replaces does
        out[0] = "theorem other : True := by" + out[0].partition(":= by")[2]
        out[1] = out[1].replace(":= by", ":=", 1)
        return out

    monkeypatch.setattr(MockSimplifier, "_simplify", rewriting)
    out = shorten_rows(tmp_path, shorten_seeds(), SHORTEN_CONFIG)
    rows = [row for row in read_jsonl(Path(out).read_text().splitlines()) if "summary" not in row]
    sampled = [row for row in rows if row["candidates"]]
    groups = run_cli(["reward", out])
    assert len(groups) == len(sampled)
    paid = refused = 0
    for group, row in zip(groups, sampled):
        statement = ProofRecord.from_source(row["source_after"]).statement
        for entry, c in zip(group["entries"], row["candidates"]):
            candidate = CandidateResult(c["text"], VerdictStatus(c["status"]), c.get("score"))
            adopted = _adopt(row["score_before"], [candidate], statement) == 0
            assert (entry["reward"] != 0.0) == adopted
            paid += adopted
            refused += entry["valid"] and c["score"] < row["score_before"] and not adopted
    # rows that repaired, rewards paid, and valid shorter candidates refused
    assert any(row["repair"] for row in rows) and paid and refused


def test_candidates_that_hold_sorry_earn_nothing_and_pair_nothing(tmp_path):
    config = json.loads(json.dumps(SHORTEN_CONFIG))
    backends = config["backends"]
    # shorter than every seed, and verified but for its sorry
    backends["simplifier"]["options"] = {"mode": "constant", "proof_body": "norm_num\n  sorry"}
    backends["repairer"]["options"] = {"mode": "longer"}  # keeps the sorry
    out = shorten_rows(tmp_path, shorten_seeds(), config)
    groups = run_cli(["reward", out])
    assert groups and all(e["reward"] == 0.0 and not e["valid"]
                          for g in groups for e in g["entries"])
    pairs = run_cli(["dataset", "build", "--seeds", str(tmp_path / "seeds.jsonl"),
                     "--results", out])
    assert pairs == []


# --- the known ways to fool adoption ------------------------------------------

CHEAT_STATEMENT = "theorem t (P : Prop) (hp : P) : P"
CHEAT_SEED = ProofRecord("t", CHEAT_STATEMENT, "  have h1 : P := hp\n  have h2 : P := h1\n"
                         "  have h3 : P := h2\n  exact h3")
HONEST = f"{CHEAT_STATEMENT} := by\n  have h : P := hp\n  have g : P := h\n  exact g"
# Bodies that Lean accepts, that the metric scores below HONEST, and that
# fooled admissible's reader: a string holding '--', a char literal holding
# '"', a raw string holding '"' and '--', and a «»-quoted name holding '--'.
LINE_COMMENT_IN_STRING = '  have _h : "--" = "--" := rfl; exact hp'
STRING_QUOTE_IN_CHAR = '  have := (\'"\', "/-")\n  exact hp -- -/'
LINE_COMMENT_IN_RAW_STRING = '  have _s : String := r#" " -- "# ; exact hp'
LINE_COMMENT_IN_QUOTED_NAME = "  have «--» : True := trivial ; exact hp"
SORRY_WARNED = (Diagnostic("warning", 1, 0, SORRY_WARNING),)


def _body(entry: CandidateResult) -> str:
    return entry.text.partition(PROOF_DELIMITER)[2]


# Each rule of admissible that a row names, as the test that it refuses the row.
RULES = {
    "verdict": lambda c: c.status is not VerdictStatus.VALID,
    "same_statement": lambda c: not same_statement(c.text.partition(PROOF_DELIMITER)[0],
                                                   CHEAT_STATEMENT),
    "sorry token": lambda c: not SORRY_TOKENS.isdisjoint(lexer.tokens(_body(c), lean=True)),
    "metric reads as Lean": lambda c: lexer.tokens(_body(c)) != lexer.tokens(_body(c), lean=True),
    # the open clauses, which admissible does not state yet
    "no new axiom": lambda c: "native_decide" in lexer.tokens(_body(c), lean=True),
    "no declaration after the theorem": lambda c: any(
        line[:1].strip() for line in _body(c).splitlines()
    ),
}


@pytest.mark.parametrize("text,diagnostics,rule", [
    ("theorem t (P : Prop) (hp : P) : True := by\n  trivial", (), "same_statement"),
    # Lean reads True ∨ P, which simp proves
    ("theorem t (P : Prop) (hp : P) : /- -/ True ∨ /- -/ P := by\n  simp", (), "same_statement"),
    (f"{CHEAT_STATEMENT} := by\n  sorry", SORRY_WARNED, "verdict"),
    (f"{CHEAT_STATEMENT} := by\n  sorry", (), "sorry token"),
    (f"{CHEAT_STATEMENT} := by\n  admit", SORRY_WARNED, "verdict"),
    (f"{CHEAT_STATEMENT} := by\n  admit", (), "sorry token"),
    # the metric's greedy rule deletes the tactic that Lean reads: 0 tokens
    (f"{CHEAT_STATEMENT} := by\n  /- -/ exact hp /- -/", (), "metric reads as Lean"),
    (f"{CHEAT_STATEMENT} := by\n  /- -/ sorry /- -/", (), "sorry token"),
    # the metric deletes the rest of the line from the '--' in the string
    (f"{CHEAT_STATEMENT} := by\n{LINE_COMMENT_IN_STRING}", (), "metric reads as Lean"),
    # read as a string from the char literal's '"', "/-" opened a comment
    (f"{CHEAT_STATEMENT} := by\n{STRING_QUOTE_IN_CHAR}", (), "metric reads as Lean"),
    # Lean reads one raw string, then code; read as a string and then a
    # comment, the body scored as the metric scores it
    (f"{CHEAT_STATEMENT} := by\n{LINE_COMMENT_IN_RAW_STRING}", (), "metric reads as Lean"),
    # Lean reads one name, then code
    (f"{CHEAT_STATEMENT} := by\n{LINE_COMMENT_IN_QUOTED_NAME}", (), "metric reads as Lean"),
    (f"{CHEAT_STATEMENT} := by\n  have a := '\"'\n  have b := \"/-\"\n  sorry\n  have c := \"-/\"",
     (), "sorry token"),
    # Lean reads no ':= by' outside the comment
    (f"{CHEAT_STATEMENT} -- := by\n  exact hp", (Diagnostic("error", 2, 2, "expected ':='"),),
     "verdict"),
    # Lean accepts the proof, which depends on Lean.ofReduceBool
    pytest.param(f"{CHEAT_STATEMENT} := by\n  have := (by native_decide : 1 = 1)\n  exact hp",
                 (), "no new axiom", marks=pytest.mark.xfail(
                     strict=True, reason="open clause: no axiom beyond the incumbent's")),
    # a top-level command after the proof changes every later declaration
    pytest.param(f"{CHEAT_STATEMENT} := by\n  exact hp\nattribute [simp] Nat.add_comm",
                 (), "no declaration after the theorem", marks=pytest.mark.xfail(
                     strict=True, reason="open clause: no new top-level declaration")),
], ids=["rewritten-statement", "comment-hidden-statement", "sorry-warned", "sorry-silent",
        "admit-warned", "admit-silent", "comment-wrapped-body", "comment-wrapped-sorry",
        "line-comment-in-string", "string-quote-in-char", "line-comment-in-raw-string",
        "line-comment-in-quoted-name", "string-quote-in-char-sorry",
        "line-comment-swallows-delimiter", "native-decide-axiom", "trailing-declaration"])
def test_a_known_cheat_is_never_adopted_rewarded_or_paired(text, diagnostics, rule):
    """The checker's verdict on each row comes from its diagnostics, and the
    metric scores it below the honest candidate beside it, so only a rule of
    admissible, the one the row names among them, keeps it from adoption,
    reward and a pair; and dataset build refuses its text as a result."""
    status = judge(diagnostics).status
    cheat = CandidateResult(text, status, lexer.proof_length(text))
    honest = CandidateResult(HONEST, VerdictStatus.VALID, lexer.proof_length(HONEST))
    assert RULES[rule](cheat) and cheat.score < honest.score
    assert not admissible(cheat, CHEAT_STATEMENT)
    original = lexer.proof_length(CHEAT_SEED.full_source)
    assert _adopt(original, [cheat], CHEAT_STATEMENT) is None
    adopted = _adopt(original, [cheat, honest], CHEAT_STATEMENT)
    assert adopted == 1
    group = compute_rewards(original, [cheat, honest], CHEAT_STATEMENT)
    assert [e.reward > 0 for e in group.entries] == [False, True]
    [pair] = build_expit_dataset([CHEAT_SEED], {"t": [cheat, honest][adopted].text})
    assert pair.output == HONEST
    with pytest.raises(MalformedInput, match="not an admissible proof"):
        build_expit_dataset([CHEAT_SEED], {"t": cheat.text})


# A checker that reads comments as Lean does: it fails a file only when no
# ':= by' is left outside them.
LEAN_READING_CHECKER = f"""\
import sys
sys.path.insert(0, {str(Path(lexer.__file__).parents[1])!r})
from proofopt import lexer
if ":= by" not in lexer.strip_lean_comments(open(sys.argv[1], encoding="utf-8").read()):
    print(sys.argv[1] + ":1:0: error: expected ':='")
"""


@pytest.mark.parametrize("body", [
    "  /- -/ exact hp /- -/", LINE_COMMENT_IN_STRING, STRING_QUOTE_IN_CHAR,
], ids=["comment-wrapped-body", "line-comment-in-string", "string-quote-in-char"])
def test_a_cheat_that_the_checker_passes_is_never_adopted_rewarded_or_paired_by_the_cli(
    tmp_path, body
):
    """shorten samples only the cheat, which verifies and scores below the
    seed, and adopts nothing; reward pays it nothing and dataset build makes
    no pair."""
    config = {"backends": {
        "verifier": {"kind": "subprocess_verifier",
                     "command_template": python_checker(tmp_path, LEAN_READING_CHECKER)},
        "simplifier": {"kind": "mock", "options": {"mode": "constant", "proof_body": body[2:]}},
    }, "schedule": "2x2"}
    (tmp_path / "config.json").write_text(json.dumps(config))
    seeds = tmp_path / "seeds.jsonl"
    with open(seeds, "w") as handle:
        write_jsonl(handle, [CHEAT_SEED])
    out = tmp_path / "out.jsonl"
    run_cli(["--config", str(tmp_path / "config.json"), "shorten", str(seeds), "-o", str(out)])
    rows = [row for row in read_jsonl(out.read_text().splitlines()) if "summary" not in row]
    assert len(rows) == 2
    for row in rows:
        assert row["source_after"] == CHEAT_SEED.full_source and row["adopted"] is None
        assert row["score_after"] == row["score_before"]
        for candidate in row["candidates"]:
            assert candidate["text"] == f"{CHEAT_STATEMENT} := by\n{body}"
            assert candidate["status"] == "valid" and candidate["score"] < row["score_before"]
    groups = run_cli(["reward", str(out)])
    assert [e["reward"] for g in groups for e in g["entries"]] == [0.0] * 4
    assert run_cli(["dataset", "build", "--seeds", str(seeds), "--results", str(out)]) == []
