"""Training-data construction: simplification pairs, triviality filtering,
and group-relative reward computation for an external trainer."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lexer, prompting
from .backends import VerdictMemo, Verifier
from .errors import MissingVerdict, ZeroOriginal
from .records import ProofRecord
from .shortener import map_in_order

LENGTH_RATIO = 0.8

# Automation tactic cascade used to weed out trivially provable theorems.
AUTO_MACRO = """macro "AUTO" : tactic =>
  `(tactic|
    repeat'
      (try rfl
       try tauto
       try assumption
       try norm_num
       try ring
       try ring_nf at *
       try ring_nf! at *
       try native_decide
       try omega
       try simp [*] at *
       try field_simp at *
       try positivity
       try linarith
       try nlinarith
       try exact?
       try aesop))"""


# The rows of dataset build, dataset emit-sft and reward, read by
# records.from_json; asdict writes a SimplificationPair.
@dataclass(frozen=True)
class SimplificationPair:
    input: ProofRecord
    output: ProofRecord
    iteration: int = 0
    transitive: bool = False


@dataclass
class ResultRow(ProofRecord):  # a seed's best candidate
    valid: bool = None  # absent when it was not checked


@dataclass
class AncestryRow:  # ancestor precedes id, so an error names no row
    ancestor: ProofRecord
    id: str


@dataclass
class RewardCandidate:
    proof: str
    valid: bool


@dataclass(kw_only=True)
class RewardRow(ProofRecord):
    candidates: list[RewardCandidate]


def passes_length_filter(input_proof: ProofRecord, output_proof: ProofRecord) -> bool:
    """Inclusive ratio check: the output must be at most 80% of the input."""
    len_in = lexer.proof_length(input_proof.full_source)
    len_out = lexer.proof_length(output_proof.full_source)
    return len_out <= LENGTH_RATIO * len_in


def build_expit_dataset(
    seed_proofs: list[ProofRecord],
    iteration_results: dict[str, tuple[ProofRecord, bool | None]],
    ancestry: dict[str, ProofRecord] | None = None,
    origin_iteration: int = 0,
) -> list[SimplificationPair]:
    """Emit (input, output) pairs for proofs whose best candidate passed the
    length filter, plus a transitive pair against the original ancestor when
    the input was itself the product of an earlier round. Each result is the
    best candidate and whether it verified, None when it was not checked.
    """
    ancestry = ancestry or {}
    pairs = []
    for proof in seed_proofs:
        if proof.id not in iteration_results:
            continue
        best, valid = iteration_results[proof.id]
        if valid is None:
            raise MissingVerdict(f"candidate for {proof.id!r} has no verdict")
        if not valid:
            raise MissingVerdict(f"candidate for {proof.id!r} did not verify")
        if not passes_length_filter(proof, best):
            continue
        pairs.append(SimplificationPair(proof, best, origin_iteration))
        ancestor = ancestry.get(proof.id)
        if ancestor is not None and ancestor.proof != proof.proof:
            if passes_length_filter(ancestor, best):
                pairs.append(SimplificationPair(ancestor, best, origin_iteration, transitive=True))
    return pairs


def filter_trivial(
    theorems: list[ProofRecord], verifier: Verifier
) -> tuple[list[ProofRecord], list[ProofRecord]]:
    """Partition theorems, each in input order, by whether the automation
    cascade alone proves them, checking as many at once as the verifier
    admits, each through its own VerdictMemo. Timeouts and crashes count as
    kept: not provable within budget."""

    def trivial(theorem: ProofRecord) -> bool:
        probe = f"{AUTO_MACRO}\n\n{theorem.statement} := by\n  AUTO"
        return VerdictMemo(verifier).verify(probe).ok

    kept, discarded = [], []
    proven = map_in_order(trivial, theorems, verifier.cfg.max_parallel)
    for theorem, proved in zip(theorems, proven):
        (discarded if proved else kept).append(theorem)
    return kept, discarded


@dataclass
class RewardEntry:
    proof: ProofRecord
    valid: bool
    reward: float = 0.0
    advantage: float = 0.0
    omit: bool = False


@dataclass
class RewardGroup:
    prompt_id: str
    original: ProofRecord
    entries: list[RewardEntry] = field(default_factory=list)

    @property
    def group_size(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        entries = [
            {"reward": e.reward, "advantage": e.advantage, "valid": e.valid, "omit": e.omit}
            for e in self.entries
        ]
        return {"id": self.prompt_id, "group_size": self.group_size, "entries": entries}


def compute_rewards(
    original: ProofRecord,
    candidates: list[tuple[ProofRecord, bool]],
    positive_shortening: bool = True,
) -> RewardGroup:
    """Length-based rewards with a group-mean baseline.

    A candidate earns (|x| - |y|) / |x| when it verifies and is no longer
    than the original, else 0. ``positive_shortening=False`` flips the sign
    to (|y| - |x|) / |x| for trainers that expect the raw delta. Advantages
    are mean-baselined with no variance normalization; entries whose
    advantage comes out exactly zero are flagged for omission.
    """
    if not candidates:
        raise ValueError("reward group needs at least one candidate")
    len_x = lexer.proof_length(original.full_source)
    if len_x == 0:
        raise ZeroOriginal("cannot compute relative rewards for a zero-length original")
    sign = 1.0 if positive_shortening else -1.0
    group = RewardGroup(prompt_id=original.id, original=original)
    for proof, valid in candidates:
        entry = RewardEntry(proof=proof, valid=valid)
        if valid:
            len_y = lexer.proof_length(proof.full_source)
            if len_y <= len_x:
                entry.reward = sign * (len_x - len_y) / len_x
        group.entries.append(entry)
    mean = sum(e.reward for e in group.entries) / len(group.entries)
    for entry in group.entries:
        entry.advantage = entry.reward - mean
        entry.omit = entry.advantage == 0.0
    return group


def emit_sft_records(pairs: list[SimplificationPair]):
    """Yield JSON-ready supervised records, one per pair.

    Sources are carried verbatim in the metadata so a consumer can recover
    both sides without re-parsing the prompt.
    """
    for pair in pairs:
        prompt = prompting.render("simplify", statement=pair.input.full_source)
        completion = f"```lean4\n{pair.output.full_source}\n```"
        yield {
            "prompt": prompt,
            "completion": completion,
            "meta": {
                "input_id": pair.input.id,
                "output_id": pair.output.id,
                "iteration": pair.iteration,
                "transitive": pair.transitive,
                "input_source": pair.input.full_source,
                "output_source": pair.output.full_source,
            },
        }
