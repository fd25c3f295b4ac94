"""Training-data construction: simplification pairs, triviality filtering,
and group-relative reward computation for an external trainer."""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import lexer, prompting
from .backends import CandidateResult, VerdictMemo, VerdictStatus, Verifier
from .backends import admissible, admissible_text, same_statement
from .errors import MalformedInput, ZeroOriginal
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


# The row of dataset build and dataset emit-sft, written by records.write_jsonl
# and read by records.from_json: input is the seed's (or its ancestor's) text
# and output the text shorten adopted, each verbatim as a checker saw it.
@dataclass(frozen=True)
class SimplificationPair:
    id: str
    input: str
    output: str
    iteration: int = 0
    transitive: bool = False


def passes_length_filter(source: str, shorter: str) -> bool:
    """Inclusive ratio check: shorter must be at most 80% of source's length."""
    return lexer.proof_length(shorter) <= LENGTH_RATIO * lexer.proof_length(source)


def build_expit_dataset(
    seed_proofs: list[ProofRecord],
    results: dict[str, str],
    ancestry: dict[str, ProofRecord] | None = None,
    origin_iteration: int = 0,
) -> list[SimplificationPair]:
    """Emit (input, output) pairs for seeds whose verified result passed the
    length filter, plus a transitive pair against the original ancestor when
    the input was itself the product of an earlier round. results holds each
    seed's adopted text and ancestry its ancestor, both keyed by seed id; a
    seed without a result makes no pair. A seed's result must pass
    admissible_text against its statement and its ancestor prove it
    (same_statement): either one that does not is MalformedInput.
    """
    ancestry = ancestry or {}
    pairs = []
    for proof in seed_proofs:
        best = results.get(proof.id)
        if best is None:
            continue
        if not admissible_text(best, proof.statement):
            raise MalformedInput(
                f"proof {proof.id!r}: its result is not an admissible proof of its seed's statement"
            )
        ancestor = ancestry.get(proof.id)
        if ancestor is not None and not same_statement(ancestor.statement, proof.statement):
            raise MalformedInput(
                f"proof {proof.id!r}: its ancestor's statement differs from its seed's"
            )
        if not passes_length_filter(proof.full_source, best):
            continue
        pairs.append(SimplificationPair(proof.id, proof.full_source, best, origin_iteration))
        earlier = ancestor.full_source if ancestor and ancestor.proof != proof.proof else None
        if earlier and passes_length_filter(earlier, best):
            pairs.append(SimplificationPair(proof.id, earlier, best, origin_iteration, True))
    return pairs


def filter_trivial(
    theorems: list[ProofRecord], verifier: Verifier
) -> tuple[list[ProofRecord], list[ProofRecord]]:
    """Partition theorems, each in input order, by whether the automation
    cascade alone proves them, checking as many at once as the verifier
    admits, each through its own VerdictMemo. Timeouts and crashes count as
    kept: not provable within budget."""

    def trivial(theorem: ProofRecord) -> bool:
        # full_source starts a line with ':= by' after a statement's '--' comment
        probe = f"{AUTO_MACRO}\n\n{replace(theorem, proof='  AUTO').full_source}"
        return VerdictMemo(verifier).verify(probe).ok

    kept, discarded = [], []
    proven = map_in_order(trivial, theorems, verifier.cfg.max_parallel)
    for theorem, proved in zip(theorems, proven):
        (discarded if proved else kept).append(theorem)
    return kept, discarded


# A reward row, written by records.write_jsonl.
@dataclass
class RewardEntry:
    reward: float
    advantage: float
    valid: bool
    omit: bool


@dataclass
class RewardGroup:
    id: str
    group_size: int
    entries: list[RewardEntry]


def compute_rewards(
    original_length: int,
    candidates: list[CandidateResult],
    statement: str,
    positive_shortening: bool = True,
    group_id: str = "",
) -> RewardGroup:
    """Length-based rewards with a group-mean baseline, for an iteration's
    candidates against an original of score original_length proving statement.

    A candidate earns (|x| - |y|) / |x| when it is admissible against
    statement and no longer than the original, else 0; its valid flag is its
    verdict. ``positive_shortening=False`` flips
    the sign to (|y| - |x|) / |x| for trainers that expect the raw delta.
    Advantages are mean-baselined with no variance normalization; entries
    whose advantage comes out exactly zero are flagged for omission.
    """
    if not candidates:
        raise ValueError(f"reward group {group_id!r} needs at least one candidate")
    if original_length == 0:
        raise ZeroOriginal(
            f"reward group {group_id!r}: cannot compute relative rewards for a zero-length original"
        )
    sign = 1.0 if positive_shortening else -1.0
    rewards = [
        sign * (original_length - c.score) / original_length
        if admissible(c, statement) and c.score <= original_length else 0.0
        for c in candidates
    ]
    mean = sum(rewards) / len(rewards)
    entries = [
        RewardEntry(reward, reward - mean, c.status is VerdictStatus.VALID, reward - mean == 0.0)
        for reward, c in zip(rewards, candidates)
    ]
    return RewardGroup(group_id, len(entries), entries)


def emit_sft_records(pairs: list[SimplificationPair]):
    """Yield JSON-ready supervised records, one per pair: the prompt holds its
    input and the completion fences its output, and the metadata carries
    both verbatim, so a consumer need not re-parse the prompt."""
    for pair in pairs:
        yield {
            "prompt": prompting.render("simplify", statement=pair.input),
            "completion": f"```lean4\n{pair.output}\n```",
            "meta": {
                "id": pair.id,
                "iteration": pair.iteration,
                "transitive": pair.transitive,
                "input_source": pair.input,
                "output_source": pair.output,
            },
        }
