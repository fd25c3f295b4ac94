import csv
import random
from dataclasses import replace

import pytest

from proofopt.backends import VerdictStatus
from proofopt.errors import EmptyDataset, InvalidK
from proofopt.estimators import SampleSet, effective_scores, min_at_k
from proofopt.reports import (
    GNUPLOT_STUB,
    atk_table,
    corpus_stats,
    repair_accounting,
    speedup_report,
    write_csv,
    write_gnuplot_stub,
)
from proofopt.mocks import MockSimplifier, MockVerifier
from proofopt.records import ProofRecord
from proofopt.shortener import (
    CandidateResult,
    IterationRecord,
    RepairEntry,
    RepairStage,
    shorten_loop,
)

from conftest import mock_cfg


def sorted_quartiles(values):
    """Independent linear-interpolation quantiles over a sorted copy."""
    ordered = sorted(values)
    out = []
    for q in (0.25, 0.5, 0.75):
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        out.append(ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]))
    return out


def test_corpus_stats_against_sort_oracle():
    rng = random.Random(2)
    for _ in range(30):
        scores = [rng.randint(1, 500) for _ in range(rng.randint(1, 60))]
        stats = corpus_stats(scores)
        q1, median, q3 = sorted_quartiles(scores)
        assert stats.n == len(scores)
        assert stats.min == min(scores) and stats.max == max(scores)
        assert stats.q1 == pytest.approx(q1)
        assert stats.median == pytest.approx(median)
        assert stats.q3 == pytest.approx(q3)
        assert stats.mean == pytest.approx(sum(scores) / len(scores))


def test_corpus_stats_empty():
    with pytest.raises(EmptyDataset):
        corpus_stats([])


def sample(original, scored):
    return SampleSet(original_score=original, candidates=tuple(scored))


def test_atk_table_values_and_identity():
    sets = [
        sample(40, [(10, True), (50, True), (20, False)]),
        sample(30, [(5, True), (7, True), (30, True)]),
    ]
    rows = atk_table(sets, [1, 3])
    assert [r["k"] for r in rows] == [1, 3]
    for row in rows:
        k = row["k"]
        per = [(min_at_k(effective_scores(s), k), 1 - min_at_k(effective_scores(s), k) / s.original_score) for s in sets]
        assert row["min_at_k"] == pytest.approx(sum(m for m, _ in per) / 2)
        assert row["red_at_k"] == pytest.approx(sum(r for _, r in per) / 2)


def test_atk_table_rejects_oversized_k():
    sets = [sample(10, [(1, True), (2, True)]), sample(10, [(1, True)])]
    with pytest.raises(InvalidK):
        atk_table(sets, [2])  # smallest set has only one sample
    with pytest.raises(EmptyDataset):
        atk_table([], [1])


def test_speedup_report():
    *rows, counts = speedup_report([(10.0, 5.0), (10.0, 9.5), (12.0, 10.0)])
    ratios = [r["ratio"] for r in rows]
    assert ratios == pytest.approx([2.0, 10 / 9.5, 1.2])
    assert counts == {"over_1.1x": 2, "over_1.5x": 1}
    with pytest.raises(ValueError):
        speedup_report([(0.0, 1.0)])
    with pytest.raises(EmptyDataset):
        speedup_report([])


def _iteration_with_repair():
    return IterationRecord(
        index=0,
        k_requested=4,
        temperature=1.0,
        candidates=[
            CandidateResult(text="t := by a", status=VerdictStatus.VALID, score=9),
            CandidateResult(text="b", status=VerdictStatus.INVALID),
            CandidateResult(text="c", status=VerdictStatus.INVALID),
            CandidateResult(text="d", status=VerdictStatus.TIMEOUT),
        ],
        adopted=0,
        score_before=12,
        score_after=9,
        source_after="t := by a",
        repair=RepairStage(
            attempted=2,
            valid=1,
            candidates=[
                RepairEntry(VerdictStatus.VALID, score=8, linted_score=7),
                RepairEntry(VerdictStatus.INVALID),
            ],
            adopted=0,
        ),
    )


def test_repair_accounting():
    row = repair_accounting([_iteration_with_repair()])
    assert row["simplify_attempted"] == 4
    assert row["simplify_valid"] == 1
    assert row["repair_attempted"] == 2
    assert row["repair_valid"] == 1
    # the best simplification scored 9; the repair hit 8 raw and 7 linted
    assert row["repair_shorter_before_lint"] == 1
    assert row["repair_shorter_after_lint"] == 1


@pytest.mark.parametrize("candidate,fix,shorter", [
    # a valid candidate that rewrites the statement is no bar to a repair
    (CandidateResult("s := by x", VerdictStatus.VALID, 5), RepairEntry(VerdictStatus.VALID, 8, 7),
     (1, 1)),
    # a valid fix that is not admissible has no linted_score and beats nothing
    (CandidateResult("t := by x", VerdictStatus.VALID, 10), RepairEntry(VerdictStatus.VALID, 3),
     (0, 0)),
], ids=["rewritten-statement", "fix-not-admissible"])
def test_repair_accounting_counts_by_the_acceptance_rule(candidate, fix, shorter):
    itrec = replace(_iteration_with_repair(), candidates=[candidate], adopted=None, score_after=12,
                    source_after="t := by a")
    itrec.repair = replace(itrec.repair, candidates=[fix], adopted=None)
    row = repair_accounting([itrec])
    assert (row["repair_shorter_before_lint"], row["repair_shorter_after_lint"]) == shorter


def test_repair_accounting_counts_no_attempts_for_skipped_iterations():
    start = ProofRecord(id="p", statement="theorem p : 1 = 1", proof="  FAIL")
    simplifier = MockSimplifier(mock_cfg(mode="constant"))
    skipped = shorten_loop(start, [(4, 1.0), (4, 1.0)], simplifier, MockVerifier(mock_cfg()))
    assert all(it.note.startswith("skipped") for it in skipped)
    row = repair_accounting(skipped + [_iteration_with_repair()])
    assert row["simplify_attempted"] == 4


def test_csv_round_trip(tmp_path):
    rows = [{"k": 1, "min_at_k": 3.5}, {"k": 2, "min_at_k": 2.25}]
    path = tmp_path / "table.csv"
    write_csv(rows, path)
    with open(path, newline="") as handle:
        back = list(csv.DictReader(handle))
    assert [(int(r["k"]), float(r["min_at_k"])) for r in back] == [(1, 3.5), (2, 2.25)]
    with pytest.raises(EmptyDataset):
        write_csv([], path)


def test_gnuplot_stub(tmp_path):
    csv_path = tmp_path / "atk.csv"
    out = tmp_path / "atk.gp"
    write_gnuplot_stub(csv_path, out)
    text = out.read_text()
    assert str(csv_path) in text
    assert "logscale" in GNUPLOT_STUB
