"""Aggregate reporting: corpus statistics, @k tables, speedup ratios, and
repair-stage accounting, all serializable to CSV."""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass

from .backends import VerdictStatus, admissible
from .errors import EmptyDataset, InvalidK
from .estimators import SampleSet, dataset_aggregate, effective_scores, min_at_k, red_at_k
from .records import split_source
from .shortener import SKIPPED_NOTE, IterationRecord


# The input row of each report kind, read by records.from_json.
@dataclass
class CorpusRow:
    score: float = None  # without a score the row is a proof record, scored by its length


@dataclass(kw_only=True)
class SampleRow:
    id: str = None
    original: int
    scores: list[int]
    valid: list[bool]

    def __post_init__(self):  # from_json names the row in a ValueError from SampleSet
        self.samples = SampleSet(self.original, tuple(zip(self.scores, self.valid, strict=True)))


@dataclass
class SpeedupRow:
    time_orig: float
    time_new: float


@dataclass
class TraceRow(IterationRecord):  # an iteration row of shorten's output
    proof_id: str = None  # absent from a trace file's rows


def corpus_stats(scores: list) -> dict:
    """The report's row: count, five-number summary and mean, with min and
    max the scores as given. Quartiles use linear interpolation between
    closest ranks; that convention is part of the output contract."""
    values = [float(s) for s in scores]
    if not values:
        raise EmptyDataset("no scores")
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    if not all(map(math.isfinite, (q1, median, q3))):  # scores near the float range overflow
        raise ValueError("quartiles of the scores overflow a float")
    return {"n": len(values), "min": min(scores), "q1": q1, "median": median, "q3": q3,
            "max": max(scores), "mean": statistics.fmean(values)}


def atk_table(per_proof_samples: list[SampleSet], ks: list[int]) -> list[dict]:
    """Dataset-mean min@k and red@k for each requested k."""
    if not per_proof_samples:
        raise EmptyDataset("no sample sets")
    smallest_n = min(s.n for s in per_proof_samples)
    rows = []
    for k in ks:
        if not 1 <= k <= smallest_n:
            raise InvalidK(f"k={k} exceeds the smallest sample count {smallest_n}")
        per_proof = []
        for samples in per_proof_samples:
            m = min_at_k(effective_scores(samples), k)
            r = red_at_k(samples, k)
            per_proof.append((m, r))
        mean_min, mean_red = dataset_aggregate(per_proof)
        rows.append({"k": k, "min_at_k": mean_min, "red_at_k": mean_red})
    return rows


def speedup_report(timings) -> list[dict]:
    """Per-proof speedup rows, (time_orig, time_new, ratio), followed by one
    row of the counts above the 1.1x and 1.5x bars."""
    rows = []
    for time_orig, time_new in timings:
        if time_orig <= 0 or time_new <= 0:
            raise ValueError("timings must be positive")
        ratio = time_orig / time_new
        if not math.isfinite(ratio):
            raise ValueError(f"speedup ratio {ratio} is not finite")
        rows.append({"time_orig": time_orig, "time_new": time_new, "ratio": ratio})
    if not rows:
        raise EmptyDataset("no timings")
    ratios = [row["ratio"] for row in rows]
    return rows + [{"over_1.1x": sum(r > 1.1 for r in ratios),
                    "over_1.5x": sum(r > 1.5 for r in ratios)}]


def repair_accounting(iterations: list[IterationRecord]) -> dict:
    """Stage counts across iterations: simplification attempts and
    successes, repair attempts and successes, and how many admissible
    repairs beat the incumbent and every admissible simplification before
    and after linting. An iteration skipped because its input does not
    verify made no simplification request."""
    row = {
        "simplify_attempted": 0,
        "simplify_valid": 0,
        "repair_attempted": 0,
        "repair_valid": 0,
        "repair_shorter_before_lint": 0,
        "repair_shorter_after_lint": 0,
    }
    for itrec in iterations:
        if itrec.note != SKIPPED_NOTE:
            row["simplify_attempted"] += itrec.k_requested
        row["simplify_valid"] += sum(c.status is VerdictStatus.VALID for c in itrec.candidates)
        stage = itrec.repair
        if stage is None:
            continue
        row["repair_attempted"] += stage.attempted
        row["repair_valid"] += stage.valid
        split = split_source(itrec.source_after)  # None only in a hand-made row
        best = min([itrec.score_before] + [c.score for c in itrec.candidates
                                           if split and admissible(c, split[0])])
        for cand in stage.candidates:
            # linted_score is set for an admissible fix only
            if cand.linted_score is not None and cand.score is not None:
                row["repair_shorter_before_lint"] += cand.score < best
                row["repair_shorter_after_lint"] += cand.linted_score < best
    return row


def write_csv(rows: list[dict], path) -> None:
    if not rows:
        raise EmptyDataset("nothing to write")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


GNUPLOT_STUB = """# plot the @k scaling curve produced alongside this file
set datafile separator comma
set key autotitle columnhead
set logscale x 2
set xlabel 'k'
plot '{csv}' using 1:2 with linespoints title 'min@k', \\
     '' using 1:3 with linespoints axes x1y2 title 'red@k'
"""


def write_gnuplot_stub(csv_path, out_path) -> None:
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(GNUPLOT_STUB.format(csv=csv_path))
