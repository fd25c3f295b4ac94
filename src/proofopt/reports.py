"""Aggregate reporting: corpus statistics, @k tables, speedup ratios, and
repair-stage accounting, all serializable to CSV."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .backends import VerdictStatus
from .errors import EmptyDataset, InvalidK
from .estimators import SampleSet, dataset_aggregate, effective_scores, min_at_k, red_at_k
from .shortener import ShorteningTrace


@dataclass(frozen=True)
class CorpusStats:
    n: int
    min: int
    q1: float
    median: float
    q3: float
    max: int
    mean: float

    def as_row(self) -> dict:
        return {
            "n": self.n,
            "min": self.min,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.max,
            "mean": self.mean,
        }


def corpus_stats(scores) -> CorpusStats:
    """Five-number summary plus mean. Quartiles use linear interpolation
    between closest ranks; that convention is part of the output contract."""
    values = np.asarray(list(scores), dtype=float)
    if values.size == 0:
        raise EmptyDataset("no scores")
    q1, median, q3 = np.percentile(values, [25, 50, 75], method="linear")
    return CorpusStats(
        n=int(values.size),
        min=int(values.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        max=int(values.max()),
        mean=float(values.mean()),
    )


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


@dataclass(frozen=True)
class SpeedupReport:
    entries: tuple[tuple[float, float, float], ...]  # (time_orig, time_new, ratio)
    over_1_1: int
    over_1_5: int

    def as_rows(self) -> list[dict]:
        return [
            {"time_orig": o, "time_new": n, "ratio": r} for o, n, r in self.entries
        ]


def speedup_report(timings) -> SpeedupReport:
    """Per-proof speedup ratios with counts above the 1.1x and 1.5x bars."""
    entries = []
    for time_orig, time_new in timings:
        if time_orig <= 0 or time_new <= 0:
            raise ValueError("timings must be positive")
        entries.append((time_orig, time_new, time_orig / time_new))
    if not entries:
        raise EmptyDataset("no timings")
    ratios = [r for _, _, r in entries]
    return SpeedupReport(
        entries=tuple(entries),
        over_1_1=sum(r > 1.1 for r in ratios),
        over_1_5=sum(r > 1.5 for r in ratios),
    )


def repair_accounting(traces: list[ShorteningTrace]) -> dict:
    """Stage counts across traces: simplification attempts and successes,
    repair attempts and successes, and how many repairs beat the best
    simplification before and after linting."""
    row = {
        "simplify_attempted": 0,
        "simplify_valid": 0,
        "repair_attempted": 0,
        "repair_valid": 0,
        "repair_shorter_before_lint": 0,
        "repair_shorter_after_lint": 0,
    }
    for trace in traces:
        for itrec in trace.iterations:
            row["simplify_attempted"] += itrec.k_requested
            row["simplify_valid"] += sum(
                1 for c in itrec.candidates if c.status is VerdictStatus.VALID
            )
            stage = itrec.repair
            if stage is None:
                continue
            row["repair_attempted"] += stage.attempted
            row["repair_valid"] += stage.valid
            best = itrec.score_before
            valid_scores = [
                c.score
                for c in itrec.candidates
                if c.status is VerdictStatus.VALID and c.score is not None
            ]
            if valid_scores:
                best = min(best, min(valid_scores))
            for cand in stage.candidates:
                if cand.get("score") is not None and cand["score"] < best:
                    row["repair_shorter_before_lint"] += 1
                if cand.get("linted_score") is not None and cand["linted_score"] < best:
                    row["repair_shorter_after_lint"] += 1
    return row


def write_csv(rows: list[dict], path) -> None:
    if not rows:
        raise EmptyDataset("nothing to write")
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def read_csv(path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


GNUPLOT_STUB = """# plot the @k scaling curve produced alongside this file
set datafile separator comma
set key autotitle columnhead
set logscale x 2
set xlabel 'k'
plot '{csv}' using 1:2 with linespoints title 'min@k', \\
     '' using 1:3 with linespoints axes x1y2 title 'red@k'
"""


def write_gnuplot_stub(csv_path, out_path) -> None:
    with open(out_path, "w") as handle:
        handle.write(GNUPLOT_STUB.format(csv=csv_path))
