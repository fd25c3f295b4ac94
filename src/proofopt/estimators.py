"""Unbiased best-of-k estimators computed from n >= k samples.

max@k is the expected maximum over a uniformly random size-k subset of the
samples; min@k and red@k derive from it. The estimate is exact in
expectation for any n >= k, which lets a single pool of n samples stand in
for many independent k-sample draws.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import EmptyDataset, InvalidK, ZeroOriginal


@dataclass(frozen=True)
class SampleSet:
    """Original score plus per-candidate (score, valid) pairs for one proof."""

    original_score: int
    candidates: tuple[tuple[int, bool], ...]

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("a sample set needs at least one candidate")
        if self.original_score < 0 or any(s < 0 for s, _ in self.candidates):
            raise ValueError("scores must be nonnegative")
        try:  # the one score that can overflow: every other is clipped or reverts to it
            float(self.original_score)
        except OverflowError:
            raise ValueError("the original score does not fit in a float") from None

    @property
    def n(self) -> int:
        return len(self.candidates)


def effective_scores(samples: SampleSet) -> list[int]:
    """Per-candidate score with invalid attempts reverting to the original.

    A valid candidate contributes min(original, candidate); an invalid one
    contributes the original score unchanged.
    """
    orig = samples.original_score
    return [min(orig, score) if valid else orig for score, valid in samples.candidates]


def _subset_max_weights(n: int, k: int) -> list[float]:
    """Weight of the i-th smallest sample in the subset-maximum average.

    Returns w[i] = C(i-1, k-1) / C(n, k) for i = 1..n. Each weight is built
    from its neighbor by a single factor ratio; no large binomials are ever
    formed, so this stays finite for any n, k.
    """
    weights = [0.0] * n
    weights[n - 1] = k / n
    # w_n = k/n, and w_i = w_{i+1} * (i-k+1)/i going down to i = k.
    tail = 1.0
    for i in range(n - 1, k - 1, -1):
        tail *= (i - k + 1.0) / i
        weights[i - 1] = (k / n) * tail
    return weights


def max_at_k(values, k: int) -> float:
    """Unbiased estimate of the expected maximum of k random samples."""
    x = sorted(map(float, values))
    n = len(x)
    if not 1 <= k <= n:
        raise InvalidK(f"k={k} outside 1..{n}")
    return math.fsum(map(operator.mul, _subset_max_weights(n, k), x))


def min_at_k(values, k: int) -> float:
    """Unbiased estimate of the expected minimum of k random samples."""
    return -max_at_k([-float(v) for v in values], k)


def red_at_k(samples: SampleSet, k: int) -> float:
    """Expected best relative shortening over k attempts, in [0, 1]."""
    if samples.original_score == 0:
        raise ZeroOriginal("relative reduction is undefined for a zero-length original")
    return 1.0 - min_at_k(effective_scores(samples), k) / samples.original_score


def dataset_aggregate(per_proof) -> tuple[float, float]:
    """Mean (min@k, red@k) over a dataset of per-proof values."""
    pairs = list(per_proof)
    if not pairs:
        raise EmptyDataset("no per-proof values to aggregate")
    mins = [m for m, _ in pairs]
    reds = [r for _, r in pairs]
    return math.fsum(mins) / len(mins), math.fsum(reds) / len(reds)
