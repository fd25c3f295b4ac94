import itertools
import math
import random
import statistics
from fractions import Fraction

import numpy as np
import pytest

from proofopt.errors import EmptyDataset, InvalidK, ZeroOriginal
from proofopt.estimators import (
    SampleSet,
    dataset_aggregate,
    effective_scores,
    max_at_k,
    min_at_k,
    red_at_k,
)


def enum_max_at_k(values, k):
    combos = itertools.combinations(values, k)
    total = sum(max(c) for c in combos)
    return total / math.comb(len(values), k)


def test_hand_computed_example():
    # n=3, k=2: subsets {1,2},{1,3},{2,3} have maxima 2,3,3 -> mean 8/3
    assert max_at_k([1, 2, 3], 2) == pytest.approx(8 / 3, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_matches_enumeration(n):
    rng = random.Random(n)
    for k in range(1, n + 1):
        for _ in range(25):
            values = [rng.uniform(-50, 50) for _ in range(n)]
            assert max_at_k(values, k) == pytest.approx(enum_max_at_k(values, k), abs=1e-9)
            assert min_at_k(values, k) == pytest.approx(
                -enum_max_at_k([-v for v in values], k), abs=1e-9
            )


def test_boundary_identities():
    rng = random.Random(7)
    for n in (1, 2, 5, 12):
        values = [rng.uniform(0, 100) for _ in range(n)]
        assert max_at_k(values, 1) == pytest.approx(sum(values) / n, abs=1e-12)
        assert max_at_k(values, n) == pytest.approx(max(values), abs=1e-12)
        assert min_at_k(values, 1) == pytest.approx(sum(values) / n, abs=1e-12)
        assert min_at_k(values, n) == pytest.approx(min(values), abs=1e-12)


def test_permutation_invariance():
    rng = random.Random(3)
    values = [rng.uniform(0, 10) for _ in range(9)]
    shuffled = values[:]
    rng.shuffle(shuffled)
    for k in (1, 3, 9):
        assert max_at_k(values, k) == pytest.approx(max_at_k(shuffled, k), abs=1e-12)


def test_invalid_k():
    with pytest.raises(InvalidK):
        max_at_k([1, 2, 3], 0)
    with pytest.raises(InvalidK):
        max_at_k([1, 2, 3], 4)
    with pytest.raises(InvalidK):
        min_at_k([], 1)


def exact_max_at_k(values, k):
    n = len(values)
    ordered = sorted(Fraction(v) for v in values)
    total = sum(math.comb(i, k - 1) * v for i, v in enumerate(ordered))
    return total / math.comb(n, k)


def test_large_n_stability():
    rng = random.Random(11)
    n, k = 10000, 500
    values = [rng.randint(1, 2000) for _ in range(n)]
    got = max_at_k(values, k)
    assert math.isfinite(got)
    want = float(exact_max_at_k(values, k))
    assert got == pytest.approx(want, rel=1e-9)


def _sample_set(rng, n=6, original=40):
    candidates = tuple(
        (rng.randint(1, 80), rng.random() < 0.7) for _ in range(n)
    )
    return SampleSet(original_score=original, candidates=candidates)


def test_effective_scores_clip_and_fallback():
    samples = SampleSet(original_score=30, candidates=((10, True), (50, True), (12, False)))
    # valid shorter kept, valid longer clipped to the original, invalid falls back
    assert effective_scores(samples) == [10, 30, 30]


def test_red_at_k_identity():
    rng = random.Random(5)
    for _ in range(50):
        samples = _sample_set(rng)
        for k in (1, 3, 6):
            want = 1 - min_at_k(effective_scores(samples), k) / samples.original_score
            assert red_at_k(samples, k) == pytest.approx(want, abs=1e-12)


def test_red_at_k_zero_original():
    samples = SampleSet(original_score=0, candidates=((1, True),))
    with pytest.raises(ZeroOriginal):
        red_at_k(samples, 1)


def test_all_invalid_means_no_reduction():
    samples = SampleSet(original_score=25, candidates=((3, False), (4, False)))
    assert red_at_k(samples, 2) == pytest.approx(0.0, abs=1e-12)


def test_dataset_aggregate():
    mean_min, mean_red = dataset_aggregate([(10.0, 0.5), (20.0, 0.1)])
    assert mean_min == pytest.approx(15.0)
    assert mean_red == pytest.approx(0.3)
    with pytest.raises(EmptyDataset):
        dataset_aggregate([])


def test_dataset_aggregate_matches_fmean_exactly():
    rng = random.Random(11)
    for n in (1, 2, 7, 100, 1001):
        pairs = [(rng.uniform(0, 1e4) * rng.random() ** 4, rng.random()) for _ in range(n)]
        assert dataset_aggregate(pairs) == (
            statistics.fmean(m for m, _ in pairs),
            statistics.fmean(r for _, r in pairs),
        )


def test_accepts_numpy_arrays():
    values = np.array([3.0, 1.0, 2.0])
    assert max_at_k(values, 2) == pytest.approx(enum_max_at_k(list(values), 2), abs=1e-12)
