from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from scipy.stats import chisquare

from vincstat.errors import ZeroSize
from vincstat.sampling import (
    REDUCTION_STREAM,
    SHUFFLE_STREAM,
    sample_by_reduction,
    sample_by_reduction_batch,
    sample_uniform,
    sample_uniform_batch,
    substream,
)


def test_size_one_and_errors():
    assert sample_uniform(1, seed=0).values == (1,)
    assert sample_by_reduction(1, seed=0).values == (1,)
    with pytest.raises(ZeroSize):
        sample_uniform(0, seed=0)
    with pytest.raises(ZeroSize):
        sample_by_reduction(-2, seed=0)
    with pytest.raises(ZeroSize):
        sample_uniform_batch(0, seed=0, count=3)


def test_determinism_and_substream_separation():
    a = sample_uniform(12, seed=99, index=4)
    assert sample_uniform(12, seed=99, index=4) == a
    assert sample_uniform(12, seed=99, index=5) != a
    assert sample_uniform(12, seed=100, index=4) != a
    # Shuffle and reduction streams are distinct even at the same index.
    assert substream(99, 4, SHUFFLE_STREAM).random() != substream(
        99, 4, REDUCTION_STREAM
    ).random()


def test_index_range_check():
    with pytest.raises(ValueError):
        substream(0, -1)
    with pytest.raises(ValueError):
        substream(0, 1 << 56)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError):
            substream(seed, 0)
    # Tags outside 8 bits used to alias: 256 was masked onto tag 0.
    for stream in (-1, 256):
        with pytest.raises(ValueError):
            substream(0, 5, stream)
    assert substream(0, 5, 255).random() != substream(0, 5, 0).random()


def test_batch_rows_match_scalar_calls():
    for batch_fn, scalar_fn in (
        (sample_uniform_batch, sample_uniform),
        (sample_by_reduction_batch, sample_by_reduction),
    ):
        rows = batch_fn(9, seed=314, count=6, start=10)
        assert rows.shape == (6, 9)
        for i in range(6):
            assert tuple(int(v) for v in rows[i]) == scalar_fn(9, seed=314, index=10 + i).values


def test_shuffle_frequencies_s3():
    # 600k shuffled draws of S_3: each of the 6 outcomes within 0.005 of 1/6.
    m = 600_000
    rows = sample_uniform_batch(3, seed=2024, count=m)
    codes = rows[:, 0] * 100 + rows[:, 1] * 10 + rows[:, 2]
    freq = Counter(codes.tolist())
    assert len(freq) == 6
    for sigma in permutations((1, 2, 3)):
        code = sigma[0] * 100 + sigma[1] * 10 + sigma[2]
        assert abs(freq[code] / m - 1 / 6) < 0.005


def test_reduction_frequencies_s4():
    # 480k reduction draws of S_4: all 24 outcomes within 0.002 of 1/24,
    # and no chi-square blowup.
    m = 480_000
    rows = sample_by_reduction_batch(4, seed=77, count=m)
    codes = rows[:, 0] * 1000 + rows[:, 1] * 100 + rows[:, 2] * 10 + rows[:, 3]
    freq = Counter(codes.tolist())
    assert len(freq) == 24
    observed = []
    for sigma in permutations((1, 2, 3, 4)):
        code = sigma[0] * 1000 + sigma[1] * 100 + sigma[2] * 10 + sigma[3]
        observed.append(freq[code])
        assert abs(freq[code] / m - 1 / 24) < 0.002
    assert chisquare(observed).pvalue > 1e-4


def test_two_samplers_agree_in_distribution():
    # Same seed, same index, different constructions: the permutations
    # differ draw by draw but empirical entry means agree.
    n, m = 6, 20_000
    a = sample_uniform_batch(n, seed=5, count=m).mean(axis=0)
    b = sample_by_reduction_batch(n, seed=5, count=m).mean(axis=0)
    assert np.allclose(a, (n + 1) / 2, atol=0.05)
    assert np.allclose(b, (n + 1) / 2, atol=0.05)


def test_reduction_rows_are_permutations():
    rows = sample_by_reduction_batch(30, seed=1, count=50)
    expected = np.arange(1, 31)
    for row in rows:
        assert np.array_equal(np.sort(row), expected)
