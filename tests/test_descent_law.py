"""The samplers against the exact laws of pattern counts.

The number of descents (and so of ascents) of a uniform permutation of
size n follows the Eulerian distribution, and the number of inversions
(and so of non-inversions) the Mahonian one, both known at every n; the
brute-force oracle stops at n = 9.  The counts of 3|1,2 and 2|1,3 are
sums over adjacent inversion-table entries, which are independent, so
their laws follow by a DP over those entries.  The
Dvoretzky-Kiefer-Wolfowitz inequality with Massart's constant (1990),
P(sup |F_m - F| > eps) <= 2 exp(-2 m eps^2), turns each law into a test
of a sampler and its counter, at sizes the oracle cannot reach: the word
sampler for descents and the code sampler for inversions, 3|1,2 and
2|1,3, each through run_experiment and its chunking, and the shuffle
sampler for inversions through count_rows.
"""

from math import log, sqrt

import numpy as np
import pytest

from vincstat import montecarlo
from vincstat.moments import exact_variance_at, expectation
from vincstat.montecarlo import run_experiment
from vincstat.oracle import brute_force_distribution
from vincstat.patterns import parse_pattern
from vincstat.positions import count_rows, plan_count
from vincstat.sampling import sample_uniform_batch


def eulerian_law(n: int) -> np.ndarray:
    """P(d descents) for d = 0..n-1 in a uniform permutation of size n, by
    p_n(d) = ((d+1) p_{n-1}(d) + (n-d) p_{n-1}(d-1)) / n."""
    p = np.ones(1)
    for size in range(2, n + 1):
        nxt = np.zeros(size)
        nxt[:-1] += np.arange(1, size) * p
        nxt[1:] += (size - np.arange(1, size)) * p
        p = nxt / size
    return p


@pytest.mark.parametrize("n", range(2, 9))
def test_eulerian_law_matches_the_oracle(n):
    exact = brute_force_distribution(parse_pattern("2,1"), n)
    law = eulerian_law(n)
    assert law.size == n
    for d, prob in enumerate(law):
        assert abs(prob - float(exact.get(d, 0))) <= 1e-12, (n, d)


def mahonian_law(n: int) -> np.ndarray:
    """P(j inversions) for j = 0..C(n, 2) in a uniform permutation of size
    n: the product over i = 2..n of (1 + q + ... + q^(i-1)) / i, each
    factor applied as one difference of a cumulative sum."""
    p = np.ones(1)
    for size in range(2, n + 1):
        summed = np.cumsum(np.concatenate([p, np.zeros(size - 1)]))
        summed[size:] = summed[size:] - summed[:-size]
        p = summed / size
    return p


@pytest.mark.parametrize("n", range(2, 9))
def test_mahonian_law_matches_the_oracle(n):
    exact = brute_force_distribution(parse_pattern("2|1"), n)
    law = mahonian_law(n)
    assert law.size == n * (n - 1) // 2 + 1
    for j, prob in enumerate(law):
        assert abs(prob - float(exact.get(j, 0))) <= 1e-12, (n, j)


def _dkw_gap(values, freqs, m, law):
    """sup |F_m - F| between the sample given as distinct values and
    their frequencies and law, with eps = sqrt(ln(2 / alpha) / (2 m)) at
    alpha = 1e-6: a correct sampler exceeds eps once in a million
    seeds."""
    assert freqs.sum() == m and 0 <= values.min() and values.max() < law.size
    sampled = np.zeros(law.size)
    sampled[values] = freqs / m
    gap = np.abs(np.cumsum(sampled) - np.cumsum(law)).max()
    return gap, sqrt(log(2 / 1e-6) / (2 * m))


def _run_experiment_gap(monkeypatch, text, n, m, law, nulled):
    """_dkw_gap of the merged counts of run_experiment (seed 1, one
    thread, the samplers named in nulled set to None)."""
    merged = []
    merge = montecarlo._merged
    monkeypatch.setattr(montecarlo, "_merged", lambda pieces: merged.append(merge(pieces)) or merged[-1])
    for name in nulled:
        monkeypatch.setattr(montecarlo, name, None)
    run_experiment(parse_pattern(text), n=n, m=m, seed=1, threads=1)
    (values, freqs), = merged
    return _dkw_gap(values, freqs, m, law)


@pytest.mark.parametrize("text", ["2,1", "1,2"])
@pytest.mark.parametrize("n, m", [(100, 200_000), (1000, 100_000), (6400, 50_000)])
def test_window_counts_stay_within_the_dkw_band_of_the_eulerian_law(monkeypatch, text, n, m):
    # eps is 0.0060 at m = 2*10^5, 0.0085 at m = 10^5 and 0.0120 at
    # m = 5*10^4; raw words only.
    nulled = ("sample_uniform_batch", "sample_codes")
    gap, eps = _run_experiment_gap(monkeypatch, text, n, m, eulerian_law(n), nulled)
    assert gap <= eps, (gap, eps)


@pytest.mark.parametrize("text", ["2|1", "1|2"])
@pytest.mark.parametrize("n, m", [(100, 100_000), (400, 50_000)])
def test_inversion_counts_stay_within_the_dkw_band_of_the_mahonian_law(text, n, m):
    # eps is 0.0085 at m = 10^5 and 0.0120 at m = 5*10^4; shuffled
    # permutations, swept by count_rows in batches of 4096 samples.
    p = parse_pattern(text)
    plan = plan_count(n, p)
    counts = np.concatenate([
        count_rows(sample_uniform_batch(n, 1, min(4096, m - start), start), p, plan)
        for start in range(0, m, 4096)
    ])
    gap, eps = _dkw_gap(*np.unique(counts, return_counts=True), m, mahonian_law(n))
    assert gap <= eps, (gap, eps)


@pytest.mark.parametrize("text", ["2|1", "1|2"])
@pytest.mark.parametrize("n, m", [(100, 100_000), (400, 50_000)])
def test_code_counts_stay_within_the_dkw_band_of_the_mahonian_law(monkeypatch, text, n, m):
    # The same bands for run_experiment's inversion tables only.
    nulled = ("sample_uniform_batch", "sample_words")
    gap, eps = _run_experiment_gap(monkeypatch, text, n, m, mahonian_law(n), nulled)
    assert gap <= eps, (gap, eps)


def code_law(text: str, n: int) -> np.ndarray:
    """P(count = S) for S = 0..C(n, 2) of 3|1,2 or 2|1,3 in a uniform
    permutation of size n.  With c its inversion table, whose entries are
    independent and c(p) uniform on 0..p, the count is the sum over
    t = 0..n-2 of f(c(t), c(t+1)) (positions.count_codes): f(c, c') =
    c' [c' <= c] for 3|1,2 and (c - c') [c' <= c] for 2|1,3.  P[c, S] is
    the law of (c(p), the sum so far), and a step to p + 1 is

        P'[c', S] = sum_c P[c, S - f(c, c')] / (p + 2).

    The entries c < c' add nothing: a prefix sum over c.  For 3|1,2 the
    others add c', one shift of a suffix sum; for 2|1,3 they add c - c',
    so their sum R[c'] = P[c'] + R[c' + 1] shifted by one, from c' = p
    down."""
    size = n * (n - 1) // 2 + 1
    law = np.zeros((1, size))
    law[0, 0] = 1
    for p in range(1, n):
        below = np.zeros((p + 1, size))
        np.cumsum(law, axis=0, out=below[1:])
        step = below.copy()
        if text == "3|1,2":
            for c in range(p):
                step[c, c:] += (below[p] - below[c])[: size - c]
        else:
            suffix = np.zeros(size)
            for c in range(p - 1, -1, -1):
                suffix[1:] = suffix[:-1]
                suffix[0] = 0
                suffix += law[c]
                step[c] += suffix
        law = step / (p + 1)
    return law.sum(axis=0)


@pytest.mark.parametrize("text", ["3|1,2", "2|1,3"])
@pytest.mark.parametrize("n", range(3, 9))
def test_code_law_matches_the_oracle(text, n):
    exact = brute_force_distribution(parse_pattern(text), n)
    law = code_law(text, n)
    for count, prob in enumerate(law):
        assert abs(prob - float(exact.get(count, 0))) <= 1e-12, (n, count)


@pytest.mark.parametrize("text", ["3|1,2", "2|1,3"])
@pytest.mark.parametrize("n", [50, 100])
def test_code_law_moments_match_the_moment_core(text, n):
    # Far past the oracle's n = 9: the law's mean and variance are the
    # exact moments, to float64 rounding.
    p = parse_pattern(text)
    law = code_law(text, n)
    counts = np.arange(law.size)
    mean = law @ counts
    assert abs(law.sum() - 1) <= 1e-12
    assert abs(mean - float(expectation(p, n))) <= 1e-12 * mean
    variance = law @ (counts - mean) ** 2
    assert abs(variance - float(exact_variance_at(p, n))) <= 1e-10 * variance


@pytest.mark.parametrize("text", ["3|1,2", "2|1,3"])
@pytest.mark.parametrize("n, m", [(50, 200_000), (100, 100_000)])
def test_code_counts_stay_within_the_dkw_band_of_the_code_law(monkeypatch, text, n, m):
    # eps is 0.0060 at m = 2*10^5 and 0.0085 at m = 10^5; inversion
    # tables only, 3|1,2 with its singleton above the window and 2|1,3
    # with it between.
    nulled = ("sample_uniform_batch", "sample_words")
    gap, eps = _run_experiment_gap(monkeypatch, text, n, m, code_law(text, n), nulled)
    assert gap <= eps, (gap, eps)
