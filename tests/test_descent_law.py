"""The word sampler against the exact law of the descent count.

The number of descents (and so of ascents) of a uniform permutation of
size n follows the Eulerian distribution, known at every n; the
brute-force oracle stops at n = 9.  The Dvoretzky-Kiefer-Wolfowitz
inequality with Massart's constant (1990), P(sup |F_m - F| > eps) <=
2 exp(-2 m eps^2), turns that law into a test of the sampler, the window
counter and the chunking together, at sizes the oracle cannot reach.
"""

from math import log, sqrt

import numpy as np
import pytest

from vincstat import montecarlo
from vincstat.montecarlo import run_experiment
from vincstat.oracle import brute_force_distribution
from vincstat.patterns import parse_pattern


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


@pytest.mark.parametrize("text", ["2,1", "1,2"])
@pytest.mark.parametrize("n, m", [(100, 200_000), (1000, 100_000), (6400, 50_000)])
def test_window_counts_stay_within_the_dkw_band_of_the_eulerian_law(monkeypatch, text, n, m):
    # At alpha = 1e-6 a correct sampler fails this test once in a million
    # seeds: eps is 0.0060 at m = 2*10^5, 0.0085 at m = 10^5 and 0.0120
    # at m = 5*10^4.
    alpha = 1e-6
    eps = sqrt(log(2 / alpha) / (2 * m))
    merged = []
    merge = montecarlo._merged
    monkeypatch.setattr(montecarlo, "_merged", lambda pieces: merged.append(merge(pieces)) or merged[-1])
    monkeypatch.setattr(montecarlo, "sample_uniform_batch", None)  # raw words only
    run_experiment(parse_pattern(text), n=n, m=m, seed=1, threads=1)
    (values, freqs), = merged
    assert freqs.sum() == m and 0 <= values.min() and values.max() < n
    sampled = np.zeros(n)
    sampled[values] = freqs / m
    gap = np.abs(np.cumsum(sampled) - np.cumsum(eulerian_law(n))).max()
    assert gap <= eps, (gap, eps)
