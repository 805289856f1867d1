import concurrent.futures
import itertools
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from vincstat.errors import (
    DegenerateInput,
    EmptySample,
    MalformedLimit,
    PatternTooSmall,
    SizeLimitExceeded,
    TooFewSamples,
)
from vincstat import montecarlo, positions, sampling
from vincstat.montecarlo import (
    _CHUNK,
    _normal_cdf,
    empirical_kolmogorov,
    fit_rate,
    run_experiment,
    sample_cumulants,
)
from vincstat.moments import exact_variance_at, expectation
from vincstat.patterns import iter_patterns, parse_pattern
from vincstat.positions import code_countable, count_rows, plan_count, position_count
from vincstat.sampling import (
    NORMAL_STREAM,
    sample_uniform_batch,
    shuffle_block_rows,
    substream,
    word_block_rows,
)


def _plug_in_cumulants(xs):
    """The four plug-in cumulants of a plain sample, from its m entries."""
    mean = xs.mean()
    xc = xs - mean
    m2, m3, m4 = (np.mean(xc**p) for p in (2, 3, 4))
    return mean, m2, m3, m4 - 3 * m2 * m2


def _leave_one_out_ses(xs):
    """Jackknife errors from the plug-ins recomputed on each sample with
    one point deleted."""
    m = xs.size
    reps = np.array([_plug_in_cumulants(np.delete(xs, i)) for i in range(m)])
    return np.sqrt((m - 1) / m * ((reps - reps.mean(axis=0)) ** 2).sum(axis=0))


def _kolmogorov_of_sorted_array(xs):
    """d_K from the sorted m-array: one Phi per sample."""
    xs = np.sort(xs)
    m = xs.size
    cdf = _normal_cdf(xs)
    return float(max((np.arange(1, m + 1) / m - cdf).max(), (cdf - np.arange(m) / m).max()))


def _standardized_counts(text, n, m, seed):
    """Counts of a pattern in m seeded permutations, standardized by the
    exact moments: ties everywhere, as run_experiment sees them."""
    p = parse_pattern(text)
    counts = count_rows(sample_uniform_batch(n, seed, m), p, plan_count(n, p))
    mean = float(expectation(p, n))
    return (counts.astype(np.float64) - mean) / np.sqrt(float(exact_variance_at(p, n)))


def test_kolmogorov_distance_single_point():
    # One observation at the median: both one-sided gaps are 1/2.
    assert empirical_kolmogorov(np.array([0.0])) == pytest.approx(0.5)


def test_kolmogorov_distance_ideal_sample():
    # Normal scores at the mid-grid quantiles: the distance is exactly 1/(2m).
    m = 100
    xs = ndtri((np.arange(1, m + 1) - 0.5) / m)
    assert empirical_kolmogorov(xs) == pytest.approx(0.5 / m)


def test_kolmogorov_distance_detects_shift():
    gen = substream(3, 0, NORMAL_STREAM)
    xs = gen.standard_normal(50_000)
    assert empirical_kolmogorov(xs) < 0.01
    assert empirical_kolmogorov(xs + 2.0) > 0.4


def test_normal_cdf_matches_scipy_ndtr():
    # libm's erfc and cephes' ndtr agree to about one ulp of 1.
    grid = np.linspace(-40.0, 40.0, 100_001)
    draws = substream(14, 0, NORMAL_STREAM).standard_normal(100_000)
    for xs in (grid, draws):
        np.testing.assert_allclose(_normal_cdf(xs), ndtr(xs), rtol=0, atol=2.3e-16)
    # The lower tail keeps its relative precision down to the subnormals
    # (Phi(-37) is about 6e-300) instead of cancelling to 0; the rounding
    # of x/sqrt(2) alone moves Phi(x) by a relative x^2 ulp there.
    tail = np.linspace(-37.0, -1.0, 10_001)
    np.testing.assert_allclose(_normal_cdf(tail), ndtr(tail), rtol=1e-12)
    xs = np.sort(draws)
    m = xs.size
    cdf = ndtr(xs)
    reference = max((np.arange(1, m + 1) / m - cdf).max(), (cdf - np.arange(m) / m).max())
    assert abs(empirical_kolmogorov(draws) - reference) <= 1e-15


def test_kolmogorov_empty_sample():
    with pytest.raises(EmptySample):
        empirical_kolmogorov(np.array([]))


def test_cumulants_of_standard_normal():
    gen = substream(8, 0, NORMAL_STREAM)
    xs = gen.standard_normal(200_000)
    est = sample_cumulants(xs)
    assert est.k1 == pytest.approx(0.0, abs=5 * est.se1)
    assert est.k2 == pytest.approx(1.0, abs=5 * est.se2)
    assert est.k3 == pytest.approx(0.0, abs=5 * est.se3)
    assert est.k4 == pytest.approx(0.0, abs=5 * est.se4)
    assert min(est.se1, est.se2, est.se3, est.se4) > 0


def test_cumulants_of_known_skewed_sample():
    # Exponential(1): the r-th cumulant is (r-1)!, so 1, 1, 2, 6.
    gen = substream(9, 0, NORMAL_STREAM)
    xs = gen.exponential(size=400_000)
    est = sample_cumulants(xs)
    for value, se, target in (
        (est.k1, est.se1, 1.0),
        (est.k2, est.se2, 1.0),
        (est.k3, est.se3, 2.0),
        (est.k4, est.se4, 6.0),
    ):
        assert value == pytest.approx(target, abs=max(5 * se, 0.05 * max(target, 1.0)))


def test_cumulants_deterministic_and_guarded():
    xs = np.linspace(-1, 1, 50)
    a = sample_cumulants(xs)
    b = sample_cumulants(xs)
    assert a == b
    with pytest.raises(TooFewSamples):
        sample_cumulants(np.array([1.0, 2.0, 3.0, 4.0]))


def test_jackknife_mean_error_is_the_standard_error():
    xs = substream(12, 0, NORMAL_STREAM).exponential(size=1_000)
    se1 = sample_cumulants(xs).se1
    assert se1 == pytest.approx(xs.std(ddof=1) / np.sqrt(xs.size), rel=1e-12)


def test_jackknife_matches_explicit_leave_one_out():
    xs = substream(13, 0, NORMAL_STREAM).exponential(size=50)
    est = sample_cumulants(xs)
    got = np.array([est.se1, est.se2, est.se3, est.se4])
    np.testing.assert_allclose(got, _leave_one_out_ses(xs), rtol=1e-12)


SUMMARY_SAMPLES = [
    ("2,1 at n=3", lambda: _standardized_counts("2,1", 3, 20_000, 4)),
    ("2,1 at n=25", lambda: _standardized_counts("2,1", 25, 20_000, 5)),
    ("exponential", lambda: substream(15, 0, NORMAL_STREAM).exponential(size=20_000)),
]


@pytest.mark.parametrize("make", [m for _, m in SUMMARY_SAMPLES], ids=[i for i, _ in SUMMARY_SAMPLES])
def test_kolmogorov_from_frequencies_equals_the_sorted_array(make):
    xs = make()
    values, freqs = np.unique(xs, return_counts=True)
    reference = _kolmogorov_of_sorted_array(xs)
    assert empirical_kolmogorov(values, freqs) == reference
    assert empirical_kolmogorov(xs) == reference
    # Repeated and unordered values are grouped first.
    half = freqs // 2
    twice = np.concatenate([values, values[::-1]])
    assert empirical_kolmogorov(twice, np.concatenate([half, (freqs - half)[::-1]])) == reference


@pytest.mark.parametrize("make", [m for _, m in SUMMARY_SAMPLES], ids=[i for i, _ in SUMMARY_SAMPLES])
def test_cumulants_from_frequencies_equal_the_sample_form(make):
    xs = make()
    values, freqs = np.unique(xs, return_counts=True)
    est = sample_cumulants(xs)
    assert sample_cumulants(values, freqs) == est
    got = np.array([est.k1, est.k2, est.k3, est.k4])
    np.testing.assert_allclose(got, _plug_in_cumulants(xs), rtol=1e-11, atol=1e-13)


def test_frequencies_are_validated():
    with pytest.raises(DegenerateInput):
        empirical_kolmogorov(np.array([0.0, 1.0]), np.array([1, 2, 3]))
    with pytest.raises(DegenerateInput):
        sample_cumulants(np.arange(6.0), np.array([1, 1, 1, 1, 1, -1]))
    with pytest.raises(DegenerateInput):
        sample_cumulants(np.arange(6.0), np.full(6, 1.5))
    with pytest.raises(EmptySample):
        empirical_kolmogorov(np.array([0.5]), np.array([0]))


def test_jackknife_groups_tied_observations():
    # Explicit leave-one-out on a sample with heavy ties: each deleted
    # observation is its own replicate, and equal values give equal ones.
    xs = _standardized_counts("2,1", 5, 60, 6)
    assert np.unique(xs).size < 6
    est = sample_cumulants(xs)
    got = np.array([est.se1, est.se2, est.se3, est.se4])
    np.testing.assert_allclose(got, _leave_one_out_ses(xs), rtol=1e-12)


def test_run_experiment_memory_does_not_grow_with_samples():
    # Chunks are reduced to (value, frequency) pairs as they are counted,
    # so eight times the samples hold no more memory.
    p = parse_pattern("2,1")
    peaks = []
    for m in (20_000, 160_000):
        tracemalloc.start()
        try:
            run_experiment(p, n=3, m=m, seed=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2**20, peaks


def test_merge_work_stays_linear_in_the_pairs(monkeypatch):
    # Tie-free chunk summaries (every count distinct) must not be
    # re-merged into a growing summary once per chunk, which is quadratic;
    # tie-heavy ones must not pile up unmerged.
    merged_sizes = []
    summed = montecarlo._summed

    def counting(values, freqs):
        merged_sizes.append(values.size)
        return summed(values, freqs)

    monkeypatch.setattr(montecarlo, "_summed", counting)
    rng = np.random.default_rng(4)
    for distinct, pieces in ((10**12, 300), (5, 300)):
        draws = [rng.integers(0, distinct, size=100) for _ in range(pieces)]
        merged_sizes.clear()
        values, freqs = montecarlo._merged(np.unique(d, return_counts=True) for d in draws)
        expected_values, expected_freqs = np.unique(np.concatenate(draws), return_counts=True)
        np.testing.assert_array_equal(values, expected_values)
        np.testing.assert_array_equal(freqs, expected_freqs)
        if distinct > 5:
            assert sum(merged_sizes) <= 4 * 100 * pieces, sum(merged_sizes)
        else:
            assert max(merged_sizes) <= 3 * distinct, max(merged_sizes)


def test_run_experiment_deterministic_and_thread_invariant(monkeypatch):
    # m spans six sampling chunks, so two and three workers really split
    # the work (five word blocks of 2184 samples and one of 1369).  Three
    # CPUs in the mask, so that three workers start on a smaller machine
    # too.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    p = parse_pattern("2,1")
    m = 3 * _CHUNK + 1
    base = run_experiment(p, n=30, m=m, seed=101, threads=1)
    again = run_experiment(p, n=30, m=m, seed=101)
    for threads in (2, 3):
        assert run_experiment(p, n=30, m=m, seed=101, threads=threads) == base
    assert base == again
    assert base.samples == m
    assert base.used_exact_moments
    assert 0 < base.d_K < 1


def test_run_experiment_gives_every_worker_a_share(monkeypatch):
    # Four chunks over three workers go out in batches of ceil(4/3) = 2,
    # so the work is split; a fixed batch of four sent it all to one.
    seen = {}

    class SerialPool:
        def __init__(self, max_workers):
            seen["workers"] = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            seen["chunksize"] = chunksize
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    run_experiment(parse_pattern("2,1"), n=6, m=3 * _CHUNK + 1, seed=3, threads=3)
    assert seen == {"workers": 3, "chunksize": 2}
    # No more workers than chunks: eight threads over two chunks start
    # two workers, and a single chunk runs in process with no pool.
    seen.clear()
    run_experiment(parse_pattern("2,1"), n=6, m=_CHUNK + 1, seed=3, threads=8)
    assert seen == {"workers": 2, "chunksize": 1}
    seen.clear()
    run_experiment(parse_pattern("2,1"), n=6, m=100, seed=3, threads=4)
    assert seen == {}


def test_run_experiment_workers_never_exceed_the_affinity_mask(monkeypatch):
    # 5000 threads asked for over four chunks, two CPUs in the mask: at
    # most two workers, and the intercepted pool starts no process.
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    p = parse_pattern("2,1")
    capped = run_experiment(p, n=6, m=3 * _CHUNK + 1, seed=3, threads=5000)
    assert seen == [2]
    assert capped == run_experiment(p, n=6, m=3 * _CHUNK + 1, seed=3, threads=1)
    # One CPU in the mask: no pool at all.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run_experiment(p, n=6, m=3 * _CHUNK + 1, seed=3, threads=5000) == capped
    assert seen == [2]


def test_run_experiment_standardization_is_exact():
    # Standardized by the true moments, the sample mean is close to 0 and
    # the sample variance close to 1 without being exactly so.
    p = parse_pattern("1|2")
    rep = run_experiment(p, n=50, m=20_000, seed=7)
    est = rep.cumulants
    assert est.k1 == pytest.approx(0.0, abs=5 * est.se1)
    assert est.k2 == pytest.approx(1.0, abs=5 * est.se2)
    assert abs(est.k2 - 1.0) > 1e-9


def test_run_experiment_sample_moment_fallback(monkeypatch):
    # Push the exact-moment limit below k: the report must say so and the
    # standardization then centers/scales exactly by construction.
    monkeypatch.setenv("VINCSTAT_MAX_K", "1")
    rep = run_experiment(parse_pattern("2,1"), n=12, m=2_000, seed=3)
    assert not rep.used_exact_moments
    assert rep.cumulants.k1 == pytest.approx(0.0, abs=1e-12)
    assert rep.cumulants.k2 == pytest.approx(1.0, abs=1e-9)


def test_run_experiment_rejects_bad_setups():
    with pytest.raises(PatternTooSmall):
        run_experiment(parse_pattern("1"), n=10, m=500, seed=0)
    with pytest.raises(DegenerateInput):
        run_experiment(parse_pattern("3|1,2"), n=2, m=500, seed=0)
    with pytest.raises(DegenerateInput):
        run_experiment(parse_pattern("2,1"), n=10, m=50, seed=0)


def test_tiny_host_is_far_from_normal():
    # At n = k the count is a Bernoulli(1/2) indicator; its standardized
    # empirical law stays a fixed distance from the normal.
    rep = run_experiment(parse_pattern("1|2"), n=2, m=2_000, seed=11)
    assert rep.d_K > 0.3


def test_distance_shrinks_with_host_size():
    p = parse_pattern("2,1")
    small = run_experiment(p, n=10, m=20_000, seed=21)
    large = run_experiment(p, n=1_000, m=20_000, seed=21)
    assert small.d_K > large.d_K + 0.05


def test_fit_rate_recovers_exact_power_law():
    points = [(n, 3.0 * n**-0.5) for n in (100, 400, 1600, 6400)]
    fit = fit_rate(points)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert fit.residual < 1e-12
    assert fit.points == tuple((float(n), float(d)) for n, d in points)


def test_fit_rate_validation():
    with pytest.raises(DegenerateInput):
        fit_rate([(100, 0.1), (200, 0.05)])
    with pytest.raises(DegenerateInput):
        fit_rate([(100, 0.1), (200, 0.05), (400, 0.0)])
    with pytest.raises(DegenerateInput):
        fit_rate([(0, 0.1), (200, 0.05), (400, 0.02)])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DegenerateInput):
            fit_rate([(100, bad), (200, 0.05), (400, 0.02)])
    # One n leaves the slope undetermined, where polyfit would fit one
    # anyway, with a RankWarning; two distinct n suffice.
    with pytest.raises(DegenerateInput):
        fit_rate([(100, 0.02), (100, 0.03), (100, 0.025)])
    assert fit_rate([(100, 0.02), (100, 0.03), (400, 0.01)]).slope < 0


def test_non_finite_samples_are_refused():
    # Refused before any arithmetic, so numpy warns of nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            xs = np.array([0.1, bad, 0.3, 0.2, 0.5, 0.4])
            for freqs in (None, np.ones(6, dtype=np.int64)):
                with pytest.raises(DegenerateInput):
                    empirical_kolmogorov(xs, freqs)
                with pytest.raises(DegenerateInput):
                    sample_cumulants(xs, freqs)
            with pytest.raises(DegenerateInput):
                empirical_kolmogorov(np.array([bad, 1.0]))


def test_kolmogorov_distance_saturates_far_out():
    # A point mass far in either tail is at distance 1 from the normal.
    assert empirical_kolmogorov(np.array([1e6])) == pytest.approx(1.0, abs=1e-12)
    assert empirical_kolmogorov(np.array([-1e6])) == pytest.approx(1.0, abs=1e-12)


def test_cumulants_of_symmetric_two_point_sample():
    # Equal mass on -1 and +1: variance 1, odd cumulants 0, excess
    # kurtosis m4 - 3 m2^2 = -2, all exactly.
    xs = np.tile([-1.0, 1.0], 10)
    est = sample_cumulants(xs)
    assert est.k1 == pytest.approx(0.0, abs=1e-12)
    assert est.k2 == pytest.approx(1.0, abs=1e-12)
    assert est.k3 == pytest.approx(0.0, abs=1e-12)
    assert est.k4 == pytest.approx(-2.0, abs=1e-12)


def test_cumulants_of_constant_sample():
    est = sample_cumulants(np.full(12, 3.25))
    assert est.k2 == est.k3 == est.k4 == 0.0
    assert est.se2 == est.se3 == est.se4 == 0.0


def test_fit_rate_flat_sequence_gives_zero_slope():
    fit = fit_rate([(100, 0.1), (400, 0.1), (1600, 0.1)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_distance_monotone_over_three_hosts():
    # Up to twice the DKW noise floor of the estimate, the distance can
    # only shrink as the host grows.
    p = parse_pattern("2,1")
    m = 20_000
    slack = 2 * 0.43 / np.sqrt(m)
    d = {n: run_experiment(p, n=n, m=m, seed=21).d_K for n in (100, 400, 1600)}
    assert d[400] <= d[100] + slack
    assert d[1600] <= d[400] + slack


def _decoded(codes):
    """The permutations whose inversion tables are the rows of codes:
    position p enters its row's value order above p - c(p) earlier
    positions."""
    perms = np.empty(codes.shape, dtype=np.int64)
    for r, row in enumerate(codes.tolist()):
        order = []
        for p, c in enumerate(row):
            order.insert(p - c, p)
        perms[r, order] = np.arange(1, len(order) + 1)
    return perms


@pytest.mark.parametrize(
    "text, n", [("3|1,2", 60), ("1|2", 45), ("2,1|3|4", 20), ("2,1", 60), ("2,1|3,4", 40)]
)
def test_sweep_path_reports_equal_chain_path_reports(monkeypatch, text, n):
    # 2,1|3|4 and 2,1|3,4 are swept on shuffled permutations; 3|1,2 and
    # 1|2 are counted from inversion tables, and 2,1 on raw words.
    p = parse_pattern(text)
    chain_calls = []
    chain_kernel = positions.count_occurrences_batch

    def spy(*args):
        chain_calls.append(args)
        return chain_kernel(*args)

    monkeypatch.setattr(positions, "count_occurrences_batch", spy)
    sweep = run_experiment(p, n=n, m=1_500, seed=17, threads=1)
    assert not chain_calls
    # The plan then lists a position matrix for the chain kernel.
    monkeypatch.setattr(positions, "is_path_shaped", lambda pattern: False)
    if p.block_count == 1:
        # A window pattern is counted on raw words: the chain kernel gets
        # the ranked words of the same blocks.
        def ranked(block, pattern):
            ranks = np.argsort(np.argsort(block, axis=1), axis=1) + 1
            return count_rows(ranks, pattern, plan_count(n, pattern))

        monkeypatch.setattr(montecarlo, "count_windows", ranked)
    elif montecarlo._plan(n, p).rows == "codes":
        # A code-counted pattern: the chain kernel gets the permutations
        # the same blocks' codes encode, reversed for a singleton last.
        def decoded(codes, pattern):
            perms = _decoded(codes)
            if len(pattern.block_values[0]) > 1:
                perms = perms[:, ::-1]
            return count_rows(perms, pattern, plan_count(n, pattern))

        monkeypatch.setattr(montecarlo, "count_codes", decoded)
    assert run_experiment(p, n=n, m=1_500, seed=17, threads=1) == sweep
    assert chain_calls


def test_sweep_path_is_thread_invariant(monkeypatch):
    # Two CPUs in the affinity mask, so that two workers start on a
    # one-CPU runner too.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    p = parse_pattern("2,1|3,4")
    m = _CHUNK + 1  # two chunks, so two workers really split the work
    one = run_experiment(p, n=25, m=m, seed=5, threads=1)
    assert run_experiment(p, n=25, m=m, seed=5, threads=2) == one


def test_chain_kernel_path_is_thread_invariant(monkeypatch):
    # 1|3|2 is not path-shaped, so its plan holds a position matrix, which
    # is pickled to the workers with each chunk.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    p = parse_pattern("1|3|2")
    assert montecarlo._plan(25, p).positions.shape == (position_count(25, p), 3)
    m = _CHUNK + 1
    one = run_experiment(p, n=25, m=m, seed=5, threads=1)
    assert run_experiment(p, n=25, m=m, seed=5, threads=2) == one


@pytest.mark.parametrize("text", ["3|1,2", "1,3|2"])
def test_code_path_is_thread_invariant(monkeypatch, text):
    # Two chunks of one 2621-row code block each at n = 25, split across
    # two workers (two CPUs in the affinity mask); 1,3|2, whose singleton
    # comes last, counts the reversed permutations.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    p = parse_pattern(text)
    m = 2 * word_block_rows(25)
    one = run_experiment(p, n=25, m=m, seed=5, threads=1)
    assert run_experiment(p, n=25, m=m, seed=5, threads=2) == one


@pytest.mark.parametrize("text", ["3|1,2", "2,1", "2,1|3,4"])
def test_chunk_cell_bound_leaves_reports_alone(monkeypatch, text):
    # A cell budget of one row at n = 400 is below a shuffle block of 10
    # rows and a word or code block of 163, so every chunk is one block:
    # 500 samples run as 50 chunks of 10, or as 163, 163, 163 and 11.
    p = parse_pattern(text)
    n, m = 400, 500
    rows = shuffle_block_rows(n) if text == "2,1|3,4" else word_block_rows(n)
    whole = run_experiment(p, n=n, m=m, seed=8, threads=1)
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", n)
    seen = []
    count_chunk = montecarlo._count_chunk

    def recording(args):
        seen.append(args[3:5])
        return count_chunk(args)

    monkeypatch.setattr(montecarlo, "_count_chunk", recording)
    assert run_experiment(p, n=n, m=m, seed=8, threads=1) == whole
    assert seen == [(start, min(rows, m - start)) for start in range(0, m, rows)]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("2,1|3,4", [(0, 67), (67, 67), (134, 66)]),
        ("2,1", [(0, 70), (70, 70), (140, 60)]),
        ("3|1,2", [(0, 70), (70, 70), (140, 60)]),
    ],
    ids=["2,1|3,4", "2,1", "3|1,2"],
)
def test_chunks_are_equal_and_leave_reports_alone(monkeypatch, text, expected):
    # At most 81 rows a chunk (n = 6400's 2^19 // n) cut 200 samples into
    # equal chunks, not 81, 81 and 38: 67, 67 and 66 where a shuffle block
    # is one row, and whole word or code blocks of 10 rows for a window
    # pattern or 3|1,2.  The report equals the one from a single chunk.
    p = parse_pattern(text)
    cells = montecarlo._CHUNK_CELLS
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 2**30)
    whole = run_experiment(p, n=6400, m=200, seed=4, threads=1)
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", cells)
    seen = []
    count_chunk = montecarlo._count_chunk

    def recording(args):
        seen.append(args[3:5])
        return count_chunk(args)

    monkeypatch.setattr(montecarlo, "_count_chunk", recording)
    assert run_experiment(p, n=6400, m=200, seed=4, threads=1) == whole
    assert seen == expected


def _chunks_start_on_sampler_blocks(monkeypatch, text, n, m, sampler, rows):
    # Every chunk starts on a block of the sampler the plan chose, so no
    # row is drawn twice; the chunks keep to both caps, differ by at most
    # one block, and give the report of a single chunk.
    p = parse_pattern(text)
    cap = min(_CHUNK, montecarlo._CHUNK_CELLS // n)
    drawn = []
    draw = getattr(montecarlo, sampler)

    def spy(n_, seed, count, start, *window):
        drawn.append((start, count))
        return draw(n_, seed, count, start, *window)

    monkeypatch.setattr(montecarlo, sampler, spy)
    chunked = run_experiment(p, n=n, m=m, seed=6, threads=1)
    starts, counts = zip(*drawn)
    assert len(drawn) > 1
    assert all(start % rows == 0 for start in starts)
    assert list(starts) == [0, *np.cumsum(counts)[:-1].tolist()] and sum(counts) == m
    assert max(counts) <= cap and max(counts) - min(counts) <= rows
    monkeypatch.setattr(montecarlo, "_CHUNK", 2**30)
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 2**40)
    drawn.clear()
    assert run_experiment(p, n=n, m=m, seed=6, threads=1) == chunked
    assert drawn == [(0, m)]


@pytest.mark.parametrize("n, m", [(100, 3 * _CHUNK + 1), (1600, 1001), (6, 3 * _CHUNK + 1)])
def test_chunks_start_on_shuffle_blocks(monkeypatch, n, m):
    # Shuffle blocks hold 40, 2 and 682 rows.
    rows = shuffle_block_rows(n)
    _chunks_start_on_sampler_blocks(monkeypatch, "2,1|3,4", n, m, "sample_uniform_batch", rows)


@pytest.mark.parametrize("n, m", [(100, 3 * _CHUNK + 1), (6400, 1001), (6, 3 * _CHUNK + 1)])
def test_chunks_start_on_word_blocks(monkeypatch, n, m):
    # Word blocks hold 655, 10 and, capped at one chunk, 4096 rows.
    rows = word_block_rows(n)
    assert rows == {100: 655, 6400: 10, 6: _CHUNK}[n]
    _chunks_start_on_sampler_blocks(monkeypatch, "2,1", n, m, "sample_words", rows)


@pytest.mark.parametrize("text", ["3|1,2", "2|1", "2,3|1"])
@pytest.mark.parametrize("n, m", [(100, 3 * _CHUNK + 1), (6400, 1001), (6, 3 * _CHUNK + 1)])
def test_chunks_start_on_code_blocks(monkeypatch, text, n, m):
    # Code blocks are word blocks: 655, 10 and, capped at one chunk, 4096
    # rows.
    _chunks_start_on_sampler_blocks(monkeypatch, text, n, m, "sample_codes", word_block_rows(n))


def test_window_reports_under_forced_ties_ignore_threads_and_chunks(monkeypatch):
    # Three-bit words tie in most rows of 3,2,1 at n = 8, so the redraws
    # matter; two workers, one for each chunk (a 4096-row word block and
    # one more row), must give the single-worker report.  The workers are
    # forked (the default on Linux before Python 3.14), so they draw with
    # the patched words too.
    monkeypatch.setattr(
        sampling, "_raw_words", lambda bit_gen, count: bit_gen.random_raw(count) & np.uint64(7)
    )
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    p = parse_pattern("3,2,1")
    m = _CHUNK + 1
    one = run_experiment(p, n=8, m=m, seed=12, threads=1)
    assert run_experiment(p, n=8, m=m, seed=12, threads=2) == one


def test_sweep_path_size_guards(monkeypatch):
    # The n - k + 1 window starts are bounded by the listing cap ...
    monkeypatch.setenv("VINCSTAT_LISTING_CAP", "1000")
    assert run_experiment(parse_pattern("2,1|3,4"), n=1_003, m=100, seed=0).n == 1_003
    assert run_experiment(parse_pattern("2,1"), n=1_001, m=100, seed=0).n == 1_001
    # ... and the int64 DP weights by 2^63 - 1; all refuse before sampling,
    # on shuffled permutations or raw words.
    monkeypatch.setattr(montecarlo, "sample_uniform_batch", None)
    monkeypatch.setattr(montecarlo, "sample_words", None)
    with pytest.raises(SizeLimitExceeded, match="listing cap"):
        run_experiment(parse_pattern("2,1|3,4"), n=1_004, m=100, seed=0)
    with pytest.raises(SizeLimitExceeded, match="listing cap"):
        run_experiment(parse_pattern("2,1"), n=1_002, m=100, seed=0)
    monkeypatch.delenv("VINCSTAT_LISTING_CAP")
    wide = parse_pattern("1|2|3|4|5")
    assert position_count(100_000, wide) > 2**63 - 1
    with pytest.raises(SizeLimitExceeded, match="overflow"):
        run_experiment(wide, n=100_000, m=100, seed=0)


@pytest.mark.parametrize("text", ["2|1,3", "3|1,2", "1,3|2", "1|2"])
def test_code_path_size_guards(monkeypatch, text):
    # A code-counted pattern lists no position set, so only its n - k + 1
    # window starts are bounded by the listing cap, as a swept pattern's
    # are, and it is refused before sampling.  For 2|1,3 and 1,3|2 the
    # chain kernel of count would list C(n - 1, 2) sets.
    monkeypatch.setenv("VINCSTAT_LISTING_CAP", "1000")
    p = parse_pattern(text)
    top = 999 + p.size
    assert run_experiment(p, n=top, m=100, seed=0).n == top
    if not positions.is_path_shaped(p):
        with pytest.raises(SizeLimitExceeded, match="listing cap"):
            plan_count(50, p)
    monkeypatch.setattr(montecarlo, "sample_codes", None)
    with pytest.raises(SizeLimitExceeded, match="listing cap"):
        run_experiment(p, n=top + 1, m=100, seed=0)


def test_every_pattern_is_refused_past_its_limit_before_sampling(monkeypatch):
    # With no sampler left, every pattern with 2 <= k <= 4 is refused just
    # past its limit and samples just below it: cap + 1 window starts where
    # nothing is listed (words, codes, the sweep), cap + 1 position sets
    # where the chain kernel runs.
    cap = 12
    monkeypatch.setenv("VINCSTAT_LISTING_CAP", str(cap))
    for sampler in ("sample_uniform_batch", "sample_words", "sample_codes"):
        monkeypatch.setattr(montecarlo, sampler, None)
    for k in (2, 3, 4):
        for p in iter_patterns(k):
            if code_countable(p) or positions.is_path_shaped(p):
                n = cap + k
            else:
                n = next(n for n in itertools.count(k) if position_count(n, p) > cap)
            with pytest.raises(SizeLimitExceeded, match="listing cap"):
                run_experiment(p, n=n, m=100, seed=0)
            with pytest.raises(TypeError, match="not callable"):
                run_experiment(p, n=n - 1, m=100, seed=0)


def test_the_plan_sends_exactly_the_two_block_patterns_of_size_3_to_codes(monkeypatch):
    # Every pattern with k <= 3 runs; only 1|2, 2|1 and the twelve
    # one-dash patterns of size 3 draw inversion tables, and no pattern of
    # size 4 or 5 would.
    coded = []
    draw = montecarlo.sample_codes

    def spy(n, seed, count, start):
        coded.append(True)
        return draw(n, seed, count, start)

    monkeypatch.setattr(montecarlo, "sample_codes", spy)
    ran = set()
    for k in (2, 3):
        for p in iter_patterns(k):
            coded.clear()
            run_experiment(p, n=6, m=100, seed=1, threads=1)
            if coded:
                ran.add(str(p))
    assert ran == {
        "1|2", "2|1",
        "1|2,3", "1|3,2", "2|1,3", "2|3,1", "3|1,2", "3|2,1",
        "1,2|3", "1,3|2", "2,1|3", "2,3|1", "3,1|2", "3,2|1",
    }
    assert not any(montecarlo._plan(6, p).rows == "codes" for k in (4, 5) for p in iter_patterns(k))


def test_exact_moment_limit_is_read_before_sampling(monkeypatch):
    # The exact layer is asked for the moments before any sampling, so a
    # malformed limit is reported without drawing a sample.
    monkeypatch.setenv("VINCSTAT_MAX_K", "abc")
    monkeypatch.setattr(montecarlo, "sample_uniform_batch", None)
    monkeypatch.setattr(montecarlo, "sample_words", None)
    for unsafe in (False, True):
        with pytest.raises(MalformedLimit, match="VINCSTAT_MAX_K"):
            run_experiment(parse_pattern("2,1"), n=1_600, m=40_000, seed=0, unsafe=unsafe)
