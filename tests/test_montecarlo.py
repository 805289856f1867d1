import concurrent.futures

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
from vincstat import montecarlo, positions
from vincstat.montecarlo import (
    _CHUNK,
    _cumulants_of,
    _normal_cdf,
    empirical_kolmogorov,
    fit_rate,
    run_experiment,
    sample_cumulants,
)
from vincstat.patterns import parse_pattern
from vincstat.positions import position_count
from vincstat.sampling import NORMAL_STREAM, substream


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
    # Reference: recompute the plug-ins on each sample with one point deleted.
    xs = substream(13, 0, NORMAL_STREAM).exponential(size=50)
    m = xs.size
    reps = np.array([_cumulants_of(np.delete(xs, i)) for i in range(m)])
    expected = np.sqrt((m - 1) / m * ((reps - reps.mean(axis=0)) ** 2).sum(axis=0))
    est = sample_cumulants(xs)
    got = np.array([est.se1, est.se2, est.se3, est.se4])
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_run_experiment_deterministic_and_thread_invariant():
    # m spans four sampling chunks, so two and three workers really split
    # the work (the last chunk holds a single sample).
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


@pytest.mark.parametrize(
    "text, n", [("3|1,2", 60), ("1|2", 45), ("2,1|3|4", 20), ("2,1", 60)]
)
def test_sweep_path_reports_equal_chain_path_reports(monkeypatch, text, n):
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
    assert run_experiment(p, n=n, m=1_500, seed=17, threads=1) == sweep
    assert chain_calls


def test_sweep_path_is_thread_invariant():
    p = parse_pattern("3|1,2")
    m = _CHUNK + 1  # two chunks, so two workers really split the work
    one = run_experiment(p, n=25, m=m, seed=5, threads=1)
    assert run_experiment(p, n=25, m=m, seed=5, threads=2) == one


@pytest.mark.parametrize("text", ["3|1,2", "2,1"])
def test_chunk_cell_bound_leaves_reports_alone(monkeypatch, text):
    # A cell budget of 500 at n = 50 cuts 300 samples into 30 chunks of 10.
    p = parse_pattern(text)
    whole = run_experiment(p, n=50, m=300, seed=8, threads=1)
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 500)
    seen = []
    count_chunk = montecarlo._count_chunk

    def recording(args):
        seen.append(args[4])
        return count_chunk(args)

    monkeypatch.setattr(montecarlo, "_count_chunk", recording)
    assert run_experiment(p, n=50, m=300, seed=8, threads=1) == whole
    assert seen == [10] * 30


def test_sweep_path_size_guards(monkeypatch):
    # The n - k + 1 window starts are bounded by the listing cap ...
    monkeypatch.setenv("VINCSTAT_LISTING_CAP", "1000")
    assert run_experiment(parse_pattern("3|1,2"), n=1_002, m=100, seed=0).n == 1_002
    with pytest.raises(SizeLimitExceeded, match="listing cap"):
        run_experiment(parse_pattern("3|1,2"), n=1_003, m=100, seed=0)
    assert run_experiment(parse_pattern("2,1"), n=1_001, m=100, seed=0).n == 1_001
    with pytest.raises(SizeLimitExceeded, match="listing cap"):
        run_experiment(parse_pattern("2,1"), n=1_002, m=100, seed=0)
    monkeypatch.delenv("VINCSTAT_LISTING_CAP")
    # ... and the int64 DP weights by 2^63 - 1; both refuse before sampling.
    wide = parse_pattern("1|2|3|4|5")
    assert position_count(100_000, wide) > 2**63 - 1
    monkeypatch.setattr(montecarlo, "sample_uniform_batch", None)
    with pytest.raises(SizeLimitExceeded, match="overflow"):
        run_experiment(wide, n=100_000, m=100, seed=0)


def test_exact_moment_limit_is_read_before_sampling(monkeypatch):
    # The exact layer is asked for the moments before any sampling, so a
    # malformed limit is reported without drawing a sample.
    monkeypatch.setenv("VINCSTAT_MAX_K", "abc")
    monkeypatch.setattr(montecarlo, "sample_uniform_batch", None)
    for unsafe in (False, True):
        with pytest.raises(MalformedLimit, match="VINCSTAT_MAX_K"):
            run_experiment(parse_pattern("2,1"), n=1_600, m=40_000, seed=0, unsafe=unsafe)
