import numpy as np
import pytest
from scipy.special import ndtri

from vincstat.errors import DegenerateInput, EmptySample, PatternTooSmall, TooFewSamples
from vincstat import montecarlo
from vincstat.montecarlo import (
    _CHUNK,
    _cumulants_of,
    empirical_kolmogorov,
    fit_rate,
    run_experiment,
    sample_cumulants,
)
from vincstat.patterns import parse_pattern
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

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
    run_experiment(parse_pattern("2,1"), n=6, m=3 * _CHUNK + 1, seed=3, threads=3)
    assert seen == {"workers": 3, "chunksize": 2}


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
