"""Monte Carlo verification of the normal limit.

Draws seeded permutations, standardizes the occurrence count with the
exact mean and variance whenever the exact machinery covers the pattern,
and summarizes the sample by its Kolmogorov distance to the standard
normal and its first four sample cumulants.  A least-squares fit of
log d_K against log n estimates the convergence-rate exponent.

The empirical d_K of m samples cannot drop below ~0.43/sqrt(m) (the
noise floor of the empirical distribution function itself), so rate fits
should stop increasing n once d_K approaches that floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, sqrt

import numpy as np

from .errors import DegenerateInput, EmptySample, PatternTooSmall, SizeLimitExceeded, TooFewSamples
from .moments import exact_variance_at, expectation
from .patterns import VincularPattern, format_pattern
from .positions import count_rows, plan_count
from .sampling import sample_uniform_batch

__all__ = [
    "CumulantEstimates",
    "MonteCarloReport",
    "RateFit",
    "empirical_kolmogorov",
    "sample_cumulants",
    "run_experiment",
    "fit_rate",
]

_CHUNK = 4096  # samples per generation/counting chunk; rows are seeded by
               # their index, so this only bounds memory and sets the
               # parallel grain
_CHUNK_CELLS = 2**23  # fewer samples per chunk once n > 2048, so that a
                      # chunk of rows stays within this many cells


def _normal_cdf(xs: np.ndarray) -> np.ndarray:
    """Standard normal distribution function Phi(x) = erfc(-x/sqrt(2))/2
    at each entry of xs.  erfc keeps the lower tail to full relative
    precision, where (1 + erf(x/sqrt(2)))/2 would cancel."""
    root2 = sqrt(2)
    return np.array([erfc(-x / root2) / 2 for x in xs.tolist()], dtype=np.float64)


def empirical_kolmogorov(xs: np.ndarray) -> float:
    """Kolmogorov distance between the empirical distribution of xs and
    the standard normal."""
    xs = np.asarray(xs, dtype=np.float64).ravel()
    m = xs.size
    if m == 0:
        raise EmptySample("empirical distance of an empty sample")
    sorted_xs = np.sort(xs)
    cdf = _normal_cdf(sorted_xs)
    upper = np.arange(1, m + 1) / m - cdf
    lower = cdf - np.arange(0, m) / m
    return float(max(upper.max(), lower.max()))


@dataclass(frozen=True)
class CumulantEstimates:
    k1: float
    k2: float
    k3: float
    k4: float
    se1: float
    se2: float
    se3: float
    se4: float


def _cumulants_of(xs: np.ndarray) -> tuple[float, float, float, float]:
    mean = xs.mean()
    xc = xs - mean
    m2 = float(np.mean(xc * xc))
    m3 = float(np.mean(xc**3))
    m4 = float(np.mean(xc**4))
    return float(mean), m2, m3, m4 - 3 * m2 * m2


def sample_cumulants(xs: np.ndarray) -> CumulantEstimates:
    """Plug-in estimates of the first four cumulants, with delete-one
    jackknife standard errors.

    The estimators are the central-moment plug-ins (k4 = m4 - 3 m2^2);
    their O(1/m) bias is far below the Monte Carlo tolerances used here.
    The jackknife (Efron & Stein 1981) recomputes them with each
    observation left out: the power sums of the sample centered at k1,
    minus that observation's powers, give all m replicates in O(m), and
    se = sqrt((m-1)/m * sum_i (theta_i - mean theta)^2).  No randomness
    is involved, so equal samples give equal errors.
    """
    xs = np.asarray(xs, dtype=np.float64).ravel()
    m = xs.size
    if m < 5:
        raise TooFewSamples(f"need at least 5 observations, got {m}")
    k1, k2, k3, k4 = _cumulants_of(xs)
    y = xs - k1
    powers = np.stack([y, y * y, y**3, y**4])
    s1, s2, s3, s4 = (powers.sum(axis=1, keepdims=True) - powers) / (m - 1)
    c2 = s2 - s1 * s1
    c3 = s3 - 3 * s1 * s2 + 2 * s1**3
    c4 = s4 - 4 * s1 * s3 + 6 * s1 * s1 * s2 - 3 * s1**4 - 3 * c2 * c2
    # The k1 replicates are s1 + k1; the constant shift leaves their spread alone.
    reps = np.stack([s1, c2, c3, c4])
    dev = reps - reps.mean(axis=1, keepdims=True)
    ses = np.sqrt((m - 1) / m * (dev * dev).sum(axis=1))
    return CumulantEstimates(k1, k2, k3, k4, *(float(s) for s in ses))


@dataclass(frozen=True)
class MonteCarloReport:
    pattern: str
    n: int
    samples: int
    seed: int
    d_K: float
    cumulants: CumulantEstimates
    used_exact_moments: bool


def _count_chunk(args) -> np.ndarray:
    pattern, n, seed, start, count, plan = args
    return count_rows(sample_uniform_batch(n, seed, count, start), pattern, plan)


def run_experiment(
    pattern: VincularPattern,
    n: int,
    m: int,
    seed: int,
    threads: int | None = None,
    unsafe: bool = False,
) -> MonteCarloReport:
    """Draw m permutations of size n, count pattern occurrences,
    standardize, and summarize.

    Before any sampling, positions.plan_count plans the counter once for
    (n, pattern), refusing a host beyond its limits, and the exact layer
    is asked for the variance.  Where exact_variance_at refuses the
    pattern as beyond the exact-moment limit (raised to at least k=6 by
    unsafe), sample moments standardize instead, as the report records.
    Every chunk is counted by positions.count_rows.  Output is identical
    for every thread count; at most one worker process runs per chunk.
    """
    if pattern.size < 2:
        raise PatternTooSmall("the normal limit concerns patterns of size k >= 2")
    if n < pattern.size:
        raise DegenerateInput(f"n={n} is below the pattern size {pattern.size}")
    if m < 100:
        raise DegenerateInput(f"need at least 100 samples, got {m}")

    plan = plan_count(n, pattern)
    try:
        var_q = exact_variance_at(pattern, n, unsafe)
    except SizeLimitExceeded:
        var_q = None  # beyond the exact-moment limit
    if var_q is not None and var_q <= 0:
        raise DegenerateInput(f"exact variance is {var_q} at n={n}; nothing to standardize")
    chunk = max(1, min(_CHUNK, _CHUNK_CELLS // n))
    tasks = [
        (pattern, n, seed, start, min(chunk, m - start), plan)
        for start in range(0, m, chunk)
    ]
    # With the fork start method every worker is forked at the first
    # submit, whether or not a task is left for it.
    workers = min(threads or 1, len(tasks))
    if workers > 1:
        # Imported here: loading multiprocessing slows every other start.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # One batch per worker, so even a few chunks are split.
            batch = -(-len(tasks) // workers)
            pieces = list(pool.map(_count_chunk, tasks, chunksize=batch))
    else:
        pieces = [_count_chunk(t) for t in tasks]
    counts = np.concatenate(pieces).astype(np.float64)

    if var_q is not None:
        mean, var = float(expectation(pattern, n)), float(var_q)
    else:
        mean = float(counts.mean())
        var = float(counts.var())
        if var <= 0:
            raise DegenerateInput("sample variance is zero; nothing to standardize")
    xs = (counts - mean) / np.sqrt(var)

    return MonteCarloReport(
        pattern=format_pattern(pattern),
        n=n,
        samples=m,
        seed=seed,
        d_K=empirical_kolmogorov(xs),
        cumulants=sample_cumulants(xs),
        used_exact_moments=var_q is not None,
    )


@dataclass(frozen=True)
class RateFit:
    points: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    residual: float


def fit_rate(points) -> RateFit:
    """Least-squares slope of log d_K against log n.

    residual is the root-mean-square residual of the fit in log space.
    """
    pts = tuple((float(n), float(d)) for n, d in points)
    if len(pts) < 3:
        raise DegenerateInput(f"need at least 3 points, got {len(pts)}")
    if not all(0 < n < np.inf and 0 < d < np.inf for n, d in pts):
        raise DegenerateInput("all n and d_K must be positive and finite")
    log_n = np.log([n for n, _ in pts])
    log_d = np.log([d for _, d in pts])
    slope, intercept = np.polyfit(log_n, log_d, 1)
    fitted = slope * log_n + intercept
    residual = float(np.sqrt(np.mean((log_d - fitted) ** 2)))
    return RateFit(pts, float(slope), float(intercept), residual)
