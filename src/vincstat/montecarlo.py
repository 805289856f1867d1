"""Monte Carlo verification of the normal limit.

Draws seeded permutations (for a window pattern, uint32 rows in the
same order inside windows; for a two-block pattern of size k <= 3, their
inversion tables), standardizes the occurrence count with the
exact mean and variance whenever the exact machinery covers the pattern,
and summarizes the sample by its Kolmogorov distance to the standard
normal and its first four sample cumulants.  A least-squares fit of
log d_K against log n estimates the convergence-rate exponent.

The empirical d_K of m samples cannot drop below ~0.43/sqrt(m) (the
noise floor of the empirical distribution function itself), so rate fits
should stop increasing n once d_K approaches that floor.

Counts are integers, so a sample is kept as its distinct values and
their frequencies: each chunk of samples is reduced to (value,
frequency) pairs as soon as it is counted, and d_K and the cumulants are
computed from the merged pairs.  Memory grows with the number of
distinct counts, not with the number of samples.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from math import erfc, sqrt

import numpy as np

from . import config
from .errors import DegenerateInput, EmptySample, PatternTooSmall, SizeLimitExceeded, TooFewSamples
from .moments import exact_variance_at, expectation
from .patterns import VincularPattern, format_pattern
from .positions import (
    check_sweep_size, code_countable, count_codes, count_rows, count_windows, plan_count
)
from .sampling import (
    sample_codes,
    sample_uniform_batch,
    sample_words,
    shuffle_block_rows,
    word_block_rows,
)

__all__ = [
    "CumulantEstimates",
    "MonteCarloReport",
    "RateFit",
    "empirical_kolmogorov",
    "sample_cumulants",
    "run_experiment",
    "fit_rate",
]

_CHUNK = 4096  # at most this many samples per generation/counting chunk;
               # rows are seeded by their index, so chunking only bounds
               # memory, sets the parallel grain and, with chunks cut on
               # the sampler's blocks, draws no row twice
_CHUNK_CELLS = 2**19  # and at most this many permutation entries per
                      # chunk: fewer samples once n > 128


def _normal_cdf(xs: np.ndarray) -> np.ndarray:
    """Standard normal distribution function Phi(x) = erfc(-x/sqrt(2))/2
    at each entry of xs, one math.erfc call per entry: callers pass the
    distinct values of a sample, not the sample.  erfc keeps the lower
    tail to full relative precision, where (1 + erf(x/sqrt(2)))/2 would
    cancel."""
    root2 = sqrt(2)
    return np.array([erfc(-x / root2) / 2 for x in xs.tolist()], dtype=np.float64)


def _grouped(xs, freqs) -> tuple[np.ndarray, np.ndarray, int]:
    """The distinct values of a sample in ascending order, how often each
    occurs, and the sample size.  The sample is xs, or, when freqs is
    given, xs[i] taken freqs[i] times for each i.  NaN and infinities
    raise DegenerateInput."""
    xs = np.asarray(xs, dtype=np.float64).ravel()
    if freqs is None:
        values, counts = np.unique(xs, return_counts=True)
    else:
        freqs = np.asarray(freqs).ravel()
        if (freqs.shape != xs.shape or not np.issubdtype(freqs.dtype, np.integer)
                or (freqs < 0).any()):
            raise DegenerateInput("freqs must give one non-negative integer count per value")
        if (xs[1:] > xs[:-1]).all():
            values, counts = xs, freqs  # already a summary, as run_experiment's is
        else:
            values, counts = _summed(xs, freqs)
    if not np.isfinite(values).all():
        raise DegenerateInput("the sample holds NaN or an infinity")
    return values, counts, int(counts.sum())


def _summed(values: np.ndarray, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of values in ascending order, each with the
    sum of the freqs of the entries equal to it."""
    # On numpy 2, a bare np.unique (or np.union1d) imports numpy.ma,
    # about 1 MB; with return_inverse it does not.
    distinct, inverse = np.unique(values, return_inverse=True)
    total = np.zeros(distinct.size, dtype=np.int64)
    np.add.at(total, inverse.ravel(), freqs)
    return distinct, total


def empirical_kolmogorov(xs: np.ndarray, freqs: np.ndarray | None = None) -> float:
    """Kolmogorov distance between the empirical distribution of a
    sample and the standard normal.

    The sample is xs, or xs[i] taken freqs[i] times when freqs is given;
    either way it is grouped by value.  The supremum is reached at a
    value v: F(v) - Phi(v) or Phi(v) - F(v-), read off the cumulative
    frequencies, so Phi is evaluated once per distinct value.  The result
    is the same float as from the sorted m-array.
    """
    values, freqs, m = _grouped(xs, freqs)
    if m == 0:
        raise EmptySample("empirical distance of an empty sample")
    cdf = _normal_cdf(values)
    through = np.cumsum(freqs)
    upper = through / m - cdf
    lower = cdf - (through - freqs) / m
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


def sample_cumulants(xs: np.ndarray, freqs: np.ndarray | None = None) -> CumulantEstimates:
    """Plug-in estimates of the first four cumulants, with delete-one
    jackknife standard errors.

    The sample is xs, or xs[i] taken freqs[i] times when freqs is given;
    either way it is grouped into d distinct values v with frequencies
    f_v, and every sum runs over those values.  The estimators are the
    central-moment plug-ins (k4 = m4 - 3 m2^2); their O(1/m) bias is far
    below the Monte Carlo tolerances used here.  The jackknife (Efron &
    Stein 1981) recomputes them with each observation left out.  A
    replicate depends on the observation only through its value: the
    power sums of the sample centered at k1, minus that value's powers,
    give the d distinct replicates theta_v in O(d), and
    se = sqrt((m-1)/m * sum_v f_v (theta_v - mean theta)^2).  No
    randomness is involved, so equal samples give equal errors.
    """
    values, freqs, m = _grouped(xs, freqs)
    if m < 5:
        raise TooFewSamples(f"need at least 5 observations, got {m}")
    weights = freqs.astype(np.float64)
    k1 = float(weights @ values) / m
    y = values - k1
    powers = np.stack([y, y * y, y**3, y**4])
    sums = powers @ weights
    m2, m3, m4 = (float(s) / m for s in sums[1:])
    # Rows are overwritten in place, so d-length temporaries stay few
    # when every value is distinct.
    np.subtract(sums[:, None], powers, out=powers)
    powers /= m - 1
    s1, s2, s3, s4 = powers
    c2 = s2 - s1 * s1
    c3 = s3 - 3 * s1 * s2 + 2 * s1**3
    s4[:] = s4 - 4 * s1 * s3 + 6 * s1 * s1 * s2 - 3 * s1**4 - 3 * c2 * c2
    s2[:], s3[:] = c2, c3
    # The k1 replicates are s1 + k1; the constant shift leaves their spread alone.
    reps = powers
    reps -= (reps @ weights / m)[:, None]
    reps *= reps
    ses = np.sqrt((m - 1) / m * (reps @ weights))
    return CumulantEstimates(k1, m2, m3, m4 - 3 * m2 * m2, *(float(s) for s in ses))


@dataclass(frozen=True)
class MonteCarloReport:
    pattern: str
    n: int
    samples: int
    seed: int
    d_K: float
    cumulants: CumulantEstimates
    used_exact_moments: bool


# run_experiment's sampling plan (_plan): the rows drawn, "words", "codes"
# or "perms"; the sampler's rows per block; plan_count's plan for "perms".
_Plan = namedtuple("_Plan", ["rows", "block_rows", "positions"])


def _plan(n: int, pattern: VincularPattern) -> _Plan:
    """How run_experiment draws and counts the pattern's samples at size
    n, chosen once per run; the counter's limits raise SizeLimitExceeded
    here, before any sampling.

    A window pattern (j = 1) reads only the order inside windows of k
    neighbours, which i.i.d. uniform words give as a shuffle would: its
    rows are "words" (sampling.sample_words), counted by
    positions.count_windows.  A two-block pattern of size k <= 3
    (positions.code_countable) counts a local function of the inversion
    table, whose entries are independent: its rows are "codes"
    (sampling.sample_codes), counted by positions.count_codes.  Neither
    lists a position set, so positions.check_sweep_size alone bounds
    them; both samplers draw blocks of sampling.word_block_rows(n) rows.
    Other patterns' rows are "perms", shuffles in blocks of
    sampling.shuffle_block_rows(n) rows (sampling.sample_uniform_batch),
    since the sweep and the scans index by value, counted by
    positions.count_rows on plan_count's plan.
    """
    if pattern.block_count == 1 or code_countable(pattern):
        check_sweep_size(n, pattern)
        return _Plan("words" if pattern.block_count == 1 else "codes", word_block_rows(n), None)
    return _Plan("perms", shuffle_block_rows(n), plan_count(n, pattern))


def _count_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    """The distinct occurrence counts of one chunk of samples and their
    frequencies.  Word and code blocks are counted as they are yielded,
    so no array of the chunk's samples is built."""
    pattern, n, seed, start, count, plan = args
    if plan.rows == "perms":
        counts = count_rows(sample_uniform_batch(n, seed, count, start), pattern, plan.positions)
    else:
        if plan.rows == "words":
            blocks, count_block = sample_words(n, seed, count, start, pattern.size), count_windows
        else:
            blocks, count_block = sample_codes(n, seed, count, start), count_codes
        counts = np.concatenate([count_block(block, pattern) for block in blocks])
    return np.unique(counts, return_counts=True)


def _merged(pieces) -> tuple[np.ndarray, np.ndarray]:
    """One (value, frequency) summary from the chunks' summaries.

    Summaries wait until together they hold more pairs than the running
    summary, and are then folded into it at once.  A fold costs at most
    twice the pairs waiting, each pair waits for one fold, so merging is
    O(m log m) even when every count is distinct; with few distinct
    counts the waiting pairs stay few, and memory with them.
    """
    pieces = iter(pieces)
    held = [next(pieces)]  # the running summary, then the waiting ones
    waiting = 0
    for piece in pieces:
        held.append(piece)
        waiting += piece[0].size
        if waiting > held[0][0].size:
            held, waiting = [_folded(held)], 0
    return _folded(held)


def _folded(summaries) -> tuple[np.ndarray, np.ndarray]:
    """The (value, frequency) summaries joined into one."""
    if len(summaries) == 1:
        return summaries[0]
    values, freqs = zip(*summaries)
    return _summed(np.concatenate(values), np.concatenate(freqs))


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

    Before any sampling, _plan chooses the sampler and the counter once
    for (n, pattern), refusing a host beyond the counter's limits, and
    the exact layer is asked for the variance.  Where exact_variance_at
    refuses the pattern as beyond the exact-moment limit (raised to at
    least k=6 by unsafe), sample moments standardize instead, as the
    report records.  The samples are drawn in the fewest chunks of at
    most _CHUNK samples and _CHUNK_CELLS permutation entries, or of one
    sampler block where a block exceeds those caps.  Chunks are cut on
    the sampler's blocks of B rows, so no chunk redraws a row another
    chunk drew, and their sizes differ by at most B (by at most one when
    B = 1): that keeps the largest chunk, and with it peak memory, as
    small as that many chunks allow.  A scanned pattern pays for it in
    time: 2,1|3,4 at n = 6400, m = 90 counts as 45 + 45 rows in about
    200 ms, as 81 + 9 in about 145 ms (2-CPU Xeon).  Every chunk is
    reduced to (value, frequency) pairs, which are merged; no array of m
    counts is built.
    Output is identical for every thread count.  At most min(threads,
    chunks, CPUs in the affinity mask) worker processes run.
    """
    if pattern.size < 2:
        raise PatternTooSmall("the normal limit concerns patterns of size k >= 2")
    if n < pattern.size:
        raise DegenerateInput(f"n={n} is below the pattern size {pattern.size}")
    if m < 100:
        raise DegenerateInput(f"need at least 100 samples, got {m}")

    plan = _plan(n, pattern)
    try:
        var_q = exact_variance_at(pattern, n, unsafe)
    except SizeLimitExceeded:
        var_q = None  # beyond the exact-moment limit
    if var_q is not None and var_q <= 0:
        raise DegenerateInput(f"exact variance is {var_q} at n={n}; nothing to standardize")
    grain = plan.block_rows
    units = -(-m // grain)  # the last may be short of a whole grain
    chunks = -(-units // max(1, min(_CHUNK, _CHUNK_CELLS // n) // grain))
    # Equal chunks, the first units % chunks of them one grain longer, so
    # the largest chunk is as small as this many chunks allow.  When the
    # last grain is short, the last chunk takes one of those extra grains
    # instead.
    size, longer = divmod(units, chunks)
    if longer and units * grain > m:
        longer -= 1
    starts = [grain * (i * size + min(i, longer)) for i in range(chunks)] + [m]
    tasks = ((pattern, n, seed, a, b - a, plan) for a, b in zip(starts, starts[1:]))
    # With the fork start method every worker is forked at the first
    # submit, whether or not a task is left for it.
    workers = min(threads or 1, chunks, config.available_cpus())
    if workers > 1:
        # Imported here: loading multiprocessing slows every other start.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # One batch per worker, so even a few chunks are split.
            batch = -(-chunks // workers)
            counts, freqs = _merged(pool.map(_count_chunk, tasks, chunksize=batch))
    else:
        counts, freqs = _merged(map(_count_chunk, tasks))

    if var_q is not None:
        mean, var = float(expectation(pattern, n)), float(var_q)
    else:
        # Power sums in Python integers, so each moment is rounded once.
        pairs = list(zip(counts.tolist(), freqs.tolist()))
        s1 = sum(f * v for v, f in pairs)
        s2 = sum(f * v * v for v, f in pairs)
        if m * s2 == s1 * s1:
            raise DegenerateInput("sample variance is zero; nothing to standardize")
        mean, var = s1 / m, (m * s2 - s1 * s1) / (m * m)
    xs = (counts.astype(np.float64) - mean) / np.sqrt(var)

    return MonteCarloReport(
        pattern=format_pattern(pattern),
        n=n,
        samples=m,
        seed=seed,
        d_K=empirical_kolmogorov(xs, freqs),
        cumulants=sample_cumulants(xs, freqs),
        used_exact_moments=var_q is not None,
    )


@dataclass(frozen=True)
class RateFit:
    points: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    residual: float


def fit_rate(points) -> RateFit:
    """Least-squares slope of log d_K against log n, over at least three
    points at two or more distinct n.

    residual is the root-mean-square residual of the fit in log space.
    """
    pts = tuple((float(n), float(d)) for n, d in points)
    if len(pts) < 3:
        raise DegenerateInput(f"need at least 3 points, got {len(pts)}")
    if not all(0 < n < np.inf and 0 < d < np.inf for n, d in pts):
        raise DegenerateInput("all n and d_K must be positive and finite")
    if len({n for n, _ in pts}) < 2:
        raise DegenerateInput("need at least two distinct n to fit a rate")
    log_n = np.log([n for n, _ in pts])
    log_d = np.log([d for _, d in pts])
    slope, intercept = np.polyfit(log_n, log_d, 1)
    fitted = slope * log_n + intercept
    residual = float(np.sqrt(np.mean((log_d - fitted) ** 2)))
    return RateFit(pts, float(slope), float(intercept), residual)
