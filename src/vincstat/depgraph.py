"""Dependency-graph summaries and explicit normal-approximation bounds.

The indicators {X_I} form a dependency graph whose vertices are the
admissible position sets and whose edges join intersecting sets.  The
quantities a normal-approximation bound needs are the vertex count N,
D = (max degree) + 1, and occasionally the edge count.

Degrees are computed arithmetically, never by materializing adjacency
lists.  A vertex is determined by its gap composition — the free-space
runs before, between, and after its blocks — and the number of sets
*avoiding* it is the number of ways to pack the pattern's blocks, in
order, into those runs.  So deg(I) = N - avoid(gaps(I)) - 1.  Two shapes
admit closed forms: a single block (j=1, sliding windows) and all blocks
of size one (classical patterns, where avoid = binom(n-k, k) regardless
of the gaps).  Everything else takes an exact minimum over all gap
compositions without listing a vertex: the packing DP is a product of
one small matrix per run, looked up by the run's length, so the DP rows
after all but the last two runs are built level by level, grouped by
their total length s, and the last two runs, which fill the n-k-s cells
left, fold into one vector per split.  Each vertex then costs one dot
product.  The edge count needs no DP for any shape: it is
(N^2 - N - disjoint)/2, where the ordered disjoint pairs are
binom(2j, j) * binom(n - 2k + 2j, 2j).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb, inf, isfinite, sqrt

import numpy as np

from . import config
from .errors import (
    BadOrder,
    BoundOverflow,
    DegenerateInput,
    NonPositiveDelta,
    NonPositiveInput,
    SizeLimitExceeded,
)
from .patterns import VincularPattern
from .positions import position_count

__all__ = [
    "DependencyGraphSummary",
    "graph_summary",
    "stein_bound",
    "cumulant_bound",
    "saulis_bound",
]

# Int64 cells per DP level (4 MB): a larger level is built and folded in
# slices of rows.  Smaller slices measured no slower at the vertex cap.
_LEVEL_CELLS = 1 << 19


@dataclass(frozen=True)
class DependencyGraphSummary:
    n: int
    k: int
    j: int
    N: int
    D: int
    edge_count: int


def _packing_table(free: int, blocks: tuple[int, ...]) -> np.ndarray:
    """table[L, placed, upto] = binom(L - size + count, count): the ways to
    place blocks placed+1 .. upto (count of them, total size `size`),
    contiguous and in order, into one free run of length L <= free.  Zero
    where upto < placed or the blocks do not fit.

    So the sets avoiding a vertex with free runs g_0 .. g_j number
    e_0' table[g_0] table[g_1] ... table[g_j] e_j: a left-to-right DP
    over the runs.  Every DP entry, and every entry of a product of
    tables, counts placements of some blocks into at most the n-k free
    cells, so it is at most binom(n-k+j, j) = N, and int64 is exact for
    any N under the vertex cap.
    """
    j = len(blocks)
    prefix = [0, *accumulate(blocks)]
    table = np.zeros((free + 1, j + 1, j + 1), dtype=np.int64)
    for placed in range(j + 1):
        for upto in range(placed, j + 1):
            size = prefix[upto] - prefix[placed]
            count = upto - placed
            for length in range(size, free + 1):
                table[length, placed, upto] = comb(length - size + count, count)
    return table


def _next_run(level: np.ndarray, sums: np.ndarray, table: np.ndarray):
    """The DP rows after one more run: each row of `level`, whose runs so
    far total `sums` (ascending), times table[g] for every length g that
    still fits.  One matrix product per g; the new rows are ordered by
    their total s, and within it by the old row, so the products land at
    their old index plus the start of their total."""
    free = len(table) - 1
    # Rows with total <= s, which is also the new level's rows with total s.
    counts = np.cumsum(np.bincount(sums, minlength=free + 1))
    starts = np.cumsum(counts) - counts
    grown = np.empty((int(counts.sum()), level.shape[1]), dtype=np.int64)
    for g in range(free + 1 - int(sums[0])):
        m = int(counts[free - g])
        grown[np.arange(m) + starts[sums[:m] + g]] = level[:m] @ table[g]
    return grown, np.repeat(np.arange(free + 1), counts)


def _fold_last_two(level: np.ndarray, sums: np.ndarray, table: np.ndarray) -> int:
    """Smallest avoid count over all ways to end the rows of `level` with
    two runs filling the free cells left.  For a total s and r = n-k-s,
    the last two runs (g, r-g) act as the vector table[g] @ table[r-g][:, j],
    so each vertex costs one dot product."""
    free = len(table) - 1
    last = table[::-1, :, -1].copy()  # last[free - L] = table[L][:, j]
    totals, firsts = np.unique(sums, return_index=True)
    bounds = [*firsts.tolist(), len(sums)]
    lows = []
    for s, lo, hi in zip(totals.tolist(), bounds, bounds[1:]):
        # ends[g] = table[g] @ table[r-g][:, j] for each split of r = free-s.
        ends = (table[:free - s + 1] @ last[s:, :, None])[..., 0]
        lows.append(int((ends @ level[lo:hi].T).min()))
    return min(lows)


def _min_avoid(level: np.ndarray, sums: np.ndarray, table: np.ndarray, runs: int) -> int:
    """Smallest avoid count over the vertices whose leading runs gave the
    DP rows `level` (totals `sums`, ascending), with `runs` more runs
    before the last two.  A next level over _LEVEL_CELLS is built in
    slices of consecutive rows, which keep their totals ascending."""
    if runs == 0:
        return _fold_last_two(level, sums, table)
    free = len(table) - 1
    grown = np.cumsum(free + 1 - sums)
    slices = -(-int(grown[-1]) * level.shape[1] // _LEVEL_CELLS)
    cuts = np.searchsorted(grown, np.arange(1, slices) * (grown[-1] / slices)).tolist()
    return min(
        _min_avoid(*_next_run(level[lo:hi], sums[lo:hi], table), table, runs - 1)
        for lo, hi in zip([0, *cuts], [*cuts, len(level)])
        if hi > lo
    )


def graph_summary(n: int, pattern: VincularPattern) -> DependencyGraphSummary:
    """Exact N, D and edge count for the dependency graph at host size n."""
    k = pattern.size
    j = pattern.block_count
    if n < k:
        raise DegenerateInput(f"no admissible sets for n={n} < k={k}")
    N = position_count(n, pattern)
    # An ordered pair of disjoint vertices is one interleaving of the two
    # vertices' j blocks each, then one placement of those 2j ordered
    # contiguous blocks (total size 2k) into the host.
    spare = n - 2 * k + 2 * j
    disjoint = comb(2 * j, j) * comb(spare, 2 * j) if spare >= 0 else 0
    edges = (N * N - N - disjoint) // 2

    if j == 1:
        # Sliding windows: windows at distance d meet iff d < k.
        return DependencyGraphSummary(n, k, j, N, min(N, 2 * k - 1), edges)

    if j == k:
        # Classical pattern: avoid(I) = binom(n-k, k) for every I, so the
        # graph is regular.
        return DependencyGraphSummary(n, k, j, N, N - comb(n - k, k), edges)

    cap = config.vertex_cap()
    if N > cap:
        raise SizeLimitExceeded(
            f"{N} vertices exceed the scan cap {cap} and pattern "
            f"{pattern} has no closed-form degree"
        )
    # A vertex's free runs before, between and after its blocks are a
    # weak composition of n-k into j+1 parts.  The first run's DP rows are
    # table[g_0][0], one per length; j-2 more runs follow, then the last two.
    table = _packing_table(n - k, pattern.blocks)
    min_avoid = _min_avoid(table[:, 0, :], np.arange(n - k + 1), table, j - 2)
    return DependencyGraphSummary(n, k, j, N, N - min_avoid, edges)


def _finite_bound(name: str, compute) -> float:
    """compute(), or BoundOverflow when the value leaves the float range
    (an overflow, a division by an underflowed zero, or inf * 0)."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = inf
    if not isfinite(value):
        raise BoundOverflow(f"{name} is outside the float range")
    return value


def stein_bound(N: int, D: int, B: float, sigma2: float) -> float:
    """Two-term Kolmogorov-distance bound for a sum of N bounded variables
    with dependency parameter D and variance sigma2:
    8 B^2 D^(3/2) N^(1/2) / sigma^2  +  8 B^3 D^2 N / sigma^3."""
    if not all(0 < x < inf for x in (N, D, B, sigma2)):
        raise NonPositiveInput("stein_bound requires positive, finite N, D, B, sigma2")
    return _finite_bound("stein_bound", lambda: (
        8 * B**2 * D**1.5 * sqrt(N) / sigma2 + 8 * B**3 * D**2 * N / sigma2**1.5
    ))


def cumulant_bound(r: int, N: int, D: int, B: float) -> float:
    """Bound on the r-th cumulant of the unnormalized sum:
    2^(r-1) r^(r-2) N D^(r-1) B^r."""
    if r < 1:
        raise BadOrder(f"cumulant order must be >= 1, got {r}")
    if not all(0 < x < inf for x in (N, D, B)):
        raise NonPositiveInput("cumulant_bound requires positive, finite N, D, B")
    return _finite_bound("cumulant_bound", lambda: (
        2 ** (r - 1) * float(r) ** (r - 2) * N * D ** (r - 1) * B**r
    ))


def saulis_bound(gamma: float, delta: float) -> float:
    """Kolmogorov-distance bound for a standardized variable whose
    cumulants satisfy the (gamma, Delta) growth condition:
    108 / (Delta * sqrt(2)/6)^(1/(1+2*gamma))."""
    if not 0 < delta < inf:
        raise NonPositiveDelta(f"delta must be positive and finite, got {delta}")
    if not 0 <= gamma < inf:
        raise NonPositiveInput(f"gamma must be >= 0 and finite, got {gamma}")
    return _finite_bound("saulis_bound", lambda: (
        108.0 / (delta * sqrt(2) / 6) ** (1.0 / (1.0 + 2.0 * gamma))
    ))
