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
of the gaps).  Everything else is an exact scan over all vertices, in
chunks of a few thousand: each vertex's gaps are the differences of its
shifted j-subset (the enumeration position_matrix uses), and the packing
DP runs over the whole chunk at once as a product of one small matrix per
run, looked up by the run's length.  The edge count needs no scan for any
shape: it is (N^2 - N - disjoint)/2, where the ordered disjoint pairs are
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
from .positions import _subset_rows, position_count

__all__ = [
    "DependencyGraphSummary",
    "graph_summary",
    "stein_bound",
    "cumulant_bound",
    "saulis_bound",
]

# Vertices per step of the gap-composition scan: large enough that numpy
# overhead is amortized, small enough that the scan's arrays stay well
# under a megabyte.
_SCAN_CHUNK = 2048


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
    where upto < placed or the blocks do not fit."""
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


def _packings(gaps: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Number of ways to place the ordered blocks disjointly into the
    ordered free runs of each row of `gaps` (rows, j+1), keeping each block
    contiguous: a left-to-right DP over the runs, for all rows at once,
    whose step for a run of length L is the matrix table[L].

    Every DP entry counts placements of some leading blocks into the n-k
    free cells, and so does every table entry; either is at most
    binom(n-k+j, j) = N, so int64 is exact for any N a scan can reach.
    """
    dp = np.zeros((len(gaps), 1, table.shape[1]), dtype=np.int64)
    dp[:, 0, 0] = 1
    for length in gaps.T:
        dp = dp @ table[length]
    return dp[:, 0, -1]


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
    free = n - k
    table = _packing_table(free, pattern.blocks)
    min_avoid = N
    for subsets in _subset_rows(n, pattern, _SCAN_CHUNK):
        # The free runs before, between and after the blocks of each
        # vertex: the weak compositions of n-k into j+1 parts.
        gaps = np.diff(subsets, prepend=-1, append=free + j) - 1
        min_avoid = min(min_avoid, int(_packings(gaps, table).min()))
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
