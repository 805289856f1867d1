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
of the gaps); everything else is an exact scan over gap compositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, sqrt

from . import config
from .errors import (
    BadOrder,
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


@dataclass(frozen=True)
class DependencyGraphSummary:
    n: int
    k: int
    j: int
    N: int
    D: int
    edge_count: int


def _packings(gaps: tuple[int, ...], blocks: tuple[int, ...]) -> int:
    """Number of ways to place the ordered blocks disjointly into the
    ordered free runs (lengths `gaps`), keeping each block contiguous.

    Placing a consecutive group of blocks with total size s and count c
    into one run of length L has binom(L - s + c, c) outcomes, so a
    left-to-right DP over runs suffices.
    """
    j = len(blocks)
    prefix = [0]
    for b in blocks:
        prefix.append(prefix[-1] + b)
    dp = [0] * (j + 1)
    dp[0] = 1
    for length in gaps:
        new = [0] * (j + 1)
        for placed in range(j + 1):
            ways_here = dp[placed]
            if ways_here == 0:
                continue
            for upto in range(placed, j + 1):
                size = prefix[upto] - prefix[placed]
                if size > length:
                    break
                count = upto - placed
                new[upto] += ways_here * comb(length - size + count, count)
        dp = new
    return dp[j]


def _gap_compositions(total: int, parts: int):
    """All weak compositions of `total` into `parts` parts."""
    for cut in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        gaps = []
        for c in cut:
            gaps.append(c - prev - 1)
            prev = c
        gaps.append(total + parts - 2 - prev)
        yield tuple(gaps)


def graph_summary(n: int, pattern: VincularPattern) -> DependencyGraphSummary:
    """Exact N, D and edge count for the dependency graph at host size n."""
    k = pattern.size
    j = pattern.block_count
    if n < k:
        raise DegenerateInput(f"no admissible sets for n={n} < k={k}")
    N = position_count(n, pattern)

    if j == 1:
        # Sliding windows: windows at distance d meet iff d < k, and
        # N - d pairs lie at each distance d.
        D = min(N, 2 * k - 1)
        reach = min(k - 1, N - 1)
        edges = reach * N - reach * (reach + 1) // 2
        return DependencyGraphSummary(n, k, j, N, D, edges)

    if j == k:
        # Classical pattern: avoid(I) = binom(n-k, k) for every I, so the
        # graph is regular and everything is closed-form.
        meets = N - comb(n - k, k)
        edges = N * (meets - 1) // 2
        return DependencyGraphSummary(n, k, j, N, meets, edges)

    cap = config.vertex_cap()
    if N > cap:
        raise SizeLimitExceeded(
            f"{N} vertices exceed the scan cap {cap} and pattern "
            f"{pattern} has no closed-form degree"
        )
    min_avoid = None
    avoid_total = 0
    for gaps in _gap_compositions(n - k, j + 1):
        a = _packings(gaps, pattern.blocks)
        avoid_total += a
        if min_avoid is None or a < min_avoid:
            min_avoid = a
    D = N - min_avoid
    edges = (N * N - avoid_total - N) // 2
    return DependencyGraphSummary(n, k, j, N, D, edges)


def stein_bound(N: int, D: int, B: float, sigma2: float) -> float:
    """Two-term Kolmogorov-distance bound for a sum of N bounded variables
    with dependency parameter D and variance sigma2:
    8 B^2 D^(3/2) N^(1/2) / sigma^2  +  8 B^3 D^2 N / sigma^3."""
    if N <= 0 or D <= 0 or B <= 0 or sigma2 <= 0:
        raise NonPositiveInput("stein_bound requires positive N, D, B, sigma2")
    sigma3 = sigma2 ** 1.5
    return 8 * B**2 * D**1.5 * sqrt(N) / sigma2 + 8 * B**3 * D**2 * N / sigma3


def cumulant_bound(r: int, N: int, D: int, B: float) -> float:
    """Bound on the r-th cumulant of the unnormalized sum:
    2^(r-1) r^(r-2) N D^(r-1) B^r."""
    if r < 1:
        raise BadOrder(f"cumulant order must be >= 1, got {r}")
    if N <= 0 or D <= 0 or B <= 0:
        raise NonPositiveInput("cumulant_bound requires positive N, D, B")
    return 2 ** (r - 1) * float(r) ** (r - 2) * N * D ** (r - 1) * B**r


def saulis_bound(gamma: float, delta: float) -> float:
    """Kolmogorov-distance bound for a standardized variable whose
    cumulants satisfy the (gamma, Delta) growth condition:
    108 / (Delta * sqrt(2)/6)^(1/(1+2*gamma))."""
    if delta <= 0:
        raise NonPositiveDelta(f"delta must be positive, got {delta}")
    if gamma < 0:
        raise NonPositiveInput(f"gamma must be >= 0, got {gamma}")
    return 108.0 / (delta * sqrt(2) / 6) ** (1.0 / (1.0 + 2.0 * gamma))
