"""Brute-force ground truth over all of S_n, for small n.

Everything the exact and Monte Carlo modules claim can be checked here
the slow way: the full distribution of the occurrence count, its exact
moments, the law-of-total-variance decomposition obtained by conditioning
on the last few values of the permutation, and the closed-form
conditional expectations of the continuous (uniform-value) construction.

The enumeration is one table of S_n in suffix order (each row of the
lexicographic table reversed), so the permutations sharing their last c
values are always (n-c)! consecutive rows.  Conditioning on trailing
values is then a reshape: the law-of-total-variance terms and the
discrete suffix covariances are sums over row blocks.

Two conditioning regimes appear and they are not interchangeable.
Conditioning on the *values at the last positions of a finite
permutation* leaves the remaining values drawn without replacement from
a finite pool, which correlates indicators even when their overlap is
confined to the conditioned suffix (see discrete_suffix_covariances).
Conditioning on the *uniforms at the last positions* of the i.i.d.
construction leaves the free coordinates i.i.d., and indicator pairs
whose intersection sits inside the pinned suffix really are
conditionally independent — pinned_suffix_probabilities verifies that
exactly, with rational pinned values."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _all_perms
from math import comb, factorial, sqrt

import numpy as np

from . import config
from .errors import (
    BadWindow,
    DecompositionMismatch,
    DegenerateInput,
    NotAdmissible,
    SizeLimitExceeded,
)
from .moments import _check_window, conditional_block_expectation
from .patterns import VincularPattern, reduce_sequence
from .positions import (
    PositionSet, _check_admissible, count_occurrences_batch, position_matrix,
)
from .sampling import PINNED_STREAM, _reduction_draw, substream

__all__ = [
    "brute_force_distribution",
    "brute_force_moments",
    "total_variance_check",
    "TotalVarianceReport",
    "conditional_formula_check",
    "ConditionalCheckReport",
    "PinnedTrial",
    "discrete_suffix_covariances",
    "pinned_suffix_probabilities",
]

_FULL_TABLES: dict[int, np.ndarray] = {}


def _full_table(n: int) -> np.ndarray:
    """All n! permutations of {1..n}, one per row, in suffix order: the
    lexicographic table with each row reversed."""
    table = _FULL_TABLES.get(n)
    if table is None:
        table = np.array(list(_all_perms(range(1, n + 1))), dtype=np.int8)
        table = np.ascontiguousarray(table.reshape(factorial(n), n)[:, ::-1])
        _FULL_TABLES[n] = table
    return table


def _sum_squares(values: np.ndarray) -> int:
    """Exact sum of squares, in Python ints."""
    return sum(v * v for v in values.ravel().tolist())


def _check_position_sets(pattern: VincularPattern, n: int, *sets: PositionSet) -> None:
    for I in sets:
        if I.host_size != n:
            raise NotAdmissible(f"position set has host size {I.host_size}, not n={n}")
        _check_admissible(I, pattern)


def _check_oracle_size(n: int) -> None:
    if n < 0:
        raise DegenerateInput(f"host size n={n} is negative")
    cap = config.oracle_max_n()
    if n > cap:
        raise SizeLimitExceeded(f"n={n} exceeds the brute-force cap {cap}")


def _all_counts(pattern: VincularPattern, n: int) -> np.ndarray:
    return count_occurrences_batch(_full_table(n), pattern, position_matrix(n, pattern))


def brute_force_distribution(pattern: VincularPattern, n: int) -> dict[int, Fraction]:
    """Exact distribution of the occurrence count under the uniform
    measure on S_n."""
    _check_oracle_size(n)
    tallies = np.bincount(_all_counts(pattern, n))
    total = factorial(n)
    return {
        value: Fraction(int(c), total) for value, c in enumerate(tallies) if c
    }


def brute_force_moments(pattern: VincularPattern, n: int) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of the brute_force_distribution."""
    dist = brute_force_distribution(pattern, n)
    mean = sum((v * p for v, p in dist.items()), Fraction(0))
    return mean, sum((v * v * p for v, p in dist.items()), Fraction(0)) - mean * mean


@dataclass(frozen=True)
class TotalVarianceReport:
    pattern: str
    n: int
    c: int
    labels: tuple[str, ...]
    terms: tuple[Fraction, ...]
    total: Fraction
    variance: Fraction


def total_variance_check(pattern: VincularPattern, n: int, c: int) -> TotalVarianceReport:
    """Decompose Var(Y) by conditioning on the last c values of the
    permutation, one value at a time, and check the terms sum back.

    With J_1 = sigma(n), ..., J_c = sigma(n-c+1), the terms are
    E[Var(Y | J_1..J_c)] and, for each level, the variance explained by
    adding one more conditioned value.  Every term is computed directly
    from its own exhaustive grouping of S_n (no telescoping shortcut), so
    the final equality is a real consistency check.
    """
    _check_oracle_size(n)
    if not 0 <= c <= n:
        raise BadWindow(f"need 0 <= c <= n, got c={c}")
    counts = _all_counts(pattern, n).astype(np.int64)
    total = factorial(n)
    # sums[lvl][g]: the sum of Y over the g-th block of (n-lvl)! rows, the
    # permutations that share their last lvl values.
    sums = [counts.reshape(-1, factorial(n - lvl)).sum(axis=1) for lvl in range(c + 1)]

    # Level lvl -> lvl+1: the expected variance of the n-lvl child block
    # means around their parent's; each child mean minus the parent mean
    # is ((n-lvl)*s_child - s_parent) / (n-lvl)!.
    cascade: list[Fraction] = []
    for lvl in range(c):
        width = n - lvl
        gaps = width * sums[lvl + 1].reshape(-1, width) - sums[lvl][:, None]
        cascade.append(Fraction(_sum_squares(gaps), width * factorial(width) * total))

    # Residual: expected within-block variance at the deepest level.
    size = factorial(n - c)
    square_sum = _sum_squares(counts)
    residual = Fraction(square_sum * size - _sum_squares(sums[c]), size * total)

    variance = Fraction(square_sum, total) - Fraction(int(counts.sum()), total) ** 2
    terms = tuple(cascade) + (residual,)
    labels = tuple(
        f"explained by conditioning value {lvl + 1}" for lvl in range(c)
    ) + (f"residual after conditioning on {c} value(s)",)
    grand = sum(terms, Fraction(0))
    if grand != variance:
        raise DecompositionMismatch(
            f"terms sum to {grand} but the variance is {variance}"
        )
    return TotalVarianceReport(
        pattern=str(pattern), n=n, c=c, labels=labels, terms=terms,
        total=grand, variance=variance,
    )


@dataclass(frozen=True)
class PinnedTrial:
    pinned: tuple[float, ...]
    formula: float
    estimate: float
    std_error: float
    z: float


@dataclass(frozen=True)
class ConditionalCheckReport:
    pattern: str
    n: int
    m: int
    i: int
    trials: tuple[PinnedTrial, ...]
    max_z: float


def conditional_formula_check(
    pattern: VincularPattern,
    n: int,
    m: int,
    i: int,
    trials: int,
    seed: int,
    inner_samples: int = 100_000,
) -> ConditionalCheckReport:
    """Monte Carlo check of conditional_block_expectation.

    For each trial, pin random uniforms at positions n-i..n-m, draw the
    remaining coordinates of the i.i.d.-uniform construction, and count
    occurrences whose final position is exactly n-m.  The empirical
    conditional mean is compared to the closed form in standard-error
    units."""
    if trials < 1 or inner_samples < 1:
        raise DegenerateInput(f"trials={trials}, inner_samples={inner_samples}: need both >= 1")
    _check_window(pattern, m, i)
    width = i - m + 1
    posmat = position_matrix(n, pattern)
    ends_here = posmat[posmat[:, -1] == n - 1 - m]
    results = []
    chunk = max(1, 2_000_000 // max(n, 1))
    for trial in range(trials):
        gen = substream(seed, trial, PINNED_STREAM)
        u = _reduction_draw(gen, width)
        formula = conditional_block_expectation(pattern, n, m, i, tuple(u))
        pinned_slice = u[::-1]  # increasing position order
        s1 = 0.0
        s2 = 0.0
        done = 0
        while done < inner_samples:
            batch = min(chunk, inner_samples - done)
            rows = gen.random((batch, n))
            rows[:, n - 1 - i : n - m] = pinned_slice
            counts = count_occurrences_batch(rows, pattern, ends_here)
            s1 += float(counts.sum())
            s2 += float((counts.astype(np.int64) ** 2).sum())
            done += batch
        estimate = s1 / inner_samples
        var = max(s2 / inner_samples - estimate**2, 0.0)
        se = sqrt(var / inner_samples)
        if se > 0:
            z = abs(estimate - formula) / se
        else:
            z = 0.0 if estimate == formula else float("inf")
        results.append(PinnedTrial(tuple(float(x) for x in u), formula, estimate, se, z))
    return ConditionalCheckReport(
        pattern=str(pattern), n=n, m=m, i=i,
        trials=tuple(results), max_z=max(t.z for t in results),
    )


# --- conditioning on suffix values: the two regimes ------------------------


def discrete_suffix_covariances(
    pattern: VincularPattern, n: int, I: PositionSet, J: PositionSet
) -> dict[tuple[int, ...], Fraction]:
    """Exact Cov(X_I, X_J | values at the last b_j positions), for every
    assignment of those values, under the uniform measure on S_n.

    This is the *discrete* regime: the conditioned suffix depletes the
    pool the other positions draw from, so these covariances are
    typically nonzero even when I and J only overlap inside the suffix.
    """
    _check_position_sets(pattern, n, I, J)
    _check_oracle_size(n)
    table = _full_table(n)
    suffix = pattern.last_block_size
    size = factorial(n - suffix)
    xi = count_occurrences_batch(table, pattern, np.array([I.positions]) - 1) == 1
    xj = count_occurrences_batch(table, pattern, np.array([J.positions]) - 1) == 1
    # One block of rows per assignment of the last `suffix` values.
    si, sj, sij = (x.reshape(-1, size).sum(axis=1).tolist() for x in (xi, xj, xi & xj))
    keys = table[::size, n - suffix :].tolist()
    return {
        tuple(key): Fraction(both, size) - Fraction(a, size) * Fraction(b, size)
        for key, a, b, both in zip(keys, si, sj, sij)
    }


def _chain_gap_ranges(
    entries: list[int],
    pinned_entry_values: list[tuple[int, Fraction]],
    edges: list[Fraction],
) -> list[tuple[int, int]]:
    """Allowed fine-gap index range for each free entry of one indicator.

    entries: the free pattern entries, ascending.  pinned_entry_values:
    (pattern entry, pinned uniform value) pairs for this indicator.
    edges: 0, all pinned values sorted, and 1; fine gap g spans
    edges[g]..edges[g+1].  An entry may take the gaps inside (lo, hi), the
    values pinned to the nearest pinned entries below and above it.
    """
    ranges = []
    for x in entries:
        lo = max((value for entry, value in pinned_entry_values if entry < x), default=0)
        hi = min((value for entry, value in pinned_entry_values if entry > x), default=1)
        ranges.append((bisect_left(edges, lo), bisect_right(edges, hi) - 2))
    return ranges


def _split_pinned(
    pi: tuple[int, ...], positions, n: int, pinned: list[Fraction]
) -> tuple[list[tuple[int, Fraction]], list[int]]:
    """Split one indicator's pattern entries by position: (entry, pinned
    value) pairs for the positions inside the pinned suffix, and the free
    entries of the others."""
    suffix_start = n - len(pinned) + 1
    pairs, free = [], []
    for entry, p in zip(pi, positions):
        if p >= suffix_start:
            pairs.append((entry, pinned[p - suffix_start]))
        else:
            free.append(entry)
    return pairs, free


def _pinned_marginal(
    pi: tuple[int, ...], positions, n: int, pinned: list[Fraction]
) -> Fraction:
    """P(X_I = 1 | pinned suffix values), via the per-gap product formula
    with the gaps cut by this indicator's own pinned values."""
    pinned_pairs, free = _split_pinned(pi, positions, n, pinned)
    by_position = reduce_sequence([value for _, value in pinned_pairs]).values
    if by_position != reduce_sequence([entry for entry, _ in pinned_pairs]).values:
        return Fraction(0)
    # Entry 0 at value 0 and entry k+1 at value 1 close the outer gaps.
    anchors = [(0, Fraction(0)), *sorted(pinned_pairs), (len(pi) + 1, Fraction(1))]
    prob = Fraction(1)
    for (lo_entry, lo), (hi_entry, hi) in zip(anchors, anchors[1:]):
        c = sum(1 for x in free if lo_entry < x < hi_entry)
        prob *= (hi - lo) ** c / factorial(c)
    return prob


def pinned_suffix_probabilities(
    pattern: VincularPattern,
    n: int,
    I: PositionSet,
    J: PositionSet,
    pinned: list[Fraction] | tuple[Fraction, ...],
) -> tuple[Fraction, Fraction, Fraction]:
    """(P(X_I=1), P(X_J=1), P(both)) given pinned uniform values at the
    last len(pinned) positions of the i.i.d.-uniform construction.

    Requires I and J to intersect only inside the pinned suffix, so the
    free coordinates of the two indicators are disjoint.  The joint
    probability is computed by its own enumeration (placing both chains
    of free values into the gaps cut by *all* pinned values, with
    interleaving multiplicities), not as a product of the marginals —
    equality of the two is exactly the conditional-independence claim.
    """
    _check_position_sets(pattern, n, I, J)
    pinned = [Fraction(v) for v in pinned]
    if len(pinned) > n:
        raise BadWindow(f"{len(pinned)} pinned values but only n={n} positions")
    if any(not 0 <= v <= 1 for v in pinned):
        raise BadWindow("pinned values must lie in [0, 1]")
    if len(set(pinned)) != len(pinned):
        raise BadWindow("pinned values must be distinct")
    suffix_start = n - len(pinned) + 1
    pi = pattern.order.values
    overlap = set(I.positions) & set(J.positions)
    if any(p < suffix_start for p in overlap):
        raise NotAdmissible(
            "position sets intersect outside the pinned suffix; the free "
            "coordinates are not disjoint"
        )

    p_i = _pinned_marginal(pi, I.positions, n, pinned)
    p_j = _pinned_marginal(pi, J.positions, n, pinned)
    if p_i == 0 or p_j == 0:
        # A vanishing marginal forces a vanishing joint (the pinned part
        # of that indicator already fails); report it directly.
        return p_i, p_j, Fraction(0)

    edges = [Fraction(0), *sorted(pinned), Fraction(1)]
    chains = []
    for positions in (I.positions, J.positions):
        pairs, free = _split_pinned(pi, positions, n, pinned)
        chains.append(_chain_gap_ranges(sorted(free), pairs, edges))
    widths = [hi - lo for lo, hi in zip(edges, edges[1:])]

    len_a, len_b = len(chains[0]), len(chains[1])

    @lru_cache(maxsize=None)
    def place(gap: int, used_a: int, used_b: int) -> Fraction:
        if gap == len(widths):
            return Fraction(int(used_a == len_a and used_b == len_b))
        total = Fraction(0)
        max_a = used_a
        while max_a < len_a and chains[0][max_a][0] <= gap <= chains[0][max_a][1]:
            max_a += 1
        max_b = used_b
        while max_b < len_b and chains[1][max_b][0] <= gap <= chains[1][max_b][1]:
            max_b += 1
        for take_a in range(max_a - used_a + 1):
            for take_b in range(max_b - used_b + 1):
                s = take_a + take_b
                factor = widths[gap] ** s * comb(s, take_a)
                total += (
                    Fraction(factor, factorial(s))
                    * place(gap + 1, used_a + take_a, used_b + take_b)
                )
        return total

    joint = place(0, 0, 0)
    place.cache_clear()
    return p_i, p_j, joint
