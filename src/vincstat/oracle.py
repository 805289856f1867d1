"""Brute-force ground truth over all of S_n, for small n.

Everything the exact and Monte Carlo modules claim can be checked here
the slow way: the full distribution of the occurrence count, its exact
moments, the law-of-total-variance decomposition obtained by conditioning
on the last few values of the permutation, and the closed-form
conditional expectations of the continuous (uniform-value) construction.

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
    NotAdmissible,
    SizeLimitExceeded,
)
from .moments import conditional_block_expectation
from .patterns import Permutation, VincularPattern, reduce_sequence
from .positions import PositionSet, count_occurrences_batch, position_matrix
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
    """All n! permutations of {1..n}, one per row."""
    table = _FULL_TABLES.get(n)
    if table is None:
        table = np.array(list(_all_perms(range(1, n + 1))), dtype=np.int8)
        table = table.reshape(factorial(n), n)
        _FULL_TABLES[n] = table
    return table


def _check_oracle_size(n: int) -> None:
    cap = config.oracle_max_n()
    if n > cap:
        raise SizeLimitExceeded(f"n={n} exceeds the brute-force cap {cap}")
    if n < 0:
        raise SizeLimitExceeded(f"n={n} is not a host size")


def _all_counts(pattern: VincularPattern, n: int) -> np.ndarray:
    return count_occurrences_batch(_full_table(n), pattern)


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
    """Exact (mean, variance) by full enumeration."""
    _check_oracle_size(n)
    counts = _all_counts(pattern, n)
    total = factorial(n)
    s1 = int(counts.sum())
    s2 = int((counts.astype(np.int64) ** 2).sum())
    mean = Fraction(s1, total)
    return mean, Fraction(s2, total) - mean * mean


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
    table = _full_table(n)
    counts = _all_counts(pattern, n)
    total = factorial(n)

    # groups[lvl] maps the tuple (sigma_n, ..., sigma_{n-lvl+1}) to
    # [group size, sum of Y, sum of Y^2] over matching permutations.
    groups: list[dict[tuple, list[int]]] = [dict() for _ in range(c + 1)]
    for row, y in zip(table, counts):
        y = int(y)
        key: tuple = ()
        for lvl in range(c + 1):
            acc = groups[lvl].setdefault(key, [0, 0, 0])
            acc[0] += 1
            acc[1] += y
            acc[2] += y * y
            if lvl < c:
                key = key + (int(row[n - 1 - lvl]),)

    def group_mean(acc: list[int]) -> Fraction:
        return Fraction(acc[1], acc[0])

    # Residual: expected within-group variance at the deepest level.
    residual = Fraction(0)
    for acc in groups[c].values():
        cnt, s1, s2 = acc
        residual += Fraction(cnt, total) * (Fraction(s2, cnt) - Fraction(s1, cnt) ** 2)

    # Level i -> i+1: expected variance, across each parent group, of the
    # child conditional means.
    cascade: list[Fraction] = []
    for lvl in range(c):
        children_of: dict[tuple, list[tuple]] = {}
        for key in groups[lvl + 1]:
            children_of.setdefault(key[:-1], []).append(key)
        term = Fraction(0)
        for parent_key, acc in groups[lvl].items():
            parent_mean = group_mean(acc)
            inner = Fraction(0)
            for child_key in children_of[parent_key]:
                child = groups[lvl + 1][child_key]
                inner += Fraction(child[0], acc[0]) * (group_mean(child) - parent_mean) ** 2
            term += Fraction(acc[0], total) * inner
        cascade.append(term)

    g0 = groups[0][()]
    variance = Fraction(g0[2], total) - Fraction(g0[1], total) ** 2
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
    k = pattern.size
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
    _check_oracle_size(n)
    table = _full_table(n)
    suffix = pattern.last_block_size
    xi = count_occurrences_batch(table, pattern, np.array([I.positions]) - 1) == 1
    xj = count_occurrences_batch(table, pattern, np.array([J.positions]) - 1) == 1
    out: dict[tuple[int, ...], Fraction] = {}
    tails: dict[tuple[int, ...], list[int]] = {}
    for row_idx in range(table.shape[0]):
        key = tuple(int(v) for v in table[row_idx, n - suffix :])
        tails.setdefault(key, []).append(row_idx)
    for key, rows in tails.items():
        cnt = len(rows)
        si = int(xi[rows].sum())
        sj = int(xj[rows].sum())
        sij = int((xi[rows] & xj[rows]).sum())
        out[key] = Fraction(sij, cnt) - Fraction(si, cnt) * Fraction(sj, cnt)
    return out


def _chain_gap_ranges(
    entries: list[int],
    pinned_entry_values: list[tuple[int, Fraction]],
    boundaries: list[Fraction],
) -> list[tuple[int, int]]:
    """Allowed fine-gap index range for each free entry of one indicator.

    entries: the free pattern entries, ascending.  pinned_entry_values:
    (pattern entry, pinned uniform value) pairs for this indicator.
    boundaries: all pinned values, sorted, defining the fine gaps
    (gap g spans boundaries[g-1]..boundaries[g] with 0 and 1 outside).
    """
    gaps = len(boundaries) + 1
    ranges = []
    for x in entries:
        lo = Fraction(0)
        hi = Fraction(1)
        for entry, value in pinned_entry_values:
            if entry < x:
                lo = max(lo, value)
            else:
                hi = min(hi, value)
        lo_gap = 0
        while lo_gap < gaps - 1 and boundaries[lo_gap] < lo:
            lo_gap += 1
        hi_gap = gaps - 1
        while hi_gap > 0 and boundaries[hi_gap - 1] > hi:
            hi_gap -= 1
        # Exact containment: gap must sit inside (lo, hi).
        while lo_gap <= hi_gap and not (
            (Fraction(0) if lo_gap == 0 else boundaries[lo_gap - 1]) >= lo
        ):
            lo_gap += 1
        while hi_gap >= lo_gap and not (
            (Fraction(1) if hi_gap == gaps - 1 else boundaries[hi_gap]) <= hi
        ):
            hi_gap -= 1
        ranges.append((lo_gap, hi_gap))
    return ranges


def _pinned_marginal(
    pi: tuple[int, ...], positions, n: int, pinned: list[Fraction]
) -> Fraction:
    """P(X_I = 1 | pinned suffix values), via the per-gap product formula
    with the gaps cut by this indicator's own pinned values."""
    suffix_start = n - len(pinned) + 1
    pinned_pairs = [
        (pi[idx], pinned[p - suffix_start])
        for idx, p in enumerate(positions)
        if p >= suffix_start
    ]
    free = [pi[idx] for idx, p in enumerate(positions) if p < suffix_start]
    if pinned_pairs:
        by_position = [value for _, value in pinned_pairs]
        entry_order = reduce_sequence([entry for entry, _ in pinned_pairs]).values
        if reduce_sequence(by_position).values != entry_order:
            return Fraction(0)
    anchors = sorted(pinned_pairs, key=lambda ev: ev[0])
    prob = Fraction(1)
    for g in range(len(anchors) + 1):
        lo_entry = anchors[g - 1][0] if g > 0 else 0
        hi_entry = anchors[g][0] if g < len(anchors) else len(pi) + 1
        c = sum(1 for x in free if lo_entry < x < hi_entry)
        lo = anchors[g - 1][1] if g > 0 else Fraction(0)
        hi = anchors[g][1] if g < len(anchors) else Fraction(1)
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
    pinned = [Fraction(v) for v in pinned]
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

    boundaries = sorted(pinned)
    chains = []
    for positions in (I.positions, J.positions):
        pairs = [
            (pi[idx], pinned[p - suffix_start])
            for idx, p in enumerate(positions)
            if p >= suffix_start
        ]
        free = sorted(pi[idx] for idx, p in enumerate(positions) if p < suffix_start)
        chains.append(_chain_gap_ranges(free, pairs, boundaries))
    widths = []
    prev = Fraction(0)
    for b in boundaries:
        widths.append(b - prev)
        prev = b
    widths.append(Fraction(1) - prev)

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
