"""Exact moments of the occurrence statistic.

Everything here is exact rational arithmetic.  The mean is immediate
(each admissible indicator has mean 1/k! by exchangeability of the host
values).  The variance is a sum of indicator covariances over ordered
pairs of intersecting position sets.  A pair's covariance depends only on
how the two sets interleave inside their union — the *overlap class* —
and so does the number of pairs in a class: at host size n a class with
union size t, c of whose union steps (r, r+1) either set forces to be
adjacent, occurs binom(n-c, t-c) times (close the forced steps, as the
shift bijection of :mod:`vincstat.positions` does).  The joint
probability of a class is the number of linear extensions of the two
value chains the pattern imposes on the union, divided by t!.  The chains
meet only in the ranks both sets hold, so that number is a product of
binomials, one per stretch between consecutive shared ranks (0 when the
chains order the shared ranks differently).  The classes of each (t, c)
are summed in integers, so one Fraction is built per (t, c).

So Var(n) = sum over classes of binom(n-c, t-c) (joint - 1/k!^2), a sum
whose length does not depend on n.  Expanding each binomial in n gives
the variance polynomial, of degree 2j-1 (j = number of blocks); it
agrees with the exact variance for all n >= 2(k-j), since c <= 2(k-j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Iterator, Sequence

from . import config
from .errors import (
    BadWindow,
    DegenerateInput,
    DegreeCertificateFailed,
    PatternTooSmall,
    SizeLimitExceeded,
)
from .patterns import Permutation, VincularPattern, reduce_sequence
from .positions import position_count

__all__ = [
    "VariancePolynomial",
    "expectation",
    "joint_probability",
    "exact_variance_at",
    "variance_polynomial",
    "conditional_block_expectation",
]


def expectation(pattern: VincularPattern, n: int) -> Fraction:
    """Exact mean of the occurrence count: position_count / k!."""
    if n < 0:
        raise DegenerateInput(f"host size n={n} is negative")
    return Fraction(position_count(n, pattern), factorial(pattern.size))


def _rank_masks(
    I: Sequence[int], J: Sequence[int]
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The overlap class of two position sets: the union size t and the
    ranks (1-based, within the sorted union) each set occupies.  Pairs
    with the same class have the same joint law, because a uniform host
    induces a uniform relative order on the union values."""
    union = sorted(set(I) | set(J))
    rank = {pos: r for r, pos in enumerate(union, start=1)}
    return len(union), tuple(rank[p] for p in sorted(I)), tuple(rank[p] for p in sorted(J))


def _extension_count(
    i_values: Sequence[int], j_values: Sequence[int], i_mask: Sequence[int], j_mask: Sequence[int]
) -> int:
    """Linear extensions of the two value chains that the orders i_values
    on i_mask and j_values on j_mask impose on the union ranks.

    Union rank i_mask[q] sits at place i_values[q] (from the bottom) of
    I's chain, and j_mask[q] at place j_values[q] of J's.  The chains meet
    only in the shared ranks.  When those come in the same order on both
    chains, an extension interleaves the two chains' segments between
    consecutive shared ranks independently: prod_i binom(a_i + b_i, a_i),
    with a_i and b_i the segment lengths.  When the orders differ the two
    chains form a cycle and the count is 0.  O(k) at any union size.
    """
    k = len(i_values)
    on_j = dict(zip(j_mask, j_values))
    # j_value[a]: the place on J's chain of the shared rank at place a on I's.
    j_value = [0] * (k + 1)
    for r, v in zip(i_mask, i_values):
        if r in on_j:
            j_value[v] = on_j[r]
    count, a0, b0 = 1, 0, 0
    for a in range(1, k + 1):
        b = j_value[a]
        if b:
            if b < b0:
                return 0
            count *= comb(a + b - a0 - b0 - 2, a - a0 - 1)
            a0, b0 = a, b
    return count * comb(2 * k - a0 - b0, k - a0)


def joint_probability(I: Sequence[int], J: Sequence[int], pi: Permutation) -> Fraction:
    """P(the host values on both position sets I and J are in the order
    pi): the linear extensions of the two value chains on the union (a
    product of binomials, see _extension_count), divided by t!.  No size
    limit applies here."""
    k = pi.size
    if not len(I) == len(set(I)) == len(J) == len(set(J)) == k:
        raise ValueError(f"need two sets of {k} distinct positions, got {I} and {J}")
    t, i_mask, j_mask = _rank_masks(I, J)
    return Fraction(_extension_count(pi.values, pi.values, i_mask, j_mask), factorial(t))


def _overlap_classes(
    pattern: VincularPattern, max_t: int
) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...], int, int]]:
    """Each overlap class of an unordered pair of intersecting admissible
    sets with union size at most max_t, once (i_mask <= j_mask), as a
    tuple (t, i_mask, j_mask, c, mult): c is the number of union steps
    (r, r+1) that either set forces to be adjacent and mult the number of
    ordered pairs of masks the class stands for (1 or 2).

    j_mask < i_mask exactly when the smallest rank in one mask but not
    the other is in j_mask.  The ranks below the first rank outside
    i_mask all lie in i_mask, so the pair is skipped, before j_mask is
    built, when common keeps every one of them.
    """
    k = pattern.size
    glued = pattern.adjacencies

    def forced_steps(mask):
        # None when a union rank separates two entries the pattern glues.
        steps = set()
        for a in glued:
            if mask[a] != mask[a - 1] + 1:
                return None
            steps.add(mask[a - 1])
        return steps

    for t in range(k, min(2 * k - 1, max_t) + 1):
        ranks = range(1, t + 1)
        for i_mask in combinations(ranks, k):
            i_steps = forced_steps(i_mask) if glued else set()
            if i_steps is None:
                continue
            rest = tuple(r for r in ranks if r not in i_mask)
            low = rest[0] - 1 if rest else k
            for common in combinations(i_mask, 2 * k - t):
                if rest and common[:low] == i_mask[:low]:
                    continue  # j_mask < i_mask
                j_mask = tuple(sorted(rest + common))
                j_steps = forced_steps(j_mask) if glued else i_steps
                if j_steps is not None:
                    mult = 1 if j_mask == i_mask else 2
                    yield t, i_mask, j_mask, len(i_steps | j_steps), mult


def _class_weights(
    pattern: VincularPattern, unsafe: bool, max_t: int
) -> dict[tuple[int, int], Fraction]:
    """Covariance summed over the classes of each (t, c), for the
    classes with union size at most max_t: the ordered pairs' linear
    extensions over t! minus their number over k!^2, summed in integers."""
    k = pattern.size
    limit = config.max_exact_k(unsafe)
    if k > limit:
        raise SizeLimitExceeded(f"pattern size {k} exceeds the exact-moment limit {limit}")
    values = pattern.order.values
    sums: dict[tuple[int, int], list[int]] = {}
    for t, i_mask, j_mask, c, mult in _overlap_classes(pattern, max_t):
        acc = sums.setdefault((t, c), [0, 0])
        acc[0] += mult * _extension_count(values, values, i_mask, j_mask)
        acc[1] += mult
    square = factorial(k) ** 2
    return {
        (t, c): Fraction(extensions, factorial(t)) - Fraction(pairs, square)
        for (t, c), (extensions, pairs) in sums.items()
    }


def exact_variance_at(pattern: VincularPattern, n: int, unsafe: bool = False) -> Fraction:
    """Exact variance of the occurrence count at host size n: each
    overlap class with union size t <= n contributes binom(n-c, t-c)
    covariances."""
    if n < 0:
        raise DegenerateInput(f"host size n={n} is negative")
    weights = _class_weights(pattern, unsafe, max_t=n)
    return sum((comb(n - c, t - c) * w for (t, c), w in weights.items()), Fraction(0))


@dataclass(frozen=True)
class VariancePolynomial:
    """Variance of the occurrence count as an exact polynomial in n.

    coefficients are ascending (constant term first); evaluation agrees
    with exact_variance_at for every integer n >= valid_from.
    """

    coefficients: tuple[Fraction, ...]
    valid_from: int

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficients[-1]

    def evaluate(self, n: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * n + c
        return acc


def _binomial_in_n(c: int, m: int) -> list[Fraction]:
    """Ascending coefficients of binom(n-c, m) as a polynomial in n."""
    coeffs = [1]
    for root in range(c, c + m):
        # multiply by (n - root)
        coeffs = [lo - root * hi for lo, hi in zip([0] + coeffs, coeffs + [0])]
    return [Fraction(x, factorial(m)) for x in coeffs]


def variance_polynomial(pattern: VincularPattern, unsafe: bool = False) -> VariancePolynomial:
    """The exact variance polynomial: every class's binom(n-c, t-c)
    expanded in n and weighted by its covariance.

    The result must have degree exactly 2j-1 with a positive leading
    coefficient — a violation means a bug, not a property of the pattern.
    """
    k = pattern.size
    if k < 2:
        raise PatternTooSmall("variance polynomial requires pattern size k >= 2")
    j = pattern.block_count
    coeffs = [Fraction(0)] * (2 * k)
    for (t, c), w in _class_weights(pattern, unsafe, max_t=2 * k - 1).items():
        for p, b in enumerate(_binomial_in_n(c, t - c)):
            coeffs[p] += w * b
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    poly = VariancePolynomial(tuple(coeffs), valid_from=2 * (k - j))
    if poly.degree != 2 * j - 1 or poly.leading_coefficient <= 0:
        raise DegreeCertificateFailed(
            f"variance polynomial for {pattern} has degree {poly.degree} and leading "
            f"coefficient {poly.leading_coefficient}; expected degree {2 * j - 1} "
            "with a positive lead"
        )
    return poly


def _check_window(pattern: VincularPattern, m: int, i: int) -> None:
    """The pinned window n-i..n-m must lie inside the last block."""
    b_last = pattern.last_block_size
    if not 0 <= m <= i <= b_last - 1:
        raise BadWindow(f"need 0 <= m <= i <= {b_last - 1}, got m={m}, i={i}")


def conditional_block_expectation(
    pattern: VincularPattern, n: int, m: int, i: int, u: Sequence[float]
) -> float:
    """Expected number of occurrences ending at position n-m, given the
    uniform values at positions n-i..n-m.

    The pinned vector u lists the values in decreasing position order:
    u = (value at n-m, ..., value at n-i).  The answer factors into a
    placement count for the earlier blocks, binom(n-m-k+j-1, j-1), times
    the probability that the free values complete the pattern: the pinned
    values must already realize the tail of the pattern, and each
    remaining pattern entry must land in the right gap between pinned
    values, in the right relative order — gap width^c / c! per gap.
    """
    k = pattern.size
    j = pattern.block_count
    _check_window(pattern, m, i)
    u = tuple(float(x) for x in u)
    if len(u) != i - m + 1:
        raise BadWindow(f"pinned vector has length {len(u)}, expected {i - m + 1}")
    if any(not 0.0 <= x <= 1.0 for x in u):
        raise BadWindow("pinned values must lie in [0, 1]")
    if len(set(u)) != len(u):
        raise BadWindow("pinned values must be distinct")

    tail = pattern.order.values[k - len(u) :]
    in_position_order = tuple(reversed(u))
    if reduce_sequence(in_position_order).values != reduce_sequence(tail).values:
        return 0.0

    top = n - m - k + j - 1
    placements = comb(top, j - 1) if top >= 0 else 0

    anchors = sorted(tail)
    pinned_sorted = sorted(u)
    free = [v for v in pattern.order.values if v not in set(tail)]
    prob = 1.0
    for g in range(len(anchors) + 1):
        lo_anchor = anchors[g - 1] if g > 0 else 0
        hi_anchor = anchors[g] if g < len(anchors) else k + 1
        c = sum(1 for v in free if lo_anchor < v < hi_anchor)
        lo = pinned_sorted[g - 1] if g > 0 else 0.0
        hi = pinned_sorted[g] if g < len(pinned_sorted) else 1.0
        prob *= (hi - lo) ** c / factorial(c)
    return placements * prob
