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
value chains the pattern imposes on the union, divided by t!.

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
    "OverlapClass",
    "VariancePolynomial",
    "expectation",
    "joint_probability",
    "covariance",
    "exact_variance_at",
    "variance_polynomial",
    "leading_coefficient",
    "conditional_block_expectation",
]


def expectation(pattern: VincularPattern, n: int) -> Fraction:
    """Exact mean of the occurrence count: position_count / k!."""
    if n < 0:
        raise DegenerateInput(f"host size n={n} is negative")
    return Fraction(position_count(n, pattern), factorial(pattern.size))


@dataclass(frozen=True)
class OverlapClass:
    """How two intersecting position sets sit inside their union.

    t is the union size; i_mask and j_mask are the ranks (1-based, within
    the sorted union) occupied by the first and second set.  Two concrete
    pairs with the same class have identical indicator covariance,
    because a uniform host induces a uniform relative order on the union
    values.
    """

    t: int
    i_mask: tuple[int, ...]
    j_mask: tuple[int, ...]

    def __post_init__(self) -> None:
        union = set(self.i_mask) | set(self.j_mask)
        if union != set(range(1, self.t + 1)):
            raise ValueError(f"masks {self.i_mask}/{self.j_mask} do not cover 1..{self.t}")
        if not set(self.i_mask) & set(self.j_mask):
            raise ValueError("overlap class requires intersecting sets")

    @staticmethod
    def from_pair(I: Sequence[int], J: Sequence[int]) -> "OverlapClass":
        union = sorted(set(I) | set(J))
        rank = {pos: r for r, pos in enumerate(union, start=1)}
        return OverlapClass(
            len(union),
            tuple(rank[p] for p in sorted(I)),
            tuple(rank[p] for p in sorted(J)),
        )

    def canonical(self) -> "OverlapClass":
        """Swap-symmetric representative (covariance is symmetric in the
        two sets)."""
        a, b = sorted((self.i_mask, self.j_mask))
        return OverlapClass(self.t, a, b)

    def swapped(self) -> "OverlapClass":
        return OverlapClass(self.t, self.j_mask, self.i_mask)


def joint_probability(cls: OverlapClass, pi: Permutation) -> Fraction:
    """P(both indicators are 1) for a pair in this overlap class.

    On each mask the pattern orders the union ranks into a chain by
    value; the joint is the number of linear extensions of the two
    chains, divided by t!.  A down-set of the two chains is a prefix of
    each, so the extensions are counted by a DP over prefix pairs
    (a, b), in which a rank on both chains is placed on both at once.
    The DP costs O(k^2) at any t, so no size limit applies here.
    """
    k = pi.size
    if len(cls.i_mask) != k or len(cls.j_mask) != k:
        raise ValueError(f"class masks have size {len(cls.i_mask)}, pattern has size {k}")
    by_value = sorted(range(k), key=pi.values.__getitem__)
    # Each chain ends in a None sentinel, which both chains share, so no
    # step ever runs past the end of a chain.
    first = [cls.i_mask[q] for q in by_value] + [None]
    second = [cls.j_mask[q] for q in by_value] + [None]
    shared = set(first) & set(second)
    ways = [[0] * (k + 2) for _ in range(k + 2)]
    ways[0][0] = 1
    for a in range(k + 1):
        for b in range(k + 1):
            w = ways[a][b]
            x, y = first[a], second[b]
            if x not in shared:
                ways[a + 1][b] += w
            if y not in shared:
                ways[a][b + 1] += w
            if x == y:
                ways[a + 1][b + 1] += w
    return Fraction(ways[k][k], factorial(cls.t))


def covariance(cls: OverlapClass, pi: Permutation) -> Fraction:
    """Cov of the two indicators: joint probability minus (1/k!)^2."""
    return joint_probability(cls, pi) - Fraction(1, factorial(pi.size) ** 2)


def _overlap_classes(
    pattern: VincularPattern, max_t: int
) -> Iterator[tuple[OverlapClass, int, int]]:
    """Each overlap class of an unordered pair of intersecting admissible
    sets with union size at most max_t, once (i_mask <= j_mask), with the
    number c of union steps (r, r+1) that either set forces to be adjacent
    and the number of ordered pairs of masks it stands for (1 or 2)."""
    k = pattern.size

    def forced_steps(mask):
        # None when a union rank separates two entries the pattern glues.
        steps = set()
        for a in pattern.adjacencies:
            if mask[a] != mask[a - 1] + 1:
                return None
            steps.add(mask[a - 1])
        return steps

    for t in range(k, min(2 * k - 1, max_t) + 1):
        ranks = range(1, t + 1)
        for i_mask in combinations(ranks, k):
            i_steps = forced_steps(i_mask)
            if i_steps is None:
                continue
            rest = tuple(r for r in ranks if r not in i_mask)
            for common in combinations(i_mask, 2 * k - t):
                j_mask = tuple(sorted(rest + common))
                if j_mask < i_mask:
                    continue
                j_steps = forced_steps(j_mask)
                if j_steps is not None:
                    mult = 1 if j_mask == i_mask else 2
                    yield OverlapClass(t, i_mask, j_mask), len(i_steps | j_steps), mult


def _class_weights(
    pattern: VincularPattern, unsafe: bool, max_t: int
) -> dict[tuple[int, int], Fraction]:
    """Covariance summed over the classes of each (t, c), for the
    classes with union size at most max_t."""
    k = pattern.size
    limit = config.max_exact_k(unsafe)
    if k > limit:
        raise SizeLimitExceeded(f"pattern size {k} exceeds the exact-moment limit {limit}")
    weights: dict[tuple[int, int], Fraction] = {}
    for cls, c, mult in _overlap_classes(pattern, max_t):
        weights[cls.t, c] = weights.get((cls.t, c), 0) + mult * covariance(cls, pattern.order)
    return weights


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


def leading_coefficient(poly: VariancePolynomial) -> Fraction:
    """Coefficient of n^(2j-1)."""
    return poly.leading_coefficient


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
    b_last = pattern.last_block_size
    if not 0 <= m <= i <= b_last - 1:
        raise BadWindow(f"need 0 <= m <= i <= {b_last - 1}, got m={m}, i={i}")
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
