"""Admissible position sets and occurrence counting.

An admissible position set for a pattern of size k with adjacency set A
is a strictly increasing k-tuple of host positions in which the a-th and
(a+1)-th entries are consecutive whenever a is in A.  Equivalently, each
of the j blocks occupies a contiguous run of positions, so a position set
is determined by its j block starts.  Sliding every block flush against
its predecessor turns the starts into a j-subset of {1..n-k+j}; that
shift is a bijection, which gives the count binom(n-k+j, j) and a handy
odometer for enumeration (choose the subset, shift back).

Two counters share one definition of an occurrence, and this module
alone chooses between them: plan_count picks one from (n, pattern) and
count_rows applies it.  The sweep, count_occurrences_sweep, serves
path-shaped patterns (is_path_shaped: blocks whose values are intervals,
monotone in position; every window pattern is one), whose conditions
chain block to block: j-1 dominance sweeps over positions count them in
about n^1.5 cells per host row, with no position matrix.  The chain
kernel, count_occurrences_batch, tests every set of a position_matrix
with k-1 comparisons; it serves every other shape, under the listing
cap, and is the reference the sweep is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb, isqrt
from typing import Iterator

import numpy as np

from . import config
from .errors import (
    NotAdmissible,
    NotAPermutation,
    PatternError,
    SizeLimitExceeded,
    SizeMismatch,
)
from .patterns import Permutation, VincularPattern, format_pattern, reduce_sequence

__all__ = [
    "PositionSet",
    "enumerate_position_sets",
    "position_count",
    "shift_bijection",
    "shift_bijection_inverse",
    "occurs_at",
    "count_occurrences",
    "position_matrix",
    "is_path_shaped",
    "count_occurrences_sweep",
    "plan_count",
    "count_rows",
]


@dataclass(frozen=True)
class PositionSet:
    """A sorted k-tuple of host positions (1-based), with its host size."""

    positions: tuple[int, ...]
    host_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", tuple(self.positions))

    def __iter__(self):
        return iter(self.positions)

    def __len__(self) -> int:
        return len(self.positions)


def _block_start_offsets(blocks: tuple[int, ...]) -> list[int]:
    # Offset between the t-th block start and the t-th element of the
    # shifted j-subset: the total slack (b_1-1) + ... + (b_{t-1}-1)
    # consumed by the earlier blocks.
    offsets = []
    acc = 0
    for b in blocks:
        offsets.append(acc)
        acc += b - 1
    return offsets


def _positions_from_subset(subset, blocks, offsets) -> tuple[int, ...]:
    out = []
    for m, b, off in zip(subset, blocks, offsets):
        start = m + off
        out.extend(range(start, start + b))
    return tuple(out)


def position_count(n: int, pattern: VincularPattern) -> int:
    """Number of admissible position sets: binom(n-k+j, j), and 0 when the
    pattern does not fit (n < k)."""
    j = pattern.block_count
    m = n - pattern.size + j
    return comb(m, j) if m >= 0 else 0


def enumerate_position_sets(n: int, pattern: VincularPattern) -> Iterator[PositionSet]:
    """Yield every admissible position set once, lexicographically by block
    starts.  Lazy: memory stays O(k) however large the count is."""
    blocks = pattern.blocks
    offsets = _block_start_offsets(blocks)
    j = pattern.block_count
    for subset in combinations(range(1, n - pattern.size + j + 1), j):
        yield PositionSet(_positions_from_subset(subset, blocks, offsets), n)


def _check_admissible(I: PositionSet, pattern: VincularPattern) -> None:
    pos = I.positions
    if len(pos) != pattern.size:
        raise NotAdmissible(
            f"position set has {len(pos)} entries, pattern has size {pattern.size}"
        )
    if pos and (pos[0] < 1 or pos[-1] > I.host_size):
        raise NotAdmissible(f"positions {pos} outside 1..{I.host_size}")
    for a, b in zip(pos, pos[1:]):
        if b <= a:
            raise NotAdmissible(f"positions {pos} not strictly increasing")
    for a in pattern.adjacencies:
        if pos[a] != pos[a - 1] + 1:
            raise NotAdmissible(
                f"positions {pos} break the adjacency at pattern index {a}"
            )


def shift_bijection(I: PositionSet, pattern: VincularPattern) -> frozenset[int]:
    """Map an admissible position set to a j-subset of {1..n-k+j} by
    closing the slack inside each block: the t-th block start, minus the
    slack consumed by earlier blocks, is the t-th subset element."""
    _check_admissible(I, pattern)
    offsets = _block_start_offsets(pattern.blocks)
    starts = []
    pos_index = 0
    for b in pattern.blocks:
        starts.append(I.positions[pos_index])
        pos_index += b
    return frozenset(s - off for s, off in zip(starts, offsets))


def shift_bijection_inverse(
    subset: frozenset[int] | set[int], n: int, pattern: VincularPattern
) -> PositionSet:
    """Inverse of :func:`shift_bijection`."""
    j = pattern.block_count
    elems = sorted(subset)
    if len(elems) != j or elems and (elems[0] < 1 or elems[-1] > n - pattern.size + j):
        raise NotAdmissible(
            f"{sorted(subset)} is not a {j}-subset of {{1..{n - pattern.size + j}}}"
        )
    offsets = _block_start_offsets(pattern.blocks)
    return PositionSet(_positions_from_subset(elems, pattern.blocks, offsets), n)


def occurs_at(sigma: Permutation, pi: Permutation, I: PositionSet) -> bool:
    """Whether sigma restricted to the positions of I reduces to pi."""
    if len(I) != pi.size:
        raise SizeMismatch(f"|I| = {len(I)} but pattern size is {pi.size}")
    if I.positions and (I.positions[0] < 1 or I.positions[-1] > sigma.size):
        raise SizeMismatch(f"positions {I.positions} outside 1..{sigma.size}")
    window = [sigma.values[p - 1] for p in I.positions]
    return reduce_sequence(window).values == pi.values


def count_occurrences(sigma: Permutation, pattern: VincularPattern) -> int:
    """Total number of admissible occurrences of the pattern in sigma:
    the counting plan (plan_count) applied to one row, so guarded by the
    same limits."""
    plan = plan_count(sigma.size, pattern)
    return int(count_rows(np.array([sigma.values]), pattern, plan)[0])


def position_matrix(n: int, pattern: VincularPattern) -> np.ndarray:
    """All admissible position sets as a (count, k) array of 0-based
    indices, in enumeration order.  Materialized, so guarded by the
    listing cap."""
    count = position_count(n, pattern)
    cap = config.listing_cap()
    if count > cap:
        raise SizeLimitExceeded(
            f"{count} position sets exceed the listing cap of {cap}"
        )
    # 0-based j-subsets in the lexicographic order of
    # enumerate_position_sets; adding the offsets shifts them back to
    # block starts, and each block spans start .. start + b - 1.
    blocks = pattern.blocks
    j = pattern.block_count
    flat = chain.from_iterable(combinations(range(n - pattern.size + j), j))
    subsets = np.fromiter(flat, dtype=np.int64, count=count * j).reshape(count, j)
    starts = subsets + np.array(_block_start_offsets(blocks), dtype=np.int64)
    within = np.concatenate([np.arange(b) for b in blocks])
    return starts[:, np.repeat(np.arange(j), blocks)] + within


def count_occurrences_batch(
    perms: np.ndarray, pattern: VincularPattern, posmat: np.ndarray
) -> np.ndarray:
    """Occurrence counts for many host rows at once: the one pattern test.

    perms is an (m, n) array of rows with distinct entries — permutations
    of {1..n}, or reals (distinct uniforms) whose relative order is what
    counts.  Rows with repeated entries are not rejected and give
    meaningless counts; validate through Permutation before calling.
    posmat holds the 0-based position sets to test, one per row; all
    admissible sets come from position_matrix (listing cap).

    The host values at the pattern entries taken in increasing pattern
    value must rise strictly; by transitivity those k-1 comparisons imply
    all k(k-1)/2.  Each comparison gathers one (rows, sets) column, over
    row chunks of about 8M gathered cells.
    """
    perms = np.asarray(perms)
    m = perms.shape[0]
    num_sets, k = posmat.shape
    counts = np.zeros(m, dtype=np.int64)
    if num_sets == 0:
        return counts
    chain = [np.ascontiguousarray(posmat[:, q]) for q in np.argsort(pattern.order.values)]
    chunk = max(1, int(8_000_000 // max(1, num_sets * k)))
    for lo in range(0, m, chunk):
        rows = perms[lo : lo + chunk]
        ok = np.ones((rows.shape[0], num_sets), dtype=bool)
        prev = rows[:, chain[0]]
        for col in chain[1:]:
            cur = rows[:, col]
            ok &= prev < cur
            prev = cur
        counts[lo : lo + chunk] = ok.sum(axis=1)
    return counts


# Largest DP weight or partial sum count_occurrences_sweep can hold.
_INT64_MAX = 2**63 - 1

# Cells of one (rows, n+1) value histogram; fixes the rows per sub-chunk.
_SWEEP_CELLS = 2**16


def is_path_shaped(pattern: VincularPattern) -> bool:
    """Whether count_occurrences_sweep covers the pattern: each block's
    values an interval of 1..k, and the intervals monotone in position
    (automatic for j <= 2, so every window pattern qualifies).  Then every
    occurrence condition is a window test inside a block or one comparison
    between neighbouring blocks: the largest entry of one below the
    smallest of the next."""
    lows = []
    for block in pattern.block_values:
        if max(block) - min(block) + 1 != len(block):
            return False
        lows.append(min(block))
    return lows == sorted(lows) or lows == sorted(lows, reverse=True)


def _check_sweep_size(n: int, pattern: VincularPattern) -> None:
    """Refuse a sweep that the limits do not allow: more window starts
    n-k+1 than the listing cap (for a window pattern, exactly its
    position sets), or DP weights that could overflow int64.  After
    block i a weight counts placements of the first i blocks, at most
    binom(n - (b_1 + ... + b_i) + i, i); the last of these bounds is
    position_count."""
    cap = config.listing_cap()
    if n - pattern.size + 1 > cap:
        raise SizeLimitExceeded(
            f"{n - pattern.size + 1} window starts exceed the listing cap of {cap}"
        )
    used = 0
    for i, b in enumerate(pattern.blocks, start=1):
        used += b
        if comb(max(0, n - used + i), i) > _INT64_MAX:
            raise SizeLimitExceeded(
                f"placements of {format_pattern(pattern)} at n={n} overflow int64"
            )


def _window_match(v: np.ndarray, chain: list[int]) -> np.ndarray:
    # Start s matches when v[s + chain[0]] < v[s + chain[1]] < ...
    span = v.shape[1] - len(chain) + 1
    ok = np.ones((v.shape[0], span), dtype=bool)
    for lo, hi in zip(chain, chain[1:]):
        ok &= v[:, lo : lo + span] < v[:, hi : hi + span]
    return ok


def _dominance(x: np.ndarray, weight: np.ndarray, y: np.ndarray, gap: int, n: int) -> np.ndarray:
    """out[:, t] = sum of weight[:, s] over s <= t - gap with x[:, s] < y[:, t].

    x and y hold values in 1..n, distinct within each row of x.  Sources
    are cut into blocks of about sqrt(len) positions, and a target's
    sources are the blocks wholly before its own plus a prefix of its own.
    A running value histogram of the passed blocks, cumulated once per
    block, answers the first part with one lookup per target; one
    broadcast compare inside the block answers the second.
    """
    rows, sources = x.shape
    targets = y.shape[1]
    width = max(1, isqrt(sources))
    before = np.tri(width, width, -1, dtype=bool)  # source s_rel < target u
    out = np.zeros((rows, targets), dtype=np.int64)
    hist = np.zeros((rows, n + 1), dtype=np.int64)
    below = np.empty_like(hist)
    at = np.arange(rows)[:, None]
    # Targets t0 .. t0+width-1 end their sources inside block s0 .. s0+width-1.
    for s0, t0 in zip(range(0, sources, width), range(gap - 1, targets, width)):
        s1, t1 = min(s0 + width, sources), min(t0 + width, targets)
        xs, ws, ys = x[:, s0:s1], weight[:, s0:s1], y[:, t0:t1]
        if s0:
            np.cumsum(hist, axis=1, out=below)
            out[:, t0:t1] = np.take_along_axis(below, ys - 1, axis=1)
        near = (xs[:, None, :] < ys[:, :, None]) & before[: t1 - t0, : s1 - s0]
        out[:, t0:t1] += np.einsum("rts,rs->rt", near, ws)
        hist[at, xs] = ws
    return out


def count_occurrences_sweep(perms: np.ndarray, pattern: VincularPattern) -> np.ndarray:
    """Occurrence counts of a path-shaped pattern (is_path_shaped) without
    listing position sets.

    perms is an (m, n) integer array of permutations of {1..n}; entries
    outside 1..n are rejected, repeated entries give meaningless counts
    (as in count_occurrences_batch).  With block i
    starting at s, M_i(s) tests the window inside the block and W_i the
    occurrences of blocks 1..i that end with block i at s:
        W_1 = M_1,
        W_{i+1}(t) = M_{i+1}(t) * sum over s <= t - b_i of
                     W_i(s) * [sigma(s + argmax_i) < sigma(t + argmin_{i+1})],
    and the count is the sum of W_j; a window pattern (j = 1) takes no
    step.  Blocks whose values fall with position are swept in the
    complement values n+1-sigma, where they rise.  Each step is a
    weighted dominance count (_dominance), about n^1.5 cells per row,
    over row sub-chunks of at most _SWEEP_CELLS histogram cells.  The
    counts equal count_occurrences_batch's.  Sweeps
    over constraints that form a path follow Even-Zohar & Leng,
    "Counting small permutation patterns" (SODA 2021).
    """
    if not is_path_shaped(pattern):
        raise PatternError(f"{format_pattern(pattern)} is not path-shaped")
    perms = np.asarray(perms)
    m, n = perms.shape
    _check_sweep_size(n, pattern)
    if perms.size and (perms.dtype.kind not in "iu" or perms.min() < 1 or perms.max() > n):
        raise NotAPermutation(f"host rows must hold integers in 1..{n}")
    counts = np.zeros(m, dtype=np.int64)
    if n < pattern.size:
        return counts
    falling = pattern.order.values[0] > pattern.order.values[-1]
    # Each block's offsets in increasing swept value: first argmin, last argmax.
    chains = [
        sorted(range(len(block)), key=lambda o: -block[o] if falling else block[o])
        for block in pattern.block_values
    ]
    step = max(1, _SWEEP_CELLS // (n + 1))
    for lo in range(0, m, step):
        v = perms[lo : lo + step].astype(np.intp)
        if falling:
            v = n + 1 - v
        weight = _window_match(v, chains[0]).astype(np.int64)
        for prev, nxt in zip(chains, chains[1:]):
            match = _window_match(v, nxt)
            x = v[:, prev[-1] : prev[-1] + weight.shape[1]]
            y = v[:, nxt[0] : nxt[0] + match.shape[1]]
            weight = match * _dominance(x, weight, y, len(prev), n)
        counts[lo : lo + step] = weight.sum(axis=1)
    return counts


def plan_count(n: int, pattern: VincularPattern) -> np.ndarray | None:
    """The counter for hosts of size n, chosen once: None for a
    path-shaped pattern, which count_rows sweeps (after the sweep's size
    check), and otherwise the position_matrix the chain kernel tests
    (listing cap).  Raises SizeLimitExceeded before any counting."""
    if is_path_shaped(pattern):
        _check_sweep_size(n, pattern)
        return None
    return position_matrix(n, pattern)


def count_rows(perms: np.ndarray, pattern: VincularPattern, plan: np.ndarray | None) -> np.ndarray:
    """Occurrence counts of the pattern in each row of perms, a (m, n)
    integer array of permutations of {1..n}, by the plan
    plan_count(n, pattern) returned."""
    if plan is None:
        return count_occurrences_sweep(perms, pattern)
    return count_occurrences_batch(perms, pattern, plan)
