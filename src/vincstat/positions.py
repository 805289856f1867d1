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
alone chooses between them for permutations: plan_count picks one from
(n, pattern) and count_rows applies it.  The sweep,
count_occurrences_sweep, serves path-shaped patterns (is_path_shaped:
blocks whose values are intervals, monotone in position; every window
pattern is one), whose conditions chain block to block: j-1 dominance
steps over positions count them with no position matrix; a pattern whose
blocks fall is swept as its complement on the rows n+1-sigma.  A window
pattern (j = 1) takes no step: count_windows counts it, a row sum of k-1
comparisons made on the rows in the dtype they come in, so the rows need
not be permutations (the uint32 words of sampling.sample_words are
counted as they are).  A two-block pattern over many host rows takes one
bit-parallel scan of about n^2/64 word operations per row, on sources
and targets whose failed windows are folded into their values;
otherwise each step costs about n^1.5 cells per row.  The chain kernel,
count_occurrences_batch, tests every set of a position_matrix with k-1
comparisons; it serves every other shape, under the listing cap, and is
the reference the sweep is tested against.  count_codes counts a
two-block pattern of size k <= 3 (code_countable) from inversion tables
instead of permutations, one comparison and a row sum per table, with no
listing.  A counter that lists nothing is bounded by check_sweep_size
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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
    "count_windows",
    "check_sweep_size",
    "code_countable",
    "count_codes",
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

# A two-block pattern is scanned (_two_block_scan) when rows^3 * n reaches
# this; see count_occurrences_sweep for the measured crossover.
_SCAN_MIN = 2**28


@cache
def _byte_bits() -> np.ndarray:
    # Set bits of every byte value, built on first use: built at import,
    # it raised the peak RSS of every run by about 0.1 MB.
    return np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
        axis=1, dtype=np.uint8
    )


def _byte_popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each entry of a contiguous uint64 array, by byte table,
    for numpy releases before bitwise_count."""
    nbits = _byte_bits()[words.view(np.uint8)]
    return nbits.reshape(*words.shape, 8).sum(axis=-1, dtype=np.uint8)


_popcount = getattr(np, "bitwise_count", _byte_popcount)


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


def check_sweep_size(n: int, pattern: VincularPattern) -> None:
    """Refuse a count that lists no position set (the sweep,
    count_windows or count_codes) where the limits do not allow it: more
    window starts n-k+1 than the listing cap (for a window pattern,
    exactly its position sets), or DP weights that could overflow int64.
    After block i a weight counts placements of the first i blocks, at
    most binom(n - (b_1 + ... + b_i) + i, i); the last of these bounds is
    position_count."""
    cap = config.listing_cap()
    if n - pattern.size + 1 > cap:
        raise SizeLimitExceeded(
            f"{n - pattern.size + 1} window starts exceed the listing cap of {cap}"
        )
    used = 0
    for i, size in enumerate(pattern.blocks, start=1):
        used += size
        if comb(max(0, n - used + i), i) > _INT64_MAX:
            raise SizeLimitExceeded(
                f"placements of {format_pattern(pattern)} at n={n} overflow int64"
            )


def _window_match(v: np.ndarray, chain: list[int]) -> np.ndarray:
    """(rows, n) mask of the starts s of v, a 2-D array in any real
    dtype, with v[s + chain[0]] < v[s + chain[1]] < ...; the last k - 1
    starts of each row, whose windows would run into the next row, are
    False.

    Each link compares the flattened rows once (a copy of v if it is a
    strided view), which costs a fraction of per-row slices on short
    rows, and the mask stays contiguous, which a row sum reads faster
    than a slice of it.
    """
    rows, n = v.shape
    flat = v.reshape(-1)
    size = max(0, flat.size - len(chain) + 1)
    ok = np.ones(rows * n, dtype=bool)
    for lo, hi in zip(chain, chain[1:]):
        ok[:size] &= flat[lo : lo + size] < flat[hi : hi + size]
    ok = ok.reshape(rows, n)
    ok[:, max(0, n - len(chain) + 1) :] = False
    return ok


def count_windows(rows: np.ndarray, pattern: VincularPattern) -> np.ndarray:
    """Counts of a window pattern (j = 1) in each row of rows, a 2-D array
    of any real dtype, as int32: the row sums of _window_match, the
    comparisons count_occurrences_sweep makes.  Only the order inside
    each window of k neighbours is read, so a row need not be a
    permutation; its entries must differ within every window.  The
    uint32 blocks of sampling.sample_words are counted as yielded, rows
    of 32-bit halves and rows of ranks alike."""
    if pattern.block_count != 1:
        raise PatternError(f"{format_pattern(pattern)} is not a window pattern")
    (block,) = pattern.block_values
    chain = sorted(range(len(block)), key=block.__getitem__)
    return _window_match(rows, chain).sum(axis=1, dtype=np.int32)


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


def _two_block_scan(x: np.ndarray, y: np.ndarray, gap: int, n: int) -> np.ndarray:
    """Per row, sum over t of #{s <= t - gap : x[s] < y[t]}: _dominance
    with 0/1 weights, by one left-to-right scan over all rows at once.

    x and y are one step's sources and targets as (starts, rows) arrays
    in a signed dtype that holds n+1.  Failed windows are folded in: a
    dead source is n+1, above every target, and a dead target 0, below
    every source.  Per row, the sources passed so far are a bitset of
    their values in (n+1)//64 + 1 uint64 words, and for each word the
    number of them in the words below it: target y reads lower[word(y)]
    plus the popcount of word(y) under y.  The words and counts are
    (words, rows) arrays, so every step runs along the rows.
    """
    rows = x.shape[1]
    width = (n + 1) // 64 + 1
    values = np.arange(n + 2)
    word_at = (values >> 6) * rows  # flat offset of each value's word in row 0
    bit = np.left_shift(np.uint64(1), (values & 63).astype(np.uint64))
    under = bit - np.uint64(1)
    words = np.zeros(width * rows, dtype=np.uint64)
    lower = np.zeros((width, rows), dtype=x.dtype)
    edges = (64 * np.arange(width, dtype=x.dtype))[:, None]
    cols = np.arange(rows)
    total = np.zeros(rows, dtype=np.int64)
    for source, target in zip(x, y[gap:]):
        words[word_at.take(source) + cols] |= bit.take(source)
        lower += source < edges
        at = word_at.take(target) + cols
        total += lower.take(at)
        total += _popcount(words.take(at) & under.take(target))
    return total


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
    step, and its counts are count_windows', as int64.  The blocks rise:
    a pattern whose blocks fall occurs where its complement occurs in
    n+1-sigma, computed as (n - sigma) + 1 in the rows' own dtype.  The
    window tests and the steps read the rows in their integer dtype.
    Each row's W_j is summed into the int64 counts.  Each step is a
    weighted dominance count (_dominance), about n^1.5 cells per row,
    over row sub-chunks of at most _SWEEP_CELLS histogram cells.

    A two-block pattern (j = 2) needs only the row sums of W_2, whose
    weights W_1 = M_1 are 0 or 1.  On a thick batch, rows^3 * n at least
    _SCAN_MIN, one transposed copy of the rows gives the step's sources
    and targets at the offsets of the _dominance steps, with the windows
    _window_match fails folded in, and _two_block_scan counts them.  It
    costs about fifteen numpy calls per position however few the rows,
    so thin batches keep _dominance.  Measured on a 2-CPU Xeon
    (numpy 2.4.6) with 1|2, 2|1, 2,1|3,4 and 4,3|2,1, the scan is the
    faster from about 105-120 rows at n = 50-100, 75-95 at n = 200-400,
    47-49 at n = 1600, 30-34 at n = 6400 and 22-23 at n = 25600, where
    rows^3 * n runs from 2^25.8 to 2^28.3.  Cut at 2^28, the kernel that
    runs takes at most 1.15x the faster one's time from n = 100 up.
    Either way the counts equal count_occurrences_batch's.  Sweeps over
    constraints that form a path follow Even-Zohar & Leng, "Counting
    small permutation patterns" (SODA 2021).
    """
    if not is_path_shaped(pattern):
        raise PatternError(f"{format_pattern(pattern)} is not path-shaped")
    perms = np.asarray(perms)
    m, n = perms.shape
    check_sweep_size(n, pattern)
    if perms.size and (perms.dtype.kind not in "iu" or perms.min() < 1 or perms.max() > n):
        raise NotAPermutation(f"host rows must hold integers in 1..{n}")
    if pattern.block_count == 1:
        return count_windows(perms, pattern).astype(np.int64)
    counts = np.zeros(m, dtype=np.int64)
    if n < pattern.size or not m:
        return counts
    blocks = pattern.block_values
    falling = min(blocks[0]) > min(blocks[-1])
    if falling:
        perms = (n - perms) + 1
    # Each block's offsets by rising value in the rows swept: first argmin, last argmax.
    chains = [sorted(range(len(b)), key=b.__getitem__, reverse=falling) for b in blocks]
    if len(chains) == 2 and m**3 * n >= _SCAN_MIN:
        # Folded after the cast: the rows' own dtype may not hold n+1.
        v = np.ascontiguousarray(perms.T, dtype=np.int16 if n < 2**15 - 1 else np.int32)
        first, second = chains
        x = v[first[-1] : first[-1] + n - len(first) + 1]
        y = v[second[0] : second[0] + n - len(second) + 1]
        if len(first) > 1:
            dead = ~_window_match(perms, first)[:, : len(x)].T
            x = np.maximum(x, dead * v.dtype.type(n + 1))
        if len(second) > 1:
            y = y * _window_match(perms, second)[:, : len(y)].T
        return _two_block_scan(x, y, len(first), n)
    step = max(1, _SWEEP_CELLS // (n + 1))
    for lo in range(0, m, step):
        rows = perms[lo : lo + step]
        weight = _window_match(rows, chains[0])
        for prev, nxt in zip(chains, chains[1:]):
            x = rows[:, prev[-1] : prev[-1] + n - len(prev) + 1]
            y = rows[:, nxt[0] : nxt[0] + n - len(nxt) + 1]
            match = _window_match(rows, nxt)[:, : y.shape[1]]
            # einsum over two bool operands would return bool: the first
            # weight enters as int64.
            source = weight[:, : x.shape[1]].astype(np.int64, copy=False)
            weight = match * _dominance(x, source, y, len(prev), n)
        weight.sum(axis=1, out=counts[lo : lo + step])
    return counts


def code_countable(pattern: VincularPattern) -> bool:
    """Whether count_codes covers the pattern: the two-block patterns of
    size k <= 3, that is 1|2, 2|1 and the twelve patterns of size 3 with
    one dash."""
    return pattern.block_count == 2 and pattern.size <= 3


def count_codes(codes: np.ndarray, pattern: VincularPattern) -> np.ndarray:
    """Counts of a code_countable pattern, as int64, in the permutations
    whose inversion tables are the rows of codes, a (m, n) signed integer
    array with 0 <= codes[:, p] <= p (sampling.sample_codes); a pattern
    whose singleton comes last is counted in the reversed permutations.

    With c the inversion table of sigma, c(p) = #{i < p : sigma(i) >
    sigma(p)} (0-based p), 2|1 counts sum c(p) and 1|2 sum (p - c(p)).
    A singleton-first pattern of size 3 counts, for each window t, t+1,
    the singletons at i < t on the pattern's side of the window entries.
    The window rises iff c(t+1) <= c(t), and the entries at i < t above
    sigma(t) and sigma(t+1) number G0 = c(t) and G1 = c(t+1) - [c(t+1) >
    c(t)].  With G_lo and G_hi those of the lower and the higher entry,
    a singleton above both counts G_hi, one below both t - G_lo, and one
    between them G_lo - G_hi.  A singleton-last pattern is counted as
    its reverse (the singleton first), since reversal maps a uniform
    permutation to a uniform one: its count in sigma reversed.
    """
    if not code_countable(pattern):
        raise PatternError(f"{format_pattern(pattern)} is not counted from inversion tables")
    n = codes.shape[1]
    if pattern.size == 2:
        inversions = codes.sum(axis=1, dtype=np.int64)
        return inversions if pattern.order.values[0] == 2 else n * (n - 1) // 2 - inversions
    blocks = pattern.block_values
    if len(blocks[0]) == 2:
        blocks = tuple(block[::-1] for block in reversed(blocks))
    ((single,), (left, right)) = blocks
    g0, g1 = codes[:, :-1], codes[:, 1:]
    rises = g1 <= g0
    if left < right:
        lo, hi, window = g0, g1, rises
    else:
        lo, hi, window = g1 - 1, g0, ~rises
    if single == 3:
        term = hi
    elif single == 1:
        term = np.arange(n - 1, dtype=codes.dtype) - lo
    else:
        term = lo - hi
    return (term * window).sum(axis=1, dtype=np.int64)


def plan_count(n: int, pattern: VincularPattern) -> np.ndarray | None:
    """The counter for permutations of size n, chosen once: None for a
    path-shaped pattern, which count_rows sweeps (after
    check_sweep_size), and otherwise the position_matrix the chain
    kernel tests (listing cap).  Raises SizeLimitExceeded before any
    counting."""
    if is_path_shaped(pattern):
        check_sweep_size(n, pattern)
        return None
    return position_matrix(n, pattern)


def count_rows(perms: np.ndarray, pattern: VincularPattern, plan: np.ndarray | None) -> np.ndarray:
    """Occurrence counts of the pattern in each row of perms, a (m, n)
    integer array of permutations of {1..n}, by the plan
    plan_count(n, pattern) returned."""
    if plan is None:
        return count_occurrences_sweep(perms, pattern)
    return count_occurrences_batch(perms, pattern, plan)
