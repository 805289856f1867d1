"""Seeded uniform permutation sampling.

Randomness is keyed by the counter-based Philox generator (Salmon et al.,
2011), whose key is the pair (seed, stream word).  The stream word packs
a small domain tag and a substream index, so every substream is
determined entirely by (seed, tag, index): results never depend on how
work is sharded across workers, and any single sample can be regenerated
in isolation with substream().  Only the word and code samplers take
their bulk bits from another generator, a PCG64DXSM seeded from each
substream's first Philox words.

The reduction sampler draws sample i from substream i.  The shuffle
sampler draws its samples in blocks of shuffle_block_rows(n) rows, about
2^12 entries: sample i is the (i mod B)-th successive shuffle drawn from
substream i // B, with B = shuffle_block_rows(n).  Past n = 2048 a block
is one row, so sample i is the first shuffle of substream i.

The batch samplers do not build a bit generator per substream.  Each
batch builds one Philox and one Generator and re-keys them through the
Philox state dict: key word 1 becomes the substream's stream word and the
counter, output buffer and cached 32-bit half are reset.  The Generator
then starts exactly where a fresh substream() would.  The shuffle sampler
re-keys once per block and shuffles the block's rows with one
Generator.permuted call.

Two independent constructions of the uniform distribution are provided:
an in-place shuffle, and reduction of i.i.d. uniforms (rank the draws).
They share no code past the bit generator and are used to cross-validate
each other.

The word sampler serves statistics that read only the order inside
windows of a few neighbours.  It yields uint32 words, unranked: sample i
is row i mod B of block i // B of WORD_STREAM, with B = word_block_rows(n),
cut from the 32-bit halves of the raw words of a PCG64DXSM (O'Neill,
2014) seeded from the block's first four Philox words.  PCG64DXSM gives
a raw word in about 60% of Philox's time (numpy 2.4, x86-64), and Philox
still keys every block, so rows keep depending on (seed, sample index)
alone.  Two equal
entries of a row closer than the window are resolved from the row's own
Philox lane (sample_words), so no two entries of a yielded row closer
than the window are equal.  Comparing two uniforms needs only their
leading bits until those tie (Knuth & Yao, 1976), so half the output of
64-bit words gives their law.

The code sampler serves two-block patterns of size k <= 3, whose counts
read a permutation's inversion table (positions.count_codes).  It yields
the tables themselves: sample i is row i mod B of block i // B of
CODE_STREAM, B = word_block_rows(n), cut from the 32-bit halves of the
block's PCG64DXSM as the word sampler seeds it.  Entry p is uniform on
0..p by Lemire's bounded draw (2019): the high half of the half times
p + 1, unless the product's low half falls below 2^32 mod (p + 1), in
which case the entry is redrawn from the row's own Philox lane.  The
table determines the permutation, so the law is exact, and no
permutation is built.  Only raw PCG64DXSM and Philox words, which NEP 19
keeps stable, enter a table.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .errors import ZeroSize
from .patterns import Permutation

__all__ = [
    "substream",
    "sample_uniform",
    "sample_by_reduction",
    "sample_uniform_batch",
    "sample_by_reduction_batch",
    "shuffle_block_rows",
    "sample_words",
    "word_block_rows",
    "SHUFFLE_STREAM",
    "REDUCTION_STREAM",
    "NORMAL_STREAM",
    "PINNED_STREAM",
    "WORD_STREAM",
    "sample_codes",
    "CODE_STREAM",
]

_MASK64 = (1 << 64) - 1
_INDEX_BITS = 56

SHUFFLE_STREAM = 0
REDUCTION_STREAM = 1
NORMAL_STREAM = 2
PINNED_STREAM = 4
WORD_STREAM = 5  # tag 3 was the retired bootstrap stream: never reuse it
CODE_STREAM = 6

_BLOCK_CELLS = 1 << 16  # float entries per reduction block
_SHUFFLE_CELLS = 1 << 12  # entries per shuffle block
_WORD_CELLS = 1 << 16  # entries per word block: fewer, larger random_raw calls
                       # cost less per entry (2^12-entry blocks of 64-bit
                       # entries were 27% slower)
_WORD_ROWS = 1 << 12  # and at most this many rows: a stream constant, since
                      # it fixes the seeded words and codes for n < 16
_CODE_SLAB = 1 << 13  # entries per multiply-high slab of a code block: a
                      # whole-block uint64 product raised clt's peak RSS 5%


def shuffle_block_rows(n: int) -> int:
    """Rows per shuffle block at size n: the shuffle sampler draws sample
    i from substream i // shuffle_block_rows(n), so a block holds at most
    _SHUFFLE_CELLS entries, and one row once n > _SHUFFLE_CELLS / 2."""
    return max(1, _SHUFFLE_CELLS // n)


def word_block_rows(n: int) -> int:
    """Rows per word or code block at size n: sample_words and
    sample_codes draw sample i from substream i // word_block_rows(n) of
    their streams, so a block holds at most
    _WORD_CELLS entries and _WORD_ROWS rows, and one row once
    n > _WORD_CELLS / 2."""
    return max(1, min(_WORD_ROWS, _WORD_CELLS // n))


def _check_key(seed: int, stream: int, first: int, count: int = 1) -> None:
    """Range checks for the indices first..first+count-1 of (seed,
    stream), first itself even when count is 0: seeds must fit in 64
    bits, indices in 56 bits (room for ~7*10^16 samples per stream) and
    stream tags in the remaining 8."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed {seed} outside 0..2^64-1")
    for index in (first, first + max(count, 1) - 1):
        if not 0 <= index < 1 << _INDEX_BITS:
            raise ValueError(f"sample index {index} outside 0..2^{_INDEX_BITS}-1")
    if not 0 <= stream < (1 << (64 - _INDEX_BITS)):
        raise ValueError(f"stream tag {stream} outside 0..2^{64 - _INDEX_BITS}-1")


def substream(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    """Generator for the given (seed, index) substream.

    The Philox key is (seed, stream << 56 | index); see _check_key for
    the ranges.  For SHUFFLE_STREAM, index numbers a block of
    shuffle_block_rows(n) samples, not a sample.
    """
    _check_key(seed, stream, index)
    key = np.array([seed, (stream << _INDEX_BITS) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekeyer(seed: int, stream: int) -> Callable[..., np.random.Generator]:
    """One Philox and Generator for the substreams of (seed, stream),
    built once.

    The returned function re-keys the Philox for a substream index (key
    word 1 becomes stream << 56 | index; the counter, the output buffer
    and the cached 32-bit half are reset through its state dict) and
    returns the same Generator, now in the state substream(seed, index,
    stream) starts in.  Given a lane, it sets counter word 1 to it
    instead of 0: Philox carries into that word only after 2^64 blocks
    of four words, so each lane is a stream of its own under the same
    key.  The caller range-checks seed, stream and every index with
    _check_key first.
    """
    key = [seed, 0]
    counter = [0, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # buffer used up: the next draw computes a block
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_gen = np.random.Philox(key=np.array(key, dtype=np.uint64))
    gen = np.random.Generator(bit_gen)
    word = stream << _INDEX_BITS

    def rekey(index: int, lane: int = 0) -> np.random.Generator:
        key[1] = word | index
        counter[1] = lane
        bit_gen.state = state
        return gen

    return rekey


def sample_uniform(n: int, seed: int, index: int = 0) -> Permutation:
    """Uniform permutation of {1..n} via a seeded shuffle: the row of
    sample_uniform_batch for this index."""
    row = sample_uniform_batch(n, seed, 1, index)[0]
    return Permutation(tuple(int(v) for v in row))


def _reduction_draw(gen: np.random.Generator, n: int) -> np.ndarray:
    u = gen.random(n)
    # Ties between float64 uniforms are a probability-zero event, but the
    # reduction is only defined for distinct entries, so redraw if one
    # ever materializes.
    while np.unique(u).size != n:
        u = gen.random(n)
    return u


def sample_by_reduction(n: int, seed: int, index: int = 0) -> Permutation:
    """Uniform permutation of {1..n} as the rank sequence of n i.i.d.
    uniform draws: the row of sample_by_reduction_batch for this index."""
    row = sample_by_reduction_batch(n, seed, 1, index)[0]
    return Permutation(tuple(int(v) for v in row))


def sample_uniform_batch(n: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """(count, n) array of shuffled permutations for sample indices
    start..start+count-1.  Row i equals sample_uniform(n, seed, start+i).

    With B = shuffle_block_rows(n), sample index s is the (s mod B)-th
    successive Fisher-Yates shuffle of 1..n drawn from
    substream(seed, s // B, SHUFFLE_STREAM).  Each block the batch touches
    is re-keyed once and its rows, through the last one kept, are
    shuffled by one Generator.permuted call on an int64 scratch of at
    most _SHUFFLE_CELLS entries (an int64 shuffle beats one of int16
    rows); a batch that starts mid-block draws and drops that block's
    leading rows.
    """
    if n < 1:
        raise ZeroSize(f"cannot sample a permutation of size {n}")
    _check_key(seed, SHUFFLE_STREAM, start, count)
    rekey = _rekeyer(seed, SHUFFLE_STREAM)
    rows = shuffle_block_rows(n)
    dtype = np.int16 if n < 2**15 else np.int32
    out = np.empty((count, n), dtype=dtype)
    stop = start + count
    base = np.arange(1, n + 1, dtype=np.int64)
    scratch = np.empty((min(rows, start % rows + count), n), dtype=np.int64)
    for block in range(start // rows, -(-stop // rows)):
        first = block * rows
        drawn = scratch[: min(stop - first, rows)]
        drawn[:] = base
        rekey(block).permuted(drawn, axis=1, out=drawn)
        kept = max(start, first)
        out[kept - start : first + len(drawn) - start] = drawn[kept - first :]
    return out


def _tied_rows(u: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Indices of the rows of u with a repeated value; order argsorts
    each row."""
    ordered = np.take_along_axis(u, order, axis=1)
    return np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))


def sample_by_reduction_batch(n: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """(count, n) array of rank-of-uniforms permutations; row i equals
    sample_by_reduction(n, seed, start+i).

    Rows are drawn into float blocks of at most _BLOCK_CELLS entries and
    ranked per block by a double argsort.  A row with a tie is redrawn by
    _reduction_draw from its re-keyed substream, as a lone draw would be.
    """
    if n < 1:
        raise ZeroSize(f"cannot sample a permutation of size {n}")
    _check_key(seed, REDUCTION_STREAM, start, count)
    rekey = _rekeyer(seed, REDUCTION_STREAM)
    dtype = np.int16 if n < 2**15 else np.int32
    out = np.empty((count, n), dtype=dtype)
    rows = max(1, _BLOCK_CELLS // n)
    block = np.empty((min(rows, count), n))
    for first in range(0, count, rows):
        u = block[: min(rows, count - first)]
        for r, row in enumerate(u):
            rekey(start + first + r).random(out=row)
        order = np.argsort(u, axis=1)
        out[first : first + len(u)] = np.argsort(order, axis=1) + 1
        for r in _tied_rows(u, order):
            redrawn = _reduction_draw(rekey(start + first + r), n)
            out[first + r] = np.argsort(np.argsort(redrawn)) + 1
    return out


def _raw_words(bit_gen: np.random.BitGenerator, count: int) -> np.ndarray:
    # The word and code samplers' draw of entries, from a block's
    # PCG64DXSM or a row's Philox lane, kept apart so that tests can make
    # ties and rejections frequent by drawing few-bit words.  Seeding the
    # PCG64DXSM does not call it.
    return bit_gen.random_raw(count)


def _halves(bit_gen: np.random.BitGenerator, count: int) -> np.ndarray:
    """The first count 32-bit halves of bit_gen's random_raw stream, low
    half of each word first whatever the machine's byte order; for odd
    count the last word's high half is dropped."""
    words = _raw_words(bit_gen, -(-count // 2))
    return words.astype("<u8", copy=False).view("<u4")[:count]


def _window_ties(words: np.ndarray, window: int) -> np.ndarray:
    """Indices of the rows of words, a C-contiguous (rows, n) array, with
    two equal entries fewer than window positions apart."""
    flat = words.ravel()
    # Comparing the flat block costs a fraction of the per-row slices; it
    # also pairs the end of each row with the start of the next, so a hit
    # only asks for the per-row look.
    if not any((flat[d:] == flat[:-d]).any() for d in range(1, window)):
        return np.empty(0, dtype=np.intp)
    tied = np.zeros(len(words), dtype=bool)
    for d in range(1, window):
        tied |= (words[:, d:] == words[:, :-d]).any(axis=1)
    return np.flatnonzero(tied)


def _widened(bit_gen: np.random.BitGenerator, high: np.ndarray, window: int) -> np.ndarray:
    """The within-row ranks, as uint32, of the 64-bit words high << 32 |
    low, where high is a row of 32-bit words with a window tie and low
    the next len(high) halves of bit_gen.  While those words tie inside
    a window they are replaced by the next len(high) full words.  Ties
    farther apart are ranked by position, which no window count reads."""
    n = high.size
    wide = high.astype(np.uint64) << np.uint64(32) | _halves(bit_gen, n)
    while _window_ties(wide[None], window).size:
        wide = _raw_words(bit_gen, n)
    ranks = np.empty(n, dtype=np.uint32)
    ranks[np.argsort(wide, kind="stable")] = np.arange(n, dtype=np.uint32)
    return ranks


def sample_words(
    n: int, seed: int, count: int, start: int = 0, window: int = 2
) -> Iterator[np.ndarray]:
    """Samples start..start+count-1 as rows of n uint32 words, yielded in
    order as (rows, n) blocks, one per word block touched.

    With B = word_block_rows(n), sample s is row s mod B of block s // B,
    whose rows are the successive runs of n 32-bit halves, low half
    first, of PCG64DXSM.random_raw on a PCG64DXSM whose state and
    increment come from the first four words of Philox.random_raw on
    substream(seed, s // B, WORD_STREAM) (_bulk_seeder).  A row with two
    equal entries fewer than window positions apart is widened instead
    (_widened): its entries become the high halves of 64-bit words whose
    low halves are the next n halves of Philox lane (s mod B) + 1 of the
    same key (see _rekeyer), those words are drawn afresh, n at a time
    from the same lane, while they tie inside a window, and the row is
    written back as their within-row ranks.  So every row depends on its
    sample index alone, however the samples are batched; a batch that
    starts mid-block draws and drops that block's leading rows.  The
    arguments are checked on the call, before any block is drawn.

    A row compares, inside every window, as n i.i.d. 64-bit words
    conditioned on no window tie do: without a 32-bit window tie it
    orders each window as its widened words would.  Ranked, such words
    are a uniform permutation, up to the probability of a tie between
    words farther apart, at most C(n, 2) * 2^-64 per row in total
    variation.  A count that reads only the order inside windows of at
    most `window` neighbours can be made on the rows as they are.
    """
    if n < 1:
        raise ZeroSize(f"cannot sample a permutation of size {n}")
    _check_key(seed, WORD_STREAM, start, count)
    return _word_blocks(n, seed, count, start, window)


def _bulk_seeder() -> Callable[[np.random.BitGenerator], np.random.BitGenerator]:
    """One PCG64DXSM for a batch's word or code blocks, built once.

    The returned function draws four words w0..w3 from a Philox, sets the
    PCG64DXSM's state to w0 << 64 | w1 and its increment to
    w2 << 64 | w3 | 1 (PCG needs an odd increment) through its state
    dict, resets the cached 32-bit half, and returns it.
    """
    inner = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64DXSM", "state": inner, "has_uint32": 0, "uinteger": 0}
    bulk = np.random.PCG64DXSM(0)

    def seeded(philox: np.random.BitGenerator) -> np.random.BitGenerator:
        w0, w1, w2, w3 = philox.random_raw(4).tolist()
        inner["state"] = w0 << 64 | w1
        inner["inc"] = w2 << 64 | w3 | 1
        bulk.state = state
        return bulk

    return seeded


def _bulk_blocks(
    n: int, rekey: Callable[..., np.random.Generator], count: int, start: int
) -> Iterator[tuple[int, int, int, np.random.BitGenerator]]:
    """The block walk of the word and code samplers, unchecked.

    For each block of word_block_rows(n) rows that samples
    start..start+count-1 touch: the block index b, the rows to draw (up
    to the last one kept), the offset of the first row kept, and the
    block's PCG64DXSM, seeded (_bulk_seeder) from the first four words of
    the Philox that rekey(b) sets.  A block's rows are that generator's
    output from the start, so a batch that starts mid-block draws and
    drops that block's leading rows.
    """
    seeded = _bulk_seeder()
    rows = word_block_rows(n)
    stop = start + count
    for block in range(start // rows, -(-stop // rows)):
        first = block * rows
        bulk = seeded(rekey(block).bit_generator)
        yield block, min(stop, first + rows) - first, max(start, first) - first, bulk


def _word_blocks(n: int, seed: int, count: int, start: int, window: int) -> Iterator[np.ndarray]:
    """sample_words' blocks, unchecked: per block, one random_raw draw of
    half the block's entries from its PCG64DXSM, then a re-key per
    widened row."""
    rekey = _rekeyer(seed, WORD_STREAM)
    for block, drawn, kept, bulk in _bulk_blocks(n, rekey, count, start):
        words = _halves(bulk, drawn * n).reshape(-1, n)[kept:]
        for r in _window_ties(words, window):
            lane = rekey(block, kept + r + 1).bit_generator
            words[r] = _widened(lane, words[r], window)
        yield words


def sample_codes(n: int, seed: int, count: int, start: int = 0) -> Iterator[np.ndarray]:
    """Samples start..start+count-1 as inversion tables, yielded in order
    as (rows, n) blocks, one per code block touched.

    The inversion table of a permutation sigma of size n is c(p) = #{i <
    p : sigma(i) > sigma(p)} for p = 0..n-1; it determines sigma, and
    every table with 0 <= c(p) <= p is one, so for a uniform sigma the
    entries are independent and c(p) is uniform on 0..p (Knuth, TAOCP
    vol. 3, 5.1.1).  Sample s is row s mod B of block s // B, B =
    word_block_rows(n), and a block's rows are the successive runs of n
    32-bit halves, low half first, of PCG64DXSM.random_raw on a PCG64DXSM
    seeded from the first four words of Philox.random_raw on
    substream(seed, s // B, CODE_STREAM), as sample_words seeds its
    blocks.  With u(p) the row's p-th half and x = u(p) (p + 1), c(p) =
    x >> 32 unless x mod 2^32 < 2^32 mod (p + 1) (Lemire, "Fast random
    integer generation in an interval", 2019).  The entries of row r = s
    mod B so rejected are redrawn in increasing p, each by the same test
    on the next successive halves of Philox lane r + 1 of the block's key
    (see _rekeyer), so no two of them read the same half.  The rejection
    makes the law exact, and every row depends on its sample index
    alone; a batch that starts mid-block draws and drops that block's
    leading rows.  Entries are int16 for n < 2^15, else int32.  The
    arguments are checked on the call, before any block is drawn.
    """
    if n < 1:
        raise ZeroSize(f"cannot sample a permutation of size {n}")
    _check_key(seed, CODE_STREAM, start, count)
    return _code_blocks(n, seed, count, start)


def _lane_halves(lane: np.random.BitGenerator) -> Iterator[int]:
    """The successive 32-bit halves of lane's random_raw stream, low half
    of each word first, drawn a word at a time."""
    while True:
        word = int(_raw_words(lane, 1)[0])
        yield word & 0xFFFFFFFF
        yield word >> 32


def _redraw(row: np.ndarray, rejected: np.ndarray, lane: np.random.BitGenerator) -> None:
    """Redraws the entries p of a code row listed in rejected, in
    increasing p, each by Lemire's test on the successive halves u of
    lane, one iterator for the row: c(p) = u (p + 1) >> 32 for the first
    u whose product's low half is not below 2^32 mod (p + 1)."""
    halves = _lane_halves(lane)
    for p in rejected.tolist():
        bound = p + 1
        floor = (1 << 32) % bound
        product = next(halves) * bound
        while product & 0xFFFFFFFF < floor:
            product = next(halves) * bound
        row[p] = product >> 32


def _code_blocks(n: int, seed: int, count: int, start: int) -> Iterator[np.ndarray]:
    """sample_codes' blocks, unchecked.  A block is drawn in slabs of an
    even number of rows, about _CODE_SLAB entries, so each slab ends on a
    whole word: one random_raw draw per slab, multiplied by p + 1 into a
    reused uint64 buffer whose high halves are the codes.  The low halves
    are tested against 2^32 mod (p + 1) only when one of them is below
    the largest of those floors, and a row with a rejected entry re-keys
    its Philox lane once."""
    dtype = np.int16 if n < 2**15 else np.int32
    rekey = _rekeyer(seed, CODE_STREAM)
    bounds = np.arange(1, n + 1, dtype=np.uint64)
    floors = ((1 << 32) % bounds).astype(np.uint32)
    top = floors.max()
    slab = min(max(2, _CODE_SLAB // n & ~1), word_block_rows(n))
    products = np.empty((slab, n), dtype="<u8")
    for block, drawn, kept, bulk in _bulk_blocks(n, rekey, count, start):
        codes = np.empty((drawn, n), dtype=dtype)
        for first in range(0, drawn, slab):
            rows = min(slab, drawn - first)
            product = products[:rows]
            np.multiply(_halves(bulk, rows * n).reshape(rows, n), bounds, out=product)
            split = product.view("<u4")
            codes[first : first + rows] = split[:, 1::2]
            low = split[:, ::2]
            if low.min() < top:
                rejected = low < floors
                for r in np.flatnonzero(rejected.any(axis=1)):
                    lane = rekey(block, first + r + 1).bit_generator
                    _redraw(codes[first + r], np.flatnonzero(rejected[r]), lane)
        yield codes[kept:]
