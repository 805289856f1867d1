from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from scipy.stats import chisquare

from vincstat import sampling
from vincstat.errors import ZeroSize
from vincstat.patterns import parse_pattern
from vincstat.sampling import (
    CODE_STREAM,
    REDUCTION_STREAM,
    SHUFFLE_STREAM,
    WORD_STREAM,
    sample_by_reduction,
    sample_by_reduction_batch,
    sample_codes,
    sample_uniform,
    sample_uniform_batch,
    sample_words,
    shuffle_block_rows,
    substream,
    word_block_rows,
)


def _block_rows(n):
    """Rows per shuffle block: a block holds at most 2^12 entries."""
    return max(1, 4096 // n)


def _words(n, seed, count, start=0, window=2):
    """The rows sample_words yields, as one (count, n) array."""
    blocks = sample_words(n, seed, count, start, window)
    return np.concatenate([np.empty((0, n), dtype=np.uint32), *blocks])


def _codes(n, seed, count, start=0):
    """The rows sample_codes yields, as one (count, n) array."""
    dtype = np.int16 if n < 2**15 else np.int32
    return np.concatenate([np.empty((0, n), dtype=dtype), *sample_codes(n, seed, count, start)])


def test_size_one_and_errors():
    assert sample_uniform(1, seed=0).values == (1,)
    assert sample_by_reduction(1, seed=0).values == (1,)
    with pytest.raises(ZeroSize):
        sample_uniform(0, seed=0)
    with pytest.raises(ZeroSize):
        sample_by_reduction(-2, seed=0)
    with pytest.raises(ZeroSize):
        sample_uniform_batch(0, seed=0, count=3)
    with pytest.raises(ZeroSize):
        sample_words(0, seed=0, count=3)
    with pytest.raises(ZeroSize):
        sample_codes(0, seed=0, count=3)


def test_determinism_and_substream_separation():
    a = sample_uniform(12, seed=99, index=4)
    assert sample_uniform(12, seed=99, index=4) == a
    assert sample_uniform(12, seed=99, index=5) != a
    assert sample_uniform(12, seed=100, index=4) != a
    # Shuffle and reduction streams are distinct even at the same index.
    assert substream(99, 4, SHUFFLE_STREAM).random() != substream(
        99, 4, REDUCTION_STREAM
    ).random()


def test_index_range_check():
    with pytest.raises(ValueError):
        substream(0, -1)
    with pytest.raises(ValueError):
        substream(0, 1 << 56)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError):
            substream(seed, 0)
    # Tags outside 8 bits used to alias: 256 was masked onto tag 0.
    for stream in (-1, 256):
        with pytest.raises(ValueError):
            substream(0, 5, stream)
    assert substream(0, 5, 255).random() != substream(0, 5, 0).random()


def test_batch_rows_match_scalar_calls():
    for batch_fn, scalar_fn in (
        (sample_uniform_batch, sample_uniform),
        (sample_by_reduction_batch, sample_by_reduction),
    ):
        rows = batch_fn(9, seed=314, count=6, start=10)
        assert rows.shape == (6, 9)
        for i in range(6):
            assert tuple(int(v) for v in rows[i]) == scalar_fn(9, seed=314, index=10 + i).values


def _raw_shuffles(n, seed, block):
    """numpy's successive Fisher-Yates shuffles of 1..n, replayed in pure
    Python from the raw Philox stream of the (seed, block) shuffle
    substream: for i = n-1..1, j is drawn from 0..i by masked rejection
    on 32-bit words (each 64-bit output split, low half first) and
    entries i and j swap.  The 64-bit word and its unused 32-bit half
    carry over from one shuffle to the next."""
    key = np.array([seed, SHUFFLE_STREAM << 56 | block], dtype=np.uint64)
    bit_gen = np.random.Philox(key=key)
    words = []

    def next32():
        if not words:
            raw = int(bit_gen.random_raw())
            words.extend((raw >> 32, raw & 0xFFFFFFFF))
        return words.pop()

    while True:
        values = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = next32() & mask
            while j > i:
                j = next32() & mask
            values[i], values[j] = values[j], values[i]
        yield values


def _raw_rows(n, seed, start, count):
    """Samples start..start+count-1: sample s is shuffle s mod B of block
    s // B, for B = _block_rows(n)."""
    rows = _block_rows(n)
    out = []
    for block in range(start // rows, (start + count - 1) // rows + 1):
        shuffles = _raw_shuffles(n, seed, block)
        for index in range(block * rows, min(block * rows + rows, start + count)):
            row = next(shuffles)
            if index >= start:
                out.append(row)
    return out


def test_shuffle_rows_follow_the_raw_philox_stream():
    # NEP 19 keeps bit-generator raw streams stable across numpy versions;
    # this pins the seeded shuffle to that stream, not to Generator code.
    # Batches start at a block, cross a block boundary mid-block and sit
    # at the top sample indices; n = 2049 and 3000 have one-row blocks.
    for n in (1, 2, 3, 7, 25, 100, 300, 2048, 2049, 3000):
        rows = _block_rows(n)
        assert shuffle_block_rows(n) == rows
        for seed, start, count in (
            (0, 0, 3),
            (314, 10, 3),
            (314, 2 * rows - 2, 4),
            (2**64 - 1, 2**56 - 3, 3),
        ):
            batch = sample_uniform_batch(n, seed, count, start)
            assert batch.tolist() == _raw_rows(n, seed, start, count), (n, seed, start)


def test_literal_rows():
    assert sample_uniform_batch(8, seed=2024, count=3, start=5).tolist() == [
        [1, 3, 4, 5, 7, 6, 2, 8],
        [6, 2, 1, 4, 3, 8, 7, 5],
        [6, 4, 8, 1, 3, 5, 2, 7],
    ]
    assert sample_by_reduction_batch(8, seed=2024, count=3, start=5).tolist() == [
        [7, 5, 3, 8, 4, 2, 1, 6],
        [6, 4, 2, 5, 8, 1, 7, 3],
        [4, 1, 6, 3, 2, 7, 5, 8],
    ]
    top = 2**56 - 2
    assert sample_uniform_batch(5, seed=2**64 - 1, count=2, start=top).tolist() == [
        [1, 3, 5, 4, 2],
        [4, 5, 2, 3, 1],
    ]
    assert sample_by_reduction_batch(5, seed=2**64 - 1, count=2, start=top).tolist() == [
        [2, 1, 3, 4, 5],
        [3, 4, 1, 2, 5],
    ]


def _fresh_shuffle(n, seed, index):
    """Sample index r of block b is the r-th successive shuffle of a fresh
    substream(seed, b, SHUFFLE_STREAM)."""
    block, offset = divmod(index, _block_rows(n))
    gen = substream(seed, block, SHUFFLE_STREAM)
    for _ in range(offset):
        gen.permutation(n)
    return gen.permutation(np.arange(1, n + 1))


def _fresh_reduction(n, seed, index):
    u = sampling._reduction_draw(substream(seed, index, REDUCTION_STREAM), n)
    return np.argsort(np.argsort(u)) + 1


@pytest.mark.parametrize(
    "seed, start", [(0, 0), (2**64 - 1, 0), (7, 2**56 - 4), (2**64 - 1, 2**56 - 4)]
)
def test_batch_rows_equal_fresh_substreams_at_the_key_edges(seed, start):
    # The re-keyed generator must start every block in a fresh substream's
    # state, at the first and last sample index and at the largest seed;
    # at n = 3000 a block is one row, so the last substream index is used.
    for n in (1, 2, 9, 40, 3000):
        for batch_fn, fresh in (
            (sample_uniform_batch, _fresh_shuffle),
            (sample_by_reduction_batch, _fresh_reduction),
        ):
            rows = batch_fn(n, seed, 4, start)
            for i in range(4):
                assert np.array_equal(rows[i], fresh(n, seed, start + i))


def test_batch_index_range_check():
    for batch_fn in (sample_uniform_batch, sample_by_reduction_batch, _words, _codes):
        with pytest.raises(ValueError):
            batch_fn(5, seed=0, count=4, start=2**56 - 3)
        with pytest.raises(ValueError):
            batch_fn(5, seed=0, count=1, start=-1)
        with pytest.raises(ValueError):
            batch_fn(5, seed=1 << 64, count=1)
        assert batch_fn(5, seed=0, count=0).shape == (0, 5)


def test_an_empty_batch_checks_its_start():
    # The start index is checked even when no row is drawn, and a bad
    # start is the index named, whatever the count.  The word and code
    # samplers check on the call, before any block is drawn.
    for start in (-1, 2**56):
        for lazy in (sample_words, sample_codes):
            with pytest.raises(ValueError, match=f"sample index {start} "):
                lazy(5, seed=0, count=0, start=start)
    for batch_fn in (sample_uniform_batch, sample_by_reduction_batch, _words, _codes):
        for start in (-1, 2**56, 2**60):
            for count in (0, 3):
                with pytest.raises(ValueError, match=f"sample index {start} "):
                    batch_fn(5, seed=0, count=count, start=start)
        with pytest.raises(ValueError, match=f"sample index {2**56} "):
            batch_fn(5, seed=0, count=4, start=2**56 - 3)
        assert batch_fn(5, seed=0, count=0, start=2**56 - 1).shape == (0, 5)


@pytest.mark.parametrize("n", [1, 5, 40, 100, 2048, 2049])
def test_any_window_of_a_batch_is_a_slice_of_one_long_batch(n):
    # Windows that start and end on block boundaries and inside blocks,
    # empty ones included, equal the slice of one long batch, and so do
    # the lone samples.
    rows = _block_rows(n)
    whole = sample_uniform_batch(n, seed=9, count=3 * rows + 2)
    for start in sorted({0, 1, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows + 1}):
        for count in sorted({0, 1, rows - 1, rows, rows + 1}):
            window = sample_uniform_batch(n, seed=9, count=count, start=start)
            assert window.shape == (count, n)
            assert np.array_equal(window, whole[start : start + count]), (start, count)
    for index in sorted({0, rows - 1, rows, 3 * rows + 1}):
        assert sample_uniform(n, seed=9, index=index).values == tuple(whole[index].tolist())


def test_tied_rows_finds_repeats():
    u = np.array([[0.1, 0.1, 0.3], [0.3, 0.2, 0.1], [0.5, 0.2, 0.5]])
    order = np.argsort(u, axis=1)
    assert sampling._tied_rows(u, order).tolist() == [0, 2]


def test_reduction_tie_fallback_redraws_from_the_row_substream(monkeypatch):
    # Float64 ties never happen in practice, so a stubbed detector reports
    # some rows as tied.  Small blocks put those rows in different blocks;
    # each must be redrawn from its own substream into its own row.
    n, seed, start, count = 7, 11, 3, 9
    expected = [_fresh_reduction(n, seed, start + i) for i in range(count)]
    redraws = []
    real_draw = sampling._reduction_draw

    def counting_draw(gen, size):
        redraws.append(size)
        return real_draw(gen, size)

    monkeypatch.setattr(sampling, "_BLOCK_CELLS", 2 * n)
    monkeypatch.setattr(sampling, "_tied_rows", lambda u, order: np.arange(len(u))[::-1])
    monkeypatch.setattr(sampling, "_reduction_draw", counting_draw)
    rows = sample_by_reduction_batch(n, seed, count, start)
    assert redraws == [n] * count
    for i in range(count):
        assert np.array_equal(rows[i], expected[i])


def test_shuffle_frequencies_s3():
    # 600k shuffled draws of S_3: each of the 6 outcomes within 0.005 of 1/6.
    m = 600_000
    rows = sample_uniform_batch(3, seed=2024, count=m)
    codes = rows[:, 0] * 100 + rows[:, 1] * 10 + rows[:, 2]
    freq = Counter(codes.tolist())
    assert len(freq) == 6
    for sigma in permutations((1, 2, 3)):
        code = sigma[0] * 100 + sigma[1] * 10 + sigma[2]
        assert abs(freq[code] / m - 1 / 6) < 0.005


def test_reduction_frequencies_s4():
    # 480k reduction draws of S_4: all 24 outcomes within 0.002 of 1/24,
    # and no chi-square blowup.
    m = 480_000
    rows = sample_by_reduction_batch(4, seed=77, count=m)
    codes = rows[:, 0] * 1000 + rows[:, 1] * 100 + rows[:, 2] * 10 + rows[:, 3]
    freq = Counter(codes.tolist())
    assert len(freq) == 24
    observed = []
    for sigma in permutations((1, 2, 3, 4)):
        code = sigma[0] * 1000 + sigma[1] * 100 + sigma[2] * 10 + sigma[3]
        observed.append(freq[code])
        assert abs(freq[code] / m - 1 / 24) < 0.002
    assert chisquare(observed).pvalue > 1e-4


def test_two_samplers_agree_in_distribution():
    # Same seed, same index, different constructions: the permutations
    # differ draw by draw but empirical entry means agree.
    n, m = 6, 20_000
    a = sample_uniform_batch(n, seed=5, count=m).mean(axis=0)
    b = sample_by_reduction_batch(n, seed=5, count=m).mean(axis=0)
    assert np.allclose(a, (n + 1) / 2, atol=0.05)
    assert np.allclose(b, (n + 1) / 2, atol=0.05)


def test_reduction_rows_are_permutations():
    rows = sample_by_reduction_batch(30, seed=1, count=50)
    expected = np.arange(1, 31)
    for row in rows:
        assert np.array_equal(np.sort(row), expected)


def _word_block_rows(n):
    """Rows per word block: at most 2^16 words and 2^12 rows."""
    return max(1, min(4096, 65536 // n))


def _halves(raw):
    """The 32-bit halves of raw uint64 words, low half of each first,
    split by value."""
    return np.stack([raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)], axis=1).ravel()


def _lane(seed, block, lane=0, stream=WORD_STREAM):
    """A fresh Philox on lane `lane` of the (seed, block) substream of
    stream, the word stream by default: its counter starts at word 1 =
    lane."""
    key = np.array([seed, stream << 56 | block], dtype=np.uint64)
    return np.random.Philox(key=key, counter=[0, lane, 0, 0])


def _bulk(seed, block, stream=WORD_STREAM):
    """A fresh PCG64DXSM seeded from the first four words w0..w3 of lane
    0 of the (seed, block) substream of stream: state w0 << 64 | w1,
    increment w2 << 64 | w3 | 1."""
    w0, w1, w2, w3 = (int(w) for w in _lane(seed, block, 0, stream).random_raw(4))
    bit_gen = np.random.PCG64DXSM()
    bit_gen.state = {
        "bit_generator": "PCG64DXSM",
        "state": {"state": w0 << 64 | w1, "inc": w2 << 64 | w3 | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bit_gen


def test_word_rows_follow_the_raw_philox_stream():
    # Sample s is the (s mod B)-th run of n 32-bit halves, low half first,
    # of PCG64DXSM.random_raw seeded from the first four Philox words of
    # the (seed, s // B) word substream; both raw streams are ones NEP 19
    # keeps stable.  Batches start at a block, cross a block boundary
    # mid-block and sit at the top sample indices; n = 6 has the row cap,
    # n = 25 blocks of 2621 rows, an odd 65 525 halves whose last word's
    # high half is dropped, and n = 70 000 one row of more than 2^16
    # halves a block.
    assert word_block_rows(25) * 25 == 65_525
    for n in (1, 2, 6, 25, 100, 6400, 2**15 + 1, 70_000):
        rows = _word_block_rows(n)
        assert word_block_rows(n) == rows
        for seed, start, count in (
            (0, 0, 3),
            (314, 10, 3),
            (314, 2 * rows - 2, 4),
            (2**64 - 1, 2**56 - 3, 3),
        ):
            expected = []
            for s in range(start, start + count):
                block, r = divmod(s, rows)
                raw = _bulk(seed, block).random_raw(-(-(r + 1) * n // 2))
                expected.append(_halves(raw)[r * n : (r + 1) * n])
            got = _words(n, seed, count, start)
            assert got.dtype == np.uint32
            assert np.array_equal(got, np.array(expected)), (n, seed, start)


def _few_bits(bits, draws=None, lanes=True):
    """A stand-in for sampling._raw_words that keeps the low bits of each
    32-bit half (all of it for bits >= 32), so ties are frequent; it
    records each draw's size.  With lanes False it keeps whole words on
    the widening lanes, the Philox draws (the block draws come from a
    PCG64DXSM)."""
    half = (1 << min(bits, 32)) - 1
    mask = np.uint64(half << 32 | half)

    def draw(bit_gen, count):
        if draws is not None:
            draws.append(count)
        lane = isinstance(bit_gen, np.random.Philox)
        raw = bit_gen.random_raw(count)
        return raw if lane and not lanes else raw & mask

    return draw


def _window_tied(rows, k):
    """Whether each row has two equal entries fewer than k apart."""
    return np.array([any((row[d:] == row[:-d]).any() for d in range(1, k)) for row in rows])


def _ranks(wide):
    ranks = np.empty(len(wide), dtype=np.int64)
    ranks[np.argsort(wide, kind="stable")] = np.arange(len(wide))
    return ranks


def _expected_words(n, k, seed, count, mask):
    """Rows 0..count-1 of the (seed, 0) word block, replayed from a fresh
    PCG64DXSM and fresh Philox lanes with every draw masked by mask: a
    row whose halves tie inside a window is ranked as high << 32 | low,
    low the first n halves of lane r + 1, those words replaced by the
    lane's next n words while they tie inside a window."""
    block = _halves(_bulk(seed, 0).random_raw(-(-count * n // 2)) & mask)
    block = block[: count * n].reshape(count, n)
    out = block.astype(np.int64)
    tied = _window_tied(block, k)
    for r in np.flatnonzero(tied):
        lane = _lane(seed, 0, r + 1)
        low = _halves(lane.random_raw(-(-n // 2)) & mask)[:n]
        wide = block[r] << np.uint64(32) | low
        while _window_tied(wide[None], k)[0]:
            wide = lane.random_raw(n) & mask
        out[r] = _ranks(wide)
    return out, tied


@pytest.mark.parametrize("text", ["3,2,1", "2,4,1,3"])
def test_forced_ties_leave_no_tie_inside_a_window(monkeypatch, text):
    # Four-bit halves tie often, on the widening lanes too.  No kept row
    # has two entries fewer than k positions apart that are equal.  A row
    # without such a tie in its halves is the halves themselves, ties
    # farther apart included, since a window count never compares them;
    # a widened row is the ranks 0..n-1.
    n, k = 8, parse_pattern(text).size
    draws = []
    monkeypatch.setattr(sampling, "_raw_words", _few_bits(4, draws))
    rows = _words(n, seed=3, count=500, start=40, window=k)
    assert rows.shape == (500, n) and rows.max() < 16
    assert draws.count(n // 2) > 100  # many rows were widened
    for d in range(1, k):
        assert not (rows[:, d:] == rows[:, :-d]).any(), d
    expected, widened = _expected_words(n, k, 3, 540, np.uint64(0xF0000000F))
    assert np.array_equal(rows, expected[40:])
    plain = rows[~widened[40:]]
    assert (plain[:, k:] == plain[:, :-k]).any()
    assert (np.sort(rows[widened[40:]], axis=1) == np.arange(n)).all()


@pytest.mark.parametrize("text", ["3,2,1", "2,4,1,3"])
def test_a_window_tie_of_halves_is_widened_from_the_row_lane(monkeypatch, text):
    # Four-bit halves on the block, whole words on the lanes: the 32-bit
    # entries tie inside a window in most rows, their 64-bit words
    # high << 32 | low do not, so no row is drawn afresh.  A widened row
    # orders every window as those words do, low taken from lane r + 1.
    n, k = 8, parse_pattern(text).size
    draws = []
    monkeypatch.setattr(sampling, "_raw_words", _few_bits(4, draws, lanes=False))
    rows = _words(n, seed=5, count=300, window=k)
    assert n not in draws and draws.count(n // 2) > 150
    raw = _bulk(5, 0).random_raw(300 * n // 2) & np.uint64(0xF0000000F)
    high = _halves(raw).reshape(300, n)
    widened = _window_tied(high, k)
    assert widened.sum() > 150
    assert np.array_equal(rows[~widened], high[~widened])
    for r in np.flatnonzero(widened):
        low = _halves(_lane(5, 0, r + 1).random_raw(n // 2))
        wide = high[r] << np.uint64(32) | low
        assert np.array_equal(rows[r], _ranks(wide)), r


@pytest.mark.parametrize("text", ["3,2,1", "2,4,1,3"])
def test_a_window_tie_of_widened_words_redraws_from_the_row_lane(monkeypatch, text):
    # Two-bit halves everywhere: the widened 64-bit words tie inside a
    # window often too, and are then drawn afresh, n whole words at a
    # time from the same lane, until they do not.
    n, k = 8, parse_pattern(text).size
    draws = []
    monkeypatch.setattr(sampling, "_raw_words", _few_bits(2, draws))
    rows = _words(n, seed=7, count=300, window=k)
    assert draws.count(n) > 100  # many widened rows were drawn afresh
    expected, _ = _expected_words(n, k, 7, 300, np.uint64(0x300000003))
    assert np.array_equal(rows, expected)
    for d in range(1, k):
        assert not (rows[:, d:] == rows[:, :-d]).any(), d


@pytest.mark.parametrize("bits", [4, 64])
def test_any_window_of_a_word_batch_is_a_slice_of_one_long_batch(monkeypatch, bits):
    # Blocks of five rows.  Windows that start and end on block boundaries
    # and inside blocks, empty ones included, equal the slice of one long
    # batch: with four-bit words too, where most rows are redrawn, each
    # from its own lane whatever the batch.
    n, k, rows = 7, 4, 5
    monkeypatch.setattr(sampling, "_raw_words", _few_bits(bits))
    monkeypatch.setattr(sampling, "_WORD_CELLS", rows * n)
    assert word_block_rows(n) == rows
    whole = _words(n, seed=9, count=3 * rows + 2, window=k)
    for start in sorted({0, 1, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows + 1}):
        for count in sorted({0, 1, rows - 1, rows, rows + 1}):
            window = _words(n, seed=9, count=count, start=start, window=k)
            assert np.array_equal(window, whole[start : start + count]), (start, count)
    for index in range(len(whole)):
        assert np.array_equal(_words(n, seed=9, count=1, start=index, window=k)[0], whole[index])


def _lemire_row(halves, lane):
    """The code row of the 32-bit halves u(0..n-1): c(p) = u(p) (p + 1) >> 32,
    unless the product mod 2^32 is below 2^32 mod (p + 1); such entries
    are redrawn in increasing p by the same test, one scalar at a time,
    from the successive halves of lane, low half of each word first."""
    bounds = np.arange(1, len(halves) + 1, dtype=np.uint64)
    products = halves * bounds
    row = (products >> np.uint64(32)).tolist()
    spare = []
    for p in np.flatnonzero(products % 2**32 < 2**32 % bounds).tolist():
        product = 0
        while product % 2**32 < 2**32 % (p + 1):
            if not spare:
                word = int(lane.random_raw())
                spare = [word >> 32, word % 2**32]
            product = spare.pop() * (p + 1)
        row[p] = product >> 32
    return row


def test_code_rows_follow_lemire_draws_on_the_seeded_pcg():
    # Sample s is row s mod B of the (seed, s // B) code block,
    # B = word_block_rows(n): the Lemire draws on its n halves of a fresh
    # PCG64DXSM seeded from the first four Philox words of the substream,
    # in int16 below n = 2^15 and int32 from there.  Batches start at a
    # block, cross a block boundary mid-block and sit at the top sample
    # indices; n = 6 has the row cap, n = 2^15 the first int32 rows and
    # n = 70 000 one row a block, odd, so its last word's high half is
    # dropped.  A row rejects about n^2 / 2^34 entries, so the large
    # rows here redraw some from their lanes.
    rejected = 0
    for n in (1, 2, 6, 25, 100, 6400, 2**15 - 1, 2**15, 70_000):
        rows = word_block_rows(n)
        dtype = np.int16 if n < 2**15 else np.int32
        bounds = np.arange(1, n + 1, dtype=np.uint64)
        for seed, start, count in (
            (0, 0, 3),
            (314, 10, 3),
            (314, 2 * rows - 2, 4),
            (2**64 - 1, 2**56 - 3, 3),
        ):
            expected = []
            for s in range(start, start + count):
                block, r = divmod(s, rows)
                raw = _bulk(seed, block, CODE_STREAM).random_raw(-(-(r + 1) * n // 2))
                halves = _halves(raw)[r * n : (r + 1) * n]
                rejected += int((halves * bounds % 2**32 < 2**32 % bounds).sum())
                expected.append(_lemire_row(halves, _lane(seed, block, r + 1, CODE_STREAM)))
            got = _codes(n, seed, count, start)
            assert got.dtype == dtype
            assert np.array_equal(got, np.array(expected)), (n, seed, start)
    assert rejected > 0


def test_literal_code_rows():
    # Two literal cases pin the code stream outright, apart from the
    # replay helpers above.
    assert _codes(8, seed=2024, count=3, start=5).tolist() == [
        [0, 1, 0, 3, 0, 1, 0, 5],
        [0, 0, 1, 0, 1, 0, 5, 2],
        [0, 0, 2, 3, 0, 5, 1, 4],
    ]
    assert _codes(5, seed=2**64 - 1, count=2, start=2**56 - 2).tolist() == [
        [0, 0, 1, 1, 4],
        [0, 1, 1, 1, 4],
    ]


def test_rejected_code_entries_are_redrawn_from_the_row_lane(monkeypatch):
    # Zero halves on the blocks, whole words on the lanes: u(p) (p + 1) is
    # 0, below 2^32 mod (p + 1) unless p + 1 is a power of two, so at
    # n = 8 entries 2, 4, 5 and 6 of every row are rejected and the rest
    # are 0.  Row r of block b redraws them from lane r + 1 of the
    # (seed, b) key, one re-key a row: they take its successive halves,
    # since bounds 3, 5, 6 and 7 reject a half only below 4.  Blocks of
    # five rows; a batch that starts mid-block redraws the same entries.
    n, rows, seed = 8, 5, 11
    monkeypatch.setattr(sampling, "_raw_words", _few_bits(0, lanes=False))
    monkeypatch.setattr(sampling, "_WORD_CELLS", rows * n)
    assert word_block_rows(n) == rows
    whole = _codes(n, seed, count=3 * rows + 2)
    assert (whole[:, [0, 1, 3, 7]] == 0).all()
    zeros = np.zeros(n, dtype=np.uint64)
    for s, row in enumerate(whole):
        block, r = divmod(s, rows)
        halves = _halves(_lane(seed, block, r + 1, CODE_STREAM).random_raw(2))
        redrawn = [int(u) * bound >> 32 for u, bound in zip(halves, (3, 5, 6, 7))]
        assert row[[2, 4, 5, 6]].tolist() == redrawn, s
        assert row.tolist() == _lemire_row(zeros, _lane(seed, block, r + 1, CODE_STREAM)), s
    for start in (1, rows - 1, rows + 2, 2 * rows + 1):
        assert np.array_equal(_codes(n, seed, count=4, start=start), whole[start : start + 4])


def test_any_window_of_a_code_batch_is_a_slice_of_one_long_batch(monkeypatch):
    # Blocks of five rows.  Windows that start and end on block boundaries
    # and inside blocks, empty ones included, equal the slice of one long
    # batch, and so do the lone samples.
    n, rows = 7, 5
    monkeypatch.setattr(sampling, "_WORD_CELLS", rows * n)
    assert word_block_rows(n) == rows
    whole = _codes(n, seed=9, count=3 * rows + 2)
    for start in sorted({0, 1, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows + 1}):
        for count in sorted({0, 1, rows - 1, rows, rows + 1}):
            window = _codes(n, seed=9, count=count, start=start)
            assert np.array_equal(window, whole[start : start + count]), (start, count)
    for index in range(len(whole)):
        assert np.array_equal(_codes(n, seed=9, count=1, start=index)[0], whole[index])


def test_code_rows_are_uniform_inversion_tables():
    # Every entry c(p) lies in 0..p, so each row is the table of one
    # permutation; int32 once n reaches 2^15.
    for n in (1, 2, 7, 300, 2**15):
        codes = _codes(n, seed=n, count=3, start=5)
        assert (codes >= 0).all() and (codes <= np.arange(n)).all()
    # Each entry is uniform on 0..p and independent of the others: at
    # n = 4 the 24 tables, one per permutation, are equally likely.
    tables = [tuple(row) for row in _codes(4, seed=5, count=24_000).tolist()]
    freq = Counter(tables)
    assert len(freq) == 24
    assert chisquare(list(freq.values())).pvalue > 1e-4
