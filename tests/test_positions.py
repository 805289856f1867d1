from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vincstat import positions
from vincstat.errors import (
    NotAdmissible,
    NotAPermutation,
    PatternError,
    PatternTooSmall,
    SizeLimitExceeded,
    SizeMismatch,
)
from vincstat.moments import variance_polynomial
from vincstat.patterns import (
    Permutation,
    VincularPattern,
    composition_to_adjacencies,
    iter_patterns,
    parse_pattern,
    reduce_sequence,
)
from vincstat.positions import (
    PositionSet,
    code_countable,
    count_codes,
    count_occurrences,
    count_occurrences_batch,
    count_occurrences_sweep,
    count_rows,
    count_windows,
    enumerate_position_sets,
    is_path_shaped,
    occurs_at,
    plan_count,
    position_count,
    position_matrix,
    shift_bijection,
    shift_bijection_inverse,
)
from vincstat.sampling import sample_uniform_batch, sample_words


def test_enumeration_example():
    p = parse_pattern("3|1,2")
    sets = [ps.positions for ps in enumerate_position_sets(5, p)]
    assert sets == [
        (1, 2, 3),
        (1, 3, 4),
        (1, 4, 5),
        (2, 3, 4),
        (2, 4, 5),
        (3, 4, 5),
    ]


def test_position_count_formula():
    assert position_count(6, parse_pattern("2,1")) == 5
    assert position_count(7, parse_pattern("1|2|3")) == 35
    assert position_count(5, parse_pattern("3|1,2")) == 6
    assert position_count(2, parse_pattern("3|1,2")) == 0  # pattern too big
    assert position_count(3, parse_pattern("3|1,2")) == 1


def test_count_matches_enumeration_small():
    # Exhaustively for a small slice; the full battery runs in acceptance.
    for k in (2, 3):
        for p in iter_patterns(k):
            for n in range(k - 1, 10):
                sets = list(enumerate_position_sets(n, p))
                assert len(sets) == position_count(n, p)
                assert len(set(ps.positions for ps in sets)) == len(sets)


def test_shift_bijection_worked_example():
    # k = 7, adjacencies {1,2,4,6} -> blocks (3,2,2); in an 11-element host
    # the set {3,4,5,8,9,10,11} compresses to the 3-subset {3,6,7}.
    p = parse_pattern("1,2,3|4,5|6,7")
    assert p.adjacencies == frozenset({1, 2, 4, 6})
    I = PositionSet((3, 4, 5, 8, 9, 10, 11), 11)
    assert shift_bijection(I, p) == frozenset({3, 6, 7})
    assert shift_bijection_inverse({3, 6, 7}, 11, p) == I


def test_shift_bijection_is_a_bijection():
    p = parse_pattern("4|1,3|2")
    n = 10
    j = p.block_count
    images = set()
    for I in enumerate_position_sets(n, p):
        s = shift_bijection(I, p)
        assert shift_bijection_inverse(s, n, p) == I
        images.add(s)
    expected = {
        frozenset(c) for c in combinations(range(1, n - p.size + j + 1), j)
    }
    assert images == expected


def test_shift_bijection_rejects_inadmissible():
    p = parse_pattern("3|1,2")
    with pytest.raises(NotAdmissible):
        shift_bijection(PositionSet((1, 3, 5), 6), p)  # adjacency broken
    with pytest.raises(NotAdmissible):
        shift_bijection(PositionSet((3, 1, 2), 6), p)  # not increasing
    with pytest.raises(NotAdmissible):
        shift_bijection(PositionSet((5, 6, 7), 6), p)  # outside host
    with pytest.raises(NotAdmissible):
        shift_bijection(PositionSet((1, 2), 6), p)  # wrong arity
    with pytest.raises(NotAdmissible):
        shift_bijection_inverse({1, 2, 3}, 8, p)  # wrong subset size


def test_occurs_at_examples():
    sigma = Permutation((3, 5, 1, 2, 4))
    p = parse_pattern("3|1,2")
    assert occurs_at(sigma, p.order, PositionSet((1, 3, 4), 5))
    assert not occurs_at(sigma, p.order, PositionSet((1, 2, 3), 5))
    with pytest.raises(SizeMismatch):
        occurs_at(sigma, p.order, PositionSet((1, 2), 5))
    with pytest.raises(SizeMismatch):
        occurs_at(sigma, p.order, PositionSet((4, 5, 6), 5))


def test_count_occurrences_hand_checked():
    sigma = Permutation((3, 5, 1, 2, 4))
    assert count_occurrences(sigma, parse_pattern("3|1,2")) == 3
    assert count_occurrences(sigma, parse_pattern("2,1")) == 1  # descents
    assert count_occurrences(sigma, parse_pattern("2|1")) == 5  # inversions
    assert count_occurrences(sigma, parse_pattern("1,2,3,4,5")) == 0
    assert count_occurrences(Permutation.identity(6), parse_pattern("1,2")) == 5


def _subset_count(sigma: Permutation, pattern) -> int:
    """Independent oracle: scan all k-subsets, filter by adjacency, compare
    reductions."""
    total = 0
    for pos in combinations(range(1, sigma.size + 1), pattern.size):
        if any(pos[a] != pos[a - 1] + 1 for a in pattern.adjacencies):
            continue
        window = [sigma.values[q - 1] for q in pos]
        if reduce_sequence(window).values == pattern.order.values:
            total += 1
    return total


def test_count_occurrences_against_subset_scan():
    rng = np.random.default_rng(7)
    patterns = [parse_pattern(s) for s in ("2,1", "1|2", "3|1,2", "2,1|3", "1,3|2", "2|1,4,3")]
    for _ in range(25):
        n = int(rng.integers(4, 11))
        sigma = Permutation(tuple(int(v) for v in rng.permutation(n) + 1))
        for p in patterns:
            assert count_occurrences(sigma, p) == _subset_count(sigma, p)


def test_counts_partition_position_sets():
    # Summing occurrence counts over all order permutations with a fixed
    # adjacency set must give the number of admissible sets, whatever sigma is.
    rng = np.random.default_rng(11)
    for blocks_text in ("1,2,3", "1|2,3", "1|2|3"):
        base = parse_pattern(blocks_text)
        n = 9
        sigma = Permutation(tuple(int(v) for v in rng.permutation(n) + 1))
        total = 0
        for p in iter_patterns(3):
            if p.adjacencies == base.adjacencies:
                total += count_occurrences(sigma, p)
        assert total == position_count(n, base)


def test_position_matrix_and_batch_counts():
    p = parse_pattern("3|1,2")
    n = 8
    mat = position_matrix(n, p)
    assert mat.shape == (position_count(n, p), 3)
    assert mat.min() == 0 and mat.max() == n - 1
    perms = sample_uniform_batch(n, seed=123, count=40)
    batch = count_occurrences_batch(perms, p, mat)
    scalar = [
        count_occurrences(Permutation(tuple(int(v) for v in row)), p) for row in perms
    ]
    assert batch.tolist() == scalar


def test_position_matrix_matches_enumeration():
    # Reference: the lazy enumeration, row by row, shifted to 0-based.
    for k in range(1, 5):
        for p in iter_patterns(k):
            for n in range(10):
                mat = position_matrix(n, p)
                rows = [I.positions for I in enumerate_position_sets(n, p)]
                assert mat.dtype == np.int64 and mat.shape == (len(rows), k), (p, n)
                assert (mat + 1).tolist() == [list(r) for r in rows], (p, n)


def test_batch_accepts_prebuilt_matrix_and_empty():
    p = parse_pattern("1|2|3|4")
    perms = sample_uniform_batch(6, seed=5, count=10)
    mat = position_matrix(6, p)
    assert count_occurrences_batch(perms, p, posmat=mat).tolist() == [
        _subset_count(Permutation(tuple(int(v) for v in row)), p) for row in perms
    ]
    # Host smaller than the pattern: no position sets, every count is zero.
    tiny = sample_uniform_batch(3, seed=5, count=4)
    assert count_occurrences_batch(tiny, p, position_matrix(3, p)).tolist() == [0, 0, 0, 0]


_SMALL_PATTERNS = [p for k in range(1, 5) for p in iter_patterns(k)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_SMALL_PATTERNS), st.integers(1, 9), st.data())
def test_batch_kernel_matches_occurs_at(pattern, n, data):
    sigma = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
    sets = list(enumerate_position_sets(n, pattern))
    hits = [occurs_at(sigma, pattern.order, I) for I in sets]
    row = np.array([sigma.values])
    mat = position_matrix(n, pattern)
    assert count_occurrences_batch(row, pattern, mat)[0] == sum(hits)
    # Distinct reals with the same ranks, as in the pinned-uniform check.
    reals = sorted(data.draw(st.lists(
        st.floats(0, 1, allow_nan=False), min_size=n, max_size=n, unique=True
    )))
    real_row = np.array([[reals[v - 1] for v in sigma.values]])
    assert count_occurrences_batch(real_row, pattern, mat)[0] == sum(hits)
    # One position set at a time, as the suffix-covariance oracle asks.
    for I, hit in zip(sets, hits):
        one = count_occurrences_batch(row, pattern, np.array([I.positions]) - 1)
        assert one.tolist() == [int(hit)]


def test_position_matrix_respects_listing_cap(monkeypatch):
    monkeypatch.setenv("VINCSTAT_LISTING_CAP", "10")
    with pytest.raises(SizeLimitExceeded):
        position_matrix(12, parse_pattern("1|2|3"))  # 220 sets > 10
    monkeypatch.delenv("VINCSTAT_LISTING_CAP")
    assert position_matrix(12, parse_pattern("1|2|3")).shape == (220, 3)


def test_enumeration_descent_small_and_worked_large():
    assert [
        ps.positions for ps in enumerate_position_sets(3, parse_pattern("2,1"))
    ] == [(1, 2), (2, 3)]
    big = parse_pattern("1,2,3|4,5|6,7")
    sets = list(enumerate_position_sets(11, big))
    assert position_count(11, big) == len(sets) == 35
    assert all(1 <= ps.positions[0] and ps.positions[-1] <= 11 for ps in sets)


def test_shift_bijection_fixes_classical_patterns():
    # Singleton blocks need no width correction, so for fully barred
    # patterns the shift is the identity map.
    p = parse_pattern("1|2|3")
    for I in [(2, 5, 9), (1, 2, 3), (3, 7, 8)]:
        assert shift_bijection(PositionSet(I, 9), p) == frozenset(I)


def test_count_occurrences_extremes():
    assert count_occurrences(Permutation.identity(5), parse_pattern("2,1")) == 0
    assert not occurs_at(
        Permutation.identity(4), parse_pattern("2,1").order, PositionSet((2, 3), 4)
    )
    assert count_occurrences(Permutation((3, 2, 1)), parse_pattern("2,1")) == 2
    assert count_occurrences(Permutation.identity(6), parse_pattern("1|2")) == comb(6, 2)


def _window_scan(sigma: Permutation, pattern) -> int:
    """Second oracle for single-block patterns: occurrences are exactly the
    contiguous windows whose reduction equals the pattern order."""
    k = pattern.size
    return sum(
        reduce_sequence(sigma.values[i : i + k]).values == pattern.order.values
        for i in range(sigma.size - k + 1)
    )


def test_single_block_patterns_match_window_scan():
    rows = sample_uniform_batch(9, seed=77, count=30)
    tight = [p for p in iter_patterns(3) if len(p.blocks) == 1]
    tight.append(parse_pattern("2,1"))
    for row in rows:
        sigma = Permutation(tuple(int(v) for v in row))
        for p in tight:
            assert count_occurrences(sigma, p) == _window_scan(sigma, p)


def _block_sets(pattern) -> list[set[int]]:
    values, out, pos = pattern.order.values, [], 0
    for b in pattern.blocks:
        out.append(set(values[pos : pos + b]))
        pos += b
    return out


def _path_shaped_by_definition(pattern) -> bool:
    """Every block an interval of values, every block wholly below its
    successor or wholly above it, the same way throughout."""
    blocks = _block_sets(pattern)
    if any(b != set(range(min(b), max(b) + 1)) for b in blocks):
        return False
    pairs = list(zip(blocks, blocks[1:]))
    return all(max(a) < min(b) for a, b in pairs) or all(min(a) > max(b) for a, b in pairs)


@pytest.mark.parametrize("text", ["2,1", "1,2", "3,2,1", "1,3,2", "2,4,1,3"])
def test_window_counts_on_raw_words_equal_counts_on_their_ranks(text):
    # count_windows reads only the order inside windows, so counting the
    # raw words of the word sampler equals counting their ranks.
    p = parse_pattern(text)
    for n in (p.size, 9, 300):
        for words in sample_words(n, seed=n, count=50, start=7, window=p.size):
            ranks = np.argsort(np.argsort(words, axis=1), axis=1) + 1
            got = count_windows(words, p)
            assert got.dtype == np.int32
            assert np.array_equal(got, count_rows(ranks, p, plan_count(n, p)))
    with pytest.raises(PatternError):
        count_windows(np.zeros((1, 5), dtype=np.uint64), parse_pattern("1|2"))


# The two-block patterns of size k <= 3: 1|2, 2|1 and every pattern of
# size 3 with one dash.
_CODE_PATTERNS = (
    "1|2", "2|1",
    "1|2,3", "1|3,2", "2|1,3", "2|3,1", "3|1,2", "3|2,1",
    "1,2|3", "1,3|2", "2,1|3", "2,3|1", "3,1|2", "3,2|1",
)


def _inversion_tables(rows):
    """c(p) = #{i < p : row(i) > row(p)} for each row, as int16."""
    codes = np.zeros(rows.shape, dtype=np.int16)
    for p in range(rows.shape[1]):
        codes[:, p] = (rows[:, :p] > rows[:, p : p + 1]).sum(axis=1)
    return codes


def _code_rows(rows, pattern):
    """The inversion tables count_codes reads for a pattern's counts in
    rows: those of the reversed rows when the singleton comes last."""
    singleton_last = len(pattern.block_values[0]) > 1
    return _inversion_tables(rows[:, ::-1] if singleton_last else rows)


def test_code_countable_patterns_are_the_fourteen_two_block_patterns_of_size_3():
    covered = {str(p) for k in range(1, 6) for p in iter_patterns(k) if code_countable(p)}
    assert covered == set(_CODE_PATTERNS)


@pytest.mark.parametrize("text", _CODE_PATTERNS)
def test_counts_from_inversion_tables_equal_counts_on_every_permutation(text):
    # The inversion table is a bijection from S_n, so this checks the
    # counter on every host of size n = 2..7.
    p = parse_pattern(text)
    for n in range(2, 8):
        rows = np.array(list(permutations(range(1, n + 1))), dtype=np.int16)
        got = count_codes(_code_rows(rows, p), p)
        assert got.dtype == np.int64
        assert np.array_equal(got, count_rows(rows, p, plan_count(n, p))), n


@pytest.mark.parametrize("text", _CODE_PATTERNS)
def test_counts_from_inversion_tables_equal_counts_on_large_hosts(text):
    p = parse_pattern(text)
    for n, seed in ((50, 1), (173, 2), (400, 3)):
        rows = sample_uniform_batch(n, seed, 40)
        assert np.array_equal(count_codes(_code_rows(rows, p), p), count_rows(rows, p, plan_count(n, p)))


def test_count_codes_refuses_other_patterns():
    for text in ("2,1", "1|2|3", "2,1|3,4", "1|3,2,4"):
        with pytest.raises(PatternError):
            count_codes(np.zeros((1, 5), dtype=np.int16), parse_pattern(text))


def test_path_shape_predicate_matches_its_definition():
    for k, expected in ((1, 1), (2, 4), (3, 16), (4, 70), (5, 342)):
        accepted = [p for p in iter_patterns(k) if is_path_shaped(p)]
        assert accepted == [p for p in iter_patterns(k) if _path_shaped_by_definition(p)]
        assert len(accepted) == expected
    # A single block is a value interval, so every window pattern qualifies.
    for text in ("3|1,2", "1|2", "2|1", "1|2|3", "3|2|1", "2,1|3|4", "4|3|1,2", "2,1", "1,3,2"):
        assert is_path_shaped(parse_pattern(text)), text
    # Not path-shaped: values not monotone across blocks, blocks that are
    # not value intervals.
    for text in ("1|3|2", "2,4|1,3", "1,3|2", "2|1|3"):
        assert not is_path_shaped(parse_pattern(text)), text


_PATH_SHAPED = [p for k in range(2, 6) for p in iter_patterns(k) if is_path_shaped(p)]


def test_sweep_equals_chain_kernel_on_every_path_shaped_pattern(monkeypatch):
    # Every covered pattern with k <= 5 at every n <= 12 (n < k included);
    # a small cell budget splits the 40 rows into several sub-chunks, and
    # two-block patterns are counted once more by the scan.
    monkeypatch.setattr(positions, "_SWEEP_CELLS", 64)
    for n in range(1, 13):
        perms = sample_uniform_batch(n, seed=n, count=40)
        for p in _PATH_SHAPED:
            sweep = count_occurrences_sweep(perms, p)
            assert sweep.dtype == np.int64
            chain = count_occurrences_batch(perms, p, position_matrix(n, p))
            assert sweep.tolist() == chain.tolist(), (p, n)
            if p.block_count == 2:
                with monkeypatch.context() as scan_all:
                    scan_all.setattr(positions, "_SCAN_MIN", 0)
                    assert count_occurrences_sweep(perms, p).tolist() == chain.tolist(), (p, n)


# Two-block path-shaped patterns, rising and falling, whose first block
# (the gap of the dominance step) has 1, 2 or 3 entries.  A first block of
# two or more leaves the sources whose window fails dead, at random.
_TWO_BLOCK = ("1|2", "2|1", "3|1,2", "1,2|3", "2,1|3,4", "4,5|3,1,2", "1,3,2|4", "5,4,3|1,2")


@pytest.mark.parametrize("popcount", ["numpy", "byte table"])
def test_scan_equals_dominance_across_word_boundaries(monkeypatch, popcount):
    # The scan keeps (n+1)//64 + 1 words per row and passes a dead source
    # as n+1, so n = 63 and 127 add a word that only dead sources use.
    # 26 rows take _dominance with 0/1 weights; _SCAN_MIN = 0 scans them.
    if popcount == "byte table":
        monkeypatch.setattr(positions, "_popcount", positions._byte_popcount)
    for n in (62, 63, 64, 65, 126, 127, 128, 129):
        perms = np.vstack([
            np.arange(1, n + 1), np.arange(n, 0, -1), sample_uniform_batch(n, seed=n, count=24)
        ]).astype(np.int16)
        for text in _TWO_BLOCK:
            p = parse_pattern(text)
            thin = count_occurrences_sweep(perms, p)
            with monkeypatch.context() as scan_all:
                scan_all.setattr(positions, "_SCAN_MIN", 0)
                for dtype in (np.int16, np.int32):
                    scan = count_occurrences_sweep(perms.astype(dtype), p)
                    assert scan.tolist() == thin.tolist(), (text, n, dtype)


def test_scan_copies_past_int16(monkeypatch):
    # At n = 2^15 - 1 a dead source, n+1, leaves int16, so the scan's copy
    # is int32.  1,2|3 occurs at every position set of the identity and
    # nowhere in its reverse, whose sources are all dead.
    n = 2**15 - 1
    p = parse_pattern("1,2|3")
    rows = np.stack([np.arange(1, n + 1), np.arange(n, 0, -1), sample_uniform_batch(n, 4, 1)[0]])
    thin = count_occurrences_sweep(rows, p)
    monkeypatch.setattr(positions, "_SCAN_MIN", 0)
    scan = count_occurrences_sweep(rows.astype(np.int32), p)
    assert scan.tolist() == thin.tolist()
    assert scan[:2].tolist() == [position_count(n, p), 0]
    # 3,2|1 runs on the complemented int16 rows, (n - sigma) + 1, which
    # stay in int16, and the copy is int32 again: its sources are all dead
    # in the identity and none are in its reverse, where it occurs at every
    # position set.
    falling = parse_pattern("3,2|1")
    scan = count_occurrences_sweep(rows[:2].astype(np.int16), falling)
    assert scan.tolist() == [0, position_count(n, falling)]
    # 2|1 is scanned on the complemented uint8 rows; the copy is int16,
    # which holds n+1 = 256 where uint8 could not.
    rows = sample_uniform_batch(255, seed=5, count=4)
    scan = count_occurrences_sweep(rows.astype(np.uint8), parse_pattern("2|1"))
    monkeypatch.undo()
    assert scan.tolist() == count_occurrences_sweep(rows, parse_pattern("2|1")).tolist()


_WINDOWS = [p for k in range(1, 6) for p in iter_patterns(k) if p.block_count == 1]


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.int64])
def test_window_counts_read_the_rows_as_given(dtype):
    # Every window pattern with k <= 5 (k = 1 included) at every n <= 12,
    # on rows of each integer dtype, against the chain kernel; n = 9
    # also against the window scan.  Counts come back as int64.
    assert len(_WINDOWS) == 1 + 2 + 6 + 24 + 120
    for n in range(1, 13):
        perms = sample_uniform_batch(n, seed=n, count=40)
        for p in _WINDOWS:
            counts = count_occurrences_sweep(perms.astype(dtype), p)
            assert counts.dtype == np.int64
            if n >= p.size:
                chain = count_occurrences_batch(perms, p, position_matrix(n, p))
            else:
                chain = np.zeros(len(perms), dtype=np.int64)
            assert counts.tolist() == chain.tolist(), (p, n)
            if n == 9:
                scan = [_window_scan(Permutation(tuple(map(int, row))), p) for row in perms[:4]]
                assert counts[:4].tolist() == scan, p


def test_falling_windows_on_uint8_rows_at_n_255(monkeypatch):
    # n + 1 = 256 does not fit in uint8, so nothing may compute n+1-sigma
    # in the rows' dtype; a falling window compares its entries in
    # ascending value order on the rows as they are.
    n = 255
    perms = sample_uniform_batch(n, seed=6, count=30)
    assert perms.max() == n
    for text in ("2,1", "3,2,1", "2,3,1", "3,1,2", "4,3,2,1", "5,2,4,1,3"):
        p = parse_pattern(text)
        assert p.order.values[0] > p.order.values[-1]  # falling
        counts = count_occurrences_sweep(perms.astype(np.uint8), p)
        chain = count_occurrences_batch(perms, p, position_matrix(n, p))
        assert counts.dtype == np.int64
        assert counts.tolist() == chain.tolist(), text
    # The _dominance steps read their row slices in the rows' own dtype,
    # complemented for a pattern whose blocks fall.  Two-block patterns are
    # counted once more by the scan.
    for text in ("1|2", "1,2|3", "1|2|3", "2,1|3|4", "2|1", "3|2,1", "3|2|1"):
        p = parse_pattern(text)
        expected = count_occurrences_sweep(perms.astype(np.int64), p).tolist()
        for dtype in (np.uint8, np.int16, np.int32, np.int64):
            counts = count_occurrences_sweep(perms.astype(dtype), p)
            assert counts.tolist() == expected, (text, dtype)
            if p.block_count == 2:
                with monkeypatch.context() as scan_all:
                    scan_all.setattr(positions, "_SCAN_MIN", 0)
                    scan = count_occurrences_sweep(perms.astype(dtype), p)
                    assert scan.tolist() == expected, (text, dtype)


def _reverse(p: VincularPattern) -> VincularPattern:
    return VincularPattern(
        Permutation(p.order.values[::-1]), composition_to_adjacencies(p.blocks[::-1])
    )


def _complement(p: VincularPattern) -> VincularPattern:
    k = p.size
    return VincularPattern(Permutation(tuple(k + 1 - v for v in p.order.values)), p.adjacencies)


def _counts(perms: np.ndarray, p: VincularPattern) -> list[int]:
    return count_rows(perms, p, plan_count(perms.shape[1], p)).tolist()


def test_counts_are_invariant_under_reverse_and_complement():
    # pi occurs in sigma at a position set exactly where reverse(pi)
    # occurs in reverse(sigma) at the mirrored set, and complement(pi) in
    # n+1-sigma; the maps take sweep-covered shapes to sweep-covered ones
    # and the rest to the chain kernel.  Every pattern with k <= 4.
    patterns = [p for k in range(1, 5) for p in iter_patterns(k)]
    for n in range(1, 11):
        perms = sample_uniform_batch(n, seed=20 + n, count=12)
        mirrored, flipped = perms[:, ::-1], n + 1 - perms
        for p in patterns:
            counts = _counts(perms, p)
            assert _counts(mirrored, _reverse(p)) == counts, (p, n)
            assert _counts(flipped, _complement(p)) == counts, (p, n)


def test_variance_polynomial_is_invariant_under_reverse_and_complement():
    # Both maps keep the law of the count, so they keep its variance
    # polynomial.  Every pattern with k <= 4; k = 1 has none, and the
    # pattern and its images are refused alike.
    for p in (p for k in range(1, 5) for p in iter_patterns(k)):
        images = (_reverse(p), _complement(p))
        if p.size < 2:
            for q in (p, *images):
                with pytest.raises(PatternTooSmall):
                    variance_polynomial(q)
            continue
        poly = variance_polynomial(p)
        for image in images:
            assert variance_polynomial(image) == poly, (p, image)


def test_sweep_hands_its_kernels_forward_rows(monkeypatch):
    # A pattern whose blocks fall runs on the complemented rows, which keep
    # every position, so on C-contiguous input every window test reads
    # C-contiguous rows and no step reads a view with a negative stride.
    # Every path-shaped pattern with j >= 2 and k <= 5, in a thin batch of
    # 8 rows and, with _SCAN_MIN = 0, in a thick one.
    handed = []
    for name in ("_window_match", "_dominance", "_two_block_scan"):

        def spy(*args, name=name, kernel=getattr(positions, name)):
            handed.extend((name, a) for a in args if isinstance(a, np.ndarray))
            return kernel(*args)

        monkeypatch.setattr(positions, name, spy)
    perms = sample_uniform_batch(12, seed=3, count=8)
    assert perms.flags.c_contiguous
    for scan_min in (positions._SCAN_MIN, 0):
        monkeypatch.setattr(positions, "_SCAN_MIN", scan_min)
        for p in (p for p in _PATH_SHAPED if p.block_count >= 2):
            handed.clear()
            count_occurrences_sweep(perms, p)
            assert handed, p
            for name, a in handed:
                assert min(a.strides) >= 0, (p, scan_min, name)
                assert name != "_window_match" or a.flags.c_contiguous, (p, scan_min)
    # An empty batch is not complemented, so its dtype need not hold n.
    empty = np.zeros((0, 300), dtype=np.uint8)
    assert count_occurrences_sweep(empty, parse_pattern("4,3|2,1")).shape == (0,)


def test_reverse_and_complement_tie_the_counters_together_at_n_300():
    # 128 rows at n = 300 are a thick batch, so 3|1,2 and its images are
    # scanned; the images are counted again in 8-row slices, on
    # _dominance.  The windows rise and fall, and 1|2|3 and 3|2|1 run the
    # _dominance steps on rows as given and on complemented rows.
    n = 300
    perms = sample_uniform_batch(n, seed=11, count=128)
    mirrored, flipped = perms[:, ::-1], n + 1 - perms
    for text in ("2,1", "3,2,1", "3|1,2", "1|2|3"):
        p = parse_pattern(text)
        counts = _counts(perms, p)
        for rows, image in ((mirrored, _reverse(p)), (flipped, _complement(p))):
            assert _counts(rows, image) == counts, (text, image)
            thin = [_counts(rows[lo : lo + 8], image) for lo in range(0, len(rows), 8)]
            assert sum(thin, []) == counts, (text, image)


@pytest.fixture
def scans(monkeypatch):
    """The (rows, n) of the batches count_occurrences_sweep hands the
    scan, read off the (starts, rows) sources and targets it prepares."""
    shapes = []
    scan = positions._two_block_scan

    def spy(x, y, gap, n):
        assert x.shape[1] == y.shape[1] and len(x) == n - gap + 1
        shapes.append((x.shape[1], n))
        return scan(x, y, gap, n)

    monkeypatch.setattr(positions, "_two_block_scan", spy)
    return shapes


def test_sweep_scans_thick_batches_only(scans):
    # 72 rows at n = 1600 are thick (72^3 * 1600 >= 2^28), 8 rows are not,
    # and three blocks always take _dominance.
    perms = sample_uniform_batch(1600, seed=2, count=72)
    p = parse_pattern("3|1,2")
    thick = count_occurrences_sweep(perms, p)
    assert scans == [(72, 1600)]
    thin = [count_occurrences_sweep(perms[lo : lo + 8], p) for lo in range(0, 72, 8)]
    count_occurrences_sweep(perms, parse_pattern("1|2|3"))
    assert scans == [(72, 1600)]
    assert thick.tolist() == np.concatenate(thin).tolist()


def test_byte_popcount_counts_set_bits():
    words = np.concatenate([
        np.array([0, 1, 2**63, 2**64 - 1, 0x5555555555555555], dtype=np.uint64),
        np.random.default_rng(3).integers(0, 2**64 - 1, 200, dtype=np.uint64, endpoint=True),
    ])
    assert positions._byte_popcount(words).tolist() == [bin(int(w)).count("1") for w in words]


def test_counts_over_all_value_orders_sum_to_the_position_count(scans):
    # Every admissible position set reduces to exactly one value order, so
    # for one composition the six counts of a row sum to position_count.
    # At n = 200, 144 rows put the four path-shaped orders of each
    # composition on the scan and the two others on the chain kernel.
    n = 200
    perms = sample_uniform_batch(n, seed=9, count=144)
    for layout in ("{}|{},{}", "{},{}|{}"):
        total = np.zeros(len(perms), dtype=np.int64)
        for values in permutations((1, 2, 3)):
            tau = parse_pattern(layout.format(*values))
            total += count_rows(perms, tau, plan_count(n, tau))
        assert total.tolist() == [position_count(n, tau)] * len(perms), layout
    assert scans == [(144, n)] * 8


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_PATH_SHAPED), st.integers(1, 11), st.data())
def test_sweep_matches_occurs_at(pattern, n, data):
    sigma = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
    hits = sum(occurs_at(sigma, pattern.order, I) for I in enumerate_position_sets(n, pattern))
    assert count_occurrences_sweep(np.array([sigma.values]), pattern).tolist() == [hits]


def test_sweep_covers_hosts_beyond_the_listing_cap():
    # 1|2 at n = 2000 has 1 999 000 position sets, past the default cap:
    # every pair of the identity rises, none of its reverse, and a sampled
    # row is checked against a direct pair count.
    n = 2000
    rows = np.stack([np.arange(1, n + 1), np.arange(n, 0, -1), sample_uniform_batch(n, 4, 1)[0]])
    counts = count_occurrences_sweep(rows, parse_pattern("1|2"))
    r = rows[2]
    assert counts[:2].tolist() == [comb(n, 2), 0]
    assert counts[2] == int(np.triu(r[:, None] < r[None, :], 1).sum())


def test_sweep_rejects_bad_shapes_rows_and_sizes(monkeypatch):
    rows = sample_uniform_batch(8, seed=1, count=3)
    for text in ("1,3|2", "1|3|2"):
        with pytest.raises(PatternError):
            count_occurrences_sweep(rows, parse_pattern(text))
    # The values index a histogram: reals and out-of-range entries are refused.
    for bad in (rows / 9.0, rows - 1, rows + 1):
        with pytest.raises(NotAPermutation):
            count_occurrences_sweep(bad, parse_pattern("3|1,2"))
    # binom(10^5, 5) > 2^63 - 1: refused before any counting.
    wide = parse_pattern("1|2|3|4|5")
    assert position_count(100_000, wide) > 2**63 - 1
    with pytest.raises(SizeLimitExceeded, match="overflow"):
        count_occurrences_sweep(np.arange(1, 100_001)[None, :], wide)
    # The listing cap bounds the n - k + 1 window starts: 6 for 3|1,2 at n = 8.
    monkeypatch.setenv("VINCSTAT_LISTING_CAP", "6")
    assert count_occurrences_sweep(rows, parse_pattern("3|1,2")).shape == (3,)
    monkeypatch.setenv("VINCSTAT_LISTING_CAP", "5")
    with pytest.raises(SizeLimitExceeded, match="listing cap"):
        count_occurrences_sweep(rows, parse_pattern("3|1,2"))
