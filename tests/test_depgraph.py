import time
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vincstat import depgraph
from vincstat.config import DEFAULT_VERTEX_CAP
from vincstat.errors import (
    BadOrder,
    BoundOverflow,
    DegenerateInput,
    NonPositiveDelta,
    NonPositiveInput,
    SizeLimitExceeded,
)
from vincstat.depgraph import (
    cumulant_bound,
    graph_summary,
    saulis_bound,
    stein_bound,
)
from vincstat.moments import variance_polynomial
from vincstat.patterns import Permutation, VincularPattern, parse_pattern
from vincstat.positions import enumerate_position_sets, position_count


def _brute_summary(n, pattern):
    """Materialize the graph: D = max number of sets meeting a given one
    (itself included), edges = intersecting pairs."""
    sets = [frozenset(I.positions) for I in enumerate_position_sets(n, pattern)]
    meets = [sum(1 for other in sets if other & mine) for mine in sets]
    edges = sum(1 for a, b in combinations(sets, 2) if a & b)
    return len(sets), max(meets), edges


def test_sliding_window_example():
    s = graph_summary(5, parse_pattern("2,1"))
    assert (s.N, s.D) == (4, 3)
    assert s.j == 1
    assert s.edge_count == 3  # windows {1,2},{2,3},{3,4},{4,5}: the 3 adjacent pairs


def test_mixed_pattern_example():
    # At n=8 the busiest vertex meets 20 of the 21 sets; brute-forced below.
    s = graph_summary(8, parse_pattern("3|1,2"))
    assert (s.N, s.D, s.edge_count) == (21, 20, 165)


def test_matches_brute_force():
    texts = ("2,1", "1|2", "3|1,2", "2,1|3", "1,2|3,4", "4|1,3|2", "1|2|3", "2|1,4,3")
    for text in texts:
        p = parse_pattern(text)
        for n in range(p.size, 12):
            s = graph_summary(n, p)
            N, D, edges = _brute_summary(n, p)
            assert s.N == N == position_count(n, p), (text, n)
            assert s.D == D, (text, n)
            assert s.edge_count == edges, (text, n)


@st.composite
def _mixed_patterns(draw):
    """Patterns with 2 <= j < k <= 6 (neither window nor classical), so
    graph_summary takes the gap-composition scan, and an extra n - k <= 8."""
    k = draw(st.integers(3, 6))
    cuts = draw(st.sets(st.integers(1, k - 1), min_size=1, max_size=k - 2))
    order = Permutation(tuple(draw(st.permutations(range(1, k + 1)))))
    pattern = VincularPattern(order, frozenset(range(1, k)) - cuts)
    return pattern, draw(st.integers(0, 8))


@settings(max_examples=60, deadline=None)
@given(_mixed_patterns())
def test_scan_matches_brute_force_property(case):
    p, extra = case
    assert 2 <= p.block_count < p.size
    n = p.size + extra
    s = graph_summary(n, p)
    assert (s.N, s.D, s.edge_count) == _brute_summary(n, p), (p, n)


def _weak_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first, *rest)


def _reference_min_avoid(n, pattern):
    """The smallest e_0' T[g_0] ... T[g_j] e_j over every weak composition
    (g_0..g_j) of n-k, where T[L][a][b] = binom(L - size + b - a, b - a)
    places blocks a+1..b (total size `size`) into a free run of length L."""
    blocks, j = pattern.blocks, pattern.block_count
    free = n - pattern.size

    def entry(length, a, b):
        size = sum(blocks[a:b])
        return comb(length - size + b - a, b - a) if b >= a and length >= size else 0

    tables = [[[entry(L, a, b) for b in range(j + 1)] for a in range(j + 1)]
              for L in range(free + 1)]
    best = None
    for gaps in _weak_compositions(free, j + 1):
        row = [1] + [0] * j
        for g in gaps:
            row = [sum(row[a] * tables[g][a][b] for a in range(j + 1)) for b in range(j + 1)]
        best = row[j] if best is None else min(best, row[j])
    return best


def test_degree_matches_composition_reference(monkeypatch):
    # j = 2..5 with n - k up to 20; a level budget of 7 cells also builds
    # every DP level in slices of one or two rows.  Either way each row
    # of the last level, one per weak composition of at most n-k into
    # j-1 runs, is folded exactly once.
    cases = [("3|1,2", 23), ("2,1|3", 23), ("1|3,2", 20), ("4|1,3|2", 24),
             ("2,1|3|4", 24), ("2|1,4,3|5", 20), ("1,2|3|4|5", 19),
             ("3,1|2|5|4", 16), ("1,2|3|4|5|6", 16)]
    folded = Counter()
    fold = depgraph._fold_last_two

    def counting_fold(level, sums, table):
        folded.update(sums.tolist())
        return fold(level, sums, table)

    monkeypatch.setattr(depgraph, "_fold_last_two", counting_fold)
    for cells in (depgraph._LEVEL_CELLS, 7):
        monkeypatch.setattr(depgraph, "_LEVEL_CELLS", cells)
        for text, n in cases:
            p = parse_pattern(text)
            j, free = p.block_count, n - p.size
            assert 2 <= j < p.size and free <= 20
            folded.clear()
            s = graph_summary(n, p)
            assert s.D == s.N - _reference_min_avoid(n, p), (text, n, cells)
            assert folded == {t: comb(t + j - 2, j - 2) for t in range(free + 1)}


@pytest.mark.parametrize("text, n, D", [
    ("3|1,2", 4473, 22345),
    ("2,1|3|4", 393, 525560),
    ("1,2|3|4|5", 122, 2284590),
    ("1,2|3|4|5|6", 68, 5837832),
])
def test_degree_at_the_vertex_cap_pinned(text, n, D):
    # 8.5M to 10M vertices, under the default cap, at j = 2..5: fast, and
    # in little memory.
    p = parse_pattern(text)
    assert 8 * 10**6 < position_count(n, p) <= DEFAULT_VERTEX_CAP
    start = time.perf_counter()
    assert graph_summary(n, p).D == D
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        graph_summary(n, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 2.0, elapsed
    assert peak <= 64 << 20, peak


def test_large_scan_pinned():
    # 540 274 vertices, and an edge count above 2^33.
    start = time.perf_counter()
    s = graph_summary(150, parse_pattern("2,1|3|4"))
    elapsed = time.perf_counter() - start
    assert (s.N, s.D, s.edge_count) == (540274, 73094, 14223414681)
    assert elapsed < 1.0, elapsed


def test_classical_graph_is_regular():
    # Every vertex of a classical pattern's graph has the same degree.
    p = parse_pattern("1|2|3")
    n = 9
    s = graph_summary(n, p)
    sets = [frozenset(I.positions) for I in enumerate_position_sets(n, p)]
    degrees = {sum(1 for other in sets if other & mine) for mine in sets}
    assert degrees == {s.D}
    assert s.D == position_count(n, p) - comb(n - 3, 3)
    # Handshake: N * deg = 2 * edges + N (each vertex meets itself once).
    assert s.N * s.D == 2 * s.edge_count + s.N


def test_degree_doubling_ratios():
    # D(2n)/D(n) approaches 2^(j-1): constant for one block, ~2 for two
    # blocks, ~4 for three.
    for text, j in (("2,1", 1), ("1|2", 2), ("1|2|3", 3)):
        p = parse_pattern(text)
        for n in (60, 120):
            ratio = graph_summary(2 * n, p).D / graph_summary(n, p).D
            assert abs(ratio / 2 ** (j - 1) - 1) < 0.15, (text, n, ratio)


def test_large_window_graph_skips_edge_count():
    s = graph_summary(100_000_001, parse_pattern("2,1"))
    assert s.D == 3
    assert s.N == 100_000_000
    assert s.edge_count == 99_999_999


def test_vertex_cap_applies_to_mixed_patterns(monkeypatch):
    monkeypatch.setenv("VINCSTAT_VERTEX_CAP", "5")
    with pytest.raises(SizeLimitExceeded):
        graph_summary(8, parse_pattern("3|1,2"))
    monkeypatch.delenv("VINCSTAT_VERTEX_CAP")
    assert graph_summary(8, parse_pattern("3|1,2")).N == 21


def test_degenerate_host():
    with pytest.raises(DegenerateInput):
        graph_summary(2, parse_pattern("3|1,2"))


def test_stein_bound_plug_ins():
    assert stein_bound(1, 1, 1.0, 1.0) == pytest.approx(16.0)
    assert stein_bound(4, 1, 1.0, 4.0) == pytest.approx(8.0)
    # Scaling in B: quadratic term + cubic term.
    assert stein_bound(1, 1, 2.0, 1.0) == pytest.approx(8 * 4 + 8 * 8)


def test_cumulant_bound_plug_ins():
    assert cumulant_bound(2, 5, 1, 1.0) == pytest.approx(10.0)
    assert cumulant_bound(3, 1, 1, 1.0) == pytest.approx(12.0)
    assert cumulant_bound(1, 7, 3, 1.0) == pytest.approx(7.0)  # 2^0 * 1^(-1) * 7


def test_saulis_bound_plug_ins():
    from math import sqrt

    assert saulis_bound(0.0, 6.0 / sqrt(2)) == pytest.approx(108.0)
    assert saulis_bound(0.0, 600.0 / sqrt(2)) == pytest.approx(1.08)
    # Larger gamma weakens the rate: same delta, bigger bound (delta ratio > 1).
    assert saulis_bound(1.0, 600.0 / sqrt(2)) > saulis_bound(0.0, 600.0 / sqrt(2))


def test_bound_monotonicity_in_dependence():
    weak = stein_bound(1000, 2, 1.0, 50.0)
    strong = stein_bound(1000, 8, 1.0, 50.0)
    assert strong > weak
    assert cumulant_bound(3, 1000, 8, 1.0) > cumulant_bound(3, 1000, 2, 1.0)


def test_bound_argument_validation():
    with pytest.raises(NonPositiveInput):
        stein_bound(0, 1, 1.0, 1.0)
    with pytest.raises(NonPositiveInput):
        stein_bound(1, 1, 1.0, 0.0)
    with pytest.raises(BadOrder):
        cumulant_bound(0, 1, 1, 1.0)
    with pytest.raises(NonPositiveInput):
        cumulant_bound(2, 1, -3, 1.0)
    with pytest.raises(NonPositiveDelta):
        saulis_bound(0.5, 0.0)
    with pytest.raises(NonPositiveInput):
        saulis_bound(-0.5, 1.0)
    # NaN passed every `<= 0` test, and inf gave an unprintable bound.
    nan, inf = float("nan"), float("inf")
    for bad in (nan, inf):
        with pytest.raises(NonPositiveInput):
            stein_bound(10, 3, 1.0, bad)
        with pytest.raises(NonPositiveInput):
            stein_bound(10, 3, bad, 1.0)
        with pytest.raises(NonPositiveInput):
            cumulant_bound(3, 10, 3, bad)
        with pytest.raises(NonPositiveInput):
            saulis_bound(bad, 1.0)
        with pytest.raises(NonPositiveDelta):
            saulis_bound(0.5, bad)
    with pytest.raises(NonPositiveInput):
        cumulant_bound(2, nan, 1, 1.0)
    # Finite inputs whose bound leaves the float range.
    with pytest.raises(BoundOverflow):
        cumulant_bound(200, 10, 100_000, 1.0)
    with pytest.raises(BoundOverflow):
        cumulant_bound(2, 10, 1, 1e200)
    with pytest.raises(BoundOverflow):
        stein_bound(10, 3, 1.0, 1e-300)
    with pytest.raises(BoundOverflow):
        saulis_bound(0.0, 5e-324)


def test_stein_rate_for_adjacent_descent():
    # With exact N, D and variance, the bound for "2,1" decays like
    # n^(-1/2); the fitted log-log slope should sit near -0.5.
    p = parse_pattern("2,1")
    poly = variance_polynomial(p)
    ns = [100, 1000, 10_000, 100_000]
    values = []
    for n in ns:
        s = graph_summary(n, p)
        values.append(stein_bound(s.N, s.D, 1.0, float(poly.evaluate(n))))
    slope = np.polyfit(np.log(ns), np.log(values), 1)[0]
    assert -0.6 < slope < -0.4


def test_classical_pair_graph_frozen():
    # "1|2" at n=5: vertices are the 10 two-subsets; {i, j} meets the
    # 4 + 4 - 1 = 7 subsets (itself included) that hit i or j, so the
    # graph is 6-regular with 30 edges.
    s = graph_summary(5, parse_pattern("1|2"))
    assert (s.N, s.D, s.edge_count) == (10, 7, 30)


def test_single_vertex_graphs():
    # n = k leaves exactly one admissible set and no edges.
    for text in ("2,1", "1|2", "3|1,2"):
        p = parse_pattern(text)
        s = graph_summary(p.size, p)
        assert (s.N, s.D, s.edge_count) == (1, 1, 0)


def test_cumulant_bound_low_order_plug_ins():
    # r = 1: 2^0 1^(-1) N D^0 B = N; r = 2: 2 N D B^2.
    assert cumulant_bound(1, 10, 2, 1.0) == pytest.approx(10.0)
    assert cumulant_bound(2, 10, 2, 1.0) == pytest.approx(40.0)


def test_stein_bound_variance_doubling():
    # Doubling sigma2 divides the first term by 2 and the second by
    # 2^(3/2), so the ratio of bounds lands strictly between the two.
    lo, hi = stein_bound(1000, 5, 1.0, 2 * 50.0), stein_bound(1000, 5, 1.0, 50.0)
    assert 2.0 < hi / lo < 2 ** 1.5
