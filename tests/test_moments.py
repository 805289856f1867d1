import random
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from vincstat.errors import BadWindow, DegenerateInput, PatternTooSmall, SizeLimitExceeded
from vincstat.moments import (
    _extension_count,
    _overlap_classes,
    _rank_masks,
    conditional_block_expectation,
    exact_variance_at,
    expectation,
    joint_probability,
    variance_polynomial,
)
from vincstat.patterns import Permutation, iter_patterns, parse_pattern
from vincstat.positions import enumerate_position_sets, position_count


def test_expectation_examples():
    assert expectation(parse_pattern("3|1,2"), 5) == 1
    assert expectation(parse_pattern("2,1"), 4) == Fraction(3, 2)
    assert expectation(parse_pattern("2,1"), 1) == 0
    assert expectation(parse_pattern("1|2|3"), 7) == Fraction(35, 6)


def test_rank_masks():
    assert _rank_masks((1, 2, 5), (2, 5, 6)) == (4, (1, 2, 3), (2, 3, 4))
    assert _rank_masks((2, 5, 6), (1, 2, 5)) == (4, (2, 3, 4), (1, 2, 3))


def test_joint_probability_hand_checked():
    # Identical sets: the joint is the marginal 1/k!.
    pi312 = Permutation((3, 1, 2))
    assert joint_probability((2, 3, 4), (2, 3, 4), pi312) == Fraction(1, 6)
    # Two adjacent descents sharing their middle point: sigma_1 > sigma_2 > sigma_3.
    chain = (1, 2), (2, 3)
    assert joint_probability(*chain, Permutation((2, 1))) == Fraction(1, 6)
    assert joint_probability(*chain, Permutation((2, 1))) - Fraction(1, 4) == Fraction(-1, 12)
    assert joint_probability(*chain, Permutation((1, 2))) - Fraction(1, 4) == Fraction(-1, 12)


def test_joint_probability_checks_the_set_sizes():
    # Disjoint sets are independent; sets of the wrong size, or with a
    # repeated position, are refused.
    pi = Permutation((2, 1, 3))
    assert joint_probability((1, 2, 3), (4, 5, 6), pi) == Fraction(1, 36)
    for I, J in (((1, 2), (2, 3, 4)), ((1, 2, 3), (2, 3, 4, 5)), ((1, 1, 2), (2, 3, 4))):
        with pytest.raises(ValueError):
            joint_probability(I, J, pi)


def test_joint_probability_has_no_union_size_limit():
    # A k = 6 class with t = 11 under the default limits: the two chains
    # 1 < ... < 6 and 6 < ... < 11 leave a single linear extension.
    I, J = (1, 2, 3, 4, 5, 6), (6, 7, 8, 9, 10, 11)
    identity = Permutation((1, 2, 3, 4, 5, 6))
    assert joint_probability(I, J, identity) == Fraction(1, 39916800)
    assert joint_probability(I, J, identity) - Fraction(1, 720**2) == (
        Fraction(1, 39916800) - Fraction(1, 720**2)
    )


def test_negative_host_size_is_rejected():
    p = parse_pattern("2,1")
    for n in (-1, -5):
        with pytest.raises(DegenerateInput):
            expectation(p, n)
        with pytest.raises(DegenerateInput):
            exact_variance_at(p, n)
    assert expectation(p, 0) == 0 and exact_variance_at(p, 0) == 0


def test_joint_probability_brute_force_cross_check():
    # Re-derive a few joints by direct iteration over relative orders,
    # sidestepping the linear-extension count.
    cases = [
        (Permutation((2, 1, 3)), (1, 2, 4), (2, 4, 5)),
        (Permutation((3, 1, 2)), (1, 3, 4), (3, 4, 6)),
        (Permutation((1, 2)), (2, 3), (3, 4)),
        (Permutation((2, 3, 1)), (1, 2, 3), (2, 3, 5)),
    ]
    for pi, I, J in cases:
        t, i_mask, j_mask = _rank_masks(I, J)
        hits = 0
        for order in permutations(range(1, t + 1)):
            ok = True
            for mask in (i_mask, j_mask):
                window = [order[r - 1] for r in mask]
                ranks = sorted(range(len(window)), key=lambda q: window[q])
                got = [0] * len(window)
                for rank, idx in enumerate(ranks, start=1):
                    got[idx] = rank
                if tuple(got) != pi.values:
                    ok = False
                    break
            if ok:
                hits += 1
        assert joint_probability(I, J, pi) == Fraction(hits, factorial(t))


def test_joint_bounds_and_symmetry_over_real_pairs():
    # joint in [0, 1/k!], symmetric under swapping the two sets.
    for text, n in (("3|1,2", 7), ("2,1|3", 7), ("1|2|3", 6)):
        p = parse_pattern(text)
        sets = [I.positions for I in enumerate_position_sets(n, p)]
        upper = Fraction(1, factorial(p.size))
        seen = 0
        for A, B in combinations(sets, 2):
            if not set(A) & set(B):
                continue
            joint = joint_probability(A, B, p.order)
            assert 0 <= joint <= upper
            assert joint_probability(B, A, p.order) == joint
            seen += 1
        assert seen > 10


def test_exact_variance_small_values():
    assert exact_variance_at(parse_pattern("2,1"), 3) == Fraction(1, 3)
    assert exact_variance_at(parse_pattern("2,1"), 2) == Fraction(1, 4)
    assert exact_variance_at(parse_pattern("1|2"), 2) == Fraction(1, 4)
    assert exact_variance_at(parse_pattern("1|2"), 3) == Fraction(11, 12)
    assert exact_variance_at(parse_pattern("3|1,2"), 2) == 0  # no admissible sets


def test_variance_polynomial_adjacent_descent():
    poly = variance_polynomial(parse_pattern("2,1"))
    assert poly.coefficients == (Fraction(1, 12), Fraction(1, 12))  # (n+1)/12
    assert poly.degree == 1
    assert poly.valid_from == 2
    assert poly.leading_coefficient == Fraction(1, 12)


def test_variance_polynomial_classical_inversion():
    poly = variance_polynomial(parse_pattern("1|2"))
    # n(n-1)(2n+5)/72
    assert poly.coefficients == (
        Fraction(0),
        Fraction(-5, 72),
        Fraction(1, 24),
        Fraction(1, 36),
    )
    assert poly.valid_from == 0
    assert poly.evaluate(0) == 0 and poly.evaluate(1) == 0


def test_variance_polynomial_leading_coefficients():
    assert variance_polynomial(parse_pattern("3|1,2")).leading_coefficient == Fraction(1, 60)
    assert variance_polynomial(parse_pattern("1|2|3")).leading_coefficient == Fraction(13, 7200)


def test_polynomial_matches_exact_beyond_nodes():
    # The expanded polynomial must match the class sum at every n from
    # valid_from on, including the hosts too small for some classes.
    for text in ("2,1", "1|2", "3|1,2", "2,1|3", "1,2|3"):
        p = parse_pattern(text)
        poly = variance_polynomial(p)
        j = p.block_count
        n0 = max(2 * (p.size - j), p.size)
        stop = max(n0 + 2 * j + 4, poly.valid_from + 11)
        for n in range(poly.valid_from, stop):
            assert poly.evaluate(n) == exact_variance_at(p, n), (text, n)


def test_degree_and_growth_bound():
    # Degree exactly 2j-1 with positive lead, and the crude envelope
    # (lead + 1) n^(2j-1) dominates for every n >= k sampled up to 1e6.
    for text in ("2,1", "1|2", "3|1,2", "1|2|3", "2,1|3,4"):
        p = parse_pattern(text)
        poly = variance_polynomial(p)
        j = p.block_count
        assert poly.degree == 2 * j - 1
        lead = poly.leading_coefficient
        assert lead > 0
        for n in (p.size, 10, 100, 1000, 31623, 1_000_000):
            value = poly.evaluate(n)
            assert value >= 0
            assert value <= (lead + 1) * n ** (2 * j - 1)


def test_variance_nonnegative_on_validity_range():
    for text in ("2,1", "1|2", "3|1,2", "2,1|3"):
        p = parse_pattern(text)
        poly = variance_polynomial(p)
        for n in range(poly.valid_from, 20):
            assert poly.evaluate(n) >= 0


def test_size_guards():
    with pytest.raises(PatternTooSmall):
        variance_polynomial(parse_pattern("1"))
    with pytest.raises(SizeLimitExceeded):
        exact_variance_at(parse_pattern("1|2|3|4|5|6"), 7)
    # The unsafe escape hatch admits k = 6 (kept tiny so it stays fast).
    v = exact_variance_at(parse_pattern("1|2|3|4|5|6"), 7, unsafe=True)
    assert v > 0


def test_conditional_block_expectation_worked_example():
    p = parse_pattern("5|4|2,3,1")
    assert conditional_block_expectation(p, 10, 0, 1, (0.2, 0.6)) == pytest.approx(0.672)
    # Pinned values whose relative order contradicts the pattern tail.
    assert conditional_block_expectation(p, 10, 0, 1, (0.6, 0.2)) == 0.0


def test_conditional_block_expectation_single_pin():
    # One pinned value at the last position: 21 placements, four free
    # entries all above the pattern's minimum.
    p = parse_pattern("5|4|2,3,1")
    x = 0.5
    expected = comb(7, 2) * (1 - x) ** 4 / factorial(4)
    assert conditional_block_expectation(p, 10, 0, 0, (x,)) == pytest.approx(expected)


def test_conditional_integrates_to_unconditional():
    # Averaging over the pinned last value recovers the expected number of
    # occurrences whose final entry sits exactly at position n.
    for text, n in (("5|4|2,3,1", 10), ("3|1,2", 8), ("2,1", 6)):
        p = parse_pattern(text)
        j = p.block_count
        ending_here = comb(n - p.size + j - 1, j - 1)
        target = ending_here / factorial(p.size)
        integral, err = quad(
            lambda x: conditional_block_expectation(p, n, 0, 0, (x,)), 0.0, 1.0
        )
        assert integral == pytest.approx(target, abs=max(1e-9, 10 * err))


def test_conditional_window_validation():
    p = parse_pattern("5|4|2,3,1")
    with pytest.raises(BadWindow):
        conditional_block_expectation(p, 10, 1, 0, (0.2, 0.4))  # m > i
    with pytest.raises(BadWindow):
        conditional_block_expectation(p, 10, 0, 3, (0.1, 0.2, 0.3, 0.4))  # i > b_j - 1
    with pytest.raises(BadWindow):
        conditional_block_expectation(p, 10, 0, 1, (0.2,))  # wrong length
    with pytest.raises(BadWindow):
        conditional_block_expectation(p, 10, 0, 1, (0.2, 1.6))  # outside [0, 1]
    with pytest.raises(BadWindow):
        conditional_block_expectation(p, 10, 0, 1, (0.2, 0.2))  # duplicate pins


def test_small_host_conditional_is_zero():
    # Not enough room to the left of the window: no placements.
    p = parse_pattern("5|4|2,3,1")
    assert conditional_block_expectation(p, 4, 0, 0, (0.5,)) == 0.0


def test_mean_matches_brute_force_average():
    # Exhaustive S_n average equals position_count / k!.
    from vincstat.positions import count_occurrences

    p = parse_pattern("3|1,2")
    n = 6
    total = 0
    for values in permutations(range(1, n + 1)):
        total += count_occurrences(Permutation(values), p)
    assert Fraction(total, factorial(n)) == expectation(p, n)
    assert expectation(p, n) == Fraction(position_count(n, p), 6)


def test_expectation_tiny_hosts():
    assert expectation(parse_pattern("2,1"), 3) == 1
    assert expectation(parse_pattern("1|2"), 3) == Fraction(3, 2)


def test_variance_of_single_indicator():
    # I = J: the covariance is Var(X_I) = p(1 - p) with p = 1/k!.
    same = (4, 5), (4, 5)
    assert joint_probability(*same, Permutation((2, 1))) - Fraction(1, 4) == Fraction(1, 4)
    same3 = (2, 5, 6), (2, 5, 6)
    assert joint_probability(*same3, Permutation((3, 1, 2))) - Fraction(1, 36) == (
        Fraction(1, 6) * Fraction(5, 6)
    )


def _joint_by_order_scan(masks: tuple, pi: Permutation) -> Fraction:
    """Independent joint probability of the overlap class masks =
    (t, i_mask, j_mask): iterate every relative order of the union and
    test both windows directly."""
    t, i_mask, j_mask = masks
    hits = 0
    for order in permutations(range(1, t + 1)):
        ok = True
        for mask in (i_mask, j_mask):
            window = [order[r - 1] for r in mask]
            ranks = sorted(range(len(window)), key=lambda q: window[q])
            got = [0] * len(window)
            for rank, idx in enumerate(ranks, start=1):
                got[idx] = rank
            if tuple(got) != pi.values:
                ok = False
                break
        if ok:
            hits += 1
    return Fraction(hits, factorial(t))


def test_random_concrete_pairs_collapse_onto_few_classes():
    # Many concrete pairs at one host size reuse a handful of
    # translation-invariant overlap classes, and every covariance agrees
    # with a direct scan over relative orders of the union.
    import random

    p = parse_pattern("3|1,2")
    sets = [I.positions for I in enumerate_position_sets(15, p)]
    rng = random.Random(3)
    pairs = []
    while len(pairs) < 100:
        A, B = rng.sample(sets, 2)
        if set(A) & set(B):
            pairs.append((A, B))
    keys = set()
    expected = Fraction(1, factorial(3))
    for A, B in pairs:
        t, i_mask, j_mask = masks = _rank_masks(A, B)
        # Covariance is symmetric in the two sets: key the class up to a swap.
        keys.add((t,) + tuple(sorted((i_mask, j_mask))))
        assert joint_probability(A, B, p.order) - expected**2 == (
            _joint_by_order_scan(masks, p.order) - expected**2
        )
    assert len(keys) < 15


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.data())
def test_joint_probability_matches_order_scan(k, data):
    # Random intersecting position sets whose union has at most 7 entries:
    # J keeps `shared` entries of I and adds k - shared others.
    I = data.draw(st.sets(st.integers(1, 9), min_size=k, max_size=k))
    shared = data.draw(st.integers(max(1, 2 * k - 7), k))
    kept = data.draw(st.sets(st.sampled_from(sorted(I)), min_size=shared, max_size=shared))
    others = sorted(set(range(1, 10)) - I)
    added = data.draw(st.sets(st.sampled_from(others), min_size=k - shared, max_size=k - shared))
    pi = Permutation(tuple(data.draw(st.permutations(list(range(1, k + 1))))))
    J = tuple(kept | added)
    masks = _rank_masks(tuple(I), J)
    assert masks[0] <= 7
    assert joint_probability(tuple(I), J, pi) == _joint_by_order_scan(masks, pi)


def test_joint_probability_matches_order_scan_on_every_walked_class():
    # Every class the variance walk yields, the k = 4 ones with unions of
    # up to 7 ranks included, against the direct scan over relative orders.
    for text in ("1|3|2", "2,1|3|4"):
        p = parse_pattern(text)
        for t, i_mask, j_mask, _, _ in _overlap_classes(p, 2 * p.size - 1):
            masks = (t, i_mask, j_mask)
            assert _rank_masks(i_mask, j_mask) == masks, (text, masks)
            assert joint_probability(i_mask, j_mask, p.order) == (
                _joint_by_order_scan(masks, p.order)
            ), (text, masks)


def test_extensions_summed_over_the_other_order_are_t_factorial_over_k_factorial():
    # Beyond the order scan's reach: fix pi on one chain and let the other
    # take every order tau.  In a uniform order of the union, the window
    # on one set reads pi with probability 1/k! and the other window reads
    # exactly one tau, so both sums are t!/k! on every class, whatever its
    # shared ranks.
    p = parse_pattern("3|1,5|2,6|4")
    k, pi = p.size, p.order.values
    orders = list(permutations(range(1, k + 1)))
    classes = list(_overlap_classes(p, 2 * k - 1))
    assert len(classes) == 498
    for t, i_mask, j_mask, _, _ in classes:
        target = factorial(t) // factorial(k)
        on_j = sum(_extension_count(pi, tau, i_mask, j_mask) for tau in orders)
        on_i = sum(_extension_count(tau, pi, i_mask, j_mask) for tau in orders)
        assert on_j == on_i == target, (t, i_mask, j_mask)


def test_shared_ranks_in_opposite_orders_have_zero_joint():
    # Under 1,3,2 the first set orders its ranks 1 < 3 < 2 and the second
    # 2 < 4 < 3: the shared ranks 2 and 3 come in opposite orders.
    I, J = (1, 2, 3), (2, 3, 4)
    assert joint_probability(I, J, Permutation((1, 3, 2))) == 0
    assert _joint_by_order_scan(_rank_masks(I, J), Permutation((1, 3, 2))) == 0


def _fractions(*texts: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(q) for q in texts)


def test_k6_variance_polynomial_pinned():
    # Beyond the brute-force oracle's reach. The coefficients were computed
    # with a DP over prefix pairs of the two chains, not the binomial product.
    poly = variance_polynomial(parse_pattern("3|1|5|2|6|4"), unsafe=True)
    assert poly.valid_from == 0
    assert poly.coefficients == _fractions(
        "0", "-57727/4191264000", "260207/11430720000", "-686999/91445760000",
        "-61919/18289152000", "3019/1306368000", "-49843/104509440000",
        "23123/243855360000", "-593/24385536000", "47/14631321600",
        "-197/731566080000", "29/1149603840000",
    )


def test_k7_variance_polynomial_pinned(monkeypatch):
    monkeypatch.setenv("VINCSTAT_MAX_K", "7")
    poly = variance_polynomial(parse_pattern("3|1|5|2|6|4|7"))
    assert poly.valid_from == 0
    assert poly.coefficients == _fractions(
        "0", "1755267347/1308982042368000", "-1108453/447068160000",
        "1671340109/1380904132608000", "1929773/26336378880000",
        "-472193413/2711593569484800", "7755551/316036546560000",
        "123763933/18981154986393600", "-266219/105345515520000",
        "347327/645617516544000", "-37937/386266890240000",
        "1644823/149137646321664000", "-30817/45193226158080000",
        "26233/969394701090816000",
    )


def _variance_by_pair_sum(pattern, n: int) -> Fraction:
    """Independent variance: the covariance summed over every ordered
    pair of intersecting admissible sets at host size n."""
    sets = [I.positions for I in enumerate_position_sets(n, pattern)]
    kfact = factorial(pattern.size)
    total = len(sets) * (Fraction(1, kfact) - Fraction(1, kfact * kfact))
    by_element: dict[int, list[int]] = {}
    for idx, positions in enumerate(sets):
        for p in positions:
            by_element.setdefault(p, []).append(idx)
    for idx, positions in enumerate(sets):
        partners = set()
        for p in positions:
            partners.update(by_element[p])
        for other in partners:
            if other > idx:
                joint = joint_probability(positions, sets[other], pattern.order)
                total += 2 * (joint - Fraction(1, kfact**2))
    return total


def test_class_sum_matches_pair_sum():
    rng = random.Random(7)
    patterns = [p for k in (2, 3, 4) for p in rng.sample(list(iter_patterns(k)), 3)]
    for p in patterns:
        for n in range(p.size - 1, 13, 3):
            assert exact_variance_at(p, n) == _variance_by_pair_sum(p, n), (str(p), n)


def test_each_unordered_class_is_visited_once():
    # Expanded by its multiplicity (the class itself, plus its swap when
    # the masks differ), the walk gives exactly the ordered classes that
    # concrete pairs realize at n = 2k-1, where every union size fits.
    for text in ("2,1", "1|2", "3|1,2", "1|3|2", "2,1|3|4", "1|2|3|4"):
        p = parse_pattern(text)
        n = 2 * p.size - 1
        ordered = []
        for t, i_mask, j_mask, _, mult in _overlap_classes(p, n):
            masks = (t, i_mask, j_mask)
            assert i_mask <= j_mask, (text, masks)
            assert mult == (1 if i_mask == j_mask else 2), (text, masks)
            ordered += [masks] if mult == 1 else [masks, (t, j_mask, i_mask)]
        sets = [I.positions for I in enumerate_position_sets(n, p)]
        realized = {_rank_masks(A, B) for A in sets for B in sets if set(A) & set(B)}
        assert len(ordered) == len(set(ordered)), text
        assert set(ordered) == realized, text


def test_exact_variance_at_huge_host_is_fast():
    # The class sum does not grow with n: the classical k = 5 pattern at
    # n = 10^6 agrees with its polynomial and takes milliseconds.
    p = parse_pattern("3|1|5|2|4")
    started = time.perf_counter()
    value = exact_variance_at(p, 10**6)
    elapsed = time.perf_counter() - started
    assert value == variance_polynomial(p).evaluate(10**6)
    assert elapsed < 1.0
