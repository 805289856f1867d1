from fractions import Fraction

import pytest

from vincstat.errors import (
    BadWindow,
    DegenerateInput,
    NotAdmissible,
    SizeLimitExceeded,
)
from vincstat.moments import conditional_block_expectation, exact_variance_at, expectation
from vincstat.oracle import (
    brute_force_distribution,
    brute_force_moments,
    conditional_formula_check,
    discrete_suffix_covariances,
    pinned_suffix_probabilities,
    total_variance_check,
)
from vincstat.oracle import _pinned_marginal
from vincstat.patterns import iter_patterns, parse_pattern
from vincstat.positions import PositionSet, enumerate_position_sets


def test_distribution_textbook_cases():
    # Descents of S_3 (Eulerian 1,4,1) and inversions of S_3 (Mahonian 1,2,2,1).
    assert brute_force_distribution(parse_pattern("2,1"), 3) == {
        0: Fraction(1, 6),
        1: Fraction(2, 3),
        2: Fraction(1, 6),
    }
    assert brute_force_distribution(parse_pattern("1|2"), 3) == {
        0: Fraction(1, 6),
        1: Fraction(1, 3),
        2: Fraction(1, 3),
        3: Fraction(1, 6),
    }
    assert brute_force_distribution(parse_pattern("3|1,2"), 4) == {
        0: Fraction(5, 8),
        1: Fraction(1, 4),
        2: Fraction(1, 8),
    }


def test_distributions_are_probability_measures():
    for text, n in (("2,1", 5), ("3|1,2", 6), ("1|2|3", 5)):
        dist = brute_force_distribution(parse_pattern(text), n)
        assert sum(dist.values()) == 1
        assert all(p > 0 for p in dist.values())


def test_brute_moments_match_exact_formulas():
    # A slice of the full battery (which runs in the acceptance suite).
    for p in iter_patterns(3):
        for n in (3, 5, 6):
            mean, var = brute_force_moments(p, n)
            assert mean == expectation(p, n), (str(p), n)
            assert var == exact_variance_at(p, n), (str(p), n)


def test_oracle_size_cap(monkeypatch):
    with pytest.raises(SizeLimitExceeded):
        brute_force_distribution(parse_pattern("2,1"), 10)
    monkeypatch.setenv("VINCSTAT_ORACLE_MAX_N", "3")
    with pytest.raises(SizeLimitExceeded):
        brute_force_moments(parse_pattern("2,1"), 4)


def test_negative_host_size_is_degenerate(monkeypatch):
    # Checked before the cap, whatever the cap is.
    with pytest.raises(DegenerateInput):
        brute_force_moments(parse_pattern("2,1"), -1)
    monkeypatch.setenv("VINCSTAT_ORACLE_MAX_N", "-5")
    with pytest.raises(DegenerateInput):
        brute_force_distribution(parse_pattern("2,1"), -1)


def test_total_variance_decomposition_small_case():
    # Descents at n = 4, conditioning on the last value, both terms checked
    # against the by-hand conditional means (1 + (4-v)/3 for v = 1..4).
    r = total_variance_check(parse_pattern("2,1"), 4, 1)
    assert r.variance == Fraction(5, 12)
    assert r.terms == (Fraction(5, 36), Fraction(5, 18))
    assert r.total == r.variance
    assert len(r.labels) == 2

    r2 = total_variance_check(parse_pattern("2,1"), 4, 2)
    assert r2.terms == (Fraction(5, 36), Fraction(1, 9), Fraction(1, 6))


def test_total_variance_edge_depths():
    p = parse_pattern("2,1")
    r0 = total_variance_check(p, 4, 0)
    assert r0.terms == (Fraction(5, 12),)  # everything is residual
    r_full = total_variance_check(p, 4, 4)
    assert r_full.terms[-1] == 0  # conditioning on all values leaves nothing
    with pytest.raises(BadWindow):
        total_variance_check(p, 4, 5)
    with pytest.raises(BadWindow):
        total_variance_check(p, 4, -1)


def test_total_variance_terms_nonnegative_and_residual_monotone():
    for text, n in (("2,1", 5), ("3|1,2", 6), ("1|2", 5)):
        p = parse_pattern(text)
        residuals = []
        for c in range(0, 4):
            r = total_variance_check(p, n, c)
            assert all(t >= 0 for t in r.terms), (text, c)
            assert sum(r.terms, Fraction(0)) == r.variance
            residuals.append(r.terms[-1])
        # Conditioning on more can only explain more.
        assert all(a >= b for a, b in zip(residuals, residuals[1:])), text


def test_conditional_formula_against_simulation():
    report = conditional_formula_check(
        parse_pattern("3|1,2"), n=8, m=0, i=1, trials=3, seed=42, inner_samples=20_000
    )
    assert len(report.trials) == 3
    assert report.max_z < 4.5
    for trial in report.trials:
        assert trial.formula >= 0
        assert trial.std_error >= 0
        # Re-deriving the closed form for the drawn pins must agree.
        assert trial.formula == conditional_block_expectation(
            parse_pattern("3|1,2"), 8, 0, 1, trial.pinned
        )


def test_discrete_suffix_conditioning_is_correlated():
    # Both sets end with the host's last two positions; their only overlap
    # is inside the conditioned suffix, yet the without-replacement pool
    # couples them: Cov = L(L-4)/48 with L low values left, nonzero for
    # most suffixes.
    p = parse_pattern("1|2,3")
    covs = discrete_suffix_covariances(
        p, 6, PositionSet((1, 5, 6), 6), PositionSet((2, 5, 6), 6)
    )
    assert len(covs) == 30
    for (v5, v6), cov in covs.items():
        if v5 < v6:
            L = v5 - 1
            assert cov == Fraction(L * (L - 4), 48)
        else:
            assert cov == 0
    assert any(cov != 0 for cov in covs.values())


def test_pinned_suffix_conditioning_is_independent():
    # Same geometry, continuous regime: pin the last two uniforms and the
    # joint probability factors exactly.
    p = parse_pattern("2|4|1,3")
    I = PositionSet((2, 4, 6, 7), 8)
    J = PositionSet((3, 5, 7, 8), 8)
    p_i, p_j, joint = pinned_suffix_probabilities(
        p, 8, I, J, (Fraction(1, 5), Fraction(3, 5))
    )
    assert (p_i, p_j, joint) == (
        Fraction(2, 125),
        Fraction(4, 25),
        Fraction(8, 3125),
    )
    assert joint == p_i * p_j


def test_pinned_suffix_independence_many_pins():
    # Randomized pins (exact rationals) over a few geometries: the product
    # rule holds every time the overlap stays inside the pinned suffix.
    import random

    rng = random.Random(99)
    cases = [
        ("2|4|1,3", 8, (2, 4, 6, 7), (3, 5, 7, 8), 2),
        ("1|2,3", 7, (1, 6, 7), (4, 6, 7), 2),
        ("3|1,2", 9, (2, 8, 9), (5, 8, 9), 2),
        ("1|2", 6, (2, 6), (4, 6), 1),
    ]
    for text, n, I, J, pins in cases:
        p = parse_pattern(text)
        for _ in range(6):
            pinned = []
            while len(set(pinned)) != pins:
                pinned = [Fraction(rng.randrange(1, 60), 60) for _ in range(pins)]
            p_i, p_j, joint = pinned_suffix_probabilities(
                p, n, PositionSet(I, n), PositionSet(J, n), pinned
            )
            assert joint == p_i * p_j, (text, pinned)


def test_pinned_suffix_zero_marginal_short_circuits():
    # Pins in the wrong relative order for the pattern tail.
    p = parse_pattern("1|2,3")
    p_i, p_j, joint = pinned_suffix_probabilities(
        p,
        7,
        PositionSet((1, 6, 7), 7),
        PositionSet((4, 6, 7), 7),
        (Fraction(2, 3), Fraction(1, 3)),  # decreasing, but the tail rises
    )
    assert (p_i, p_j, joint) == (0, 0, 0)


def test_pinned_suffix_rejects_outside_overlap():
    p = parse_pattern("1|2,3")
    with pytest.raises(NotAdmissible):
        pinned_suffix_probabilities(
            p,
            7,
            PositionSet((1, 6, 7), 7),
            PositionSet((1, 5, 6), 7),  # shares position 1, outside the pins
            (Fraction(1, 2), Fraction(3, 4)),
        )


def test_pinned_suffix_rejects_repeated_or_out_of_range_pins():
    p = parse_pattern("1|2,3")
    I = PositionSet((1, 6, 7), 7)
    J = PositionSet((4, 6, 7), 7)
    for pins in (
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(-1, 3), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(4, 3)),
    ):
        with pytest.raises(BadWindow):
            pinned_suffix_probabilities(p, 7, I, J, pins)
    # The ends of [0, 1] are allowed pins; here they leave the free entry
    # of each set the whole interval.
    ends = (Fraction(0), Fraction(1))
    assert pinned_suffix_probabilities(parse_pattern("2|1,3"), 7, I, J, ends) == (1, 1, 1)


def test_pinned_marginals_sum_to_conditional_expectation():
    # Summing P(X_I = 1 | pins) over every set ending at the last position
    # reproduces the closed-form conditional expectation with the whole
    # final block pinned.
    p = parse_pattern("5|4|2,3,1")
    n = 10
    pins = [Fraction(3, 10), Fraction(9, 20), Fraction(1, 8)]  # positions 8, 9, 10
    u = tuple(float(x) for x in reversed(pins))  # decreasing position order
    total = Fraction(0)
    for I in enumerate_position_sets(n, p):
        if I.positions[-1] == n:
            total += _pinned_marginal(p.order.values, I.positions, n, pins)
    formula = conditional_block_expectation(p, n, 0, p.last_block_size - 1, u)
    assert float(total) == pytest.approx(formula, rel=1e-12)


def test_brute_moments_frozen_values():
    assert brute_force_moments(parse_pattern("2,1"), 3) == (1, Fraction(1, 3))
    assert brute_force_moments(parse_pattern("1|2"), 3) == (
        Fraction(3, 2),
        Fraction(11, 12),
    )
    # Host smaller than the pattern: the count is identically zero.
    assert brute_force_moments(parse_pattern("3|1,2"), 2) == (0, 0)
    assert brute_force_distribution(parse_pattern("1|2|3"), 1) == {0: Fraction(1)}
