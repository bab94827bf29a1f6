"""Closed-form counts, the two upper bounds, and the inequality chain."""
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbhood import (
    KIND_CONDENSED,
    KIND_SUPER_CONDENSED,
    RangeError,
    alignment_profile_bound,
    alphabet_of_size,
    binom_ext,
    bound_report,
    bound_table_rows,
    brute_force_enumerate,
    check_bound_lemmas,
    closed_form_bound_exact,
    count,
    make_word,
    unary_condensed_count,
    unary_super_condensed_count,
)
from nbhood import counting
from nbhood.counting import PANEL_CLOSED_FORM, PANEL_PROFILE, TABLE_LENGTHS, LemmaCheck


def test_binom_ext_edge_table():
    assert binom_ext(5, 2) == 10
    assert binom_ext(0, 0) == 1
    # choosing zero items counts one way even from a "negative" pool
    assert binom_ext(-1, 0) == 1
    assert binom_ext(-2, 0) == 1
    assert binom_ext(3, -1) == 0
    assert binom_ext(2, 3) == 0
    assert binom_ext(-3, 2) == 0


@given(st.integers(0, 40), st.integers(0, 40))
def test_binom_ext_matches_comb_in_standard_range(n, k):
    assert binom_ext(n, k) == comb(n, k)


def test_unary_range_validation():
    # one bad field each; a bad length is named before any other field
    for args, message in [
        ((-1, 0, 2), "word length must be nonnegative, got -1"),
        ((-1, -5, 0), "word length must be nonnegative, got -1"),
        ((3, -1, 2), "distance must be nonnegative, got -1"),
        ((3, 4, 2), "distance 4 exceeds word length 3"),
        ((3, 1, 0), "alphabet size must be at least 1, got 0"),
    ]:
        for formula in (unary_condensed_count, unary_super_condensed_count):
            with pytest.raises(RangeError) as info:
                formula(*args)
            assert str(info.value) == message, (formula.__name__, args)


def test_unary_counts_at_distance_zero():
    assert unary_condensed_count(5, 0, 3) == 1
    assert unary_super_condensed_count(5, 0, 3) == 1


def test_unary_counts_match_oracle():
    for s in (2, 3):
        alphabet = alphabet_of_size(s)
        for w in range(1, 5):
            q = make_word("a" * w, alphabet)
            for d in range(0, w + 1):
                cn = brute_force_enumerate(q, d, alphabet, KIND_CONDENSED).count
                scn = brute_force_enumerate(q, d, alphabet, KIND_SUPER_CONDENSED).count
                assert unary_condensed_count(w, d, s) == cn, (w, d, s)
                assert unary_super_condensed_count(w, d, s) == scn, (w, d, s)


@settings(deadline=None, max_examples=10)
@given(st.integers(1, 1000), st.integers(0, 3), st.integers(2, 4))
@example(1000, 3, 4)
@example(1000, 3, 2)
@example(1, 3, 3)
def test_long_unary_condensed_counts_match_the_formula(w, d, s):
    # far past the oracle's reach: the walk counts a^1000 in milliseconds
    d = min(d, w)
    alphabet = alphabet_of_size(s)
    got = count(make_word("a" * w, alphabet), d, alphabet, KIND_CONDENSED)
    assert got == unary_condensed_count(w, d, s)


@settings(deadline=None, max_examples=4)
@given(st.integers(1, 40), st.integers(0, 3), st.integers(2, 4))
@example(40, 3, 4)
def test_unary_super_condensed_counts_match_the_formula(w, d, s):
    # the free-start rows multiply the states: a^40 at d = 3 takes most of
    # a second, and a^100 tens of seconds
    d = min(d, w)
    alphabet = alphabet_of_size(s)
    got = count(make_word("a" * w, alphabet), d, alphabet, KIND_SUPER_CONDENSED)
    assert got == unary_super_condensed_count(w, d, s)


def test_unary_counts_at_the_degenerate_boundary():
    # at d = w both neighborhoods collapse to the empty word alone, so the
    # count is 1; note comb(w-1, w) = 0, so the binomial shortcut for the
    # super-condensed count stops at d = w - 1
    for w in (1, 2, 3, 6):
        assert unary_condensed_count(w, w, 2) == 1
        assert unary_super_condensed_count(w, w, 2) == 1


@given(st.integers(1, 12))
def test_binary_specializations(w):
    for d in range(1, w + 1):
        assert unary_condensed_count(w, d, 2) == comb(w, d)
    for d in range(1, w):
        assert unary_super_condensed_count(w, d, 2) == comb(w - 1, d)


def test_profile_bound_values_and_range():
    assert alignment_profile_bound(4, 1, 2) == 11
    assert alignment_profile_bound(8, 2, 2) == 238
    assert alignment_profile_bound(5, 0, 2) == 1
    with pytest.raises(RangeError):
        alignment_profile_bound(4, 4, 2)
    with pytest.raises(RangeError):
        alignment_profile_bound(4, -1, 2)
    with pytest.raises(RangeError):
        alignment_profile_bound(4, 1, 0)


def test_profile_bound_equals_its_double_sum():
    # the defining sum over (i, j), one binomial product per term
    def binom(n, k):
        return 1 if k == 0 else comb(n, k) if 0 < k <= n else 0

    for w in range(1, 30):
        for d in range(w):
            for s in (1, 2, 3):
                expected = sum(
                    binom(w, i) * (s - 1) ** (d - i) * binom(w - i - 1, j)
                    * binom(w + d - 2 * i - 2 * j - 1, d - i - j)
                    for i in range(d + 1) for j in range(d - i + 1)
                )
                assert alignment_profile_bound(w, d, s) == expected, (w, d, s)


def test_closed_form_bound_is_exact():
    assert closed_form_bound_exact(8, 4, 2) == 13824
    assert closed_form_bound_exact(8, 5, 2) == Fraction(331776, 5)
    with pytest.raises(RangeError):
        closed_form_bound_exact(4, 5, 2)


def test_bound_report_fields():
    r = bound_report(8, 5, 2)
    assert r.profile_bound == 18738
    assert r.closed_form_floor == 66355
    assert r.closed_form_exact == Fraction(331776, 5)
    top = bound_report(6, 6, 2)
    assert top.profile_bound is None
    assert top.closed_form_floor == 47239
    assert top.closed_form_exact == Fraction(3**6 * 6**6, 720)


def test_bound_table_shape_and_spot_cells():
    rows = bound_table_rows()
    assert len(rows) == 48
    assert [p for p, _, _, _ in rows[:24]] == [PANEL_PROFILE] * 24
    assert [p for p, _, _, _ in rows[24:]] == [PANEL_CLOSED_FORM] * 24
    cells = {(p, w, d): v for p, w, d, v in rows}
    assert len(cells) == 48
    assert {w for _, w, _, _ in rows} == set(TABLE_LENGTHS)
    assert cells[(PANEL_PROFILE, 4, 1)] == 11
    assert cells[(PANEL_PROFILE, 10, 9)] == 2827055
    assert cells[(PANEL_CLOSED_FORM, 6, 5)] == 15746
    assert cells[(PANEL_CLOSED_FORM, 10, 7)] == 4339285
    # profile rows stop one short of w, closed-form rows reach it
    for w in TABLE_LENGTHS:
        assert [d for p, ww, d, _ in rows if p == PANEL_PROFILE and ww == w] == list(
            range(1, w)
        )
        assert [
            d for p, ww, d, _ in rows if p == PANEL_CLOSED_FORM and ww == w
        ] == list(range(1, w))


@given(st.integers(2, 15), st.integers(2, 4))
def test_profile_bound_never_exceeds_closed_form(w, s):
    for d in range(1, w):
        assert alignment_profile_bound(w, d, s) <= closed_form_bound_exact(w, d, s)


def test_lemma_chain_report_structure():
    report = check_bound_lemmas(9, 4, 3)
    assert report.all_passed
    assert not report.failing()
    names = [c.name for c in report.checks]
    assert names == [
        "expansion_identity",
        "shifted_square_bound",
        "shifted_quartic_bound",
        "binomial_pair_bound",
        "gap_layout_bound",
        "central_sum_bound",
        "chain_dominance",
    ]
    assert all(c.passed for c in report.checks)


def test_lemma_chain_degenerate_gap_layout():
    # at d = w the gap-layout inequality has an empty hypothesis range
    report = check_bound_lemmas(5, 5, 2)
    assert report.all_passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["gap_layout_bound"].tested == ()
    assert by_name["gap_layout_bound"].passed
    assert by_name["chain_dominance"].tested == ()


def test_lemma_chain_range_validation():
    with pytest.raises(RangeError):
        check_bound_lemmas(5, 0, 2)
    with pytest.raises(RangeError):
        check_bound_lemmas(5, 6, 2)
    with pytest.raises(RangeError):
        check_bound_lemmas(5, 2, 1)


# Each lemma as the paper states it, in exact rationals: the reference for
# the checks in counting, which compare integers with the denominators cleared.
def _half_sums(w, d):
    return Fraction(2 * w + d + 1, 2), Fraction(2 * w - d + 3, 2)


def _ref_expansion_identity(w, d, s):
    lhs = sum(
        Fraction((s - 1) ** (d - x) * 2 ** (d - x) * w**d, factorial(x) * factorial(d - x))
        for x in range(d + 1)
    )
    ok = lhs == closed_form_bound_exact(w, d, s)
    return LemmaCheck("expansion_identity", ((w, d, s),), () if ok else ((w, d, s),))


def _ref_shifted_square_bound(w, d):
    a, b = _half_sums(w, d)
    ts = [Fraction(d, 4)]
    ts.extend(Fraction(t) for t in range((d + 3) // 4, d) if Fraction(t) != Fraction(d, 4))
    failures = tuple(t for t in ts if (w - t + 1) ** 2 > a * b)
    return LemmaCheck("shifted_square_bound", tuple(ts), failures)


def _ref_shifted_quartic_bound(w, d):
    a, b = _half_sums(w, d)
    ts = tuple(range(d // 4 + 1))
    failures = tuple(
        t for t in ts if Fraction((w + 2 * t) * (w + 2 * t - 1)) * (w - t + 1) ** 2 > a**3 * b
    )
    return LemmaCheck("shifted_quartic_bound", ts, failures)


def _ref_binomial_pair_bound(w, d):
    a, b = _half_sums(w, d)
    js = tuple(range(d + 1))
    failures = tuple(
        j
        for j in js
        if binom_ext(w, j) * binom_ext(w + d - 2 * j, d - j)
        > a ** (d - j) * b**j / (factorial(j) * factorial(d - j))
    )
    return LemmaCheck("binomial_pair_bound", js, failures)


def _ref_central_sum_bound(w, d):
    lhs = sum(binom_ext(w, j) * binom_ext(w + d - 2 * j, d - j) for j in range(d + 1))
    ok = lhs <= Fraction(2**d * (w + 1) ** d, factorial(d))
    return LemmaCheck("central_sum_bound", ((w, d),), () if ok else ((w, d),))


def _ref_chain_dominance(w, d, s, layouts):
    if d >= w:
        return LemmaCheck("chain_dominance", (), ())
    relaxed = sum(n * (s - 1) ** (d - x) for x, n in enumerate(layouts))
    ok = alignment_profile_bound(w, d, s) <= relaxed <= closed_form_bound_exact(w, d, s)
    return LemmaCheck("chain_dominance", ((w, d, s),), () if ok else ((w, d, s),))


def test_stepped_layout_counts_match_their_binomial_sums():
    for w in range(40):
        for d in range(w):
            direct = tuple(
                binom_ext(w, x) * sum(
                    binom_ext(w - x - 1, j) * binom_ext(w + d - x - 2 * j - 1, d - x - j)
                    for j in range(d - x + 1)
                )
                for x in range(d + 1)
            )
            assert counting._relaxed_layouts(w, d) == direct, (w, d)
        assert counting._relaxed_layouts(w, w) == ()


def test_integer_lemma_checks_match_their_rational_statements():
    # far outside the lemmas' hypotheses too, where about half the checks
    # fail: no verdict may flip, even where 2w - d + 3 < 0
    cases = []
    for w in range(30):
        for d in range(3 * w + 8):
            cases.append((counting._shifted_square_bound, _ref_shifted_square_bound, (w, d)))
            cases.append((counting._shifted_quartic_bound, _ref_shifted_quartic_bound, (w, d)))
            cases.append((counting._binomial_pair_bound, _ref_binomial_pair_bound, (w, d)))
            cases.append((counting._central_sum_bound, _ref_central_sum_bound, (w, d)))
        # the closed form, and so both s-dependent checks, needs d <= w
        for d in range(w + 1):
            layouts = counting._relaxed_layouts(w, d)
            for s in range(1, 5):
                cases.append((counting._expansion_identity, _ref_expansion_identity, (w, d, s)))
                cases.append(
                    (counting._chain_dominance, _ref_chain_dominance, (w, d, s, layouts))
                )
    mismatches = [
        (check.__name__, args[:3]) for check, ref, args in cases if check(*args) != ref(*args)
    ]
    assert mismatches == []
