"""Acceptance gate: eight criteria, one printed verdict line per criterion.

Each test prints PASS/FAIL directly to the terminal (bypassing capture) and
then asserts its criterion. Three criteria hold only up to a boundary point,
and each checks that point outright against its true value:

- criterion 1: cell (a, 6, 5) of the profile-bound table is 2989, the value
  of its defining double sum, recomputed here with ``math.comb`` alone;
- criterion 3: the super-condensed shortcut comb(w-1, d) holds for d < w;
  at d = w the neighborhood collapses to the empty word, so the count is 1;
- criterion 5: condensed members sit at distance exactly d for d <= |W|;
  for d > |W| the condensed set is exactly the empty word.
"""
import itertools
import random
import time
from math import comb

import pytest

from nbhood import (
    INSERTION,
    KIND_CONDENSED,
    KIND_FULL,
    KIND_SUPER_CONDENSED,
    MATCH,
    alignment_order_key,
    alignment_profile_bound,
    alphabet_of_size,
    bound_report,
    bound_table_rows,
    check_bound_lemmas,
    count,
    enumerate_condensed,
    enumerate_full,
    enumerate_optimal_alignments,
    enumerate_super_condensed,
    leftmost_optimal_alignment,
    levenshtein,
    make_word,
    unary_condensed_count,
    unary_super_condensed_count,
)
from nbhood.neighborhood import _oracle

A2 = alphabet_of_size(2)
A3 = alphabet_of_size(3)

ENUM_BY_KIND = {
    KIND_FULL: enumerate_full,
    KIND_CONDENSED: enumerate_condensed,
    KIND_SUPER_CONDENSED: enumerate_super_condensed,
}

# Reference values for both bound tables, alphabet size 2, lengths 4/6/8/10,
# distances 1..w-1. The (a, 6, 5) entry is 2989: its defining double sum has
# terms 873, 1170, 675, 220, 45, 6 for i = 0..5, and no binomial there has a
# negative argument. A reading of 2988 for that cell is an erratum; criterion
# 1 recomputes the cell from that sum with math.comb alone.
REFERENCE_TABLE = {
    ("a", 4): (11, 48, 111),
    ("a", 6): (17, 125, 528, 1463, 2989),
    ("a", 8): (23, 238, 1473, 6151, 18738, 44681, 89617),
    ("a", 10): (29, 387, 3162, 17800, 73968, 238937, 628931, 1413016, 2827055),
    ("b", 4): (12, 72, 288),
    ("b", 6): (18, 162, 972, 4374, 15746),
    ("b", 8): (24, 288, 2304, 13824, 66355, 265420, 910014),
    ("b", 10): (30, 450, 4500, 33750, 202500, 1012500, 4339285, 16272321, 54241071),
}


@pytest.fixture
def announce(capsys):
    def go(num, ok, detail):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")

    return go


def reference_cells():
    return {
        (panel, w, d): value
        for (panel, w), values in REFERENCE_TABLE.items()
        for d, value in enumerate(values, start=1)
    }


def profile_sum_by_comb(w, d):
    """Panel-a cell: sum_i C(w,i) sum_j C(w-i-1,j) C(w+d-2i-2j-1, d-i-j), s = 2.

    Written from the definition with math.comb only, independent of
    nbhood.counting; every argument is nonnegative for 1 <= d < w.
    """
    return sum(
        comb(w, i)
        * sum(
            comb(w - i - 1, j) * comb(w + d - 2 * i - 2 * j - 1, d - i - j)
            for j in range(d - i + 1)
        )
        for i in range(d + 1)
    )


def binary_query_words():
    """All 62 nonempty binary words of length at most 5."""
    return [
        make_word("".join(chars), A2)
        for n in range(1, 6)
        for chars in itertools.product("ab", repeat=n)
    ]


def seeded_ternary_cases(n=50, seed=20260819):
    rng = random.Random(seed)
    cases = set()
    while len(cases) < n:
        length = rng.randint(1, 4)
        text = "".join(rng.choice("abc") for _ in range(length))
        cases.add((text, rng.randint(0, 2)))
    return [(make_word(text, A3), d) for text, d in sorted(cases)]


def test_criterion_1_reference_table_reproduction(announce):
    start = time.perf_counter()
    computed = {(p, w, d): v for p, w, d, v in bound_table_rows()}
    elapsed = time.perf_counter() - start
    reference = reference_cells()
    assert set(computed) == set(reference)
    mismatches = sorted(k for k in reference if computed[k] != reference[k])
    ok = not mismatches and elapsed < 1.0
    announce(
        1,
        ok,
        f"bound tables, {48 - len(mismatches)}/48 reference cells match, "
        f"{elapsed:.2f}s",
    )
    assert elapsed < 1.0
    # the corrected cell is backed by its defining sum, not by the program
    assert reference[("a", 6, 5)] == profile_sum_by_comb(6, 5) == 2989
    assert not mismatches, "cells disagreeing with the reference: " + "; ".join(
        f"panel {p} w={w} d={d}: computed {computed[(p, w, d)]}, "
        f"reference {reference[(p, w, d)]}"
        for p, w, d in mismatches
    )


def test_criterion_2_unary_formulas_match_oracle(announce):
    start = time.perf_counter()
    bad = []
    cases = 0
    for s, w_max in ((2, 7), (3, 5)):
        alphabet = alphabet_of_size(s)
        for w in range(1, w_max + 1):
            q = make_word("a" * w, alphabet)
            for d in range(1, w + 1):
                oracle = _oracle(q, d, alphabet)
                cn = len(oracle[KIND_CONDENSED])
                scn = len(oracle[KIND_SUPER_CONDENSED])
                cases += 1
                if unary_condensed_count(w, d, s) != cn:
                    bad.append(("condensed", w, d, s, cn))
                if unary_super_condensed_count(w, d, s) != scn:
                    bad.append(("super-condensed", w, d, s, scn))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    announce(2, ok, f"unary counts vs oracle, {cases} cases, {elapsed:.1f}s")
    assert elapsed < 30.0
    assert not bad, f"formula/oracle splits: {bad}"


def test_criterion_3_binary_binomial_shortcuts(announce):
    start = time.perf_counter()
    bad = []
    points = 0
    for w in range(1, 31):
        for d in range(1, w + 1):
            points += 1
            if unary_condensed_count(w, d, 2) != comb(w, d):
                bad.append(("condensed", w, d))
            # comb(w-1, d) holds for d < w; at d = w the neighborhood is
            # exactly {empty word}, so the count is 1 while comb(w-1, w) = 0
            want = comb(w - 1, d) if d < w else 1
            if unary_super_condensed_count(w, d, 2) != want:
                bad.append(("super-condensed", w, d))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    announce(3, ok, f"binomial shortcuts at sigma=2, {points} points, {elapsed:.2f}s")
    assert points == 465
    assert elapsed < 1.0
    assert not bad, "shortcut points off their value: " + ", ".join(
        f"{kind} w={w} d={d}" for kind, w, d in bad
    )


def test_criterion_4_enumerators_match_oracle(announce):
    start = time.perf_counter()
    binary = binary_query_words()
    assert len(binary) == 62
    cases = [(q, d, A2) for q in binary for d in (0, 1, 2)]
    cases += [(q, d, A3) for q, d in seeded_ternary_cases()]
    bad = []
    for q, d, alphabet in cases:
        oracle = _oracle(q, d, alphabet)
        for kind, enum in ENUM_BY_KIND.items():
            got = [x.text for x in enum(q, d, alphabet).words]
            if got != oracle[kind]:
                bad.append((q.text, d, kind))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60.0
    announce(
        4,
        ok,
        f"enumerators vs oracle, {len(cases)} cases x 3 kinds, {elapsed:.1f}s",
    )
    assert elapsed < 60.0
    assert not bad, f"enumerator/oracle splits: {bad}"


def test_criterion_5_condensed_members_at_exact_distance(announce):
    bad = []
    members = 0
    for q in binary_query_words():
        for d in (1, 2):
            words = enumerate_condensed(q, d, A2).words
            members += len(words)
            if d > len(q):
                # the empty word is within d and a prefix of every word, so
                # the condensed set is {empty word}, at distance |W| < d
                texts = [x.text for x in words]
                if texts != [""]:
                    bad.append((q.text, d, f"condensed set {texts}, want ['']"))
                continue
            for x in words:
                actual = levenshtein(x, q)
                if actual != d:
                    bad.append((q.text, d, f"member {x.text!r} at distance {actual}"))
    ok = not bad
    announce(5, ok, f"condensed members at exact distance, {members} members")
    assert not bad, "condensed sets off their claim: " + ", ".join(
        f"W={w!r} d={d}: {what}" for w, d, what in bad
    )


def test_criterion_6_leftmost_alignment_structure(announce):
    bad = []
    members = 0
    for q in binary_query_words():
        for d in (0, 1, 2):
            for x in enumerate_condensed(q, d, A2).words:
                members += 1
                best = min(
                    enumerate_optimal_alignments(q, x), key=alignment_order_key
                )
                al = leftmost_optimal_alignment(q, x)
                if alignment_order_key(al) != alignment_order_key(best):
                    bad.append(("selection", q.text, d, x.text))
                    continue
                if not x.text:
                    continue
                bottoms = [i for i, c in enumerate(al.columns) if c.bottom is not None]
                # columns right of the member's last character hold no bottom
                # char, so they are all deletions; a match there is therefore
                # a match with the query's last non-deleted character
                last = al.columns[bottoms[-1]]
                if last.kind != MATCH:
                    bad.append(("final-column-not-a-match", q.text, d, x.text))
                if len(bottoms) > 1 and al.columns[bottoms[-2]].kind == INSERTION:
                    bad.append(("second-to-last-is-an-insertion", q.text, d, x.text))
    ok = not bad
    announce(6, ok, f"leftmost alignment selection and shape, {members} members")
    assert not bad, f"leftmost alignment violations: {bad}"


def test_criterion_7_bound_sandwich(announce):
    bad = []
    points = 0
    for w in range(1, 7):
        profile = {d: alignment_profile_bound(w, d, 2) for d in range(1, w)}
        floor = {d: bound_report(w, d, 2).closed_form_floor for d in range(1, w)}
        for chars in itertools.product("ab", repeat=w):
            q = make_word("".join(chars), A2)
            for d in range(1, w):
                points += 1
                size = count(q, d, A2, KIND_CONDENSED)
                if not size <= profile[d] <= floor[d]:
                    bad.append((q.text, d, size, profile[d], floor[d]))
    ok = not bad
    announce(7, ok, f"size <= profile bound <= closed-form floor, {points} points")
    assert not bad, f"sandwich violations: {bad}"


def test_criterion_8_bound_lemma_chain(announce):
    start = time.perf_counter()
    bad = []
    points = 0
    for s in (2, 3, 4):
        for w in range(1, 21):
            for d in range(1, w + 1):
                points += 1
                report = check_bound_lemmas(w, d, s)
                if not report.all_passed:
                    bad.append((w, d, s, [c.name for c in report.failing()]))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    announce(8, ok, f"bound lemma chain, {points} points, {elapsed:.1f}s")
    assert elapsed < 30.0
    assert not bad, f"lemma failures: {bad}"
