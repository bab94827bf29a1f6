"""Extremal scans over fixed-length words."""
import itertools

import pytest

from nbhood import (
    KIND_FULL,
    KIND_SUPER_CONDENSED,
    BudgetError,
    RangeError,
    alphabet_of_size,
    count,
    make_word,
    scan_extremal,
)
from nbhood.extremal import MODE_SAMPLED


def test_exhaustive_scan_finds_all_witnesses():
    report = scan_extremal(4, 1, 2)
    assert report.scanned == 16
    assert report.seed is None
    a2 = alphabet_of_size(2)
    sizes = {
        "".join(chars): count(make_word("".join(chars), a2), 1, a2, report.kind)
        for chars in itertools.product("ab", repeat=4)
    }
    lo, hi = min(sizes.values()), max(sizes.values())
    assert report.min_count == lo
    assert report.max_count == hi
    assert set(report.min_words) == {t for t, v in sizes.items() if v == lo}
    assert set(report.max_words) == {t for t, v in sizes.items() if v == hi}


def test_known_extrema_for_length_four_binary():
    report = scan_extremal(4, 1, 2)
    assert report.min_count == 4
    assert report.min_words == ("aaaa", "bbbb")
    assert report.max_count == 7
    assert set(report.max_words) == {"abaa", "abba", "baab", "babb"}


def test_sampled_mode_is_seeded_and_deterministic():
    a = scan_extremal(6, 1, 2, mode=MODE_SAMPLED, samples=40, seed=7)
    b = scan_extremal(6, 1, 2, mode=MODE_SAMPLED, samples=40, seed=7)
    assert a == b
    assert a.seed == 7
    assert 1 <= a.scanned <= 40
    c = scan_extremal(6, 1, 2, mode=MODE_SAMPLED, samples=40)
    assert c.seed == 0


def test_scan_supports_other_kinds():
    report = scan_extremal(3, 1, 2, kind=KIND_SUPER_CONDENSED)
    assert report.min_count <= report.max_count
    assert report.kind == KIND_SUPER_CONDENSED
    with pytest.raises(RangeError):
        scan_extremal(3, 1, 2, kind=KIND_FULL)


def test_exhaustive_scan_respects_the_budget():
    with pytest.raises(BudgetError):
        scan_extremal(10, 1, 2, budget=1000)
    # 2^20000 words: past int -> str's digit limit, so named by its bits
    with pytest.raises(BudgetError, match=r"over about 2\^20000 words exceeds the budget"):
        scan_extremal(20000, 1, 2)
    report = scan_extremal(10, 1, 2, mode=MODE_SAMPLED, samples=5, budget=1000)
    assert report.scanned <= 5


def test_sampled_scan_spends_the_budget_on_its_draws():
    # one count per draw, so the budget bounds the draws
    with pytest.raises(BudgetError, match=r"^sampled scan of 6 draws exceeds the budget of 5$"):
        scan_extremal(10, 1, 2, mode=MODE_SAMPLED, samples=6, budget=5)
    assert scan_extremal(10, 1, 2, mode=MODE_SAMPLED, samples=5, budget=5).scanned <= 5


def test_scan_parameter_validation():
    with pytest.raises(RangeError):
        scan_extremal(0, 1, 2)
    with pytest.raises(RangeError):
        scan_extremal(3, -1, 2)
    with pytest.raises(RangeError):
        scan_extremal(3, 1, 2, mode="census")
    with pytest.raises(RangeError):
        scan_extremal(3, 1, 2, mode=MODE_SAMPLED, samples=0)
