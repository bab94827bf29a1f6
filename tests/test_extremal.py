"""Extremal scans over fixed-length words."""
import itertools

import pytest

from nbhood import (
    KIND_CONDENSED,
    KIND_FULL,
    KIND_SUPER_CONDENSED,
    BudgetError,
    RangeError,
    alphabet_of_size,
    count,
    make_word,
    scan_extremal,
)
from nbhood.extremal import MODE_EXHAUSTIVE, MODE_SAMPLED, ExtremalReport

# every cell with s 1-3, w 1-7, d 0-3 and s^w <= 300, and s = 4 with w <= 4
_PLAIN_SCAN_CELLS = [
    (s, w, d) for s in (1, 2, 3) for w in range(1, 8) for d in range(4) if s**w <= 300
] + [(4, w, d) for w in range(1, 5) for d in range(4)]


def _plain_scan(w: int, d: int, s: int, kind: str) -> ExtremalReport:
    """The exhaustive scan by its definition: count every word, in product order."""
    alphabet = alphabet_of_size(s)
    sizes = {}
    for chars in itertools.product(alphabet.symbols, repeat=w):
        text = "".join(chars)
        sizes[text] = count(make_word(text, alphabet), d, alphabet, kind)
    lo, hi = min(sizes.values()), max(sizes.values())
    return ExtremalReport(
        word_length=w,
        distance=d,
        alphabet_size=s,
        kind=kind,
        mode=MODE_EXHAUSTIVE,
        scanned=len(sizes),
        seed=None,
        min_count=lo,
        min_words=tuple(t for t, v in sizes.items() if v == lo),
        max_count=hi,
        max_words=tuple(t for t, v in sizes.items() if v == hi),
    )


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


@pytest.mark.parametrize("kind", [KIND_CONDENSED, KIND_SUPER_CONDENSED])
def test_exhaustive_scan_matches_a_plain_scan(kind):
    # the orbit scan counts one word per orbit; its report must not show it
    for s, w, d in _PLAIN_SCAN_CELLS:
        assert scan_extremal(w, d, s, kind) == _plain_scan(w, d, s, kind), (s, w, d)


@pytest.mark.parametrize("kind", [KIND_CONDENSED, KIND_SUPER_CONDENSED])
def test_a_unary_alphabet_scans_one_orbit(kind):
    report = scan_extremal(5, 2, 1, kind)
    assert report.scanned == 1
    assert report.min_words == report.max_words == ("aaaaa",)


def test_orbits_relabel_only_the_letters_a_word_uses():
    # aaaa uses one of the three letters: its orbit is 3 words, not 3!
    report = scan_extremal(4, 1, 3)
    assert report.min_count == 7
    assert report.min_words == ("aaaa", "bbbb", "cccc")


def test_super_condensed_orbits_closed_under_reversal_are_listed_once():
    # abba is its own reversal and abab's is baba, a relabelling: each orbit
    # holds 2 words, not 2 * 2!
    report = scan_extremal(4, 2, 2, KIND_SUPER_CONDENSED)
    assert report.max_words == ("abab", "abba", "baab", "baba")


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


def test_the_scan_modes_are_the_core_names():
    # the parser reads them from core, so that it need not load this module
    from nbhood import core

    assert (MODE_EXHAUSTIVE, MODE_SAMPLED) == ("exhaustive", "sampled")
    assert (MODE_EXHAUSTIVE, MODE_SAMPLED) == (core.MODE_EXHAUSTIVE, core.MODE_SAMPLED)
