"""Neighborhood enumerators against the brute-force oracle and set axioms."""
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbhood import (
    KIND_CONDENSED,
    KIND_FULL,
    KIND_SUPER_CONDENSED,
    NEIGHBORHOOD_KINDS,
    BudgetError,
    RangeError,
    ValidationError,
    alphabet_of_size,
    brute_force_enumerate,
    count,
    enumerate_condensed,
    enumerate_full,
    enumerate_super_condensed,
    in_neighborhood,
    levenshtein,
    make_alphabet,
    make_word,
)
from nbhood.neighborhood import (
    BUDGET_ENV_VAR,
    DEFAULT_CANDIDATE_BUDGET,
    _automaton,
    _members,
    _oracle,
    resolve_budget,
)

A2 = alphabet_of_size(2)
A3 = alphabet_of_size(3)

ENUM_BY_KIND = {
    KIND_FULL: enumerate_full,
    KIND_CONDENSED: enumerate_condensed,
    KIND_SUPER_CONDENSED: enumerate_super_condensed,
}

word2 = st.text(alphabet="ab", min_size=0, max_size=4)
word3 = st.text(alphabet="abc", min_size=0, max_size=3)
dists = st.integers(min_value=0, max_value=2)


def _texts(result):
    return [x.text for x in result.words]


@given(word2, word2, dists)
def test_in_neighborhood_is_thresholded_distance(u, w, d):
    uu, ww = make_word(u, A2), make_word(w, A2)
    assert in_neighborhood(uu, ww, d) == (levenshtein(uu, ww) <= d)


@given(word2, dists)
def test_enumerators_match_oracle_binary(text, d):
    w = make_word(text, A2)
    for kind in NEIGHBORHOOD_KINDS:
        assert _texts(ENUM_BY_KIND[kind](w, d, A2)) == _texts(
            brute_force_enumerate(w, d, A2, kind)
        )


@given(word3, dists)
def test_enumerators_match_oracle_ternary(text, d):
    w = make_word(text, A3)
    for kind in NEIGHBORHOOD_KINDS:
        assert _texts(ENUM_BY_KIND[kind](w, d, A3)) == _texts(
            brute_force_enumerate(w, d, A3, kind)
        )


@given(word2, dists)
def test_full_members_are_exactly_the_close_words(text, d):
    w = make_word(text, A2)
    members = set(_texts(enumerate_full(w, d, A2)))
    for n in range(len(text) + d + 1):
        for chars in itertools.product("ab", repeat=n):
            u = "".join(chars)
            assert (u in members) == (levenshtein(make_word(u, A2), w) <= d)


@given(word2, dists)
def test_condensed_is_the_prefix_minimal_slice(text, d):
    w = make_word(text, A2)
    full = set(_texts(enumerate_full(w, d, A2)))
    condensed = _texts(enumerate_condensed(w, d, A2))
    assert set(condensed) <= full
    for u in condensed:
        assert all(u[:k] not in full for k in range(len(u)))
    # minimality: every full member extends exactly one condensed member
    for u in full:
        prefixes = [u[:k] for k in range(len(u) + 1) if u[:k] in set(condensed)]
        assert len(prefixes) == 1


@given(word2, dists)
def test_super_condensed_has_no_member_subwords(text, d):
    w = make_word(text, A2)
    full = set(_texts(enumerate_full(w, d, A2)))
    condensed = set(_texts(enumerate_condensed(w, d, A2)))
    scn = _texts(enumerate_super_condensed(w, d, A2))
    assert set(scn) <= condensed
    for u in scn:
        proper = {
            u[i:j]
            for i in range(len(u) + 1)
            for j in range(i, len(u) + 1)
            if j - i < len(u)
        }
        assert not (proper & full)
    # completeness: condensed members dropped by the filter do have one
    for u in condensed - set(scn):
        proper = {
            u[i:j]
            for i in range(len(u) + 1)
            for j in range(i, len(u) + 1)
            if j - i < len(u)
        }
        assert proper & full


def test_degenerate_distance_collapses_to_the_empty_word():
    w = make_word("ab", A2)
    for d in (2, 3, 5):
        assert _texts(enumerate_condensed(w, d, A2)) == [""]
        assert _texts(enumerate_super_condensed(w, d, A2)) == [""]
        assert "" in _texts(enumerate_full(w, d, A2))


def test_distance_zero_is_the_word_itself():
    w = make_word("aba", A2)
    for kind in NEIGHBORHOOD_KINDS:
        assert _texts(ENUM_BY_KIND[kind](w, 0, A2)) == ["aba"]


def test_empty_query_word():
    w = make_word("", A2)
    assert _texts(enumerate_full(w, 1, A2)) == ["", "a", "b"]
    assert _texts(enumerate_condensed(w, 1, A2)) == [""]
    assert _texts(enumerate_super_condensed(w, 1, A2)) == [""]


def test_known_small_neighborhoods():
    assert _texts(enumerate_full(make_word("aa", A2), 1, A2)) == [
        "a",
        "aa",
        "aaa",
        "aab",
        "ab",
        "aba",
        "ba",
        "baa",
    ]
    assert _texts(enumerate_condensed(make_word("aaa", A3), 1, A3)) == [
        "aa",
        "aba",
        "aca",
        "baa",
        "caa",
    ]
    assert _texts(enumerate_super_condensed(make_word("aaaa", A2), 1, A2)) == [
        "aaa",
        "aaba",
        "abaa",
    ]


def test_member_order_follows_alphabet_ranks():
    # alphabet "ba" ranks b before a, so the canonical listing must too
    ba = make_alphabet("ba")
    got = _texts(enumerate_full(make_word("b", ba), 1, ba))
    assert got == ["", "b", "bb", "ba", "a", "ab"]


@given(word3, dists, st.sampled_from(NEIGHBORHOOD_KINDS))
def test_count_agrees_with_enumeration(text, d, kind):
    w = make_word(text, A3)
    assert count(w, d, A3, kind) == ENUM_BY_KIND[kind](w, d, A3).count


@settings(deadline=None)
@given(
    st.one_of(
        st.tuples(st.just(A2), st.text(alphabet="ab", max_size=6)),
        st.tuples(st.just(A3), st.text(alphabet="abc", max_size=4)),
    ),
    st.integers(min_value=0, max_value=3),
)
@example((A2, "ab"), 2)
@example((A3, "abc"), 3)
@example((A2, ""), 0)
@example((A2, "a"), 3)
def test_count_matches_the_oracle(query, d):
    # count walks distinct DP states, not the enumerators' trie, so it gets
    # its own check against the literal definitions
    alphabet, text = query
    w = make_word(text, alphabet)
    oracle = _oracle(w, d, alphabet)
    for kind in NEIGHBORHOOD_KINDS:
        assert count(w, d, alphabet, kind) == len(oracle[kind])
    if d >= len(text):
        # the empty word is a member and a subword of every word
        assert oracle[KIND_CONDENSED] == oracle[KIND_SUPER_CONDENSED] == [""]


def _unmemoized_members(w, d, alphabet, kind):
    """The listing walk expanding every trie node afresh, with no memo."""
    start, children = _automaton(w.text, d, alphabet.symbols, kind)
    out = []
    stack = [("", start)]
    while stack:
        prefix, state = stack.pop()
        if state[0][len(w)] <= d:
            out.append(prefix)
            if kind != KIND_FULL:
                continue
        stack.extend((prefix + symbol, child) for symbol, child in reversed(children(state)))
    return out


BA = make_alphabet("ba")


@settings(deadline=None)
@given(
    st.one_of(
        st.tuples(st.just(A2), st.text(alphabet="ab", max_size=5)),
        st.tuples(st.just(BA), st.text(alphabet="ab", max_size=5)),
        st.tuples(st.just(A3), st.text(alphabet="abc", max_size=3)),
    ),
    st.integers(min_value=0, max_value=3),
)
# unary words at d >= 2 reach one state at several depths
@example((A2, "aaaa"), 2)
@example((A2, "aaaaa"), 3)
@example((BA, "bbbb"), 2)
@example((A3, "aaa"), 3)
# mixed words where free-start rows split states with one prefix row
@example((A2, "abab"), 2)
@example((BA, "abba"), 2)
def test_the_memoized_walk_matches_the_plain_walk_and_the_oracle(query, d):
    alphabet, text = query
    w = make_word(text, alphabet)
    oracle = _oracle(w, d, alphabet)
    for kind in NEIGHBORHOOD_KINDS:
        got = _members(w, d, alphabet, kind)
        assert got == _unmemoized_members(w, d, alphabet, kind)
        assert got == oracle[kind]


def test_negative_distance_rejected():
    w = make_word("a", A2)
    with pytest.raises(RangeError):
        enumerate_full(w, -1, A2)
    with pytest.raises(RangeError):
        count(w, -1, A2, KIND_FULL)
    with pytest.raises(RangeError):
        brute_force_enumerate(w, -1, A2, KIND_FULL)


def test_unknown_kind_rejected():
    w = make_word("a", A2)
    with pytest.raises(ValidationError):
        count(w, 1, A2, "close")


def test_query_must_fit_the_enumeration_alphabet():
    w = make_word("ab", A2)
    only_a = alphabet_of_size(1)
    with pytest.raises(ValidationError):
        enumerate_full(w, 1, only_a)


def test_oracle_refuses_over_budget():
    w = make_word("aaaaa", A3)
    # the scan covers lengths 2..8: 3^2 + ... + 3^8 = 9837 candidates
    with pytest.raises(BudgetError, match="oracle would scan 9837 candidates"):
        brute_force_enumerate(w, 3, A3, KIND_FULL, budget=9_836)
    result = brute_force_enumerate(w, 3, A3, KIND_FULL, budget=9_837)
    assert result.count == count(w, 3, A3, KIND_FULL)


def test_budget_env_variable(monkeypatch):
    w = make_word("aa", A2)
    monkeypatch.setenv(BUDGET_ENV_VAR, "4")
    with pytest.raises(BudgetError):
        brute_force_enumerate(w, 1, A2, KIND_FULL)
    # an explicit argument beats the environment
    assert brute_force_enumerate(w, 1, A2, KIND_FULL, budget=1000).count == 8
    monkeypatch.setenv(BUDGET_ENV_VAR, "plenty")
    with pytest.raises(BudgetError):
        brute_force_enumerate(w, 1, A2, KIND_FULL)


def test_resolve_budget_precedence(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    assert resolve_budget() == DEFAULT_CANDIDATE_BUDGET
    monkeypatch.setenv(BUDGET_ENV_VAR, "123")
    assert resolve_budget() == 123
    assert resolve_budget(77) == 77
    # an explicit budget is checked like the environment's, not waved through
    with pytest.raises(BudgetError, match="budget must be positive, got 0"):
        resolve_budget(0)


def test_bare_string_query_gets_build_guidance():
    with pytest.raises(ValidationError, match="make_word"):
        enumerate_full("ab", 1, make_alphabet("ab"))
