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
from nbhood import neighborhood
from nbhood.neighborhood import (
    BUDGET_ENV_VAR,
    DEFAULT_CANDIDATE_BUDGET,
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


def _plain_step(row, symbol, w, cap, free_start=False):
    """One letter of the saturated DP on a plain row, cell by cell.

    Cell j is the least of the diagonal step, the cell above plus one and
    the cell to the left plus one, saturated at cap; with ``free_start``
    column 0 is 0 (Sellers 1980). Comparisons, not min(), keep the long-word
    forward pass below quick.
    """
    left = 0 if free_start else min(row[0] + 1, cap)
    out = [left]
    for j, c in enumerate(w, 1):
        cell = row[j - 1] + (c != symbol)
        if row[j] + 1 < cell:
            cell = row[j] + 1
        if left + 1 < cell:
            cell = left + 1
        left = cell if cell < cap else cap
        out.append(left)
    return tuple(out)


def _plain_automaton(w, d, symbols, kind):
    """The automaton on plain rows with no memo: every child steps both rows afresh.

    Kept on the test side, with a row step of its own and the drop rules
    written as plainly as they read: a child goes when its prefix row is
    above d everywhere, or when its free-start row comes within d at
    column |w|.
    """
    n = len(w)
    cap = d + 1
    sellers = kind == KIND_SUPER_CONDENSED
    start = (
        tuple(min(j, cap) for j in range(n + 1)),
        (cap,) * (n + 1) if sellers else None,
    )

    def children(state):
        row, free = state
        out = []
        for symbol in symbols:
            child = _plain_step(row, symbol, w, cap)
            if min(child) > d:
                continue
            free_child = None
            if sellers:
                free_child = _plain_step(free, symbol, w, cap, free_start=True)
                if free_child[n] <= d:
                    continue
            out.append((symbol, (child, free_child)))
        return out

    return start, children


def _decode(state, n):
    """The plain rows of an automaton state kept as threshold masks.

    A row (m, R_m, ...) has cell j equal to m plus the number of its masks
    without bit j: masks below m are 0, and every one past the tuple is full.
    """

    def row(masks):
        return tuple(masks[0] + sum(not r >> j & 1 for r in masks[1:]) for j in range(n + 1))

    prefix, free = state
    return row(prefix), None if free is None else row(free)


def _unmemoized_members(w, d, alphabet, kind):
    """The listing walk expanding every trie node afresh, with no memo."""
    start, children = _plain_automaton(w.text, d, alphabet.symbols, kind)
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


def _unmemoized_count(w, d, alphabet, kind):
    """count's forward pass, one word length at a time, over the plain automaton."""
    start, children = _plain_automaton(w.text, d, alphabet.symbols, kind)
    total = 0
    level = {start: 1}
    while level:
        following = {}
        for state, ways in level.items():
            if state[0][len(w)] <= d:
                total += ways
                if kind != KIND_FULL:
                    continue
            for _, child in children(state):
                following[child] = following.get(child, 0) + ways
        level = following
    return total


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


@given(
    st.one_of(
        st.tuples(st.just(A2), st.text(alphabet="ab", max_size=6)),
        st.tuples(st.just(A3), st.text(alphabet="abc", max_size=4)),
    ),
    st.integers(min_value=0, max_value=3),
)
# the free-start row after "b" equals the start's prefix row
@example((A2, "ab"), 1)
def test_children_match_the_plain_automaton_state_by_state(query, d):
    # the walk stops at depth |w| + d + 1, where no state is live, so a memo
    # that hands a prefix row a free-start step fails here and does not walk
    # forever
    alphabet, text = query
    n = len(text)
    for kind in NEIGHBORHOOD_KINDS:
        start, expand = neighborhood._automaton(text, d, alphabet.symbols, kind)
        plain_start, plain = _plain_automaton(text, d, alphabet.symbols, kind)
        assert _decode(start, n) == plain_start
        level = [start]
        for _ in range(n + d + 2):
            following = {}
            for state in level:
                rows = _decode(state, n)
                member, got = expand(state)
                assert member == (rows[0][n] <= d)
                # a member of a condensed kind has no children
                want = [] if member and kind != KIND_FULL else plain(rows)
                assert [(symbol, _decode(child, n)) for symbol, child in got] == want
                following.update((child, None) for _, child in got)
            level = list(following)
            # one mask state per pair of plain rows, so states merge as rows do
            assert len({_decode(state, n) for state in level}) == len(level)
        assert not level


@settings(deadline=None, max_examples=4)
@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda s: st.tuples(
            st.just(alphabet_of_size(s)),
            st.text(alphabet="abcd"[:s], min_size=20, max_size=60),
        )
    ),
    st.integers(min_value=1, max_value=4),
)
@example((A2, "ab" * 15), 4)
@example((alphabet_of_size(4), "abcd" * 6), 2)
def test_long_word_count_matches_the_plain_forward_pass(query, d):
    # words past the oracle's reach, where a state recurs at many depths
    # and the memo holds thousands of rows
    alphabet, text = query
    w = make_word(text, alphabet)
    kinds = [KIND_FULL, KIND_CONDENSED]
    # past d = 2 the long-word super-condensed walk has millions of states,
    # seconds each even with the memo
    if d <= 2:
        kinds.append(KIND_SUPER_CONDENSED)
    for kind in kinds:
        assert count(w, d, alphabet, kind) == _unmemoized_count(w, d, alphabet, kind)


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda s: st.tuples(
            st.just(alphabet_of_size(s)),
            st.text(alphabet="abcd"[:s], max_size=12),
        )
    ),
    st.integers(min_value=0, max_value=2),
)
def test_listing_length_equals_count(query, d):
    alphabet, text = query
    w = make_word(text, alphabet)
    for kind in NEIGHBORHOOD_KINDS:
        assert len(_members(w, d, alphabet, kind)) == count(w, d, alphabet, kind)


def _record_steps(monkeypatch):
    """Wrap the mask step; return the (row, match mask, free_start) it sees."""
    real = neighborhood._mask_step
    steps = []

    def recording(row, match, d, full, free_start=False):
        steps.append((row, match, free_start))
        return real(row, match, d, full, free_start)

    monkeypatch.setattr(neighborhood, "_mask_step", recording)
    return steps


@pytest.mark.parametrize(
    "text, d, s, kind",
    [("abcabcab", 2, 3, KIND_SUPER_CONDENSED), ("aaaaaa", 2, 2, KIND_FULL)],
)
def test_each_row_is_stepped_once_per_call(monkeypatch, text, d, s, kind):
    alphabet = alphabet_of_size(s)
    w = make_word(text, alphabet)
    # the plain walk steps some row twice, so the cases can tell
    plain_steps = []
    real_plain = _plain_step

    def recording_plain(row, symbol, w, cap, free_start=False):
        plain_steps.append((row, symbol, free_start))
        return real_plain(row, symbol, w, cap, free_start)

    monkeypatch.setitem(globals(), "_plain_step", recording_plain)
    _unmemoized_members(w, d, alphabet, kind)
    assert len(set(plain_steps)) < len(plain_steps)
    steps = _record_steps(monkeypatch)
    for walk in (count, _members):
        steps.clear()
        walk(w, d, alphabet, kind)
        first = list(steps)
        assert first and len(set(first)) == len(first)
        # nothing is kept across calls: the same query steps its rows again
        steps.clear()
        walk(w, d, alphabet, kind)
        assert steps == first


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


def test_listing_refuses_past_the_budget_by_its_member_count(monkeypatch):
    w = make_word("aaaaa", A3)
    size = count(w, 3, A3, KIND_FULL)
    monkeypatch.setenv(BUDGET_ENV_VAR, str(size - 1))
    with pytest.raises(BudgetError, match=f"^listing would hold {size} members, "):
        enumerate_full(w, 3, A3)
    # an explicit budget beats the environment
    assert len(_members(w, 3, A3, KIND_FULL, budget=size)) == size
    monkeypatch.setenv(BUDGET_ENV_VAR, str(size))
    assert enumerate_full(w, 3, A3).count == size


def test_a_listing_within_its_candidate_bound_runs_no_count(monkeypatch):
    w = make_word("abc", A3)
    # lengths 1..5 over three letters
    candidates = 3 + 9 + 27 + 81 + 243

    def no_count(*args):
        raise AssertionError("count ran")

    monkeypatch.setattr(neighborhood, "count", no_count)
    for kind in NEIGHBORHOOD_KINDS:
        assert _members(w, 2, A3, kind, budget=candidates) == _oracle(w, 2, A3)[kind]
        with pytest.raises(AssertionError, match="count ran"):
            _members(w, 2, A3, kind, budget=candidates - 1)


def test_bare_string_query_gets_build_guidance():
    with pytest.raises(ValidationError, match="make_word"):
        enumerate_full("ab", 1, make_alphabet("ab"))
