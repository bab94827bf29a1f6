"""Edit distance, optimal alignments, and the leftmost-alignment order."""
import functools
import itertools

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from nbhood import (
    DELETION,
    INSERTION,
    MATCH,
    BudgetError,
    Column,
    ValidationError,
    alignment_order_key,
    alphabet_of_size,
    enumerate_optimal_alignments,
    in_neighborhood,
    leftmost_optimal_alignment,
    levenshtein,
    make_alphabet,
    make_word,
    mm_index_sequence,
    optimal_alignment,
)
from nbhood.distance import _cell, _exact
from nbhood.neighborhood import _plain_dist

A2 = alphabet_of_size(2)
A3 = alphabet_of_size(3)
A4 = alphabet_of_size(4)


def _ref_prefix_dist(a: str, b: str):
    """Textbook recursion, memoized; independent of the production DP.

    The returned function maps (i, j) to the distance of a[:i] and b[:j].
    """

    @functools.lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            go(i - 1, j) + 1,
            go(i, j - 1) + 1,
            go(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return go


def _ref_dist(a: str, b: str) -> int:
    return _ref_prefix_dist(a, b)(len(a), len(b))


def _ref_tables(a: str, b: str):
    """Both full tables by plain loops over every cell, for words too long
    for the recursion: dp[i][j] = dist(a[:i], b[:j]) and sfx[i][j] =
    dist(a[i:], b[j:]), the first table of the reversed words read
    backwards.
    """

    def prefix(x, y):
        dp = [list(range(len(y) + 1))]
        for i, p in enumerate(x, 1):
            row = [i]
            for j, q in enumerate(y, 1):
                row.append(min(dp[-1][j] + 1, row[-1] + 1, dp[-1][j - 1] + (p != q)))
            dp.append(row)
        return dp

    return prefix(a, b), [row[::-1] for row in reversed(prefix(a[::-1], b[::-1]))]


def _ref_backtrack(a: str, b: str) -> tuple[Column, ...]:
    """The reference optimal path, backtracked over the recursion.

    From the last cell back, take the diagonal step if it keeps the
    distance, else the deletion if it does, else the insertion.
    """
    dp = _ref_prefix_dist(a, b)
    cols = []
    i, j = len(a), len(b)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp(i, j) == dp(i - 1, j - 1) + (a[i - 1] != b[j - 1]):
            cols.append(Column(a[i - 1], b[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and dp(i, j) == dp(i - 1, j) + 1:
            cols.append(Column(a[i - 1], None))
            i -= 1
        else:
            cols.append(Column(None, b[j - 1]))
            j -= 1
    return tuple(reversed(cols))


def _check_exact(a: str, b: str, exact: int) -> None:
    # the one table the alignments read: every column of the table of a
    # against b, as its vertical deltas. Each column holds exactly the
    # deltas of the plain-loop table, bit i - 1 for row i and no bit past
    # row len(a), and every cell read back through _cell is its true value.
    d, cols = _exact(a, b)
    assert d == exact
    assert len(cols) == len(b) + 1
    dp = _ref_tables(a, b)[0]
    for j, (pv, mv) in enumerate(cols):
        deltas = [dp[i][j] - dp[i - 1][j] for i in range(1, len(a) + 1)]
        assert pv == sum(1 << k for k, x in enumerate(deltas) if x == 1), j
        assert mv == sum(1 << k for k, x in enumerate(deltas) if x == -1), j
        for i in range(len(a) + 1):
            assert _cell(cols, i, j) == dp[i][j], (i, j)


def _w(text: str, alphabet=A3):
    return make_word(text, alphabet)


short3 = st.text(alphabet="abc", max_size=6)


def test_known_distances():
    full = make_alphabet("abcdefghijklmnopqrstuvwxyz")
    assert levenshtein(_w("kitten", full), _w("sitting", full)) == 3
    assert levenshtein(_w("flaw", full), _w("lawn", full)) == 2
    assert levenshtein(_w("", A2), _w("abab", A2)) == 4
    assert levenshtein(_w("ab", A2), _w("ab", A2)) == 0


def test_mixed_alphabets_rejected():
    with pytest.raises(ValidationError):
        levenshtein(_w("a", A2), _w("a", A3))


@given(short3, short3)
def test_distance_matches_reference(a, b):
    assert levenshtein(_w(a), _w(b)) == _ref_dist(a, b)


@given(short3, short3)
def test_the_oracle_dp_matches_the_reference(a, b):
    # the oracle reads each candidate as a tuple of letters
    assert _plain_dist(tuple(a), b) == _ref_dist(a, b)


@given(
    st.sampled_from([A2, A3]).flatmap(
        lambda alphabet: st.tuples(
            st.just(alphabet),
            st.text(alphabet=alphabet.symbols, max_size=5),
            st.text(alphabet=alphabet.symbols, max_size=5),
        )
    )
)
def test_the_column_kernel_matches_the_reference_everywhere(case):
    # every column of the table, cell by cell, against plain loops, of the
    # words and of the reversed words, the distance against the recursion,
    # and one threshold test at each of several limits
    alphabet, a, b = case
    exact = _ref_dist(a, b)
    _check_exact(a, b, exact)
    _check_exact(a[::-1], b[::-1], exact)
    for limit in range(4):
        assert in_neighborhood(_w(a, alphabet), _w(b, alphabet), limit) == (exact <= limit)


@st.composite
def near_pairs(draw):
    # a word of 28-40 letters and a copy of it with at most four edits, so
    # that the pair is long next to its distance
    a = draw(st.text(alphabet="abcd", min_size=28, max_size=40))
    b = list(a)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("sub", "ins", "del")))
        i = draw(st.integers(0, len(b) - 1))
        if op == "del":
            del b[i]
        else:
            letter = draw(st.sampled_from("abcd"))
            b[i : i + (op == "sub")] = [letter]
    return a, "".join(b)


@given(near_pairs())
def test_the_columns_match_the_reference_on_long_near_pairs(pair):
    a, b = pair
    exact = _ref_dist(a, b)
    assert exact <= 4
    _check_exact(a, b, exact)
    u, v = _w(a, A4), _w(b, A4)
    for limit in range(5):
        assert in_neighborhood(u, v, limit) == (exact <= limit), limit
    best = min(enumerate_optimal_alignments(u, v, max_len=44), key=alignment_order_key)
    assert alignment_order_key(leftmost_optimal_alignment(u, v)) == alignment_order_key(best)
    assert optimal_alignment(u, v).cost == levenshtein(u, v) == exact


@given(st.one_of(st.tuples(short3, short3), near_pairs()))
def test_optimal_alignment_is_the_reference_backtrack(pair):
    a, b = pair
    assert optimal_alignment(_w(a, A4), _w(b, A4)).columns == _ref_backtrack(a, b)


@st.composite
def far_pairs(draw):
    # two words of 30-60 letters, equal up to a common prefix of at most 20
    # letters and drawn apart after it
    common = draw(st.text(alphabet="abcd", max_size=20))
    tails = st.text(alphabet="abcd", min_size=30 - len(common), max_size=60 - len(common))
    return common + draw(tails), common + draw(tails)


@given(far_pairs())
@example(("abcd" * 5 + "a" * 30, "abcd" * 5 + "b" * 30))
def test_long_far_pairs_match_the_reference(pair):
    # a distance above a quarter of the shorter word: most cells of the
    # table lie far from its diagonal, and every one is checked
    a, b = pair
    exact = _ref_dist(a, b)
    assume(4 * exact > min(len(a), len(b)))
    u, v = _w(a, A4), _w(b, A4)
    assert levenshtein(u, v) == exact
    _check_exact(a, b, exact)
    for limit in (0, 1, 3, 7, exact - 1, exact, exact + 1):
        assert in_neighborhood(u, v, limit) == (exact <= limit), limit
    for al in (optimal_alignment(u, v), leftmost_optimal_alignment(u, v)):
        assert (al.cost, al.top_text, al.bottom_text) == (exact, a, b)


def _ref_leftmost_columns(a: str, b: str) -> tuple[Column, ...]:
    """The leftmost alignment by the sweep over the full test-side tables.

    Fewest diagonal steps to the end for every cell with dp + sfx == d,
    scanned over the whole table, then the level sweep with its own
    statement of the optimal steps.
    """
    m, n = len(a), len(b)
    dp, sfx = _ref_tables(a, b)
    d = dp[m][n]

    def steps(i, j):
        if i < m and j < n and (a[i] != b[j]) + sfx[i + 1][j + 1] == sfx[i][j]:
            yield int(a[i] != b[j]), (i + 1, j + 1)
        if i < m and sfx[i + 1][j] + 1 == sfx[i][j]:
            yield 3, (i + 1, j)  # deletion
        if j < n and sfx[i][j + 1] + 1 == sfx[i][j]:
            yield 2, (i, j + 1)  # insertion

    kmin = {(m, n): 0}
    for i in range(m, -1, -1):
        for j in range(n, -1, -1):
            if (i, j) != (m, n) and dp[i][j] + sfx[i][j] == d:
                kmin[i, j] = min((code <= 1) + kmin[c] for code, c in steps(i, j))
    k_left, frontier = kmin[0, 0], {(0, 0): ()}
    while (m, n) not in frontier:
        diag, gap = {}, {}
        for (i, j), prefix in frontier.items():
            for code, c in steps(i, j):
                if kmin[c] == k_left - (code <= 1):
                    bucket, seq = (diag if code <= 1 else gap), prefix + (code,)
                    if c not in bucket or seq < bucket[c]:
                        bucket[c] = seq
        frontier = diag or gap
        k_left -= bool(diag)
    cols, i, j = [], 0, 0
    for code in frontier[m, n]:
        top, bottom = (a[i] if code != 2 else None), (b[j] if code != 3 else None)
        cols.append(Column(top, bottom))
        i, j = i + (code != 2), j + (code != 3)
    return tuple(cols)


@st.composite
def long_pairs(draw):
    # a word of 60-200 letters, and either a copy of it with at most one
    # edit in ten, or an unrelated word of 60-200 letters
    letters = draw(st.sampled_from(("ab", "abc", "abcd")))
    a = draw(st.text(alphabet=letters, min_size=60, max_size=200))
    if draw(st.booleans()):
        return a, draw(st.text(alphabet=letters, min_size=60, max_size=200))
    b = list(a)
    for _ in range(draw(st.integers(0, len(a) // 10))):
        op = draw(st.sampled_from(("sub", "ins", "del")))
        i = draw(st.integers(0, len(b) - 1))
        if op == "del":
            del b[i]
        else:
            b[i : i + (op == "sub")] = [draw(st.sampled_from(letters))]
    return a, "".join(b)


@given(long_pairs())
def test_leftmost_matches_the_full_table_sweep_on_long_pairs(pair):
    # too long for the exhaustive enumeration: the reference is the sweep
    # over every cell of the test-side tables, with its own step rule
    a, b = pair
    got = leftmost_optimal_alignment(_w(a, A4), _w(b, A4))
    assert got.columns == _ref_leftmost_columns(a, b)


@given(short3, short3, short3)
def test_metric_axioms(a, b, c):
    ab = levenshtein(_w(a), _w(b))
    assert ab == levenshtein(_w(b), _w(a))
    assert (ab == 0) == (a == b)
    assert ab <= levenshtein(_w(a), _w(c)) + levenshtein(_w(c), _w(b))
    assert abs(len(a) - len(b)) <= ab <= max(len(a), len(b))


@given(short3, short3)
def test_optimal_alignment_achieves_the_distance(a, b):
    al = optimal_alignment(_w(a), _w(b))
    assert al.cost == levenshtein(_w(a), _w(b))
    assert al.top_text == a
    assert al.bottom_text == b


@given(st.text(alphabet="ab", max_size=5), st.text(alphabet="ab", max_size=5))
def test_enumeration_is_exactly_the_optimal_set(a, b):
    d = levenshtein(_w(a, A2), _w(b, A2))
    als = enumerate_optimal_alignments(_w(a, A2), _w(b, A2))
    assert als
    for al in als:
        assert al.cost == d
        assert al.top_text == a
        assert al.bottom_text == b
    keys = [alignment_order_key(al) for al in als]
    # the order key reconstructs the column classes, so it separates alignments
    assert len(set(keys)) == len(als)


def _ref_optimal_path_count(a: str, b: str) -> int:
    # paths from (0, 0) to the last cell whose every step keeps the cost
    # left equal to the distance left, counted on the test-side table
    m, n = len(a), len(b)
    sfx = _ref_tables(a, b)[1]
    paths = {(m, n): 1}
    for i in range(m, -1, -1):
        for j in range(n, -1, -1):
            if (i, j) == (m, n):
                continue
            steps = []
            if i < m and j < n:
                steps.append((a[i] != b[j], i + 1, j + 1))
            if i < m:
                steps.append((1, i + 1, j))
            if j < n:
                steps.append((1, i, j + 1))
            paths[i, j] = sum(
                paths[ni, nj] for cost, ni, nj in steps if cost + sfx[ni][nj] == sfx[i][j]
            )
    return paths[0, 0]


@given(
    st.one_of(
        st.tuples(st.text(alphabet="ab", max_size=6), st.text(alphabet="ab", max_size=6)),
        st.tuples(short3, short3),
        near_pairs(),
    )
)
def test_enumeration_misses_no_optimal_alignment(pair):
    # one alignment per optimal path: the enumeration is complete exactly
    # when it returns as many distinct alignments as there are such paths
    a, b = pair
    als = enumerate_optimal_alignments(_w(a, A4), _w(b, A4), max_len=44)
    assert len(set(als)) == len(als) == _ref_optimal_path_count(a, b)


@given(st.text(alphabet="ab", max_size=5), st.text(alphabet="ab", max_size=5))
def test_leftmost_matches_exhaustive_minimum(a, b):
    u, v = _w(a, A2), _w(b, A2)
    best = min(enumerate_optimal_alignments(u, v), key=alignment_order_key)
    got = leftmost_optimal_alignment(u, v)
    assert alignment_order_key(got) == alignment_order_key(best)
    assert got.cost == levenshtein(u, v)


def test_leftmost_worked_example():
    full = make_alphabet("abcdefghijklmnopqrstuvwxyz")
    al = leftmost_optimal_alignment(_w("align", full), _w("assign", full))
    assert al.render() == "a l - i g n\na s s i g n"
    assert mm_index_sequence(al) == (1, 2, 4, 5, 6)


def test_leftmost_prefers_early_match_columns():
    al = leftmost_optimal_alignment(_w("aa", A2), _w("a", A2))
    assert tuple(c.kind for c in al.columns) == (MATCH, DELETION)


def test_leftmost_tie_breaks_on_column_classes():
    # top "ab" vs bottom "ba": both optimal alignments share the index
    # sequence (2,); the class order match < mismatch < insertion < deletion
    # picks the insertion-first one
    al = leftmost_optimal_alignment(_w("ab", A2), _w("ba", A2))
    assert tuple(c.kind for c in al.columns) == (INSERTION, MATCH, DELETION)


def test_enumeration_counts_all_shuffles():
    # "ab" vs "ba": two substitutions, or one gap pair on either side
    als = enumerate_optimal_alignments(_w("ab", A2), _w("ba", A2))
    assert len(als) == 3


def test_enumeration_refuses_long_inputs():
    long_word = _w("a" * 13, A2)
    with pytest.raises(BudgetError):
        enumerate_optimal_alignments(long_word, _w("a", A2))
    # an explicit cap overrides the default
    als = enumerate_optimal_alignments(long_word, _w("a", A2), max_len=13)
    assert als[0].cost == 12


def test_leftmost_minimizes_match_mismatch_columns_first():
    # "abc" vs "ca" has cost-3 alignments with two substitution columns and
    # others with a single match column; fewer match/mismatch columns wins
    u, v = _w("abc"), _w("ca")
    ks = {len(mm_index_sequence(al)) for al in enumerate_optimal_alignments(u, v)}
    assert min(ks) < max(ks)
    al = leftmost_optimal_alignment(u, v)
    assert tuple(c.kind for c in al.columns) == (INSERTION, MATCH, DELETION, DELETION)
    assert mm_index_sequence(al) == (2,)


def test_all_pairs_up_to_length_three_agree_with_reference():
    words = ["".join(p) for n in range(4) for p in itertools.product("ab", repeat=n)]
    for a in words:
        for b in words:
            assert levenshtein(_w(a, A2), _w(b, A2)) == _ref_dist(a, b)


def test_bare_string_words_get_build_guidance():
    with pytest.raises(ValidationError, match="make_word"):
        levenshtein("kitten", "sitting")
