"""Edit distance, optimal alignments, and the leftmost-alignment order."""
import functools
import itertools
import random

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
from nbhood.distance import _band_rows, _banded, _exact, _fold
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


def _window_dp(a: str, b: str, spans):
    """The DP over paths that keep to the given column spans, row by row.

    ``spans[i]`` is (lo, hi), the columns lo..hi of row i. A row whose span
    starts right of column 0 begins with a boundary cell, the cell above
    plus one; every other cell is the least of its three steps from cells
    in the spans. Plain loops, independent of the production row step.
    """
    inf = float("inf")
    dp = {(0, 0): 0}
    for i, (lo, hi) in enumerate(spans):
        for j in range(lo, hi + 1):
            if (i, j) == (0, 0):
                continue
            if j == lo > 0:
                dp[i, j] = dp[i - 1, j] + 1
                continue
            steps = [dp.get((i - 1, j), inf) + 1, dp.get((i, j - 1), inf) + 1]
            if i and j:
                steps.append(dp.get((i - 1, j - 1), inf) + (a[i - 1] != b[j - 1]))
            dp[i, j] = min(steps)
    return dp


def _check_exact(a: str, b: str, exact: int) -> None:
    # the one table the alignments read: the rows of the fold that found d.
    # Inside each row's span every cell is the DP over paths that keep to
    # the spans, saturated at the fold's cap: the largest cell, above d
    # unless no cell saturates. Every cell of an optimal path lies in its
    # row's span and reads its true value; every cell outside the spans
    # lies on no optimal path.
    d, rows = _exact(a, b)
    assert d == exact
    assert len(rows) == len(a) + 1
    dp, sfx = _ref_tables(a, b)
    window = _window_dp(a, b, [(lo, lo + len(cells) - 1) for lo, cells in rows])
    cap = max(max(cells) for _, cells in rows)
    assert cap > d or cap == max(window.values())
    for i, (lo, cells) in enumerate(rows):
        for j in range(len(b) + 1):
            on_path = dp[i][j] + sfx[i][j] == d
            if lo <= j < lo + len(cells):
                assert cells[j - lo] == min(window[i, j], cap), (i, j)
                assert not on_path or cells[j - lo] == dp[i][j], (i, j)
            else:
                assert not on_path, (i, j)


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
def test_the_row_kernel_matches_the_reference_everywhere(case):
    # every DP built on the one row step, cell by cell, against the recursion:
    # the whole-row fold that _exact takes on short rows, of the
    # words and of the reversed words, and the table the alignments read
    alphabet, a, b = case
    m, n = len(a), len(b)
    for x, y in ((a, b), (a[::-1], b[::-1])):
        rows = list(_band_rows(x, y, m + n + 1))
        assert [lo for lo, _ in rows] == [0] * (m + 1)
        for i, (_, row) in enumerate(rows):
            assert row == tuple(_ref_dist(x[:i], y[:j]) for j in range(n + 1)), (x, i)
    exact = _ref_dist(a, b)
    _check_exact(a, b, exact)
    for limit in range(4):
        assert _fold(a, b, limit)[0] == min(exact, limit + 1), limit
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
def test_the_band_matches_the_reference_on_long_near_pairs(pair):
    a, b = pair
    exact = _ref_dist(a, b)
    assert exact <= 4
    # the band is narrower than the row for every cap used below, so the
    # banded fold, the cutoff's restarts and the band rows that the
    # alignments read are all exercised
    assert all(_banded(cap, min(len(a), len(b))) for cap in range(1, 6))
    _check_exact(a, b, exact)
    for limit in range(5):
        assert _fold(a, b, limit)[0] == min(exact, limit + 1), limit
    u, v = _w(a, A4), _w(b, A4)
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
    # letters and drawn apart after it: the longer the prefix, the later
    # the cutoff's first try dies, and the narrower the band it restarts at
    common = draw(st.text(alphabet="abcd", max_size=20))
    tails = st.text(alphabet="abcd", min_size=30 - len(common), max_size=60 - len(common))
    return common + draw(tails), common + draw(tails)


@given(far_pairs())
@example(("abcd" * 5 + "a" * 30, "abcd" * 5 + "b" * 30))  # two tries die
def test_long_far_pairs_match_the_reference(pair):
    # above a quarter of the shorter word every band the cutoff tries is
    # too narrow, so each try dies, and the plain fold gives the distance
    a, b = pair
    exact = _ref_dist(a, b)
    assume(4 * exact > min(len(a), len(b)))
    u, v = _w(a, A4), _w(b, A4)
    assert levenshtein(u, v) == exact
    _check_exact(a, b, exact)
    for limit in (0, 1, 3, 7, exact - 1, exact, exact + 1):
        assert _fold(a, b, limit)[0] == min(exact, limit + 1), limit
    for al in (optimal_alignment(u, v), leftmost_optimal_alignment(u, v)):
        assert (al.cost, al.top_text, al.bottom_text) == (exact, a, b)


def _edited_pairs(count: int, seed: int):
    # words of 150-300 letters over 2-4 letters, each with a copy that has
    # about one edit in ten: 4% deletions, 3% insertions, 3% substitutions
    rng = random.Random(seed)
    for _ in range(count):
        letters = "abcd"[: rng.randint(2, 4)]
        a = "".join(rng.choice(letters) for _ in range(rng.randint(150, 300)))
        b = []
        for ch in a:
            roll = rng.random()
            if roll < 0.04:
                continue
            if roll < 0.07:
                b.append(rng.choice(letters))
            elif roll < 0.10:
                ch = rng.choice(letters)
            b.append(ch)
        yield a, "".join(b)


def test_long_near_pairs_never_fall_back_to_whole_rows():
    # a restart that overshoots the distance asks for a window too wide to
    # pay, and the fold takes whole rows; bounding the restart at four times
    # the old limit keeps every one of these pairs in a window, where an
    # unbounded restart sends about one in six to whole rows
    for a, b in _edited_pairs(100, seed=0):
        rows = _exact(a, b)[1]
        assert all(len(cells) <= len(b) for _, cells in rows), (len(a), len(b))


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
