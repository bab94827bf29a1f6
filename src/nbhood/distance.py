"""Levenshtein distance and optimal-alignment machinery.

Besides the distance itself, this module reconstructs optimal alignments,
exhaustively enumerates all of them (small inputs only), and selects the
*leftmost* optimal alignment: among all minimum-cost alignments, first
minimize the number k of match/mismatch columns, then take the
lexicographically smallest sequence of their column indices. Ties beyond
that order are broken by the column-class sequence (match < mismatch <
insertion < deletion, compared left to right), which makes the selection
a total order and the result fully deterministic.

The edit-distance DP of a pair is written once, in ``_row_step``: one
letter of the row against the prefixes of a word, saturated at a cap. One
fold steps it, ``_band_rows``: a try at limit L folds only the diagonals
that a path of cost at most L can use, about L + 1 cells a row (Ukkonen
1985), and at a limit above every distance the whole row. The
neighborhood automaton steps its rows with a second recurrence on
bit-parallel threshold masks, ``neighborhood._mask_step``.
``_optimal_steps`` is the one statement of which steps keep an alignment
optimal.

``_fold`` is one try; ``in_neighborhood`` makes one at d, and ``_exact``
tries rising limits. Each alignment reads the rows of ``_exact`` in place
and walks optimal paths back from the last cell; ``nbhood dist`` folds
once and hands the same rows to each alignment it prints.
"""
from __future__ import annotations

from .core import (
    Alignment,
    BudgetError,
    Column,
    DELETION,
    INSERTION,
    MATCH,
    MISMATCH,
    Word,
    require_same_alphabet,
)

DEFAULT_ORACLE_MAX_LEN = 12

_CLASS_CODE = {MATCH: 0, MISMATCH: 1, INSERTION: 2, DELETION: 3}


def _row_step(row: tuple[int, ...], symbol: str, w: str, cap: int) -> tuple[int, ...]:
    """One letter of the edit-distance DP against the prefixes of w.

    ``row[j]`` is min(dist(u, w[:j]), cap) for the word u read so far, and
    the result is that row for u + symbol. Cells saturate at cap: with
    cap = d + 1, values above d never influence a <= d test.
    """
    left = min(row[0] + 1, cap)
    out = [left]
    # min(diag + mismatch, above + 1, left + 1, cap), spelled out: this loop
    # is the hot path, and comparisons run about twice as fast as min()
    for diag, above, c in zip(row, row[1:], w):
        if c != symbol:
            diag += 1
        if above < diag:
            diag = above + 1
        if left < diag:
            diag = left + 1
        left = diag if diag < cap else cap
        out.append(left)
    return tuple(out)


def _banded(cap: int, n: int) -> bool:
    """Whether to fold only the window of cap, against rows of n + 1 cells.

    Only when the window, about cap + 1 cells, is at most a quarter of the
    row: on shorter rows cutting it costs more than the cells it skips.
    """
    return 4 * (cap + 1) <= n


def _band_rows(a: str, b: str, cap: int):
    """The DP rows of a against the prefixes of b, cut to the window of limit cap - 1.

    A path through the cell (i, j) on diagonal k = j - i costs at least
    |k| + |delta - k|, delta = len(b) - len(a), so a path of cost at most
    L = cap - 1 keeps to the window -left < k < right. Yields (lo, cells)
    for rows i = 0..len(a), over the columns lo = max(0, i - left) to
    min(len(b), i + right - 1): once lo > 0, a boundary cell, the cell above
    plus one (``_row_step``'s column-0 rule), then the window. The window
    holds the DP over the paths that keep to it, saturated at cap: the
    boundary is never below the diagonal step right of it. So a cell on a
    path of cost at most L reads its true value, and any other cell at
    least its true value or cap. Assumes |delta| <= L.
    """
    n = len(b)
    left, right = (cap - 1 - n + len(a)) // 2 + 1, (cap - 1 + n - len(a)) // 2 + 1
    lo = 0
    row = tuple(range(min(right, n + 1)))
    yield lo, row
    for i, symbol in enumerate(a, 1):
        if i > left:
            row = row[1:]
            lo += 1
        if i + right <= n + 1:
            row += (cap,)
        row = _row_step(row, symbol, b[lo : lo + len(row) - 1], cap)
        yield lo, row


def _fold(a: str, b: str, limit: int) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """One try at limit: min(edit distance, limit + 1), and the rows it folded.

    The try stops at the first row above the limit in every cell, as each
    path in the window crosses it.
    """
    rows: list[tuple[int, tuple[int, ...]]] = []
    if abs(len(a) - len(b)) > limit:
        return limit + 1, rows
    for lo, row in _band_rows(a, b, limit + 1):
        rows.append((lo, row))
        if min(row) > limit:
            return limit + 1, rows
    return row[-1], rows


def _exact(a: str, b: str) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """The edit distance d, and the DP rows (lo, cells) of the fold that found it.

    Each cell of an optimal path lies in its row's span and reads its true
    value; any other reads at least that, or above d. Ukkonen's cutoff tries
    limits from max(1, length difference). A try that dies at row i restarts
    at ceil((limit + 1) * len(a) / i), the limit its rows would reach by the
    last row, but at least twice and at most four times the old one, as a
    wider window dies later. Where the window would not pay, whole rows.
    """
    m, n = len(a), len(b)
    limit = max(1, abs(m - n))
    while _banded(limit + 1, n):
        d, rows = _fold(a, b, limit)
        if d <= limit:
            return d, rows
        limit = min(4 * limit, max(2 * limit, -(-(limit + 1) * m // (len(rows) - 1))))
    rows = list(_band_rows(a, b, m + n + 1))
    return rows[-1][1][-1], rows


def levenshtein(u: Word, v: Word) -> int:
    """Minimum number of insertions, deletions, and substitutions turning u into v."""
    require_same_alphabet(u, v)
    return _exact(u.text, v.text)[0]


def _optimal_steps(a: str, b: str, rows, i: int, j: int):
    """The steps into cell (i, j) of an optimal path that come from one.

    ``rows`` are those of ``_exact(a, b)``, and P(i, j) is ``cells[j - lo]``
    inside row i's span and d + 1 outside it. Yields (class code, previous
    cell): the diagonal step (match 0, mismatch 1), then the deletion, then
    the insertion. A step keeps the path optimal exactly when P of the cell
    it leaves plus its cost equals P(i, j): P reads each cell of an optimal
    path exactly, and any other at least its true value or above d.
    """
    out = rows[-1][1][-1] + 1

    def p(i: int, j: int) -> int:
        lo, cells = rows[i]
        return cells[j - lo] if lo <= j < lo + len(cells) else out

    here = p(i, j)
    if i and j:
        c = int(a[i - 1] != b[j - 1])
        if p(i - 1, j - 1) + c == here:
            yield c, (i - 1, j - 1)
    if i and p(i - 1, j) + 1 == here:
        yield _CLASS_CODE[DELETION], (i - 1, j)
    if j and p(i, j - 1) + 1 == here:
        yield _CLASS_CODE[INSERTION], (i, j - 1)


def _column(a: str, b: str, i: int, j: int, ni: int, nj: int) -> Column:
    """The alignment column of the step from cell (i, j) to cell (ni, nj)."""
    return Column(a[i] if ni > i else None, b[j] if nj > j else None)


def optimal_alignment(u: Word, v: Word) -> Alignment:
    """Some minimum-cost alignment with u on the top row and v on the bottom.

    Backtracks from the last cell, taking the first step of
    ``_optimal_steps`` at each cell: it prefers the diagonal, then the
    deletion, then the insertion.
    """
    require_same_alphabet(u, v)
    return _backtrack(u.text, v.text, _exact(u.text, v.text)[1])


def _backtrack(a: str, b: str, rows) -> Alignment:
    """``optimal_alignment`` of a over b, off the rows of ``_exact(a, b)``."""
    cols: list[Column] = []
    i, j = len(a), len(b)
    while i or j:
        _, (pi, pj) = next(_optimal_steps(a, b, rows, i, j))
        cols.append(_column(a, b, pi, pj, i, j))
        i, j = pi, pj
    return Alignment(tuple(reversed(cols)))


def enumerate_optimal_alignments(
    u: Word, v: Word, max_len: int = DEFAULT_ORACLE_MAX_LEN
) -> tuple[Alignment, ...]:
    """All distinct minimum-cost alignments between u (top) and v (bottom).

    Exhaustive over the path graph, walked back from the last cell, so it
    refuses inputs longer than ``max_len`` rather than truncating.
    """
    require_same_alphabet(u, v)
    _require_short(u.text, v.text, max_len)
    return _alignments(u.text, v.text, _exact(u.text, v.text)[1])


def _require_short(a: str, b: str, max_len: int = DEFAULT_ORACLE_MAX_LEN) -> None:
    """Refuse an exhaustive alignment enumeration past ``max_len`` letters."""
    if len(a) > max_len or len(b) > max_len:
        raise BudgetError(
            f"alignment enumeration limited to words of length <= {max_len}"
        )


def _alignments(a: str, b: str, rows) -> tuple[Alignment, ...]:
    """``enumerate_optimal_alignments`` of a over b, off the rows of ``_exact(a, b)``."""
    out: list[Alignment] = []
    acc: list[Column] = []

    def walk(i: int, j: int) -> None:
        if not (i or j):
            out.append(Alignment(tuple(reversed(acc))))
            return
        for _, (pi, pj) in _optimal_steps(a, b, rows, i, j):
            acc.append(_column(a, b, pi, pj, i, j))
            walk(pi, pj)
            acc.pop()

    walk(len(a), len(b))
    return tuple(out)


def mm_index_sequence(alignment: Alignment) -> tuple[int, ...]:
    """1-based positions of the match/mismatch columns, strictly increasing."""
    return tuple(
        i for i, c in enumerate(alignment.columns, start=1) if c.kind in (MATCH, MISMATCH)
    )


def alignment_order_key(alignment: Alignment):
    """Sort key realizing the leftmost order.

    Primary: number of match/mismatch columns. Secondary: their index
    sequence, lexicographically. Tertiary: the per-column class codes
    (match < mismatch < insertion < deletion), which distinguish any two
    distinct alignments of the same word pair.
    """
    indices = mm_index_sequence(alignment)
    codes = tuple(_CLASS_CODE[c.kind] for c in alignment.columns)
    return (len(indices), indices, codes)


def leftmost_optimal_alignment(top: Word, bottom: Word) -> Alignment:
    """The minimum alignment under :func:`alignment_order_key`.

    Runs a level-synchronized sweep over the graph of optimal alignment
    paths, one level per emitted column. All partial paths kept at a level
    share the same match/mismatch index prefix; a level that can place a
    match/mismatch column always does (any path that defers one is
    lexicographically larger), and the class-code prefix stored per cell
    settles the remaining ties. Exact, and checked against the exhaustive
    enumeration in the test suite. Only the cells of optimal paths, found
    by walking their steps back from the last cell, are worked on; the walk
    keeps each cell's onward steps for the sweep.
    """
    require_same_alphabet(top, bottom)
    return _leftmost(top.text, bottom.text, _exact(top.text, bottom.text)[1])


def _leftmost(a: str, b: str, rows) -> Alignment:
    """``leftmost_optimal_alignment`` of a over b, off the rows of ``_exact(a, b)``."""
    # The cells of optimal paths, each with its onward optimal steps,
    # reached by walking the steps into them back from the last cell.
    end = (len(a), len(b))
    steps: dict[tuple[int, int], list] = {end: []}
    todo = [end]
    while todo:
        cell = todo.pop()
        for code, prev in _optimal_steps(a, b, rows, *cell):
            if prev not in steps:
                todo.append(prev)
            steps.setdefault(prev, []).append((code, cell))

    # Fewest diagonal (match/mismatch) steps over each cell's optimal
    # completions; in reverse row-major order a cell's successors come first.
    kmin: dict[tuple[int, int], int] = {}
    for cell in sorted(steps, reverse=True):
        kmin[cell] = min(((code <= 1) + kmin[nxt] for code, nxt in steps[cell]), default=0)

    k_left = kmin[0, 0]
    # cell -> lexicographically smallest class-code prefix reaching it
    frontier: dict[tuple[int, int], tuple[int, ...]] = {(0, 0): ()}
    while end not in frontier:
        diag_bucket: dict[tuple[int, int], tuple[int, ...]] = {}
        gap_bucket: dict[tuple[int, int], tuple[int, ...]] = {}
        for cell, prefix in frontier.items():
            for code, nxt in steps[cell]:
                diag = code <= 1
                if kmin[nxt] == k_left - diag:
                    bucket = diag_bucket if diag else gap_bucket
                    seq = prefix + (code,)
                    if nxt not in bucket or seq < bucket[nxt]:
                        bucket[nxt] = seq
        if diag_bucket:
            frontier = diag_bucket
            k_left -= 1
        else:
            frontier = gap_bucket

    cols: list[Column] = []
    i = j = 0
    for code in frontier[end]:
        ni, nj = i + (code != _CLASS_CODE[INSERTION]), j + (code != _CLASS_CODE[DELETION])
        cols.append(_column(a, b, i, j, ni, nj))
        i, j = ni, nj
    return Alignment(tuple(cols))
