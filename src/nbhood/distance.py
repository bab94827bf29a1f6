"""Levenshtein distance and optimal-alignment machinery.

Besides the distance itself, this module reconstructs optimal alignments,
exhaustively enumerates all of them (small inputs only), and selects the
*leftmost* optimal alignment: among all minimum-cost alignments, first
minimize the number k of match/mismatch columns, then take the
lexicographically smallest sequence of their column indices. Ties beyond
that order are broken by the column-class sequence (match < mismatch <
insertion < deletion, compared left to right), which makes the selection
a total order and the result fully deterministic.

The edit-distance DP is written once, in ``_row_step``: one letter of the
row against the prefixes of a word, saturated at a cap, optionally with a
free start (Sellers 1980). The neighborhood automaton steps its prefix and
free-start rows with it. Here one fold steps it, ``_band_rows``: only the
band of cells within the cap of the diagonal (Ukkonen 1985), which at a
cap above every distance in the table is the whole row, every cell exact.
``_optimal_steps`` is likewise the one statement of which steps keep an
alignment optimal.

``_dist`` folds with an early exit. ``_exact`` tries limits on d: a try
whose band dies at row i restarts at the limit its rows would reach by the
last row, and at least twice the old one. Where the band would not pay
(short words, as in ``verify``, or a large d) both fold whole rows. Each
alignment reads the rows of ``_exact`` in place, band-shaped and forward,
and walks optimal paths back from the last cell. The leftmost alignment
then works only on the cells of optimal paths.
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


def _row_step(
    row: tuple[int, ...], symbol: str, w: str, cap: int, free_start: bool = False
) -> tuple[int, ...]:
    """One letter of the edit-distance DP against the prefixes of w.

    ``row[j]`` is min(dist(u, w[:j]), cap) for the word u read so far, and
    the result is that row for u + symbol. Cells saturate at cap: with
    cap = d + 1, values above d never influence a <= d test. With
    ``free_start`` column 0 is pinned to 0, so a match may begin after any
    letter read (Sellers 1980): the row then holds the least distance from
    w[:j] to a suffix of the word read.
    """
    left = 0 if free_start else min(row[0] + 1, cap)
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
    """Whether to fold only the band of cap, against rows of n + 1 cells.

    Only when the band with a cell of slack on each side, 2 * (cap + 1)
    cells, is at most half the row: on shorter rows cutting the band costs
    more than the cells it skips.
    """
    return 4 * (cap + 1) <= n


def _band_rows(a: str, b: str, cap: int):
    """The DP rows of a against the prefixes of b, cut to the band.

    Yields (lo, cells) for rows i = 0..len(a): ``cells[k]`` is
    min(dist(a[:i], b[:lo + k]), cap) for the columns lo = max(0, i - cap)
    to hi = min(len(b), i + cap - 1). A cell with |i - j| >= cap is at
    least cap, so every cell outside the band is cap (Ukkonen 1985). The
    band starts one column left of the live cells |i - j| < cap. The
    boundary cell's diagonal and left neighbours are then cap and cap + 1
    off the diagonal, so both are >= cap, and ``_row_step``'s column-0
    rule (the cell above plus one, saturated) gives its true value.
    Assumes |len(a) - len(b)| < cap, so that every band is nonempty and
    the last one reaches column len(b).
    """
    n = len(b)
    lo = 0
    row = tuple(range(min(cap, n + 1)))
    yield lo, row
    for i, symbol in enumerate(a, 1):
        if i > cap:
            row = row[1:]
            lo += 1
        if i + cap <= n + 1:
            row += (cap,)
        row = _row_step(row, symbol, b[lo : lo + len(row) - 1], cap)
        yield lo, row


def _dist(a: str, b: str, limit: int) -> int:
    """Edit distance between raw strings, saturated at ``limit + 1``.

    The result is the exact distance when it is <= limit and ``limit + 1``
    otherwise, which leaves every ``<= limit`` decision intact while
    enabling an early exit once a whole row exceeds the limit. When the
    band is well narrower than the row, only the band is folded; else
    whole rows, at a cap above every distance in the table.
    """
    if len(a) < len(b):
        a, b = b, a
    cap = limit + 1
    if len(a) - len(b) >= cap:
        return cap
    whole = len(a) + len(b) + 1
    for _, row in _band_rows(a, b, cap if _banded(cap, len(b)) else whole):
        if min(row) > limit:
            return cap
    return min(row[-1], cap)


def _exact(a: str, b: str) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """The edit distance d, and the DP rows (lo, cells) of the fold that found it.

    The rows are those of a against the prefixes of b, as ``_band_rows``
    yields them. Each cell is exact up to d and above d otherwise, which
    leaves every step of an optimal path as it is: its cells are at most d,
    and a cell above d fails every equality that its true value fails.
    Ukkonen's cutoff: a try folds the band of limit + 1, from limit =
    max(1, length difference), and fits when its last cell is at most the
    limit. A try that dies at row i, every cell above the limit, restarts
    at the limit its rows would reach by row len(a), ceil((limit + 1) *
    len(a) / i), and at least twice the old one. Once the band is no longer
    well narrower than the row, whole rows are folded, every cell exact.
    """
    m, n = len(a), len(b)
    limit = max(1, abs(m - n))
    while _banded(limit + 1, n):
        rows = []
        for lo, row in _band_rows(a, b, limit + 1):
            rows.append((lo, row))
            if min(row) > limit:
                break
        if row[-1] <= limit:
            return row[-1], rows
        limit = max(2 * limit, -(-(limit + 1) * m // (len(rows) - 1)))
    rows = list(_band_rows(a, b, m + n + 1))
    return rows[-1][1][-1], rows


def levenshtein(u: Word, v: Word) -> int:
    """Minimum number of insertions, deletions, and substitutions turning u into v."""
    require_same_alphabet(u, v)
    return _exact(u.text, v.text)[0]


def _optimal_steps(a: str, b: str, rows, i: int, j: int):
    """The steps into cell (i, j) of an optimal path that come from one.

    ``rows`` are those of ``_exact(a, b)``, and P(i, j) is ``cells[j - lo]``
    inside row i's band and d + 1 outside it. Yields (class code, previous
    cell): the diagonal step (match 0, mismatch 1), then the deletion, then
    the insertion. As (i, j) lies on an optimal path, P(i, j) is exact, and
    a step keeps the path optimal exactly when P of the cell it leaves plus
    its cost equals P(i, j); a cell above d fails that as its true value does.
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
    a, b = u.text, v.text
    rows = _exact(a, b)[1]
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
    if len(u) > max_len or len(v) > max_len:
        raise BudgetError(
            f"alignment enumeration limited to words of length <= {max_len}"
        )
    a, b = u.text, v.text
    rows = _exact(a, b)[1]

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
    a, b = top.text, bottom.text
    rows = _exact(a, b)[1]

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
