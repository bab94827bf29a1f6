"""Levenshtein distance and optimal-alignment machinery.

Besides the distance itself, this module reconstructs optimal alignments,
exhaustively enumerates all of them (small inputs only), and selects the
*leftmost* optimal alignment: among all minimum-cost alignments, first
minimize the number k of match/mismatch columns, then take the
lexicographically smallest sequence of their column indices. Ties beyond
that order are broken by the column-class sequence (match < mismatch <
insertion < deletion, compared left to right), which makes the selection
a total order and the result fully deterministic.

The edit-distance table of a pair is written once, in ``_columns``:
column j of the table of a against b is kept as its vertical deltas, two
len(a)-bit integers, and each column is a few big-integer operations on
the last (Myers 1999; Hyyrö 2001), with no limit to guess. ``_cell`` reads
any cell back from its column. The neighborhood automaton steps its rows
with the second recurrence, on bit-parallel threshold masks,
``neighborhood._mask_step``; both take their letters' match masks from
``_match_masks``. ``_optimal_steps`` is the one statement of which steps
keep an alignment optimal.

``levenshtein`` and ``in_neighborhood`` keep one column at a time;
``_exact`` keeps all len(b) + 1 of them. Each alignment reads the columns
of ``_exact`` and walks optimal paths back from the last cell; ``nbhood
dist`` computes the columns once and hands them to each alignment it
prints.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator

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


def _match_masks(w: str, symbols: Iterable[str]) -> dict[str, int]:
    """Each letter's match mask against w: bit k is set iff w[k] is the letter.

    Both recurrences read their letters from it: ``_columns`` and
    ``neighborhood._mask_step``.
    """
    masks = dict.fromkeys(symbols, 0)
    for k, c in enumerate(w):
        masks[c] |= 1 << k
    return masks


def _columns(a: str, b: str) -> Iterator[tuple[int, int]]:
    """The columns j = 0..len(b) of the edit-distance table of a against b.

    Column j is yielded as its vertical deltas (pv, mv), for
    D[i][j] = dist(a[:i], b[:j]): bit i - 1 of pv is set iff
    D[i][j] - D[i - 1][j] is 1, and of mv iff it is -1 (``_cell`` reads
    them back). Column 0 rises by one a row. Each next column is a few
    big-integer operations on the last (Myers 1999, in Hyyrö's 2001 form
    for the whole table): a carry through the runs of matches gives the
    horizontal deltas (ph, mh) into the new column, which are shifted up a
    row with row 0's, always 1, at the bottom, and give its vertical deltas.
    """
    full = (1 << len(a)) - 1
    # a mask for every letter of either word
    eqs = _match_masks(a, a + b)
    pv, mv = full, 0
    yield pv, mv
    for c in b:
        eq = eqs[c]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) << 1 | 1
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
        yield pv, mv


def _cell(table: list[tuple[int, int]], i: int, j: int) -> int:
    """D[i][j], off the columns of ``_columns``: j plus the deltas of rows 1..i."""
    pv, mv = table[j]
    low = (1 << i) - 1
    return j + (pv & low).bit_count() - (mv & low).bit_count()


def _distance(a: str, b: str) -> int:
    """The edit distance of a and b, keeping one column at a time."""
    for pv, mv in _columns(a, b):
        pass
    return len(b) + pv.bit_count() - mv.bit_count()


def _exact(a: str, b: str) -> tuple[int, list[tuple[int, int]]]:
    """The edit distance of a and b, and every column of their table."""
    table = list(_columns(a, b))
    return _cell(table, len(a), len(b)), table


def levenshtein(u: Word, v: Word) -> int:
    """Minimum number of insertions, deletions, and substitutions turning u into v."""
    require_same_alphabet(u, v)
    return _distance(u.text, v.text)


def _optimal_steps(a: str, b: str, table, i: int, j: int):
    """The steps into cell (i, j) of an optimal path that come from one.

    ``table`` is the columns of ``_exact(a, b)``, read through ``_cell``.
    Yields (class code, previous cell): the diagonal step (match 0,
    mismatch 1), then the deletion, then the insertion. A step keeps the
    path optimal exactly when the cell it leaves plus its cost equals
    D[i][j].
    """
    here = _cell(table, i, j)
    if i and j:
        c = int(a[i - 1] != b[j - 1])
        if _cell(table, i - 1, j - 1) + c == here:
            yield c, (i - 1, j - 1)
    if i and _cell(table, i - 1, j) + 1 == here:
        yield _CLASS_CODE[DELETION], (i - 1, j)
    if j and _cell(table, i, j - 1) + 1 == here:
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


def _backtrack(a: str, b: str, table) -> Alignment:
    """``optimal_alignment`` of a over b, off the columns of ``_exact(a, b)``."""
    cols: list[Column] = []
    i, j = len(a), len(b)
    while i or j:
        _, (pi, pj) = next(_optimal_steps(a, b, table, i, j))
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


def _alignments(a: str, b: str, table) -> tuple[Alignment, ...]:
    """``enumerate_optimal_alignments`` of a over b, off the columns of ``_exact(a, b)``."""
    out: list[Alignment] = []
    acc: list[Column] = []

    def walk(i: int, j: int) -> None:
        if not (i or j):
            out.append(Alignment(tuple(reversed(acc))))
            return
        for _, (pi, pj) in _optimal_steps(a, b, table, i, j):
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


def _leftmost(a: str, b: str, table) -> Alignment:
    """``leftmost_optimal_alignment`` of a over b, off the columns of ``_exact(a, b)``."""
    # The cells of optimal paths, each with its onward optimal steps,
    # reached by walking the steps into them back from the last cell.
    end = (len(a), len(b))
    steps: dict[tuple[int, int], list] = {end: []}
    todo = [end]
    while todo:
        cell = todo.pop()
        for code, prev in _optimal_steps(a, b, table, *cell):
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
