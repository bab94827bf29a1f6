"""Neighborhood enumeration and counting over a DP automaton, plus a literal oracle.

Three nested variants of the distance-d neighborhood of a word W:

* full: every word within Levenshtein distance d of W
* condensed: members with no proper prefix in the full neighborhood
  (its prefix-minimal elements)
* super-condensed: members with no proper contiguous subword in the full
  neighborhood

Both production routes run on one automaton whose state is the saturated
DP row of the word read so far, kept as bit-parallel threshold masks and
stepped by ``_mask_step``, a few big-integer operations per mask (Wu &
Manber 1992). Only the masks between the row's least cell and d that are
not full are kept, so a step costs O(min(d, |W|)) mask operations. Its
letters' match masks come from ``distance._match_masks``, which the
distance's column kernel reads too; ``in_neighborhood`` tests one pair by
that kernel, after rejecting lengths more than d apart.
``count`` makes a forward pass over the distinct states, one word length
at a time, carrying how many words reach each state; ``_members``, the one
listing walk, checks its query once and walks the word trie depth first
with an explicit stack, carrying the state per node and keeping no memo
of its own. Both read a state's membership and children from the
automaton, which gives a member of a condensed kind no children. For the
super-condensed kind the state also carries a free-start (Sellers) row,
which rejects a word as soon as one of its proper subwords comes within d
of W. The automaton steps every distinct row once per call and keeps the
result until the call returns, so a call's memory grows with its distinct
rows; nothing is kept across calls.
The public enumerators build checked result records from the texts of the
walk or the oracle; the CLI and ``verify`` read the texts. The oracle scans
the candidates once with a textbook full-table DP of its own, keeps the
full set, and takes the condensed and super-condensed sets from it by their
definitions. It shares no DP code with the automaton, so tests and ``verify``
compare the two routes, and ``verify`` takes its distance facts from its DP.
"""
from __future__ import annotations

import itertools
import os
from collections.abc import Sequence

from .core import (
    Alphabet,
    BudgetError,
    KIND_CONDENSED,
    KIND_FULL,
    KIND_SUPER_CONDENSED,
    NEIGHBORHOOD_KINDS,
    NeighborhoodResult,
    RangeError,
    ValidationError,
    Word,
    make_word,
    require_same_alphabet,
    require_word,
)
from .distance import _distance, _match_masks

DEFAULT_CANDIDATE_BUDGET = 10_000_000
BUDGET_ENV_VAR = "NBHOOD_BUDGET"


def resolve_budget(budget: int | None = None) -> int:
    """Candidate-word budget: explicit argument, else env override, else default."""
    if budget is not None:
        if budget < 1:
            raise BudgetError(f"budget must be positive, got {budget}")
        return budget
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_CANDIDATE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise BudgetError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise BudgetError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def check_budget(needed: int, budget: int | None, refusal: str) -> None:
    """Raise BudgetError, ``refusal`` formatted with needed and limit, past the budget."""
    limit = resolve_budget(budget)
    if needed > limit:
        # past a few thousand digits int -> str raises
        bits = needed.bit_length()
        shown = needed if bits <= 1000 else f"about 2^{bits - 1}"
        raise BudgetError(refusal.format(needed=shown, limit=limit))


def _require_distance(d: int) -> None:
    if d < 0:
        raise RangeError(f"distance must be nonnegative, got {d}")


def _query(w: Word, d: int, alphabet: Alphabet, kind: str) -> Word:
    """Check a neighborhood query; return w rebuilt over the alphabet."""
    _require_distance(d)
    if kind not in NEIGHBORHOOD_KINDS:
        raise ValidationError(f"unknown neighborhood kind {kind!r}")
    return make_word(require_word(w).text, alphabet)


def in_neighborhood(u: Word, w: Word, d: int) -> bool:
    """True iff u lies within Levenshtein distance d of w.

    Words whose lengths differ by more than d are out at once; otherwise
    the distance, one column at a time.
    """
    _require_distance(d)
    require_same_alphabet(u, w)
    return abs(len(u) - len(w)) <= d and _distance(u.text, w.text) <= d


_Row = tuple[int, ...]
_State = tuple[_Row, _Row | None]


def _mask_step(row: _Row, match: int, d: int, full: int, free_start: bool = False) -> _Row:
    """One letter of the edit-distance DP, on a row kept as threshold masks.

    A row r over the columns 0..|w|, saturated at d + 1, is kept as
    (m, R_m, R_m+1, ...): m is its least cell, and bit j of R_k is set iff
    r[j] <= k. Every mask below m is 0. Adjacent cells differ by at most 1,
    so the masks grow to full within |w| steps of m; the tuple holds those
    from m up to d that are not full, and every later one is full. A row
    above d everywhere is (d + 1,). ``match`` is the letter's match mask
    from ``distance._match_masks``, bit k set iff w[k] is the letter, and
    ``full`` has bits 0..|w| set. The row of the word read plus the letter
    is, mask by mask (Wu & Manber 1992; Baeza-Yates & Navarro 1999),

        R'_k = ((R_k & match) << 1) | (R_k-1 << 1) | R_k-1 | (R'_k-1 << 1)

    cut to |w| + 1 bits: the diagonal on a match, the diagonal on a
    mismatch, the cell above, the cell to the left. Column 0 gains one, or
    with ``free_start`` is pinned to 0, so a match may begin after any
    letter read (Sellers 1980): bit 0 is then set in every mask. A step
    costs O(min(d, |w|)) mask operations. It starts at m, as a prefix row's
    least cell never falls (at 0 with a free start), and stops at the first
    full mask: a full R_k-1 makes R'_k full, and R'_k holds columns 0..k
    with a free start.
    """
    base, top = row[0], row[0] + len(row) - 1
    k = 0 if free_start else base
    out = [k]
    old = new = 0  # R_k-1 and R'_k-1: below a prefix row's m both are 0
    while k <= d:
        cur = 0 if k < base else row[k - base + 1] if k < top else full
        # free_start, as 1 or 0, is bit 0
        new = ((cur & match) << 1) | (((old | new) << 1 | old) & full) | free_start
        if new == full:
            break
        if new:
            out.append(new)
        else:
            out[0] = k + 1
        old = cur
        k += 1
    return tuple(out)


def _automaton(w: str, d: int, symbols: tuple[str, ...], kind: str):
    """Start state and expansion function of the neighborhood's DP automaton.

    A state is the saturated prefix row of the word read so far, as
    ``_mask_step`` keeps it; it alone decides the subtree below the word,
    so equal states can be merged (a lazily built Levenshtein automaton,
    Schulz & Mihov 2002). For the super-condensed kind the state also
    carries a free-start row over the start positions >= 1; it is all
    d + 1 before the first letter, as there is no such start yet.

    ``expand(state)`` gives whether the state is a member, its prefix row
    reaching column |w| within d, and its live children. A child is dropped
    when its prefix row is above d everywhere (no extension comes back
    within d of w) or, for the super-condensed kind, when its free-start row
    reaches column |w| within d: some proper subword not starting at letter
    0 is then a member, and it stays one in every extension. A member of a
    condensed kind has no children, as every extension has it as a proper
    prefix. Depth needs no cap: past |w| + d every prefix-row cell is above d.

    Each distinct row is stepped once per call: a prefix row's membership
    and live children, and a free-start row's step on each letter whose
    prefix child lives, are memoized in this closure. A row met at several
    depths, or shared by several state pairs, costs a lookup after its first
    step. The memos grow with the call's distinct rows and go with the closure.
    """
    n = len(w)
    full = (2 << n) - 1
    reach = 1 << n
    masks = _match_masks(w, symbols)
    sellers = kind == KIND_SUPER_CONDENSED
    start: _State = (
        # cell j of the start row is j: R_k holds columns 0..k
        (0,) + tuple((2 << k) - 1 for k in range(min(d + 1, n))),
        (d + 1,) if sellers else None,
    )

    def reaches(row: _Row) -> bool:
        # column |w| is within d iff bit |w| of R_d is set
        i = d + 1 - row[0]
        return i > 0 and (i >= len(row) or row[i] >= reach)

    # prefix row -> (member, its live children as states with no free-start
    # row); letter -> free row -> its step, or None when the step drops the child
    live: dict[_Row, tuple[bool, tuple[tuple[str, _State], ...]]] = {}
    free_steps: dict[str, dict[_Row, _Row | None]] = {symbol: {} for symbol in symbols}

    def expand(state: _State) -> tuple[bool, Sequence[tuple[str, _State]]]:
        row, free = state
        known = live.get(row)
        if known is None:
            member = reaches(row)
            out = []
            if kind == KIND_FULL or not member:
                for symbol in symbols:
                    child = _mask_step(row, masks[symbol], d, full)
                    if child[0] <= d:
                        out.append((symbol, (child, None)))
            known = live[row] = (member, tuple(out))
        if not sellers:
            return known
        member, below = known
        out = []
        for symbol, (child, _) in below:
            steps = free_steps[symbol]
            # the dict stands for a miss: a stored step is a row or None
            free_child = steps.get(free, steps)
            if free_child is steps:
                free_child = _mask_step(free, masks[symbol], d, full, free_start=True)
                if reaches(free_child):
                    free_child = None
                steps[free] = free_child
            if free_child is not None:
                out.append((symbol, (child, free_child)))
        return member, out

    return start, expand


def _candidates(n: int, d: int, s: int) -> int:
    """Words of length n-d..n+d over s letters: the sum of s^L over those lengths.

    Every member of a distance-d neighborhood of an n-letter word is one of
    them. In closed form, so a huge d costs one power instead of 2d + 1.
    """
    low, high = max(0, n - d), n + d + 1
    if s == 1:
        return high - low
    return (s**high - s**low) // (s - 1)


def _members(
    w: Word, d: int, alphabet: Alphabet, kind: str, budget: int | None = None
) -> list[str]:
    """The requested neighborhood's texts, by a depth-first walk of the word trie.

    The query is checked here, once. A listing that could hold more words
    than the budget, by the candidate count, is counted first, and refused
    when its exact member count is over the budget; one that fits runs no
    count. An explicit stack keeps long words clear of the recursion limit.
    Children are pushed in reverse rank order, so the pops visit words in
    pre-order by symbol rank, which is the canonical order. The walk keeps
    no memo of its own: the automaton already steps each distinct row once
    per call and hands back its children.
    """
    w = _query(w, d, alphabet, kind)
    if _candidates(len(w), d, alphabet.size) > resolve_budget(budget):
        check_budget(
            count(w, d, alphabet, kind),
            budget,
            "listing would hold {needed} members, over the budget of {limit}; "
            "raise it explicitly to force the run",
        )
    start, expand = _automaton(w.text, d, alphabet.symbols, kind)
    out = []
    stack = [("", start)]
    while stack:
        prefix, state = stack.pop()
        member, children = expand(state)
        if member:
            out.append(prefix)
        stack.extend((prefix + symbol, child) for symbol, child in reversed(children))
    return out


def _result(
    w: Word, d: int, kind: str, texts: list[str], alphabet: Alphabet
) -> NeighborhoodResult:
    words = tuple(make_word(t, alphabet) for t in texts)
    return NeighborhoodResult(
        query=w, distance=d, kind=kind, count=len(words), words=words
    )


def _enumerate(w: Word, d: int, alphabet: Alphabet, kind: str) -> NeighborhoodResult:
    texts = _members(w, d, alphabet, kind)
    return _result(make_word(w.text, alphabet), d, kind, texts, alphabet)


def enumerate_full(w: Word, d: int, alphabet: Alphabet) -> NeighborhoodResult:
    """All words within distance d of w, canonically sorted."""
    return _enumerate(w, d, alphabet, KIND_FULL)


def enumerate_condensed(w: Word, d: int, alphabet: Alphabet) -> NeighborhoodResult:
    """The prefix-minimal members of the full neighborhood (a prefix-free set)."""
    return _enumerate(w, d, alphabet, KIND_CONDENSED)


def enumerate_super_condensed(w: Word, d: int, alphabet: Alphabet) -> NeighborhoodResult:
    """Members of the full neighborhood with no proper contiguous subword in it."""
    return _enumerate(w, d, alphabet, KIND_SUPER_CONDENSED)


def count(w: Word, d: int, alphabet: Alphabet, kind: str) -> int:
    """Cardinality of the requested neighborhood without keeping the word list.

    A forward pass over the distinct states of the DP automaton, one word
    length at a time: each level maps a state to the number of words that
    reach it, so the work grows with the distinct states, not the words.
    The automaton steps each distinct row once per call, also when it
    recurs at a later length; its memo, and so the call's memory, grows
    with the distinct rows and is dropped when the call returns.
    """
    w = _query(w, d, alphabet, kind)
    start, expand = _automaton(w.text, d, alphabet.symbols, kind)
    total = 0
    level = {start: 1}
    while level:
        following: dict[_State, int] = {}
        for state, ways in level.items():
            member, children = expand(state)
            if member:
                total += ways
            for _, child in children:
                following[child] = following.get(child, 0) + ways
        level = following
    return total


def _plain_dist(u: Sequence[str], w: str) -> int:
    """Textbook edit distance over the full table: no cap, no band, no early exit.

    The oracle's own DP. It shares no code with ``distance``, so a fault in
    the production recurrence cannot reach both sides of a comparison.
    """
    row = list(range(len(w) + 1))
    for i, symbol in enumerate(u, 1):
        left = i
        out = [left]
        for diag, above, c in zip(row, row[1:], w):
            if c != symbol:
                diag += 1
            if above < diag:
                diag = above + 1
            if left < diag:
                diag = left + 1
            out.append(diag)
            left = diag
        row = out
    return row[-1]


def _oracle(
    w: Word, d: int, alphabet: Alphabet, budget: int | None = None
) -> dict[str, list[str]]:
    """All three neighborhoods of a checked query, by one scan and the definitions.

    Tests every candidate word of length |w|-d..|w|+d with ``_plain_dist``
    (the distance is at least the length difference, so no other length is
    a member) and keeps the full set. The condensed and super-condensed
    sets are then its members with no proper prefix, and no proper
    contiguous subword, in it. Returns the canonically sorted texts keyed
    by kind. Refuses instances whose candidate count, the sum of s^L over
    the scanned lengths L, exceeds the budget.
    """
    check_budget(
        _candidates(len(w), d, alphabet.size),
        budget,
        "oracle would scan {needed} candidates, over the budget of {limit}; "
        "raise it explicitly to force the run",
    )

    full = set()
    for length in range(max(0, len(w) - d), len(w) + d + 1):
        for chars in itertools.product(alphabet.symbols, repeat=length):
            if _plain_dist(chars, w.text) <= d:
                full.add("".join(chars))

    ordered = sorted(full, key=alphabet._order)
    return {
        KIND_FULL: ordered,
        KIND_CONDENSED: [
            u for u in ordered if not any(u[:k] in full for k in range(len(u)))
        ],
        KIND_SUPER_CONDENSED: [
            u
            for u in ordered
            if not any(
                u[i:j] in full
                for i in range(len(u) + 1)
                for j in range(i, len(u) + 1)
                if (i, j) != (0, len(u))
            )
        ],
    }


def brute_force_enumerate(
    w: Word, d: int, alphabet: Alphabet, kind: str, budget: int | None = None
) -> NeighborhoodResult:
    """Ground-truth oracle: test every candidate word, apply the definitions literally.

    One scan of the candidates finds the full neighborhood with the
    oracle's own textbook DP; the condensed and super-condensed sets are
    taken from it by their definitions, and this returns the requested
    one (see ``_oracle``). Refuses instances whose candidate count, the
    words of length |w|-d..|w|+d, exceeds the budget.
    """
    w = _query(w, d, alphabet, kind)
    return _result(w, d, kind, _oracle(w, d, alphabet, budget)[kind], alphabet)
