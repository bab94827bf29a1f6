"""Exact counting formulas and upper bounds for condensed neighborhoods.

Unary-word counts admit closed forms built from an extended binomial
coefficient. Two upper bounds on the condensed-neighborhood size of an
arbitrary word are computed exactly: a sum over alignment profiles
(number of substitution and deletion columns) and a closed-form bound
(2s-1)^d * w^d / d!. A lemma checker replays the chain of identities
and inequalities that squeezes the profile bound under the closed form,
each as one integer comparison with its denominators cleared.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .core import RangeError
from .neighborhood import BUDGET_ENV_VAR, check_budget

PANEL_PROFILE = "a"
PANEL_CLOSED_FORM = "b"

TABLE_LENGTHS = (4, 6, 8, 10)


def binom_ext(n: int, k: int) -> int:
    """Binomial coefficient extended so choosing 0 items always counts 1.

    Needed because the unary formulas produce terms like C(-1, 0) at the
    boundary, whose value is forced to 1 by the enumeration they count.
    """
    if k == 0:
        return 1
    if k < 0 or n < k:
        return 0
    return comb(n, k)


def _require_unary_range(w: int, d: int, s: int) -> None:
    if w < 0:
        raise RangeError(f"word length must be nonnegative, got {w}")
    if s < 1:
        raise RangeError(f"alphabet size must be at least 1, got {s}")
    if d < 0:
        raise RangeError(f"distance must be nonnegative, got {d}")
    if d > w:
        raise RangeError(f"distance {d} exceeds word length {w}")


def _unary_sum(c: int, d: int, s: int) -> int:
    """Sum over k = 0..d of C(c + k, k) * (s - 1)^k, or 1 when c < 0.

    Both unary counts, with k = d + m - w for the length m of a member and
    c = w - d - 1 (condensed) or w - d - 2 (super-condensed). Each term is
    the last one times (c + k)(s - 1) / k, which divides exactly.
    """
    if c < 0:
        return 1
    total = term = 1
    for k in range(1, d + 1):
        term = term * (c + k) * (s - 1) // k
        total += term
    return total


def unary_condensed_count(w: int, d: int, s: int) -> int:
    """Size of the condensed d-neighborhood of a length-w unary word.

    Over an alphabet of size s; equals C(w, d) when s = 2.
    """
    _require_unary_range(w, d, s)
    return _unary_sum(w - d - 1, d, s)


def unary_super_condensed_count(w: int, d: int, s: int) -> int:
    """Size of the super-condensed d-neighborhood of a length-w unary word.

    Over an alphabet of size s; equals C(w-1, d) when s = 2 and d < w. At
    d = w the neighborhood is the empty word alone, so the size is 1.
    """
    _require_unary_range(w, d, s)
    return _unary_sum(w - d - 2, d, s)


def alignment_profile_bound(w: int, d: int, s: int) -> int:
    """Upper bound on any condensed d-neighborhood size over words of length w.

    Sums, over the number i of substitution columns and j of deletion
    columns in an optimal alignment, the count of words compatible with
    that profile. Defined for 0 <= d < w. Its (d + 1)(d + 2) / 2 terms are
    charged to the candidate budget.
    """
    if s < 1:
        raise RangeError(f"alphabet size must be at least 1, got {s}")
    if not 0 <= d < w:
        raise RangeError(f"need 0 <= distance < length, got d={d}, w={w}")
    check_budget(
        (d + 1) * (d + 2) // 2,
        None,
        "profile bound would sum {needed} terms, over the budget of {limit}; "
        f"raise {BUDGET_ENV_VAR} to force the run",
    )
    # The term at (i, j) is C(w, i) (s-1)^(d-i) C(w-i-1, j) C(w+d-2k-1, d-k)
    # with k = i + j. Each binomial is updated from the one before it, and
    # every division below is exact: C(N, K) -> C(N-1, K-1) -> C(N-2, K-1)
    # gives the last factor for k + 1, and N - K = w - k - 1 >= 1 there.
    last = [comb(w + d - 1, d)]
    for k in range(d):
        n, r = w + d - 2 * k - 1, d - k
        last.append(last[k] * r // n * (n - r) // (n - 1))
    total = 0
    outer = 1  # C(w, i)
    for i in range(d + 1):
        inner = 0
        pick = 1  # C(w-i-1, j)
        for j in range(d - i + 1):
            inner += pick * last[i + j]
            pick = pick * (w - i - 1 - j) // (j + 1)
        total += outer * (s - 1) ** (d - i) * inner
        outer = outer * (w - i) // (i + 1)
    return total


def closed_form_bound_exact(w: int, d: int, s: int) -> Fraction:
    """The bound (2s-1)^d * w^d / d! as an exact rational."""
    if s < 1:
        raise RangeError(f"alphabet size must be at least 1, got {s}")
    if not 0 <= d <= w:
        raise RangeError(f"need 0 <= distance <= length, got d={d}, w={w}")
    return Fraction((2 * s - 1) ** d * w**d, factorial(d))


@dataclass(frozen=True)
class BoundReport:
    """Both upper bounds at one parameter point.

    ``profile_bound`` is None at d = w, where the profile bound is not
    defined (its derivation needs at least one match column).
    """

    word_length: int
    distance: int
    alphabet_size: int
    profile_bound: int | None
    closed_form_exact: Fraction
    closed_form_floor: int

    def __post_init__(self) -> None:
        if self.closed_form_floor != self.closed_form_exact.__floor__():
            raise ValueError("floor field disagrees with exact value")


def bound_report(w: int, d: int, s: int) -> BoundReport:
    """Evaluate both bounds exactly; valid for 0 <= d <= w."""
    exact = closed_form_bound_exact(w, d, s)
    profile = alignment_profile_bound(w, d, s) if d < w else None
    return BoundReport(
        word_length=w,
        distance=d,
        alphabet_size=s,
        profile_bound=profile,
        closed_form_exact=exact,
        closed_form_floor=exact.__floor__(),
    )


def bound_table_rows() -> tuple[tuple[str, int, int, int], ...]:
    """Reference table of both bounds: panels "a" (profile) and "b" (closed form).

    Word lengths 4, 6, 8, 10 with 1 <= d <= w-1 at alphabet size 2;
    rows are (panel, w, d, value).
    """
    rows: list[tuple[str, int, int, int]] = []
    for w in TABLE_LENGTHS:
        for d in range(1, w):
            rows.append((PANEL_PROFILE, w, d, alignment_profile_bound(w, d, 2)))
    for w in TABLE_LENGTHS:
        for d in range(1, w):
            rows.append(
                (PANEL_CLOSED_FORM, w, d, closed_form_bound_exact(w, d, 2).__floor__())
            )
    return tuple(rows)


@dataclass(frozen=True)
class LemmaCheck:
    """Outcome of one lemma over its auxiliary-index range."""

    name: str
    tested: tuple
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class LemmaCheckReport:
    """Exact-arithmetic verdicts for the bound-proof lemma chain at (w, d, s)."""

    word_length: int
    distance: int
    alphabet_size: int
    checks: tuple[LemmaCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> tuple[LemmaCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _expansion_identity(w: int, d: int, s: int) -> LemmaCheck:
    """(2s-1)^d w^d / d! split by binomial expansion of (1 + 2(s-1))^d.

    Both sides times d!: Sum_x C(d, x) (2(s-1))^(d-x) w^d = (2s-1)^d w^d.
    """
    lhs = sum(comb(d, x) * (2 * s - 2) ** (d - x) * w**d for x in range(d + 1))
    ok = lhs == (2 * s - 1) ** d * w**d
    return LemmaCheck("expansion_identity", ((w, d, s),), () if ok else ((w, d, s),))


def _shifted_square_bound(w: int, d: int) -> LemmaCheck:
    """(w - t + 1)^2 <= (w + d/2 + 1/2)(w - d/2 + 3/2) for d/4 <= t <= d-1.

    Checked at every integer t in range and at the quarter point t = d/4
    itself, which the downstream argument also uses. Both sides times 16,
    in quarters q = 4t: (4w - q + 4)^2 <= 4 (2w + d + 1)(2w - d + 3).
    """
    rhs = 4 * (2 * w + d + 1) * (2 * w - d + 3)
    qs = [d] + [4 * t for t in range((d + 3) // 4, d) if 4 * t != d]
    ts = tuple(Fraction(q, 4) for q in qs)
    failures = tuple(t for t, q in zip(ts, qs) if (4 * w - q + 4) ** 2 > rhs)
    return LemmaCheck("shifted_square_bound", ts, failures)


def _shifted_quartic_bound(w: int, d: int) -> LemmaCheck:
    """(w+2t)(w+2t-1)(w-t+1)^2 <= (w + d/2 + 1/2)^3 (w - d/2 + 3/2) for 0 <= t <= d/4.

    Both sides times 16: 16 (w+2t)(w+2t-1)(w-t+1)^2 <= (2w+d+1)^3 (2w-d+3).
    """
    rhs = (2 * w + d + 1) ** 3 * (2 * w - d + 3)
    ts = tuple(range(d // 4 + 1))
    failures = tuple(
        t for t in ts if 16 * (w + 2 * t) * (w + 2 * t - 1) * (w - t + 1) ** 2 > rhs
    )
    return LemmaCheck("shifted_quartic_bound", ts, failures)


def _binomial_pair_bound(w: int, d: int) -> LemmaCheck:
    """C(w,j) C(w+d-2j, d-j) <= (w+d/2+1/2)^(d-j) (w-d/2+3/2)^j / (j!(d-j)!).

    Both sides times 2^d j! (d-j)!: the right is (2w+d+1)^(d-j) (2w-d+3)^j.
    """
    js = tuple(range(d + 1))
    failures = tuple(
        j
        for j in js
        if 2**d * factorial(j) * factorial(d - j)
        * binom_ext(w, j) * binom_ext(w + d - 2 * j, d - j)
        > (2 * w + d + 1) ** (d - j) * (2 * w - d + 3) ** j
    )
    return LemmaCheck("binomial_pair_bound", js, failures)


def _relaxed_layouts(w: int, d: int) -> tuple[int, ...]:
    """The relaxed layout count C(w, x) Sum_j C(w-x-1, j) C(w+d-x-2j-1, d-x-j), x = 0..d.

    Empty unless d < w, the only range whose checks read it. Within a sum
    both binomials step from the ones before them, and every division is
    exact: C(N, R) -> C(N-1, R-1) -> C(N-2, R-1), with N - R = w - j - 1 >= 1.
    """
    if d >= w:
        return ()
    layouts = []
    for x in range(d + 1):
        total, pick, wide = 0, 1, comb(w + d - x - 1, d - x)  # the binomials at j = 0
        for j in range(d - x):
            total += pick * wide
            n, r = w + d - x - 2 * j - 1, d - x - j
            pick = pick * (w - x - 1 - j) // (j + 1)
            wide = wide * r // n * (n - r) // (n - 1)
        layouts.append(comb(w, x) * (total + pick * wide))
    return tuple(layouts)


def _gap_layout_bound(w: int, d: int, layouts: tuple[int, ...]) -> LemmaCheck:
    """Per-profile layout count against 2^(d-x) w^d / (x!(d-x)!), needs d < w."""
    if d >= w:
        return LemmaCheck("gap_layout_bound", (), ())
    xs = tuple(range(d + 1))
    failures = tuple(
        x for x, n in enumerate(layouts)
        if n * factorial(x) * factorial(d - x) > 2 ** (d - x) * w**d
    )
    return LemmaCheck("gap_layout_bound", xs, failures)


def _central_sum_bound(w: int, d: int) -> LemmaCheck:
    """Sum_j C(w,j) C(w+d-2j, d-j) <= 2^d (w+1)^d / d!, both sides times d!."""
    lhs = sum(binom_ext(w, j) * binom_ext(w + d - 2 * j, d - j) for j in range(d + 1))
    ok = factorial(d) * lhs <= 2**d * (w + 1) ** d
    return LemmaCheck("central_sum_bound", ((w, d),), () if ok else ((w, d),))


def _chain_dominance(w: int, d: int, s: int, layouts: tuple[int, ...]) -> LemmaCheck:
    """profile bound <= relaxed profile sum <= closed form, needs d < w.

    The relaxed sum widens the second inner binomial of the profile bound
    exactly as the proof chain does before the per-profile layout bound
    takes over. The last step is compared times d!: d! relaxed <= (2s-1)^d w^d.
    """
    if d >= w:
        return LemmaCheck("chain_dominance", (), ())
    relaxed = sum(n * (s - 1) ** (d - x) for x, n in enumerate(layouts))
    profile = alignment_profile_bound(w, d, s)
    ok = profile <= relaxed and factorial(d) * relaxed <= (2 * s - 1) ** d * w**d
    return LemmaCheck("chain_dominance", ((w, d, s),), () if ok else ((w, d, s),))


def _lemma_reports(w: int, d: int, sigmas: tuple[int, ...]) -> list[LemmaCheckReport]:
    """The lemma-chain report at (w, d, s) for each s in sigmas, in that order.

    Five of the seven checks do not depend on s; they run once and are
    shared by every report.
    """
    for s in sigmas:
        if s < 2:
            raise RangeError(f"alphabet size must be at least 2, got {s}")
    if not 1 <= d <= w:
        raise RangeError(f"need 1 <= distance <= length, got d={d}, w={w}")
    square = _shifted_square_bound(w, d)
    quartic = _shifted_quartic_bound(w, d)
    pair = _binomial_pair_bound(w, d)
    layouts = _relaxed_layouts(w, d)
    layout = _gap_layout_bound(w, d, layouts)
    central = _central_sum_bound(w, d)
    return [
        LemmaCheckReport(
            word_length=w,
            distance=d,
            alphabet_size=s,
            checks=(
                _expansion_identity(w, d, s),
                square,
                quartic,
                pair,
                layout,
                central,
                _chain_dominance(w, d, s, layouts),
            ),
        )
        for s in sigmas
    ]


def check_bound_lemmas(w: int, d: int, s: int) -> LemmaCheckReport:
    """Replay the bound-proof lemma chain exactly at one parameter point.

    Requires 1 <= d <= w and s >= 2. Inequalities over auxiliary indices
    are checked at every in-range index; checks whose hypotheses exclude
    the point (those needing d < w) report an empty tested range.
    """
    return _lemma_reports(w, d, (s,))[0]
