"""Cross-module verification sweeps.

Every check compares two independent routes to the same fact: the trie
walk against the literal set-difference oracle and its own DP, closed-form
counts against enumeration, bounds against exhaustive neighborhood sizes,
and the computed bound table against frozen reference values. A summary
collects every failing case; an empty failure list is the pass signal.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from .core import (
    BudgetError,
    INSERTION,
    KIND_CONDENSED,
    KIND_SUPER_CONDENSED,
    MATCH,
    MISMATCH,
    NEIGHBORHOOD_KINDS,
    RangeError,
    ValidationError,
    Word,
    alphabet_of_size,
    make_word,
)
from .counting import (
    _lemma_reports,
    alignment_profile_bound,
    bound_table_rows,
    closed_form_bound_exact,
    unary_condensed_count,
    unary_super_condensed_count,
)
from .distance import (
    alignment_order_key,
    enumerate_optimal_alignments,
    leftmost_optimal_alignment,
)
from .neighborhood import _members, _oracle, _plain_dist, count, resolve_budget

# Frozen reference values for the bound table (panel "a": profile bound,
# panel "b": closed-form floor; alphabet size 2). Recomputed independently
# when this module was written; the (a,6,5) entry is the value of the
# defining double sum, 2989 (a sometimes-quoted 2988 for that cell is an
# erratum; see the note at REFERENCE_TABLE in tests/test_acceptance.py).
EXPECTED_TABLE: dict[tuple[str, int, int], int] = {}
for _w, _vals in {
    4: (11, 48, 111),
    6: (17, 125, 528, 1463, 2989),
    8: (23, 238, 1473, 6151, 18738, 44681, 89617),
    10: (29, 387, 3162, 17800, 73968, 238937, 628931, 1413016, 2827055),
}.items():
    for _d, _v in enumerate(_vals, start=1):
        EXPECTED_TABLE[("a", _w, _d)] = _v
for _w, _vals in {
    4: (12, 72, 288),
    6: (18, 162, 972, 4374, 15746),
    8: (24, 288, 2304, 13824, 66355, 265420, 910014),
    10: (30, 450, 4500, 33750, 202500, 1012500, 4339285, 16272321, 54241071),
}.items():
    for _d, _v in enumerate(_vals, start=1):
        EXPECTED_TABLE[("b", _w, _d)] = _v
del _w, _vals, _d, _v


@dataclass(frozen=True)
class VerifyConfig:
    """Scope of a verification run; defaults finish well under a minute."""

    max_length: int = 6
    max_dist: int = 2
    sigmas: tuple[int, ...] = (2, 3)
    lemma_max_length: int = 20
    lemma_sigmas: tuple[int, ...] = (2, 3, 4)
    sandwich_max_length: int = 6
    spot_samples: int = 25
    budget: int | None = None
    seed: int = 0

    def length_cap(self, s: int) -> int:
        # larger alphabets shrink the exhaustive cap to keep the oracle cheap
        return self.max_length if s <= 2 else max(1, self.max_length - 2)


@dataclass(frozen=True)
class StepResult:
    name: str
    cases: int
    failures: tuple[tuple[str, str, str], ...]
    seconds: float


@dataclass
class VerificationSummary:
    cases_run: int = 0
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    elapsed: float = 0.0
    steps: list[StepResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


class _Recorder:
    def __init__(self) -> None:
        self.cases = 0
        self.failures: list[tuple[str, str, str]] = []

    def check(self, descriptor: str, expected: object, actual: object) -> None:
        self.cases += 1
        if expected != actual:
            self.failures.append((descriptor, repr(expected), repr(actual)))

    def claim(self, descriptor: str, ok: bool, detail: str = "") -> None:
        self.cases += 1
        if not ok:
            self.failures.append((descriptor, "holds", detail or "violated"))


def _all_words(s: int, lengths: range) -> list[Word]:
    alphabet = alphabet_of_size(s)
    out = []
    for n in lengths:
        for chars in itertools.product(alphabet.symbols, repeat=n):
            out.append(make_word("".join(chars), alphabet))
    return out


def _case_sweep(config: VerifyConfig) -> list[tuple[Word, int]]:
    """Every (query, distance) pair in the exhaustive scope, in fixed order."""
    cases = []
    for s in config.sigmas:
        for w in _all_words(s, range(1, config.length_cap(s) + 1)):
            for d in range(config.max_dist + 1):
                cases.append((w, d))
    return cases


def _compare_with_oracle(
    rec: _Recorder,
    w: Word,
    d: int,
    kinds: tuple[str, ...],
    budget: int | None,
    label: str = "",
) -> None:
    """Check each kind's listing walk against one oracle scan of (w, d)."""
    where = f"vs oracle{label}: W={w.text!r} d={d} s={w.alphabet.size}"
    try:
        want = _oracle(w, d, w.alphabet, budget)
    except BudgetError as exc:
        # a configured case the oracle cannot afford is a failure, not a skip
        for kind in kinds:
            rec.claim(f"{kind} {where}", False, f"oracle refused: {exc}")
        return
    for kind in kinds:
        # the oracle's budget covers the candidates, so the walk lists freely
        rec.check(f"{kind} {where}", want[kind], _members(w, d, w.alphabet, kind, budget))


def _step_oracle_equivalence(config: VerifyConfig, rec: _Recorder) -> None:
    for w, d in _case_sweep(config):
        _compare_with_oracle(rec, w, d, NEIGHBORHOOD_KINDS, config.budget)
    # seeded spot checks one length past the exhaustive cap
    rng = random.Random(config.seed)
    for s in config.sigmas:
        alphabet = alphabet_of_size(s)
        n = config.length_cap(s) + 1
        for _ in range(config.spot_samples):
            text = "".join(rng.choice(alphabet.symbols) for _ in range(n))
            w = make_word(text, alphabet)
            d = rng.randrange(config.max_dist + 1)
            kind = NEIGHBORHOOD_KINDS[rng.randrange(3)]
            _compare_with_oracle(rec, w, d, (kind,), config.budget, " (sampled)")


def _step_freeness(config: VerifyConfig, rec: _Recorder) -> None:
    for w, d in _case_sweep(config):
        cn = _members(w, d, w.alphabet, KIND_CONDENSED)
        clash = [(a, b) for a in cn for b in cn if a != b and b.startswith(a)]
        rec.claim(
            f"condensed prefix-free: W={w.text!r} d={d} s={w.alphabet.size}",
            not clash,
            f"prefix pairs {clash[:3]}",
        )
        bad = []
        for t in _members(w, d, w.alphabet, KIND_SUPER_CONDENSED):
            for i in range(len(t) + 1):
                for j in range(i, len(t) + 1):
                    if (i, j) != (0, len(t)) and _plain_dist(t[i:j], w.text) <= d:
                        bad.append((t, t[i:j]))
        rec.claim(
            f"super-condensed subword-free: W={w.text!r} d={d} s={w.alphabet.size}",
            not bad,
            f"offending subwords {bad[:3]}",
        )


def _step_exact_distance(config: VerifyConfig, rec: _Recorder) -> None:
    # condensed members sit at distance exactly d while d <= |W|; past that
    # the neighborhood collapses to the empty word at distance |W|
    for w, d in _case_sweep(config):
        if d < 1:
            continue
        cn = _members(w, d, w.alphabet, KIND_CONDENSED)
        if d <= len(w):
            dists = {_plain_dist(x, w.text) for x in cn}
            rec.claim(
                f"condensed members at exact distance: W={w.text!r} d={d}",
                dists == {d},
                f"distances seen {sorted(dists)}",
            )
        else:
            rec.check(
                f"condensed collapse past |W|: W={w.text!r} d={d}",
                [""],
                cn,
            )


def _step_unary_structure(config: VerifyConfig, rec: _Recorder) -> None:
    for s in config.sigmas:
        alphabet = alphabet_of_size(s)
        sigma = alphabet.symbols[0]
        for wlen in range(1, config.length_cap(s) + 1):
            word = make_word(sigma * wlen, alphabet)
            for d in range(1, wlen + 1):
                cn = _members(word, d, alphabet, KIND_CONDENSED)
                ok = all(
                    len(x) <= wlen
                    and x.count(sigma) == wlen - d
                    and (not x or x[-1] == sigma)
                    for x in cn
                )
                rec.claim(
                    f"unary member structure: w={wlen} d={d} s={s}",
                    ok,
                    f"members {cn[:5]}",
                )


def _column_of_bottom_char(alignment, position: int) -> int:
    """Index of the column carrying the 1-based ``position``-th bottom character."""
    seen = 0
    for idx, col in enumerate(alignment.columns):
        if col.bottom is not None:
            seen += 1
            if seen == position:
                return idx
    raise ValueError(f"alignment has fewer than {position} bottom characters")


def _step_leftmost_structure(config: VerifyConfig, rec: _Recorder) -> None:
    for w, d in _case_sweep(config):
        if d < 1:
            continue
        for t in _members(w, d, w.alphabet, KIND_CONDENSED):
            x = make_word(t, w.alphabet)
            a = leftmost_optimal_alignment(w, x)
            best = min(enumerate_optimal_alignments(w, x), key=alignment_order_key)
            rec.claim(
                f"leftmost matches exhaustive minimum: W={w.text!r} x={x.text!r} d={d}",
                a == best,
                f"selected {a.columns} vs oracle {best.columns}",
            )
            m = len(x)
            if m == 0:
                continue
            cols = a.columns
            last = _column_of_bottom_char(a, m)
            ok_last = cols[last].kind == MATCH and not any(
                c.kind in (MATCH, MISMATCH) for c in cols[last + 1 :]
            )
            rec.claim(
                f"last character in final match column: W={w.text!r} x={x.text!r} d={d}",
                ok_last,
                f"columns {[c.kind for c in cols]}",
            )
            if m >= 2:
                prev = _column_of_bottom_char(a, m - 1)
                rec.claim(
                    f"second-to-last not inserted before the match: "
                    f"W={w.text!r} x={x.text!r} d={d}",
                    cols[prev].kind != INSERTION,
                    f"columns {[c.kind for c in cols]}",
                )


def _step_unary_formulas(config: VerifyConfig, rec: _Recorder) -> None:
    for s in config.sigmas:
        alphabet = alphabet_of_size(s)
        sigma = alphabet.symbols[0]
        for wlen in range(1, config.length_cap(s) + 1):
            word = make_word(sigma * wlen, alphabet)
            for d in range(1, wlen + 1):
                rec.check(
                    f"unary condensed formula: w={wlen} d={d} s={s}",
                    len(_members(word, d, alphabet, KIND_CONDENSED)),
                    unary_condensed_count(wlen, d, s),
                )
                rec.check(
                    f"unary super-condensed formula: w={wlen} d={d} s={s}",
                    len(_members(word, d, alphabet, KIND_SUPER_CONDENSED)),
                    unary_super_condensed_count(wlen, d, s),
                )


def _step_bound_sandwich(config: VerifyConfig, rec: _Recorder) -> None:
    alphabet = alphabet_of_size(2)
    for wlen in range(1, config.sandwich_max_length + 1):
        # the bounds depend on (wlen, d) only, not on the word
        bounds = {
            d: (
                alignment_profile_bound(wlen, d, 2),
                closed_form_bound_exact(wlen, d, 2).__floor__(),
            )
            for d in range(1, wlen)
        }
        for chars in itertools.product(alphabet.symbols, repeat=wlen):
            word = make_word("".join(chars), alphabet)
            for d in range(1, wlen):
                size = count(word, d, alphabet, KIND_CONDENSED)
                profile, floor = bounds[d]
                rec.claim(
                    f"bound sandwich: W={word.text!r} d={d}",
                    size <= profile <= floor,
                    f"|CN|={size} profile={profile} floor={floor}",
                )


def _step_table(config: VerifyConfig, rec: _Recorder) -> None:
    rows = {(panel, w, d): value for panel, w, d, value in bound_table_rows()}
    rec.claim(
        "reference table shape",
        set(rows) == set(EXPECTED_TABLE) and len(rows) == 48,
        f"{len(rows)} computed cells",
    )
    for key in sorted(EXPECTED_TABLE):
        panel, w, d = key
        rec.check(f"table cell ({panel}, w={w}, d={d})", EXPECTED_TABLE[key], rows.get(key))


def _step_lemmas(config: VerifyConfig, rec: _Recorder) -> None:
    points = [(w, d) for w in range(1, config.lemma_max_length + 1) for d in range(1, w + 1)]
    reports = {(w, d): _lemma_reports(w, d, config.lemma_sigmas) for w, d in points}
    for k, s in enumerate(config.lemma_sigmas):
        for w, d in points:
            report = reports[w, d][k]
            rec.claim(
                f"lemma chain: w={w} d={d} s={s}",
                report.all_passed,
                f"failing {[c.name for c in report.failing()]}",
            )


_STEPS = (
    ("enumerator-oracle equivalence", _step_oracle_equivalence),
    ("prefix/subword freeness", _step_freeness),
    ("condensed members at exact distance", _step_exact_distance),
    ("unary condensed-member structure", _step_unary_structure),
    ("leftmost alignment structure", _step_leftmost_structure),
    ("unary formulas vs enumeration", _step_unary_formulas),
    ("bound sandwich", _step_bound_sandwich),
    ("reference table reproduction", _step_table),
    ("bound lemma chain", _step_lemmas),
)


def run_verification(config: VerifyConfig | None = None, report=None) -> VerificationSummary:
    """Run all verification steps in order; ``report`` gets one line per step."""
    config = config or VerifyConfig()
    if config.budget is not None:
        # a budget below 1 is bad input, not a refusal to report per case
        resolve_budget(config.budget)
    if config.max_dist < 0:
        raise RangeError(f"max_dist must be nonnegative, got {config.max_dist}")
    if config.max_length < 1:
        raise RangeError(f"max_length must be >= 1, got {config.max_length}")
    for label, sizes in (("sigmas", config.sigmas), ("lemma_sigmas", config.lemma_sigmas)):
        # a repeated alphabet size would run its sweeps twice over
        if len(set(sizes)) != len(sizes):
            raise ValidationError(f"{label} must not repeat, got {list(sizes)}")
    summary = VerificationSummary()
    start = time.perf_counter()
    for name, step in _STEPS:
        rec = _Recorder()
        step_start = time.perf_counter()
        step(config, rec)
        result = StepResult(
            name=name,
            cases=rec.cases,
            failures=tuple(rec.failures),
            seconds=time.perf_counter() - step_start,
        )
        summary.steps.append(result)
        summary.cases_run += rec.cases
        summary.failures.extend(rec.failures)
        if report is not None:
            status = "ok" if not rec.failures else f"{len(rec.failures)} FAILED"
            report(f"{name}: {rec.cases} cases, {status}")
    summary.elapsed = time.perf_counter() - start
    return summary
