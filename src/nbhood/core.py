"""Shared domain types: alphabets, words, alignment columns, result records.

All values are immutable after construction and safe to share freely.
Counts are plain Python integers (arbitrary precision); exact rationals
use ``fractions.Fraction``.
"""
from __future__ import annotations

import operator
import string
from collections.abc import Callable
from dataclasses import dataclass, field

GAP = "-"

MATCH = "match"
MISMATCH = "mismatch"
INSERTION = "insertion"
DELETION = "deletion"

KIND_FULL = "full"
KIND_CONDENSED = "condensed"
KIND_SUPER_CONDENSED = "super-condensed"
NEIGHBORHOOD_KINDS = (KIND_FULL, KIND_CONDENSED, KIND_SUPER_CONDENSED)

# how an extremal scan picks its words: all of them, or seeded draws
MODE_EXHAUSTIVE = "exhaustive"
MODE_SAMPLED = "sampled"

SYMBOL_UNIVERSE = string.ascii_lowercase


class ValidationError(ValueError):
    """Malformed domain value (bad alphabet, word outside alphabet, ...)."""


class RangeError(ValueError):
    """Numeric parameter outside the supported range."""


class BudgetError(RuntimeError):
    """An exhaustive computation would exceed its configured budget."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct single characters.

    The symbol order is fixed for the lifetime of the value and defines
    the canonical (dictionary) order on words.
    """

    symbols: tuple[str, ...]
    _symbol_set: frozenset[str] = field(init=False, repr=False, compare=False)
    # the canonical-order key on texts: each symbol becomes chr(rank), so
    # keys compare as the rank tuples do, and a proper prefix sorts first
    _order: Callable[[str], str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.symbols:
            raise ValidationError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError(f"duplicate symbol in alphabet {''.join(self.symbols)!r}")
        for c in self.symbols:
            if len(c) != 1:
                raise ValidationError(f"alphabet symbol {c!r} is not a single character")
            if c not in SYMBOL_UNIVERSE:
                # keeps words printable and the gap mark unambiguous, and
                # makes bad CLI input fail loudly instead of being inferred
                # into an ad-hoc alphabet
                raise ValidationError(f"symbol {c!r} is outside the a-z universe")
        object.__setattr__(self, "_symbol_set", frozenset(self.symbols))
        table = {ord(c): chr(i) for i, c in enumerate(self.symbols)}
        object.__setattr__(self, "_order", operator.methodcaller("translate", table))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def rank(self, char: str) -> int:
        if char not in self._symbol_set:
            raise ValidationError(f"character {char!r} is not in alphabet {self.spec()!r}")
        return self.symbols.index(char)

    def __contains__(self, char: str) -> bool:
        return char in self._symbol_set

    def spec(self) -> str:
        return "".join(self.symbols)


def make_alphabet(spec: str) -> Alphabet:
    """Build an alphabet from a string of distinct characters, in order."""
    if not spec:
        raise ValidationError("alphabet spec must be nonempty")
    return Alphabet(tuple(spec))


def alphabet_of_size(s: int) -> Alphabet:
    """The first ``s`` letters a, b, c, ... (deterministic naming, s <= 26)."""
    if s < 1:
        raise RangeError(f"alphabet size must be >= 1, got {s}")
    if s > len(SYMBOL_UNIVERSE):
        raise RangeError(f"alphabet size {s} exceeds the {len(SYMBOL_UNIVERSE)}-letter universe")
    return Alphabet(tuple(SYMBOL_UNIVERSE[:s]))


def require_alphabet(value) -> Alphabet:
    """Reject non-Alphabet values (e.g. a bare string) with build guidance."""
    if not isinstance(value, Alphabet):
        raise ValidationError(
            f"expected an Alphabet, got {type(value).__name__}; "
            "build one with make_alphabet(symbols) or alphabet_of_size(s)"
        )
    return value


@dataclass(frozen=True)
class Word:
    """A finite character sequence over a fixed alphabet (may be empty)."""

    text: str
    alphabet: Alphabet

    def __post_init__(self):
        require_alphabet(self.alphabet)
        if self.alphabet._symbol_set.issuperset(self.text):
            return
        for c in self.text:  # only to name the first bad character
            if c not in self.alphabet:
                raise ValidationError(
                    f"character {c!r} of {self.text!r} is not in alphabet {self.alphabet.spec()!r}"
                )

    def __len__(self) -> int:
        return len(self.text)

    def __str__(self) -> str:
        return self.text

    @property
    def sort_key(self) -> tuple[int, ...]:
        """Per-character ranks; tuple comparison gives dictionary order
        (a proper prefix sorts before its extensions)."""
        return tuple(self.alphabet.rank(c) for c in self.text)

    def sub(self, start: int, stop: int) -> "Word":
        """Contiguous subword (no re-validation needed)."""
        return Word(self.text[start:stop], self.alphabet)


def make_word(chars: str, alphabet: Alphabet) -> Word:
    """Validate ``chars`` against ``alphabet``; the empty string is the empty word."""
    return Word(chars, alphabet)


def canonical_sorted(words) -> tuple[Word, ...]:
    """Sort words in canonical dictionary order (deterministic, idempotent)."""
    return tuple(sorted(words, key=lambda w: w.alphabet._order(w.text)))


def require_word(value) -> Word:
    """Reject non-Word values (e.g. a bare string) with build guidance."""
    if not isinstance(value, Word):
        raise ValidationError(
            f"expected a Word, got {type(value).__name__}; "
            "build one with make_word(text, alphabet)"
        )
    return value


def require_same_alphabet(u: Word, v: Word) -> Alphabet:
    require_word(u)
    require_word(v)
    if u.alphabet != v.alphabet:
        raise ValidationError(
            f"mixed alphabets: {u.alphabet.spec()!r} vs {v.alphabet.spec()!r}"
        )
    return u.alphabet


@dataclass(frozen=True)
class Column:
    """One aligned column: a character or gap on top of a character or gap.

    Exactly one class applies: match (same character twice), mismatch
    (two different characters), insertion (gap on top), deletion (gap on
    bottom). A column never holds two gaps.
    """

    top: str | None
    bottom: str | None
    kind: str = field(init=False)

    def __post_init__(self):
        if self.top is None and self.bottom is None:
            raise ValidationError("column with two gaps")
        if self.top is None:
            kind = INSERTION
        elif self.bottom is None:
            kind = DELETION
        elif self.top == self.bottom:
            kind = MATCH
        else:
            kind = MISMATCH
        object.__setattr__(self, "kind", kind)

    def render_top(self) -> str:
        return GAP if self.top is None else self.top

    def render_bottom(self) -> str:
        return GAP if self.bottom is None else self.bottom


@dataclass(frozen=True)
class Alignment:
    """A two-row gapped array as a sequence of columns."""

    columns: tuple[Column, ...]

    @property
    def cost(self) -> int:
        """Number of non-match columns."""
        return sum(1 for c in self.columns if c.kind != MATCH)

    @property
    def top_text(self) -> str:
        return "".join(c.top for c in self.columns if c.top is not None)

    @property
    def bottom_text(self) -> str:
        return "".join(c.bottom for c in self.columns if c.bottom is not None)

    def render(self) -> str:
        """Two text lines, columns space-separated."""
        top = " ".join(c.render_top() for c in self.columns)
        bottom = " ".join(c.render_bottom() for c in self.columns)
        return f"{top}\n{bottom}"


@dataclass(frozen=True)
class NeighborhoodResult:
    """Outcome of a neighborhood enumeration or count.

    ``words`` is either ``None`` (count-only) or the canonically sorted
    member list, in which case ``count == len(words)``.
    """

    query: Word
    distance: int
    kind: str
    count: int
    words: tuple[Word, ...] | None = None

    def __post_init__(self):
        if self.kind not in NEIGHBORHOOD_KINDS:
            raise ValidationError(f"unknown neighborhood kind {self.kind!r}")
        if self.words is not None:
            if self.count != len(self.words):
                raise ValidationError("count disagrees with materialized word list")
            # each member in its own alphabet's order
            keys = [w.alphabet._order(w.text) for w in self.words]
            if not all(map(str.__lt__, keys, keys[1:])):
                raise ValidationError("word list is not strictly increasing in canonical order")
            if max(map(len, keys), default=0) > len(self.query) + self.distance:
                raise ValidationError("member longer than |query| + d")
