"""Shared domain types: alphabets, words, alignment columns, result records.

All values are immutable after construction and safe to share freely.
They are plain classes with ``__slots__``, not dataclasses: importing
``dataclasses`` (and the ``inspect`` it loads) and generating their
methods took most of the CLI's cold start. The ``_Value`` base gives
each the value semantics a frozen dataclass had. Counts are plain Python
integers (arbitrary precision); exact rationals use ``fractions.Fraction``.
"""
from __future__ import annotations

import operator

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

SYMBOL_UNIVERSE = "abcdefghijklmnopqrstuvwxyz"


class ValidationError(ValueError):
    """Malformed domain value (bad alphabet, word outside alphabet, ...)."""


class RangeError(ValueError):
    """Numeric parameter outside the supported range."""


class BudgetError(RuntimeError):
    """An exhaustive computation would exceed its configured budget."""


_set = object.__setattr__  # fills a slot past _Value.__setattr__; only __init__ uses it


class _Value:
    """Immutable value; each ``__init__`` stores its arguments as ``_key``.

    Two values are equal when they are of one class with equal keys, and
    hash as their key; pickling and copying rebuild them from it. The
    ``repr`` lists the public slots, in order.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        shown = (f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_")
        return f"{self.__class__.__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key


class Alphabet(_Value):
    """Ordered set of distinct single characters.

    The symbol order is fixed for the lifetime of the value and defines
    the canonical (dictionary) order on words.
    """

    # _order is the canonical-order key on texts: each symbol becomes
    # chr(rank), so keys compare as the rank tuples do, and a proper prefix
    # sorts first
    __slots__ = ("symbols", "_symbol_set", "_order", "_key")

    def __init__(self, symbols: tuple[str, ...]):
        if not symbols:
            raise ValidationError("alphabet must contain at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ValidationError(f"duplicate symbol in alphabet {''.join(symbols)!r}")
        for c in symbols:
            if len(c) != 1:
                raise ValidationError(f"alphabet symbol {c!r} is not a single character")
            if c not in SYMBOL_UNIVERSE:
                # keeps words printable and the gap mark unambiguous, and
                # makes bad CLI input fail loudly instead of being inferred
                # into an ad-hoc alphabet
                raise ValidationError(f"symbol {c!r} is outside the a-z universe")
        _set(self, "symbols", symbols)
        _set(self, "_key", (symbols,))
        _set(self, "_symbol_set", frozenset(symbols))
        table = {ord(c): chr(i) for i, c in enumerate(symbols)}
        _set(self, "_order", operator.methodcaller("translate", table))

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


class Word(_Value):
    """A finite character sequence over a fixed alphabet (may be empty)."""

    __slots__ = ("text", "alphabet", "_key")

    def __init__(self, text: str, alphabet: Alphabet):
        require_alphabet(alphabet)
        if not alphabet._symbol_set.issuperset(text):
            c = next(c for c in text if c not in alphabet)
            raise ValidationError(
                f"character {c!r} of {text!r} is not in alphabet {alphabet.spec()!r}"
            )
        _set(self, "text", text)
        _set(self, "alphabet", alphabet)
        _set(self, "_key", (text, alphabet))

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


class Column(_Value):
    """One aligned column: a character or gap on top of a character or gap.

    Exactly one class applies: match (same character twice), mismatch
    (two different characters), insertion (gap on top), deletion (gap on
    bottom). A column never holds two gaps.
    """

    __slots__ = ("top", "bottom", "kind", "_key")

    def __init__(self, top: str | None, bottom: str | None):
        if top is None:
            if bottom is None:
                raise ValidationError("column with two gaps")
            kind = INSERTION
        elif bottom is None:
            kind = DELETION
        elif top == bottom:
            kind = MATCH
        else:
            kind = MISMATCH
        _set(self, "top", top)
        _set(self, "bottom", bottom)
        _set(self, "kind", kind)
        _set(self, "_key", (top, bottom))

    def render_top(self) -> str:
        return GAP if self.top is None else self.top

    def render_bottom(self) -> str:
        return GAP if self.bottom is None else self.bottom


class Alignment(_Value):
    """A two-row gapped array as a sequence of columns."""

    __slots__ = ("columns", "_key")

    def __init__(self, columns: tuple[Column, ...]):
        _set(self, "columns", columns)
        _set(self, "_key", (columns,))

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


class NeighborhoodResult(_Value):
    """Outcome of a neighborhood enumeration or count.

    ``words`` is either ``None`` (count-only) or the canonically sorted
    member list, in which case ``count == len(words)``.
    """

    __slots__ = ("query", "distance", "kind", "count", "words", "_key")

    def __init__(self, query: Word, distance: int, kind: str, count: int,
                 words: tuple[Word, ...] | None = None):
        if kind not in NEIGHBORHOOD_KINDS:
            raise ValidationError(f"unknown neighborhood kind {kind!r}")
        if words is not None:
            if count != len(words):
                raise ValidationError("count disagrees with materialized word list")
            # each member in its own alphabet's order
            keys = [w.alphabet._order(w.text) for w in words]
            if not all(map(str.__lt__, keys, keys[1:])):
                raise ValidationError("word list is not strictly increasing in canonical order")
            if max(map(len, keys), default=0) > len(query) + distance:
                raise ValidationError("member longer than |query| + d")
        _set(self, "query", query)
        _set(self, "distance", distance)
        _set(self, "kind", kind)
        _set(self, "count", count)
        _set(self, "words", words)
        _set(self, "_key", (query, distance, kind, count, words))
