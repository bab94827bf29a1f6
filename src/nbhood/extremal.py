"""Exploratory scan: which words of a given length extremize neighborhood size.

Evidence-gathering only. The scan reports the words attaining the minimum
and maximum condensed (or super-condensed) neighborhood size over all
words of one length, either exhaustively or on a seeded random sample.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import (
    KIND_CONDENSED,
    KIND_SUPER_CONDENSED,
    MODE_EXHAUSTIVE,
    MODE_SAMPLED,
    Alphabet,
    RangeError,
    alphabet_of_size,
    make_word,
)
from .neighborhood import check_budget, count

_SCAN_KINDS = (KIND_CONDENSED, KIND_SUPER_CONDENSED)


@dataclass(frozen=True)
class ExtremalReport:
    """Extremal words and counts for one (length, distance, alphabet) cell."""

    word_length: int
    distance: int
    alphabet_size: int
    kind: str
    mode: str
    scanned: int
    seed: int | None
    min_count: int
    min_words: tuple[str, ...]
    max_count: int
    max_words: tuple[str, ...]


def scan_extremal(
    w: int,
    d: int,
    s: int,
    kind: str = KIND_CONDENSED,
    mode: str = MODE_EXHAUSTIVE,
    samples: int = 200,
    seed: int | None = None,
    budget: int | None = None,
) -> ExtremalReport:
    """Scan words of length w for extremal neighborhood sizes.

    Exhaustive mode covers all s^w words; sampled mode scans ``samples``
    seeded random draws, so its extrema are evidence, not global facts.
    Each mode is refused when its words, or its draws, exceed the budget.

    The exhaustive scan counts one word per symmetry orbit and lists every
    member of the extremal orbits. Permuting the letters keeps the
    Levenshtein distance, prefixes and factors, so it keeps both sizes.
    Reversal keeps the distance and factors but swaps prefixes for
    suffixes, so it joins the orbit for the super-condensed kind only.
    """
    if w < 1:
        raise RangeError(f"word length must be positive, got {w}")
    if d < 0:
        raise RangeError(f"distance must be nonnegative, got {d}")
    if kind not in _SCAN_KINDS:
        raise RangeError(f"scan kind must be one of {_SCAN_KINDS}, got {kind!r}")
    alphabet = alphabet_of_size(s)

    if mode == MODE_EXHAUSTIVE:
        check_budget(
            s**w,
            budget,
            "exhaustive scan over {needed} words exceeds the budget of {limit}; "
            "use sampled mode or raise the budget",
        )
        reversible = kind == KIND_SUPER_CONDENSED
        texts = (
            text
            for text in map("".join, itertools.product(alphabet.symbols, repeat=w))
            if _first_in_orbit(text, alphabet, reversible)
        )
        scanned = s**w
        used_seed = None
    elif mode == MODE_SAMPLED:
        if samples < 1:
            raise RangeError(f"need at least one sample, got {samples}")
        check_budget(
            samples, budget, "sampled scan of {needed} draws exceeds the budget of {limit}"
        )
        used_seed = 0 if seed is None else seed
        rng = random.Random(used_seed)
        drawn = {
            "".join(rng.choice(alphabet.symbols) for _ in range(w))
            for _ in range(samples)
        }
        texts = sorted(drawn, key=alphabet._order)
        scanned = len(texts)
    else:
        raise RangeError(f"mode must be {MODE_EXHAUSTIVE!r} or {MODE_SAMPLED!r}")

    min_count = max_count = -1
    min_words: list[str] = []
    max_words: list[str] = []
    for text in texts:
        size = count(make_word(text, alphabet), d, alphabet, kind)
        if min_count < 0 or size < min_count:
            min_count, min_words = size, [text]
        elif size == min_count:
            min_words.append(text)
        if size > max_count:
            max_count, max_words = size, [text]
        elif size == max_count:
            max_words.append(text)
    if mode == MODE_EXHAUSTIVE:
        min_words = _orbits(min_words, alphabet, reversible)
        max_words = _orbits(max_words, alphabet, reversible)

    return ExtremalReport(
        word_length=w,
        distance=d,
        alphabet_size=s,
        kind=kind,
        mode=mode,
        scanned=scanned,
        seed=used_seed,
        min_count=min_count,
        min_words=tuple(min_words),
        max_count=max_count,
        max_words=tuple(max_words),
    )


def _relabelled(text: str, symbols: str) -> str:
    """text with its k-th new letter replaced by symbols[k]."""
    letters = "".join(dict.fromkeys(text))
    return text.translate(str.maketrans(letters, symbols[: len(letters)]))


def _first_in_orbit(text: str, alphabet: Alphabet, reversible: bool) -> bool:
    """Whether text comes first in its orbit in rank order.

    Its letters first appear in rank order, so it is its own relabelling;
    in a reversible orbit, its relabelled reversal does not come before it.
    """
    symbols = alphabet.spec()
    if text != _relabelled(text, symbols):
        return False
    if not reversible:
        return True
    return alphabet._order(_relabelled(text[::-1], symbols)) >= alphabet._order(text)


def _orbits(texts: list[str], alphabet: Alphabet, reversible: bool) -> list[str]:
    """Every word in the orbits of texts, in rank order."""
    words = set()
    for text in texts:
        for image in itertools.permutations(alphabet.symbols, len(set(text))):
            word = _relabelled(text, "".join(image))
            words.add(word)
            if reversible:
                words.add(word[::-1])
    return sorted(words, key=alphabet._order)
