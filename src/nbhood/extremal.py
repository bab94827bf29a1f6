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
    RangeError,
    alphabet_of_size,
    make_word,
)
from .neighborhood import check_budget, count

MODE_EXHAUSTIVE = "exhaustive"
MODE_SAMPLED = "sampled"

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
        texts = ("".join(chars) for chars in itertools.product(alphabet.symbols, repeat=w))
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
    else:
        raise RangeError(f"mode must be {MODE_EXHAUSTIVE!r} or {MODE_SAMPLED!r}")

    scanned = 0
    min_count = max_count = -1
    min_words: list[str] = []
    max_words: list[str] = []
    for text in texts:
        size = count(make_word(text, alphabet), d, alphabet, kind)
        scanned += 1
        if min_count < 0 or size < min_count:
            min_count, min_words = size, [text]
        elif size == min_count:
            min_words.append(text)
        if size > max_count:
            max_count, max_words = size, [text]
        elif size == max_count:
            max_words.append(text)

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
