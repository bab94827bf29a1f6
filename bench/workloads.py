"""The four benchmark workloads, as seeded lists of nbhood CLI argv lists.

A run makes passes over a workload's call list; pass ``p`` of seed ``n``
issues ``CALLS[workload](n, p)``. Each call is one ``nbhood.cli.main(argv)``
invocation, so nbhood receives nothing but the generated argv. The cells
(word length, distance, alphabet size) are fixed per workload and only the
letters come from the seed and the pass, which keeps the work per pass
close to the same across seeds and passes.

Within one run the words of a cell are drawn without replacement, so no
query repeats until the cell runs out of words (``MAX_PASSES`` caps a run
before that). A cache kept across calls in one process would therefore
not turn later passes into cache hits. Queries that cannot vary do repeat:
unary words (one per letter), the exhaustive ``extremal`` scans, the
exhaustive sweeps of ``verify`` (its ``--seed`` moves only the sampled
spot checks) and ``table1``; the run prints its first, cold pass as well.
"""
from __future__ import annotations

import random
import string

DEFAULT_SEED = 0
KINDS = ("full", "condensed", "super-condensed")
FORMATS = ("text", "json", "csv")

# Each op is kept short (mostly under 60 ms) and repeated many times in a
# run: the shared host's speed swings by tens of percent from moment to
# moment, and an op's median over many repeats is what stays put (see
# run.py).

# count: (sigma, |W|, d, words); full neighborhoods of 10^3 to 10^4 members.
# Many words of similar cost per pass, so the pass varies little with the
# seed. Every word is issued as all three kinds, so the super-condensed
# filter's cost is the SCN time minus the CN time of the same query.
COUNT_CELLS = ((2, 8, 3, 4), (2, 9, 3, 4), (2, 10, 3, 2), (3, 7, 3, 2), (4, 7, 2, 2))
COUNT_UNARY = (3, 9, 3)

# list: smaller cells, every kind listed, the format rotating per query.
LIST_CELLS = ((2, 10, 2, 2), (3, 7, 2, 2), (3, 8, 2, 1), (4, 6, 2, 2))
LIST_UNARY = (3, 7, 2)
# dist --leftmost: (sigma, length, pairs) of the top word; the bottom word
# is the top word with about one edit in ten, so the pair shares a long
# optimal path.
DIST_PAIRS = ((2, 150, 4), (3, 200, 4), (4, 250, 4), (2, 300, 4))

# verify: all nine sweeps over words up to length 4 (the default is 6).
# At the default scope the oracle step is one 9 s op, timed only a few
# times in a run and moving by 10-20% with the host's speed; here it lasts
# about 0.3 s.
VERIFY_ARGS = ("--max-length", "4")

# scan: exhaustive (sigma, length, d) cells for both scan kinds, plus one
# sampled call on the first cell so its extremes can be checked against
# the exhaustive ones.
SCAN_CELLS = ((2, 6, 2), (3, 4, 2))
SCAN_SAMPLES = 30

WORKLOADS = ("count", "list", "verify", "scan")

# Passes a run always makes, even past --seconds, so that every op is
# timed several times over the run and TAIL_PERCENTILE has at least ten
# op latencies beyond it.
PASS_FLOOR = {"count": 5, "list": 5, "verify": 20, "scan": 20}

# op_tail_ms's percentile. It is fixed per workload: were it picked from
# the run's sample count, which varies with the pass count, it would flip
# between two percentiles from run to run. On verify and scan it falls
# inside the slowest op's latencies (one op in ten, one in five).
TAIL_PERCENTILE = {"count": 95, "list": 95, "verify": 95, "scan": 90}

Argv = tuple[str, ...]


def _word(rng: random.Random, sigma: int, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase[:sigma]) for _ in range(length))


def _nth_word(index: int, sigma: int, length: int) -> str:
    letters = string.ascii_lowercase[:sigma]
    out = []
    for _ in range(length):
        index, digit = divmod(index, sigma)
        out.append(letters[digit])
    return "".join(out)


def _cell_words(tag: str, seed: int, pass_no: int, cells) -> list[tuple[str, int, int]]:
    """Pass ``pass_no``'s words, ``k`` per (sigma, |W|, d, k) cell.

    Each cell's words are a seeded permutation of all sigma^|W| words, taken
    ``k`` at a time, so successive passes of a run never repeat a word.
    """
    words = []
    for sigma, n, d, k in cells:
        order = list(range(sigma**n))
        random.Random(f"{tag}:{seed}:{sigma},{n},{d}").shuffle(order)
        words += [(_nth_word(order[pass_no * k + i], sigma, n), d, sigma) for i in range(k)]
    return words


def _unary(seed: int, pass_no: int, sigma: int, length: int) -> str:
    letters = list(string.ascii_lowercase[:sigma])
    random.Random(f"unary:{seed}").shuffle(letters)
    return letters[pass_no % sigma] * length


def _edited(rng: random.Random, word: str, sigma: int) -> str:
    letters = string.ascii_lowercase[:sigma]
    out = []
    for ch in word:
        roll = rng.random()
        if roll < 0.04:
            continue  # deletion
        if roll < 0.07:
            out.append(rng.choice(letters))  # insertion before ch
        elif roll < 0.10:
            ch = rng.choice(letters)  # substitution (possibly a no-op)
        out.append(ch)
    return "".join(out)


def _enum(word: str, d: int, sigma: int, kind: str, *extra: str) -> Argv:
    return ("enum", "--word", word, "--dist", str(d), "--sigma", str(sigma), "--kind", kind,
            *extra)


def count_calls(seed: int, pass_no: int = 0) -> list[Argv]:
    words = _cell_words("count", seed, pass_no, COUNT_CELLS)
    s, n, d = COUNT_UNARY
    words.append((_unary(seed, pass_no, s, n), d, s))
    return [_enum(w, d, s, kind, "--count-only") for w, d, s in words for kind in KINDS]


def list_calls(seed: int, pass_no: int = 0) -> list[Argv]:
    words = _cell_words("list", seed, pass_no, LIST_CELLS)
    s, n, d = LIST_UNARY
    words.append((_unary(seed, pass_no, s, n), d, s))
    rng = random.Random(f"list:{seed}:{pass_no}")
    calls = []
    for w, d, s in words:
        for kind in KINDS:
            fmt = FORMATS[len(calls) % len(FORMATS)]
            calls.append(_enum(w, d, s, kind, "--format", fmt))
    for s, n, k in DIST_PAIRS:
        for _ in range(k):
            top = _word(rng, s, n)
            calls.append(("dist", top, _edited(rng, top, s), "--sigma", str(s), "--leftmost"))
    return calls


def _pass_seed(seed: int, pass_no: int) -> str:
    return str(random.Random(f"{seed}:{pass_no}").randrange(10**9))


def verify_calls(seed: int, pass_no: int = 0) -> list[Argv]:
    return [("verify", *VERIFY_ARGS, "--seed", _pass_seed(seed, pass_no)), ("table1",)]


def scan_calls(seed: int, pass_no: int = 0) -> list[Argv]:
    calls = []
    for s, n, d in SCAN_CELLS:
        for kind in ("condensed", "super-condensed"):
            calls.append(("extremal", "--length", str(n), "--dist", str(d), "--sigma", str(s),
                          "--kind", kind))
    s, n, d = SCAN_CELLS[0]
    calls.append(("extremal", "--length", str(n), "--dist", str(d), "--sigma", str(s),
                  "--mode", "sampled", "--samples", str(SCAN_SAMPLES),
                  "--seed", _pass_seed(seed, pass_no)))
    return calls


CALLS = {"count": count_calls, "list": list_calls, "verify": verify_calls, "scan": scan_calls}

# A run ends before any cell runs out of distinct words.
MAX_PASSES = {
    "count": min(s**n // k for s, n, _, k in COUNT_CELLS),
    "list": min(s**n // k for s, n, _, k in LIST_CELLS),
    "verify": 10**6,
    "scan": 10**6,
}
