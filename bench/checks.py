"""Output checks for the benchmark's nbhood CLI calls.

Three kinds of check feed the failure count. For the default seed, the
outputs of the first passes are compared with the values recorded in
``bench/expected/`` (the recording cross-checked them against the
brute-force oracle where that fits its budget). A call repeated within a
run must print what it printed the first time. For any seed and pass,
seed-independent invariants are checked:

* |SCN| <= |CN| <= |full| for every word issued in all three kinds;
* |CN| <= the alignment-profile bound when d < |W|;
* unary queries equal the closed-form unary counts;
* every listed neighborhood has as many members as ``count`` reports;
* the leftmost alignment's cost equals the distance printed above it;
* ``verify`` exits 0 with every step ok, and ``table1`` equals
  ``nbhood.verify.EXPECTED_TABLE``.

The invariants call nbhood's own library functions, outside the timed and
traced region.
"""
from __future__ import annotations

import hashlib
import json
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
# passes of the default seed whose outputs are recorded
EXPECTED_PASSES = 3

_ELAPSED = re.compile(r"(total: \d+ cases, \d+ failures), [0-9.]+s$", re.M)
_STEP = re.compile(r"^(.+): (\d+) cases, (ok|\d+ FAILED)$")
_SCOPE = re.compile(r"^mode: (exhaustive|sampled), (?:all )?(\d+) ")
_EXTREME = re.compile(r"^(minimum|maximum) (\d+): '(\w*)'")


def key(argv: tuple[str, ...]) -> str:
    """How a call is named in the expected-output files."""
    return " ".join(argv)


def normalize(argv: tuple[str, ...], stdout: str) -> str:
    """Output with the run-dependent part (verify's elapsed time) removed."""
    return _ELAPSED.sub(r"\1", stdout) if argv[0] == "verify" else stdout


def digest(argv: tuple[str, ...], stdout: str) -> str:
    return hashlib.sha256(normalize(argv, stdout).encode()).hexdigest()


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(workload: str) -> dict[str, str]:
    """Recorded output digests for the default seed, keyed by call."""
    data = json.loads(expected_path(workload).read_text())
    return {k: entry["sha256"] for k, entry in data["calls"].items()}


@dataclass
class Outcome:
    """Parsed facts about one call's output, and what was wrong with it."""

    queries: int = 0
    members: int = 0
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


def _opt(argv: tuple[str, ...], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _parse_enum(argv, out: str, o: Outcome) -> None:
    fmt = _opt(argv, "--format", "text")
    count_only = "--count-only" in argv
    words = None
    if fmt == "json":
        payload = json.loads(out)
        total = int(payload["count"])
        if not count_only:
            words = payload["words"]
        if payload["query"] != _opt(argv, "--word") or payload["kind"] != _opt(argv, "--kind"):
            o.problems.append("json payload does not echo the query")
    elif count_only:
        lines = out.splitlines()
        total = int(lines[-1])
    else:
        words = out.splitlines()
        if fmt == "csv":
            if not words or words[0] != "word":
                raise ValueError("csv listing without its header")
            words = words[1:]
        total = len(words)
    if words is not None:
        if len(words) != total:
            o.problems.append(f"{len(words)} words listed but count {total}")
        if len(set(words)) != len(words):
            o.problems.append("listing repeats a member")
    o.queries, o.members = 1, total
    o.facts.update(total=total, words=words)


def _alignment_ok(top_row: str, bottom_row: str, u: str, v: str, dist: int) -> bool:
    top, bottom = top_row.split(" "), bottom_row.split(" ")
    if len(top) != len(bottom) or any(a == b == "-" for a, b in zip(top, bottom)):
        return False
    cost = sum(a != b for a, b in zip(top, bottom))
    return (cost == dist and "".join(top).replace("-", "") == u
            and "".join(bottom).replace("-", "") == v)


def _parse_dist(argv, out: str, o: Outcome) -> None:
    lines = out.splitlines()
    dist = int(lines[0])
    if not _alignment_ok(lines[1], lines[2], argv[1], argv[2], dist):
        o.problems.append("leftmost alignment does not spell the words at cost = distance")
    o.queries = 1
    o.facts["dist"] = dist


def _parse_extremal(argv, out: str, o: Outcome) -> None:
    lines = out.splitlines()
    mode, scanned = _SCOPE.match(lines[1]).groups()
    lo, hi = (_EXTREME.match(line).groups() for line in lines[2:4])
    o.queries = int(scanned)
    o.facts.update(mode=mode, min=int(lo[1]), min_word=lo[2], max=int(hi[1]), max_word=hi[2])
    sigma, length = int(_opt(argv, "--sigma")), int(_opt(argv, "--length"))
    if mode == "exhaustive" and o.queries != sigma**length:
        o.problems.append(f"exhaustive scan covered {o.queries} of {sigma ** length} words")


def _parse_verify(out: str, o: Outcome) -> None:
    lines = out.splitlines()
    steps = [_STEP.match(line) for line in lines[:-1]]
    if len(steps) != 9 or not all(m and m.group(3) == "ok" for m in steps):
        o.problems.append("verify did not report nine passing steps")
    if not _ELAPSED.match(lines[-1]) or not lines[-1].startswith(
        f"total: {sum(int(m.group(2)) for m in steps if m)} cases, 0 failures"
    ):
        o.problems.append(f"verify summary line is wrong: {lines[-1]!r}")
    o.facts["step_cases"] = [int(m.group(2)) for m in steps if m]
    o.queries = sum(o.facts["step_cases"])


def _parse_table(out: str, o: Outcome) -> None:
    from nbhood.verify import EXPECTED_TABLE

    rows = out.splitlines()
    got = {}
    for row in rows[1:]:
        panel, w, d, value = row.split(",")
        got[(panel, int(w), int(d))] = int(value)
    if rows[0] != "panel,w,d,value" or got != EXPECTED_TABLE:
        o.problems.append("table1 differs from EXPECTED_TABLE")


def inspect(argv: tuple[str, ...], code: int, stdout: str, expected: str | None) -> Outcome:
    """Parse one call's output and run the checks that need only that call."""
    o = Outcome()
    if code != 0:
        o.problems.append(f"exit code {code}")
        return o
    if expected is not None and digest(argv, stdout) != expected:
        o.problems.append("output differs from the recorded default-seed output")
    try:
        command = argv[0]
        if command == "enum":
            _parse_enum(argv, stdout, o)
        elif command == "dist":
            _parse_dist(argv, stdout, o)
        elif command == "extremal":
            _parse_extremal(argv, stdout, o)
        elif command == "verify":
            _parse_verify(stdout, o)
        elif command == "table1":
            _parse_table(stdout, o)
    except (ValueError, KeyError, IndexError, AttributeError) as exc:
        o.problems.append(f"unparseable output: {exc!r}")
    return o


def cross_check(calls, outcomes: list[Outcome]) -> None:
    """Invariants that relate several calls of one pass; adds to ``problems``."""
    from nbhood.core import alphabet_of_size, make_word
    from nbhood.counting import (
        alignment_profile_bound,
        unary_condensed_count,
        unary_super_condensed_count,
    )
    from nbhood.neighborhood import count

    by_query: dict[tuple, dict[str, Outcome]] = defaultdict(dict)
    for argv, o in zip(calls, outcomes):
        if argv[0] == "enum" and "total" in o.facts:
            key = (_opt(argv, "--word"), int(_opt(argv, "--dist")), int(_opt(argv, "--sigma")))
            by_query[key][_opt(argv, "--kind")] = o
    for (word, d, sigma), kinds in by_query.items():
        alphabet = alphabet_of_size(sigma)
        total = {k: o.facts["total"] for k, o in kinds.items()}
        listed = {k: set(o.facts["words"]) for k, o in kinds.items()
                  if o.facts["words"] is not None}
        scn, cn = kinds.get("super-condensed"), kinds.get("condensed")
        for sizes, what in ((total, "counts"), (listed, "listings")):
            if len(sizes) == 3 and not (
                sizes["super-condensed"] <= sizes["condensed"] <= sizes["full"]
            ):
                scn.problems.append(f"{what} are not nested: SCN <= CN <= full fails")
        if cn and d < len(word) and total["condensed"] > alignment_profile_bound(
            len(word), d, sigma
        ):
            cn.problems.append("|CN| exceeds the alignment-profile bound")
        if word and len(set(word)) == 1 and d <= len(word):
            for o, formula in ((cn, unary_condensed_count), (scn, unary_super_condensed_count)):
                if o and o.facts["total"] != formula(len(word), d, sigma):
                    o.problems.append("unary count differs from the closed form")
        for kind, o in kinds.items():
            w = make_word(word, alphabet)
            if kind in listed and total[kind] != count(w, d, alphabet, kind):
                o.problems.append("listing length differs from count()")

    exhaustive = {}
    for argv, o in zip(calls, outcomes):
        if argv[0] == "extremal" and "mode" in o.facts:
            cell = tuple(_opt(argv, f) for f in ("--length", "--dist", "--sigma"))
            kind = _opt(argv, "--kind", "condensed")
            if o.facts["mode"] == "exhaustive":
                exhaustive[cell + (kind,)] = o
            n, d, s = (int(x) for x in cell)
            alphabet = alphabet_of_size(s)
            for side in ("min", "max"):
                w = make_word(o.facts[f"{side}_word"], alphabet)
                if count(w, d, alphabet, kind) != o.facts[side]:
                    o.problems.append(f"reported {side} count differs from count()")
    for argv, o in zip(calls, outcomes):
        if argv[0] == "extremal" and o.facts.get("mode") == "sampled":
            cell = tuple(_opt(argv, f) for f in ("--length", "--dist", "--sigma"))
            ref = exhaustive.get(cell + (_opt(argv, "--kind", "condensed"),))
            lo, hi = o.facts["min"], o.facts["max"]
            if ref and not ref.facts["min"] <= lo <= hi <= ref.facts["max"]:
                o.problems.append("sampled extremes fall outside the exhaustive ones")
