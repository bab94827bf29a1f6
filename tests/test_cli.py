"""Command-line surface: exit codes, output formats, file output."""
import contextlib
import decimal
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import nbhood
from nbhood import cli
from nbhood.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from nbhood.neighborhood import BUDGET_ENV_VAR, DEFAULT_CANDIDATE_BUDGET


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_prints_the_distance(capsys):
    code, out, err = run_cli(capsys, "dist", "abc", "abd")
    assert (code, out, err) == (EXIT_OK, "1\n", "")


def test_dist_renders_alignments(capsys):
    code, out, _ = run_cli(capsys, "dist", "align", "assign", "--leftmost")
    assert code == EXIT_OK
    assert out == "2\na l - i g n\na s s i g n\n"
    code, out, _ = run_cli(capsys, "dist", "aa", "a", "--alignment")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "1"
    assert len(out.splitlines()) == 3


def test_dist_rejects_symbols_outside_the_universe(capsys):
    code, out, err = run_cli(capsys, "dist", "a!", "b")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("nbhood: error:")


def test_dist_rejects_words_outside_an_explicit_alphabet(capsys):
    code, _, err = run_cli(capsys, "dist", "abc", "abd", "--alphabet", "ab")
    assert code == EXIT_USAGE
    assert "not in alphabet" in err


def test_usage_errors_exit_one():
    for argv in (["dist", "abc"], ["frobnicate"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE


def test_enum_text_lists_members(capsys):
    code, out, _ = run_cli(
        capsys, "enum", "--word", "aaaa", "--dist", "1", "--sigma", "2",
        "--kind", "super-condensed",
    )
    assert code == EXIT_OK
    assert out == "aaa\naaba\nabaa\n"


def _call(argv):
    # in process, like run_cli, but without a pytest fixture, so that
    # hypothesis can call it many times in one test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_one_error_line(out, err):
    assert out == ""
    assert err.startswith("nbhood: error:") and err.endswith("\n"), err
    assert err.count("\n") == 1, err


@st.composite
def dist_argvs(draw):
    # two words of 0-40 letters over "abc", sometimes one with a letter from
    # outside it, an alphabet that may or may not hold them, and the flags
    word = st.text(alphabet="abc", max_size=40)
    u, v = draw(word), draw(word)
    if draw(st.booleans()):
        stray = draw(st.sampled_from("dz! \u00e9"))
        pos = draw(st.integers(0, len(u)))
        u = u[:pos] + stray + u[pos:]
    if draw(st.booleans()):
        u, v = v, u
    if draw(st.booleans()):
        alphabet = ["--sigma", str(draw(st.integers(-1, 27)))]
    else:
        alphabet = ["--alphabet", draw(st.sampled_from(["abc", "cba", "ab", "abcd", "", "aab"]))]
    flags = draw(st.lists(st.sampled_from(["--alignment", "--leftmost"]), unique=True))
    return u, v, ["dist", u, v, *alphabet, *flags], flags


@given(dist_argvs())
def test_dist_argument_vectors_end_in_a_result_or_one_error_line(case):
    u, v, argv, flags = case
    code, out, err = _call(argv)
    assert code in (EXIT_OK, EXIT_USAGE), (code, err)
    assert "Traceback" not in out + err
    if code == EXIT_USAGE:
        _assert_one_error_line(out, err)
        return
    assert err == ""
    lines = out.split("\n")
    assert lines[-1] == "" and len(lines) == 2 + 2 * len(flags), out
    d = int(lines[0])
    for top, bottom in zip(lines[1:-1:2], lines[2:-1:2]):
        # an empty alignment renders as two empty lines
        tops, bottoms = top.split(" ") if top else [], bottom.split(" ") if bottom else []
        assert len(tops) == len(bottoms)
        assert all(t != "-" or b != "-" for t, b in zip(tops, bottoms))
        assert "".join(t for t in tops if t != "-") == u
        assert "".join(b for b in bottoms if b != "-") == v
        assert sum(t != b for t, b in zip(tops, bottoms)) == d


@st.composite
def enum_argvs(draw):
    # a word of 0-6 letters over "abc", sometimes with a letter from outside
    # it, a distance, an alphabet that may or may not hold the word, and
    # every kind, format and optional flag
    word = draw(st.text(alphabet="abc", max_size=6))
    if draw(st.booleans()):
        pos = draw(st.integers(0, len(word)))
        word = word[:pos] + draw(st.sampled_from("dz! \u00e9")) + word[pos:]
    d = draw(st.integers(-1, 4))
    if draw(st.booleans()):
        alphabet = ["--sigma", str(draw(st.integers(-1, 27)))]
    else:
        alphabet = ["--alphabet", draw(st.sampled_from(["abc", "cba", "ab", "abcd", "", "aab"]))]
    kind = draw(st.sampled_from(nbhood.NEIGHBORHOOD_KINDS))
    fmt = draw(st.sampled_from(["text", "json", "csv"]))
    flags = draw(st.lists(st.sampled_from(["--count-only", "--oracle"]), unique=True))
    budget = draw(st.sampled_from([None, 1, 10, 1000]))
    if budget is not None:
        flags += ["--budget", str(budget)]
    argv = ["enum", "--word", word, "--dist", str(d), *alphabet, "--kind", kind,
            "--format", fmt, *flags]
    return word, d, alphabet, kind, fmt, flags, budget, argv


@given(enum_argvs())
def test_enum_argument_vectors_end_in_a_result_or_one_error_line(case):
    word, d, (option, value), kind, fmt, flags, budget, argv = case
    count_only = "--count-only" in flags
    refusal = None
    try:
        if option == "--alphabet":
            alphabet = nbhood.make_alphabet(value)
        else:
            alphabet = nbhood.alphabet_of_size(int(value))
        w = nbhood.make_word(word, alphabet)
        size = nbhood.count(w, d, alphabet, kind)
    except (nbhood.ValidationError, nbhood.RangeError):
        size = None
    else:
        # no query that runs long: an oracle scan, or a walk listing, that
        # the budget lets through must be short
        limit = budget or DEFAULT_CANDIDATE_BUDGET
        if "--oracle" in flags:
            scan = sum(alphabet.size**n for n in range(max(0, len(word) - d), len(word) + d + 1))
            assume(scan <= 3000 or scan > limit)
        elif not count_only:
            assume(nbhood.count(w, d, alphabet, "full") <= 3000 or size > limit)
            # empty for a listing that fits
            refusal = (
                f"listing would hold {size} members, over the budget of {limit};"
                if size > limit
                else ""
            )
    code, out, err = _call(argv)
    assert code in (EXIT_OK, EXIT_USAGE), (code, err)
    assert "Traceback" not in out + err
    if refusal is not None:
        # a walk listing is refused exactly when its member count is over budget
        assert (code == EXIT_USAGE) == bool(refusal) and refusal in err, err
    if code == EXIT_USAGE:
        _assert_one_error_line(out, err)
        return
    assert err == "" and size is not None, err
    if fmt == "json":
        payload = json.loads(out)
        members = payload.pop("words", None)
        assert payload == {
            "query": word,
            "distance": d,
            "alphabet": "".join(alphabet.symbols),
            "kind": kind,
            "count": str(size),
        }
        assert (members is None) == count_only
    else:
        if fmt == "csv":
            header, out = out.split("\n", 1)
            assert header == ("count" if count_only else "word")
        members = out.split("\n")
        assert members.pop() == "", out
        if count_only:
            assert members == [str(size)]
    if not count_only:
        assert len(set(members)) == len(members) == size


@st.composite
def extremal_argvs(draw):
    # a length, distance and alphabet size from just below their ranges to
    # past them, both kinds, both modes, and in sampled mode a sample count
    # and maybe a seed
    w, d, s = draw(st.integers(-1, 4)), draw(st.integers(-1, 4)), draw(st.integers(-1, 27))
    kind = draw(st.sampled_from(["condensed", "super-condensed"]))
    argv = ["extremal", "--length", str(w), "--dist", str(d), "--sigma", str(s), "--kind", kind]
    mode = draw(st.sampled_from([None, "exhaustive", "sampled"]))
    if mode is not None:
        argv += ["--mode", mode]
    if mode == "sampled":
        argv += ["--samples", str(draw(st.integers(-1, 5)))]
        if draw(st.booleans()):
            argv += ["--seed", str(draw(st.integers(0, 9)))]
    budget = draw(st.sampled_from([None, 1, 10, 1000]))
    if budget is not None:
        argv += ["--budget", str(budget)]
    return w, d, s, kind, mode or "exhaustive", budget, argv


@given(extremal_argvs())
def test_extremal_argument_vectors_end_in_a_report_or_one_error_line(case):
    w, d, s, kind, mode, budget, argv = case
    if mode == "exhaustive" and w >= 1 and d >= 0 and 1 <= s <= 26:
        # a scan that the budget lets through must be short
        assume(s**w <= 64 or s**w > (budget or DEFAULT_CANDIDATE_BUDGET))
    code, out, err = _call(argv)
    assert code in (EXIT_OK, EXIT_USAGE), (code, err)
    assert "Traceback" not in out + err
    if code == EXIT_USAGE:
        _assert_one_error_line(out, err)
        return
    assert err == ""
    lines = out.split("\n")
    assert len(lines) == 5 and lines[-1] == "", out
    assert lines[0].endswith(f"length-{w} words, alphabet size {s}, distance {d}"), out
    assert lines[1].startswith(f"mode: {mode}, "), out
    if mode == "exhaustive":
        assert lines[1].endswith(f"all {s**w} words"), out
    alphabet = nbhood.alphabet_of_size(s)
    for line, label in zip(lines[2:4], ("minimum", "maximum")):
        # the first word named has the size printed
        size, first = line.removeprefix(label + " ").split(":")[0], line.split("'")[1]
        assert nbhood.count(nbhood.make_word(first, alphabet), d, alphabet, kind) == int(size)


def _digits(n: int) -> str:
    # str(n) past the int-to-str digit limit: decimal has none
    return str(decimal.Decimal(n))


def _binom(n: int, k: int) -> int:
    # choosing nothing counts 1, an impossible choice 0
    return 1 if k == 0 else math.comb(n, k) if 0 <= k <= n else 0


def _formula_or_bound(kind: str, w: int, d: int, s: int):
    """The value by its defining sum or closed form, None outside its range."""
    if s < 1 or d < 0 or d > w or (kind == "f" and d == w):
        return None
    if kind in ("unary-cn", "unary-scn"):
        shift = 1 if kind == "unary-cn" else 2
        return Fraction(sum(
            _binom(m - shift, d + m - w) * (s - 1) ** (d + m - w) for m in range(w - d, w + 1)
        ))
    if kind == "f":
        return Fraction(sum(
            _binom(w, i) * (s - 1) ** (d - i) * _binom(w - i - 1, j)
            * _binom(w + d - 2 * i - 2 * j - 1, d - i - j)
            for i in range(d + 1) for j in range(d - i + 1)
        ))
    return Fraction((2 * s - 1) ** d * w**d, math.factorial(d))


@st.composite
def formula_bound_argvs(draw):
    # every formula and bound kind, a length, distance and alphabet size
    # from just below their ranges to past them, and for bound the exact
    # rational; bound f keeps d <= 60, its double sum being O(d^2) binomials
    command, kind = draw(st.sampled_from(
        [("formula", "unary-cn"), ("formula", "unary-scn"), ("bound", "f"), ("bound", "conjecture")]
    ))
    w = draw(st.integers(-1, 2000))
    d = draw(st.integers(-1, min(w + 1, 60) if kind == "f" else w + 1))
    s = draw(st.integers(-1, 27))
    exact_rational = command == "bound" and draw(st.booleans())
    argv = [command, kind, "--length", str(w), "--dist", str(d), "--sigma", str(s)]
    return kind, w, d, s, exact_rational, argv + ["--exact-rational"] * exact_rational


@given(formula_bound_argvs())
def test_formula_and_bound_argument_vectors_end_in_the_value_or_one_error_line(case):
    kind, w, d, s, exact_rational, argv = case
    value = _formula_or_bound(kind, w, d, s)
    code, out, err = _call(argv)
    assert code == (EXIT_USAGE if value is None else EXIT_OK), (code, err)
    if value is None:
        _assert_one_error_line(out, err)
        return
    assert err == ""
    text = _digits(math.floor(value))
    if exact_rational:
        exact = _digits(value.numerator)
        if value.denominator != 1:
            exact += "/" + _digits(value.denominator)
        text += f" (exact {exact})"
    assert out == text + "\n"


def test_formula_and_bound_answer_large_queries_exactly(capsys):
    code, out, err = run_cli(
        capsys, "formula", "unary-cn", "--length", "16000", "--dist", "6000", "--sigma", "2"
    )
    assert (code, out, err) == (EXIT_OK, _digits(math.comb(16000, 6000)) + "\n", "")
    code, out, err = run_cli(
        capsys, "bound", "conjecture", "--length", "16000", "--dist", "6000", "--sigma", "3"
    )
    floor = 5**6000 * 16000**6000 // math.factorial(6000)
    assert (code, out, err) == (EXIT_OK, _digits(floor) + "\n", "")


def test_enum_requires_an_alphabet(capsys):
    code, _, err = run_cli(capsys, "enum", "--word", "aa", "--dist", "1")
    assert code == EXIT_USAGE
    assert "alphabet" in err


@pytest.mark.parametrize(
    "command",
    [("enum", "--word", "a", "--dist", "1"), ("dist", "ab", "ba")],
    ids=["enum", "dist"],
)
@pytest.mark.parametrize(
    "option, message",
    [
        (("--sigma", "0"), "alphabet size must be >= 1, got 0"),
        (("--alphabet", ""), "alphabet spec must be nonempty"),
    ],
    ids=["sigma-0", "alphabet-empty"],
)
def test_an_empty_alphabet_is_rejected_not_ignored(capsys, command, option, message):
    code, out, err = run_cli(capsys, *command, *option)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"nbhood: error: {message}\n"


def test_enum_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "enum", "--word", "aa", "--dist", "1", "--sigma", "2",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {
        "query": "aa",
        "distance": 1,
        "alphabet": "ab",
        "kind": "full",
        "count": "8",
        "words": ["a", "aa", "aaa", "aab", "ab", "aba", "ba", "baa"],
    }
    assert isinstance(payload["count"], str)


def test_enum_count_only_json_has_no_words(capsys):
    code, out, _ = run_cli(
        capsys, "enum", "--word", "aa", "--dist", "1", "--sigma", "2",
        "--format", "json", "--count-only",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert "words" not in payload
    assert payload["count"] == "8"


def test_enum_csv_formats(capsys):
    code, out, _ = run_cli(
        capsys, "enum", "--word", "aa", "--dist", "1", "--sigma", "2",
        "--format", "csv",
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "word"
    assert len(out.splitlines()) == 9
    code, out, _ = run_cli(
        capsys, "enum", "--word", "aa", "--dist", "1", "--sigma", "2",
        "--format", "csv", "--count-only",
    )
    assert out == "count\n8\n"


def test_enum_oracle_route_matches_the_enumerator(capsys):
    args = ["enum", "--word", "aba", "--dist", "2", "--sigma", "2",
            "--kind", "condensed"]
    _, direct, _ = run_cli(capsys, *args)
    _, oracle, _ = run_cli(capsys, *args, "--oracle")
    assert direct == oracle


ENUMERATE = {
    "full": nbhood.enumerate_full,
    "condensed": nbhood.enumerate_condensed,
    "super-condensed": nbhood.enumerate_super_condensed,
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("kind", nbhood.NEIGHBORHOOD_KINDS)
@pytest.mark.parametrize(
    "word, d, sigma",
    # the empty word, a unary word, d > |W|, a mixed ternary word
    [("", 2, 2), ("aaa", 2, 2), ("ab", 3, 2), ("abcab", 2, 3)],
)
def test_enum_listing_matches_the_library_enumerator(capsys, fmt, kind, word, d, sigma):
    # the CLI lists from the walk; the library builds checked records
    alphabet = nbhood.alphabet_of_size(sigma)
    result = ENUMERATE[kind](nbhood.make_word(word, alphabet), d, alphabet)
    words = [x.text for x in result.words]
    if fmt == "json":
        payload = {
            "query": word,
            "distance": d,
            "alphabet": "".join(alphabet.symbols),
            "kind": kind,
            "count": str(result.count),
            "words": words,
        }
        expected = json.dumps(payload, indent=2) + "\n"
    else:
        expected = ("word\n" if fmt == "csv" else "") + "".join(t + "\n" for t in words)
    code, out, err = run_cli(
        capsys, "enum", "--word", word, "--dist", str(d), "--sigma", str(sigma),
        "--kind", kind, "--format", fmt,
    )
    assert (code, out, err) == (EXIT_OK, expected, "")


def test_enum_listing_refusal_names_the_exact_member_count(capsys, monkeypatch):
    # far past the default budget; the refusal runs only the count
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    code, out, err = run_cli(
        capsys, "enum", "--word", "abcabc", "--dist", "4", "--sigma", "26"
    )
    assert code == EXIT_USAGE
    _assert_one_error_line(out, err)
    assert err == (
        "nbhood: error: listing would hold 345738060 members, over the budget "
        f"of {DEFAULT_CANDIDATE_BUDGET}; raise it explicitly to force the run\n"
    )


@pytest.mark.parametrize("kind", nbhood.NEIGHBORHOOD_KINDS)
def test_enum_listing_budget_is_the_member_count(capsys, kind):
    args = ["enum", "--word", "abca", "--dist", "2", "--sigma", "3", "--kind", kind]
    alphabet = nbhood.alphabet_of_size(3)
    size = nbhood.count(nbhood.make_word("abca", alphabet), 2, alphabet, kind)
    code, out, err = run_cli(capsys, *args, "--budget", str(size))
    assert (code, err) == (EXIT_OK, "")
    assert len(out.splitlines()) == size
    code, out, err = run_cli(capsys, *args, "--budget", str(size - 1))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        f"nbhood: error: listing would hold {size} members, over the budget of "
        f"{size - 1}; raise it explicitly to force the run\n"
    )


def test_enum_oracle_budget_refusal(capsys):
    code, _, err = run_cli(
        capsys, "enum", "--word", "aaaa", "--dist", "2", "--sigma", "2",
        "--oracle", "--budget", "10",
    )
    assert code == EXIT_USAGE
    assert "budget" in err


def test_enum_oracle_refusal_at_a_huge_distance_names_the_count(capsys):
    # 2^0 + ... + 2^20002 candidates: far too many digits for int -> str
    code, out, err = run_cli(
        capsys, "enum", "--word", "ab", "--dist", "20000", "--sigma", "2", "--oracle",
        "--budget", "100",
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "nbhood: error: oracle would scan about 2^20002 candidates, over the "
        "budget of 100; raise it explicitly to force the run\n"
    )


def test_extremal_refusal_past_the_digit_limit_names_the_count(capsys):
    code, out, err = run_cli(
        capsys, "extremal", "--length", "20000", "--dist", "1", "--sigma", "2",
        "--budget", "100",
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "nbhood: error: exhaustive scan over about 2^20000 words exceeds the "
        "budget of 100; use sampled mode or raise the budget\n"
    )


def test_extremal_sampled_refusal_names_the_draws(capsys):
    code, out, err = run_cli(
        capsys, "extremal", "--length", "4", "--dist", "1", "--sigma", "2",
        "--mode", "sampled", "--samples", "50", "--budget", "10",
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "nbhood: error: sampled scan of 50 draws exceeds the budget of 10\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enum_prints_counts_past_the_int_to_str_digit_limit(capsys, fmt):
    # every binary word of length <= d + 1 but b^(d+1) is within d of "a":
    # 2^(d+2) - 2 of them, 4,366 digits, past Python's default of 4,300
    d = 14500
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out, err = run_cli(
        capsys, "enum", "--word", "a", "--dist", str(d), "--sigma", "2",
        "--count-only", "--format", fmt,
    )
    assert limit() == before
    assert (code, err) == (EXIT_OK, "")
    digits = json.loads(out)["count"] if fmt == "json" else out.removesuffix("\n")
    # decimal has no digit limit, so the expected digits need no lift
    with decimal.localcontext() as ctx:
        ctx.prec = 5000
        assert digits == str(decimal.Decimal(2) ** (d + 2) - 2)


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize(
    "command",
    [
        ["enum", "--word", "ab", "--dist", "1", "--sigma", "2", "--oracle"],
        ["extremal", "--length", "2", "--dist", "1", "--sigma", "2"],
        ["verify", "--max-length", "1", "--max-dist", "0", "--sigma", "2"],
        ["enum", "--word", "a", "--dist", "1", "--sigma", "2"],
        ["extremal", "--length", "2", "--dist", "1", "--sigma", "2", "--mode", "sampled"],
    ],
)
def test_nonpositive_budget_is_a_usage_error(capsys, command, budget):
    code, out, err = run_cli(capsys, *command, "--budget", budget)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"nbhood: error: budget must be positive, got {budget}\n"


def test_enum_handles_words_past_the_recursion_limit(capsys):
    word = "a" * 1200
    args = ["enum", "--word", word, "--dist", "1", "--sigma", "1"]
    expected = {
        "full": ["a" * 1199, word, "a" * 1201],
        "condensed": ["a" * 1199],
        "super-condensed": ["a" * 1199],
    }
    for kind, members in expected.items():
        code, out, _ = run_cli(capsys, *args, "--kind", kind, "--count-only")
        assert (code, out) == (EXIT_OK, f"{len(members)}\n")
        code, out, _ = run_cli(capsys, *args, "--kind", kind)
        assert (code, out.splitlines()) == (EXIT_OK, members)


def test_enum_writes_lf_files(tmp_path, capsys):
    target = tmp_path / "members.csv"
    code, out, _ = run_cli(
        capsys, "enum", "--word", "aa", "--dist", "1", "--sigma", "2",
        "--format", "csv", "--output", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    raw = target.read_bytes()
    assert raw == b"word\na\naa\naaa\naab\nab\naba\nba\nbaa\n"
    assert b"\r" not in raw


@pytest.mark.parametrize(
    "command",
    [["enum", "--word", "aa", "--dist", "1", "--sigma", "2"], ["table1"]],
)
def test_output_in_a_missing_directory_is_a_usage_error(tmp_path, capsys, command):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *command, "--output", str(target))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("nbhood: error:")
    assert str(target) in err
    assert err.count("\n") == 1
    assert not target.parent.exists()


def test_formula_values(capsys):
    code, out, _ = run_cli(
        capsys, "formula", "unary-cn", "--length", "6", "--dist", "2", "--sigma", "2"
    )
    assert (code, out) == (EXIT_OK, "15\n")
    code, out, _ = run_cli(
        capsys, "formula", "unary-scn", "--length", "6", "--dist", "2", "--sigma", "2"
    )
    assert (code, out) == (EXIT_OK, "10\n")


def test_formula_range_errors_exit_one(capsys):
    code, _, err = run_cli(
        capsys, "formula", "unary-cn", "--length", "3", "--dist", "4", "--sigma", "2"
    )
    assert code == EXIT_USAGE
    assert err.startswith("nbhood: error:")


def test_bound_values(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "f", "--length", "4", "--dist", "1", "--sigma", "2"
    )
    assert (code, out) == (EXIT_OK, "11\n")
    code, out, _ = run_cli(
        capsys, "bound", "conjecture", "--length", "8", "--dist", "5", "--sigma", "2",
        "--exact-rational",
    )
    assert (code, out) == (EXIT_OK, "66355 (exact 331776/5)\n")


def test_bound_f_is_undefined_at_equal_length_and_distance(capsys):
    code, _, err = run_cli(
        capsys, "bound", "f", "--length", "4", "--dist", "4", "--sigma", "2"
    )
    assert code == EXIT_USAGE
    assert err.startswith("nbhood: error:")


def test_table_csv_output(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "panel,w,d,value"
    assert len(lines) == 49
    assert "a,4,1,11" in lines
    assert "b,10,9,54241071" in lines
    assert "a,6,5,2989" in lines


def test_table_text_output(capsys):
    code, out, _ = run_cli(capsys, "table1", "--format", "text")
    assert code == EXIT_OK
    assert out.startswith("panel (a):")
    assert "w= 4: 11 48 111" in out


def test_verify_small_scope_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-length", "3", "--max-dist", "1", "--sigma", "2"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[-1].startswith("total:")
    assert all(line.endswith("ok") for line in lines[:9])


def test_verify_rejects_a_negative_distance_cap(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--max-length", "1", "--max-dist", "-1", "--sigma", "2"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "nbhood: error: max_dist must be nonnegative, got -1\n"


def test_verify_rejects_a_length_cap_below_one(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--max-length", "-1", "--max-dist", "1", "--sigma", "2"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "nbhood: error: max_length must be >= 1, got -1\n"


def test_verify_rejects_repeated_alphabet_sizes(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--sigma", "2", "--sigma", "2", "--max-length", "2"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "nbhood: error: sigmas must not repeat, got [2, 2]\n"


def test_verify_reports_failures_with_exit_two(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-length", "2", "--max-dist", "1", "--sigma", "2",
        "--budget", "4",
    )
    assert code == EXIT_VERIFY
    assert "FAIL" in out
    assert "oracle refused" in out


def test_extremal_exhaustive_report(capsys):
    code, out, _ = run_cli(
        capsys, "extremal", "--length", "4", "--dist", "1", "--sigma", "2"
    )
    assert code == EXIT_OK
    assert "minimum 4: 'aaaa', 'bbbb'" in out
    assert "maximum 7:" in out
    assert "all 16 words" in out


def test_extremal_sampled_is_deterministic(capsys):
    args = ["extremal", "--length", "5", "--dist", "1", "--sigma", "2",
            "--mode", "sampled", "--samples", "10", "--seed", "3"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert "seed 3" in first


def test_module_entry_point():
    # the child process imports the same nbhood as this one, installed or not
    src = str(Path(nbhood.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nbhood", "dist", "ab", "ba"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout == "2\n"


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (("verify", "--max-length", "1", "--sigma", "2"), ""),
        (("verify", "--max-length", "1", "--sigma", "2"), "1"),
        (("--help",), ""),
    ],
    ids=["verify-buffered", "verify-unbuffered", "help-buffered"],
)
def test_a_closed_output_pipe_exits_one_without_a_traceback(argv, unbuffered):
    # as under `nbhood verify | head -1`, with the reader gone before the
    # first line: the write or the final flush fails, buffered or not
    src = str(Path(nbhood.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nbhood", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_USAGE, "")


def test_calls_in_one_process_share_a_parser_and_no_state():
    first_enum = ["enum", "--word", "abba", "--dist", "2", "--sigma", "2", "--count-only"]
    sequence = [
        first_enum,
        ["enum", "--word", "aba", "--dist", "1", "--sigma", "2", "--format", "json"],
        ["dist", "align", "assign", "--leftmost"],
        # a repeated append option: a default list kept between calls would
        # turn the second call's sigmas into [2, 3, 2, 3], which is refused
        ["verify", "--max-length", "1", "--sigma", "2", "--sigma", "3"],
        ["verify", "--max-length", "1", "--sigma", "2", "--sigma", "3"],
        ["enum", "--word", "ab", "--dist", "one", "--sigma", "2"],
        first_enum,
    ]
    seen = {}
    for argv in sequence:
        code, out, err = _call(argv)
        # verify's total line ends in its elapsed time, the one part that varies
        result = (code, re.sub(r", [0-9.]+s\n\Z", ", <elapsed>s\n", out), err)
        assert result == seen.setdefault(tuple(argv), result), argv
    assert seen[tuple(first_enum)] == (EXIT_OK, "67\n", "")
    assert seen[tuple(sequence[3])][0] == EXIT_OK
    code, out, err = seen[tuple(sequence[5])]
    assert (code, out) == (EXIT_USAGE, "")
    assert "argument --dist: invalid int value: 'one'" in err
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._parser()


def _help_text(parser, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == EXIT_OK
    return out.getvalue()


@pytest.mark.parametrize(
    "command", [None, "dist", "enum", "formula", "bound", "table1", "verify", "extremal"]
)
def test_help_from_the_shared_parser_matches_a_fresh_one(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ([command] if command else []) + ["--help"]
    code, out, err = _call(argv)
    assert (code, err) == (EXIT_OK, "")
    assert out == _help_text(cli.build_parser(), argv)


def test_help_reads_the_terminal_width_when_printed(monkeypatch):
    texts = {}
    for columns in ("40", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        code, texts[columns], _ = _call(["enum", "--help"])
        assert code == EXIT_OK
        assert texts[columns] == _help_text(cli.build_parser(), ["enum", "--help"])
    assert texts["40"].count("\n") > texts["120"].count("\n")
