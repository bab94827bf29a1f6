"""Command-line interface.

Exit codes: 0 success, 1 usage or validation problem (or standard output
closed by its reader), 2 verification failure. Counts in JSON output are
decimal strings so arbitrary-precision values survive any consumer; CSV
uses a header row, LF line endings, and UTF-8.

The parser is built once per process, so in-process callers of ``main``
reuse it.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .core import (
    Alphabet,
    BudgetError,
    KIND_CONDENSED,
    KIND_FULL,
    KIND_SUPER_CONDENSED,
    NEIGHBORHOOD_KINDS,
    RangeError,
    ValidationError,
    alphabet_of_size,
    make_alphabet,
    make_word,
)
from .counting import (
    alignment_profile_bound,
    bound_table_rows,
    closed_form_bound_exact,
    unary_condensed_count,
    unary_super_condensed_count,
)
from .distance import leftmost_optimal_alignment, levenshtein, optimal_alignment
from .extremal import MODE_EXHAUSTIVE, MODE_SAMPLED, scan_extremal
from .neighborhood import _members, _oracle, _query, count, resolve_budget
from .verify import VerifyConfig, run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage by default; 2 is reserved
    # for verification failures here, so usage problems exit 1 instead
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_alphabet(args, fallback_chars: str | None = None) -> Alphabet:
    # an explicit empty or zero value is bad input, not an absent one
    if getattr(args, "alphabet", None) is not None:
        return make_alphabet(args.alphabet)
    if getattr(args, "sigma", None) is not None:
        return alphabet_of_size(args.sigma)
    if fallback_chars is not None:
        symbols = sorted(set(fallback_chars))
        return make_alphabet("".join(symbols) or "a")
    raise ValidationError("an alphabet is required: pass --sigma or --alphabet")


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as stream:
            stream.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_dist(args) -> int:
    alphabet = _resolve_alphabet(args, fallback_chars=args.u + args.v)
    u = make_word(args.u, alphabet)
    v = make_word(args.v, alphabet)
    lines = [str(levenshtein(u, v))]
    if args.alignment:
        lines.append(optimal_alignment(u, v).render())
    if args.leftmost:
        lines.append(leftmost_optimal_alignment(u, v).render())
    print("\n".join(lines))
    return EXIT_OK


def _enum_payload(args, alphabet: Alphabet):
    w = _query(make_word(args.word, alphabet), args.dist, alphabet, args.kind)
    if args.oracle:
        words = _oracle(w, args.dist, alphabet, args.budget)[args.kind]
    elif args.count_only:
        return w, count(w, args.dist, alphabet, args.kind), None
    else:
        words = _members(w, args.dist, alphabet, args.kind, budget=args.budget)
    return w, len(words), None if args.count_only else words


def cmd_enum(args) -> int:
    alphabet = _resolve_alphabet(args)
    w, total, words = _enum_payload(args, alphabet)
    if args.format == "json":
        payload = {
            "query": w.text,
            "distance": args.dist,
            "alphabet": "".join(alphabet.symbols),
            "kind": args.kind,
            "count": str(total),
        }
        if words is not None:
            payload["words"] = words
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        if words is None:
            text = "count\n" + str(total) + "\n"
        else:
            text = "word\n" + "".join(x + "\n" for x in words)
    else:
        if words is None:
            text = str(total) + "\n"
        else:
            text = "".join(x + "\n" for x in words)
    _emit(args.output, text)
    return EXIT_OK


def cmd_formula(args) -> int:
    fn = unary_condensed_count if args.kind == "unary-cn" else unary_super_condensed_count
    print(fn(args.length, args.dist, args.sigma))
    return EXIT_OK


def cmd_bound(args) -> int:
    if args.kind == "f":
        exact = Fraction(alignment_profile_bound(args.length, args.dist, args.sigma))
    else:
        exact = closed_form_bound_exact(args.length, args.dist, args.sigma)
    value = exact.__floor__()
    print(f"{value} (exact {exact})" if args.exact_rational else value)
    return EXIT_OK


def cmd_table1(args) -> int:
    rows = bound_table_rows()
    if args.format == "csv":
        text = "panel,w,d,value\n" + "".join(
            f"{panel},{w},{d},{value}\n" for panel, w, d, value in rows
        )
    else:
        lines = []
        for panel, label in (("a", "profile bound"), ("b", "closed-form floor")):
            lines.append(f"panel ({panel}): {label}, alphabet size 2")
            by_w: dict[int, list[str]] = {}
            for p, w, d, value in rows:
                if p == panel:
                    by_w.setdefault(w, []).append(str(value))
            for w in sorted(by_w):
                lines.append(f"  w={w:2d}: " + " ".join(by_w[w]))
        text = "\n".join(lines) + "\n"
    _emit(args.output, text)
    return EXIT_OK


def cmd_verify(args) -> int:
    config = VerifyConfig(
        max_length=args.max_length,
        max_dist=args.max_dist,
        sigmas=tuple(args.sigma) if args.sigma else (2, 3),
        budget=args.budget,
        seed=args.seed,
    )
    summary = run_verification(config, report=print)
    print(
        f"total: {summary.cases_run} cases, {len(summary.failures)} failures, "
        f"{summary.elapsed:.2f}s"
    )
    if summary.failures:
        shown = summary.failures[:20]
        for descriptor, expected, actual in shown:
            print(f"FAIL {descriptor}\n  expected {expected}\n  actual   {actual}")
        rest = len(summary.failures) - len(shown)
        if rest:
            print(f"... and {rest} more failures")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_extremal(args) -> int:
    report = scan_extremal(
        args.length,
        args.dist,
        args.sigma,
        kind=args.kind,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        budget=args.budget,
    )

    def words_line(words: tuple[str, ...]) -> str:
        shown = ", ".join(repr(t) for t in words[:10])
        rest = len(words) - min(len(words), 10)
        return shown + (f" (+{rest} more)" if rest else "")

    scope = (
        f"all {report.scanned} words"
        if report.mode == MODE_EXHAUSTIVE
        else f"{report.scanned} distinct sampled words (seed {report.seed})"
    )
    print(
        f"{report.kind} neighborhood sizes over length-{report.word_length} words, "
        f"alphabet size {report.alphabet_size}, distance {report.distance}"
    )
    print(f"mode: {report.mode}, {scope}")
    print(f"minimum {report.min_count}: {words_line(report.min_words)}")
    print(f"maximum {report.max_count}: {words_line(report.max_words)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # the last paragraph of the docstring is for library callers, not --help
    parser = _Parser(prog="nbhood", description=(__doc__ or "").rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("dist", help="Levenshtein distance between two words")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--alphabet", help="explicit alphabet symbols, e.g. 'abc'")
    p.add_argument("--sigma", type=int, help="alphabet size (first letters of a..z)")
    p.add_argument("--alignment", action="store_true", help="print an optimal alignment")
    p.add_argument(
        "--leftmost", action="store_true", help="print the leftmost optimal alignment"
    )
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("enum", help="enumerate or count a neighborhood")
    p.add_argument("--word", required=True, help="query word (may be empty)")
    p.add_argument("--dist", type=int, required=True, help="distance threshold")
    p.add_argument("--sigma", type=int, help="alphabet size (first letters of a..z)")
    p.add_argument("--alphabet", help="explicit alphabet symbols; overrides --sigma")
    p.add_argument(
        "--kind",
        choices=NEIGHBORHOOD_KINDS,
        default=KIND_FULL,
        help="which neighborhood variant",
    )
    p.add_argument("--count-only", action="store_true", help="print the count, not the words")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output", help="write to this file instead of standard output")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="use the brute-force oracle route instead of the trie enumerator",
    )
    p.add_argument(
        "--budget",
        type=int,
        help="candidates the oracle route may scan, and members a listing may hold",
    )
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("formula", help="closed-form unary-word neighborhood counts")
    p.add_argument(
        "kind",
        choices=("unary-cn", "unary-scn"),
        help="unary-cn: condensed count; unary-scn: super-condensed count",
    )
    p.add_argument("--length", type=int, required=True, help="word length w")
    p.add_argument("--dist", type=int, required=True, help="distance d")
    p.add_argument("--sigma", type=int, required=True, help="alphabet size s")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("bound", help="upper bounds on condensed-neighborhood size")
    p.add_argument(
        "kind",
        choices=("f", "conjecture"),
        help="f: alignment-profile bound; conjecture: closed-form (2s-1)^d w^d / d!",
    )
    p.add_argument("--length", type=int, required=True, help="word length w")
    p.add_argument("--dist", type=int, required=True, help="distance d")
    p.add_argument("--sigma", type=int, required=True, help="alphabet size s")
    p.add_argument(
        "--exact-rational",
        action="store_true",
        help="also print the exact rational value",
    )
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser(
        "table1", help="emit the built-in table of both bounds (w=4,6,8,10; s=2)"
    )
    p.add_argument("--format", choices=("csv", "text"), default="csv")
    p.add_argument("--output", help="write to this file instead of standard output")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("verify", help="run the cross-module verification sweeps")
    p.add_argument(
        "--max-length",
        type=int,
        default=6,
        help="exhaustive word-length cap for alphabet size 2 (larger alphabets use 2 less)",
    )
    p.add_argument("--max-dist", type=int, default=2, help="distance cap for the sweeps")
    p.add_argument(
        "--sigma",
        type=int,
        action="append",
        help="alphabet size to sweep; repeatable (default: 2 and 3)",
    )
    p.add_argument("--budget", type=int, help="candidate budget for oracle runs")
    p.add_argument("--seed", type=int, default=0, help="seed for the sampled spot checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "extremal", help="scan words of one length for extremal neighborhood sizes"
    )
    p.add_argument("--length", type=int, required=True, help="word length w")
    p.add_argument("--dist", type=int, required=True, help="distance d")
    p.add_argument("--sigma", type=int, required=True, help="alphabet size s")
    p.add_argument(
        "--kind",
        choices=(KIND_CONDENSED, KIND_SUPER_CONDENSED),
        default=KIND_CONDENSED,
        help="which neighborhood size to extremize",
    )
    p.add_argument("--mode", choices=(MODE_EXHAUSTIVE, MODE_SAMPLED), default=MODE_EXHAUSTIVE)
    p.add_argument("--samples", type=int, default=200, help="draws in sampled mode")
    p.add_argument("--seed", type=int, help="seed for sampled mode")
    p.add_argument("--budget", type=int, help="words, or sampled draws, the scan may count")
    p.set_defaults(func=cmd_extremal)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on first use and kept: it holds no query data, parse_args makes
    # a fresh namespace per call, and help reads the terminal width when it
    # is printed. Each subcommand's func is bound here once, so patching a
    # cmd_* function afterwards does not reach it.
    return build_parser()


def _run(argv: list[str] | None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "budget", None) is not None:
            # checked here for every route, also those that never spend it
            resolve_budget(args.budget)
        return args.func(args)
    except (ValidationError, RangeError, BudgetError) as exc:
        print(f"nbhood: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    # counts are exact at any size, so lift int -> str's digit limit
    # (Python 3.10.7 on; 0 is none) for the call, and give the caller's back
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        try:
            return _run(argv)
        finally:
            # flush here, also after --help, so that a reader that went away
            # is seen inside the try
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (say, `| head -1`): send what is left
        # to devnull, so the flush at interpreter exit cannot fail again,
        # and exit 1 as Python itself does on a closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
