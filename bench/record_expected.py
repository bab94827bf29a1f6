#!/usr/bin/env python3
"""Record the default-seed outputs the benchmark compares against.

    python3 bench/record_expected.py [workload ...]

Run from the repository root. The first ``checks.EXPECTED_PASSES`` passes
of each workload's default seed are run; every output must pass the
seed-independent checks, and every neighborhood count or listing whose
brute-force oracle fits the oracle's default budget is cross-checked
against ``brute_force_enumerate`` (for ``extremal`` calls, the counts of
the reported extremal words). The digests
go to ``bench/expected/<workload>.json``. Re-record only when an output is
meant to change, and say why in the commit.
"""
from __future__ import annotations

import functools
import json
import sys

import checks
import workloads
from run import SRC, Run, git_sha, invoke


def _oracle_note(argv, outcome) -> str:
    from nbhood.core import alphabet_of_size, make_word
    from nbhood.neighborhood import DEFAULT_CANDIDATE_BUDGET, brute_force_enumerate

    opt = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "enum":
        word, d, s = opt["--word"], int(opt["--dist"]), int(opt["--sigma"])
        if s ** (len(word) + d + 1) > DEFAULT_CANDIDATE_BUDGET:
            return "oracle over budget; not cross-checked"
        alphabet = alphabet_of_size(s)
        want = brute_force_enumerate(make_word(word, alphabet), d, alphabet, opt["--kind"])
        got = outcome.facts
        same = want.count == got["total"] and (
            got["words"] is None or got["words"] == [w.text for w in want.words])
        return "matches the oracle" if same else "DIFFERS FROM THE ORACLE"
    if argv[0] == "extremal":
        d, s = int(opt["--dist"]), int(opt["--sigma"])
        kind = opt.get("--kind", "condensed")
        alphabet = alphabet_of_size(s)
        for side in ("min", "max"):
            want = brute_force_enumerate(
                make_word(outcome.facts[f"{side}_word"], alphabet), d, alphabet, kind)
            if want.count != outcome.facts[side]:
                return "DIFFERS FROM THE ORACLE"
        return "extremal counts match the oracle"
    return "no oracle for this command"


def record(workload: str) -> bool:
    from nbhood.cli import main

    make_calls = functools.partial(workloads.CALLS[workload], workloads.DEFAULT_SEED)
    run = Run(main, make_calls, {})
    entries = {}
    for pass_no in range(checks.EXPECTED_PASSES):
        calls = make_calls(pass_no)
        results = [invoke(main, argv) for argv in calls]
        outcomes = run.check(calls, results)
        for argv, (_, stdout, _), outcome in zip(calls, results, outcomes):
            if checks.key(argv) in entries:
                continue
            note = _oracle_note(argv, outcome)
            entries[checks.key(argv)] = {"sha256": checks.digest(argv, stdout),
                                         "first_line": stdout.split("\n", 1)[0][:80],
                                         "oracle": note}
            print(f"{workload}: {checks.key(argv)[:70]}: {note}", flush=True)
    ok = run.failed == 0 and not any("DIFFERS" in e["oracle"] for e in entries.values())
    path = checks.expected_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": workloads.DEFAULT_SEED,
                                "passes": checks.EXPECTED_PASSES, "recorded_at": git_sha(),
                                "calls": entries}, indent=1) + "\n")
    return ok


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    ok = all([record(w) for w in (argv or workloads.WORKLOADS)])
    print("all outputs checked" if ok else "SOME OUTPUTS FAILED; expected values are suspect")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
