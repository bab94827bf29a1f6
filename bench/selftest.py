#!/usr/bin/env python3
"""Self-test: one corrupted expected value must count as one failed call.

    python3 bench/selftest.py

Run from the repository root. Runs one pass of the default-seed ``list``
and ``scan`` call lists against the recorded outputs, first as recorded
(no failures), then with a single recorded digest altered (exactly one
failure). Exits 0 when both hold.
"""
from __future__ import annotations

import functools
import sys

import checks
import workloads
from run import SRC, Run


def failures(workload: str, expected: dict[str, str]) -> int:
    from nbhood.cli import main

    run = Run(main, functools.partial(workloads.CALLS[workload], workloads.DEFAULT_SEED),
              expected)
    run.one_pass()
    return run.failed


def main() -> int:
    sys.path.insert(0, str(SRC))
    ok = True
    for workload in ("list", "scan"):
        expected = checks.load_expected(workload)
        clean = failures(workload, expected)
        calls = workloads.CALLS[workload](workloads.DEFAULT_SEED, 0)
        victim = checks.key(calls[len(calls) // 2])
        corrupted = dict(expected, **{victim: "0" * 64})
        broken = failures(workload, corrupted)
        print(f"{workload}: {clean} failures as recorded, {broken} with {victim[:40]!r} "
              "corrupted")
        ok = ok and clean == 0 and broken == 1
    print("selftest passed" if ok else "SELFTEST FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
