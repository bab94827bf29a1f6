#!/usr/bin/env python3
"""Run one nbhood benchmark workload and print its metrics.

    python3 bench/run.py --workload count --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports nbhood from ``src``
and nothing else, and exits 2 without a result when ``src/nbhood`` is
missing. One process, one client, a closed loop: each call is an
in-process ``nbhood.cli.main(argv)`` with stdout captured to a buffer, and
the next call starts when the previous one returns. The run makes passes
over the workload's calls for ``--seconds`` (at least the workload's pass
floor), each pass with new words (see ``workloads.py``). An op is one CLI
call, or one reported step of ``verify``; its latency is its median over
the passes. The shared host's speed swings by tens of percent from one
millisecond to the next, and the median of many repeats stays steadier
than any one repeat or the fastest one.

With ``--trace 0`` the end-to-end metrics named in BENCHMARK.json are
printed; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are printed, taken per op from its median traced pass
so that they add up to the same statistic as ``wall_s``. Every output is checked; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracer import Tracer, layer_metrics

ROOT = Path.cwd()
SRC = ROOT / "src"
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"
# setup_s: groups of fresh processes spread evenly over the run; each group
# keeps its fastest, and the median of the groups is reported
SETUP_GROUPS = 5
SETUP_GROUP_SIZE = 3
# a pass floor never keeps a run going past this, so a run ends within 180 s
MAX_MEASURE_S = 120.0

_SETUP_CHILD = (
    "import time; t = time.perf_counter(); import nbhood.cli; nbhood.cli.build_parser(); "
    "print(time.perf_counter() - t); print(nbhood.__file__)"
)


class _StampedBuffer(io.StringIO):
    """Captured stdout that notes when each line ends (verify's step lines)."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[float] = []

    def write(self, s: str) -> int:
        if "\n" in s:
            self.stamps.append(perf_counter())
        return super().write(s)


def invoke(main, argv: tuple[str, ...], tracer: Tracer | None = None):
    """One CLI call: (exit code, stdout, ops).

    An op is the call, or one reported step of ``verify``. Untraced, each
    op is its latency in seconds; traced, it is the tracer's segment for it.
    """
    out, err = _StampedBuffer(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        if tracer:
            tracer.cut(t0, keep=False)  # drops the harness's time between calls
            first = len(tracer.segments)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed call, not a failed run
            code = f"raised {exc!r}"
        t1 = perf_counter()
        if tracer:
            tracer.cut(t1)
    steps = 1
    if argv[0] == "verify":  # one op per step line, which precede the total line
        steps = out.getvalue().split("\ntotal: ", 1)[0].count("\n") + 1
    if tracer:
        ops = tracer.segments[first:first + steps]
    elif argv[0] == "verify":
        ends = out.stamps[:steps]
        ops = [b - a for a, b in zip([t0] + ends, ends)]
    else:
        ops = [t1 - t0]
    return code, out.getvalue(), ops


def calibrate() -> float:
    """A fixed pure-Python loop; context for host speed, never used to rescale."""
    t0 = perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i
    return perf_counter() - t0


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def setup_once() -> float:
    """Seconds to import nbhood and build its parser in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _SETUP_CHILD], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    seconds, where = done.stdout.split("\n")[:2]
    if not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"fresh process imported nbhood from {where}")
    return float(seconds)


class Run:
    """Passes over one workload, with every output checked.

    Pass ``p`` issues ``make_calls(p)``. Per op position the run keeps one
    sample per pass: (latency or traced segment, queries, members).
    """

    def __init__(self, main, make_calls, expected: dict[str, str]) -> None:
        self.main, self.make_calls, self.expected = main, make_calls, expected
        self.passes = 0
        self.seen: dict[str, str] = {}  # call -> digest of its first output
        self.attempted = self.failed = 0
        self.samples: list[list[tuple]] = []  # untraced
        self.traced: list[list[tuple]] = []
        self.cold_s: float | None = None  # the first untraced pass
        self.scn_kept = self.scn_attempted = 0
        self.last_tracer: Tracer | None = None

    def one_pass(self, tracer: Tracer | None = None) -> None:
        """Run the next pass, traced if a tracer is given; check every output."""
        calls = self.make_calls(self.passes)
        self.passes += 1
        with tracer or contextlib.nullcontext():
            results = [invoke(self.main, argv, tracer) for argv in calls]
        outcomes = self.check(calls, results)
        if tracer:
            kept, attempted = tracer.keep_ratio()
            self.scn_kept += kept
            self.scn_attempted += attempted
            self.last_tracer = tracer
        ops = []
        for argv, (_, _, call_ops), o in zip(calls, results, outcomes):
            work = ([(c, 0) for c in o.facts.get("step_cases", [])] if argv[0] == "verify"
                    else [(o.queries, o.members)])
            if len(work) != len(call_ops):
                return  # a failed verify reports fewer steps; its pass goes untimed
            ops += [(op, q, m) for op, (q, m) in zip(call_ops, work)]
        table = self.traced if tracer else self.samples
        if table and len(table) != len(ops):
            return
        if not table:
            table.extend([] for _ in ops)
            if not tracer:
                self.cold_s = sum(op for op, _, _ in ops)
        for samples, op in zip(table, ops):
            samples.append(op)

    def check(self, calls, results) -> list[checks.Outcome]:
        outcomes = [checks.inspect(argv, code, out, self.expected.get(checks.key(argv)))
                    for argv, (code, out, _) in zip(calls, results)]
        checks.cross_check(calls, outcomes)
        for argv, (_, out, _), o in zip(calls, results, outcomes):
            key, digest = checks.key(argv), checks.digest(argv, out)
            if self.seen.setdefault(key, digest) != digest:
                o.problems.append("output differs from an earlier call with the same argv")
            for problem in o.problems:
                print(f"FAIL {key}: {problem}", file=sys.stderr)
        self.attempted += len(calls)
        self.failed += sum(1 for o in outcomes if o.problems)
        return outcomes


def tail(samples: list[float], highest: int) -> tuple[float, str]:
    """The ``highest`` or next lower percentile with ten samples beyond it, and its label.

    With fewer than twenty samples no percentile qualifies; the maximum is
    reported instead and labelled so.
    """
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if p <= highest and n * (100 - p) >= 1000:
            value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            beyond = sum(1 for x in samples if x > value)
            return value, f"p{p} of {n} op latencies (every op of every pass), {beyond} beyond it"
    return max(samples), f"maximum of {n} ops (too few for a percentile with ten beyond)"


def run_passes(run: Run, seconds: float, floor: int, cap: int, trace: bool) -> list[float]:
    """Make passes until another would overrun ``seconds`` or reach ``cap``.

    Untraced only, or alternating untraced and traced passes. Untraced, the
    setup groups are spread evenly over the run; their times are returned.
    """
    setup: list[float] = []
    if not trace:
        setup_once()  # the first fresh import may write the bytecode cache
    start = perf_counter()
    rounds = 0
    while True:
        while not trace and len(setup) < SETUP_GROUPS * (perf_counter() - start) / seconds:
            setup.append(min(setup_once() for _ in range(SETUP_GROUP_SIZE)))
        run.one_pass()
        if trace:
            run.one_pass(Tracer())
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed > MAX_MEASURE_S or run.passes + (2 if trace else 1) > cap:
            break
        if rounds >= (1 if trace else floor) and elapsed * (rounds + 1) / rounds > seconds:
            break
    while not trace and len(setup) < SETUP_GROUPS:
        setup.append(min(setup_once() for _ in range(SETUP_GROUP_SIZE)))
    return setup


def _median(samples: list[list[tuple]], seconds) -> list[tuple]:
    """Per op position, the sample of the pass with the op's (lower) median latency."""
    return [sorted(per_op, key=lambda sample: seconds(sample[0]))[(len(per_op) - 1) // 2]
            for per_op in samples]


def end_to_end(run: Run, workload: str, setup: list[float]) -> tuple[dict, list[str]]:
    typical = _median(run.samples, float)
    latencies = [op for op, _, _ in typical]
    wall = sum(latencies)
    queries = sum(q for _, q, _ in typical)
    members = sum(m for _, _, m in typical)
    tail_s, tail_label = tail([op for per_op in run.samples for op, _, _ in per_op],
                              workloads.TAIL_PERCENTILE[workload])
    values = {
        "wall_s": wall,
        "queries_per_s": queries / wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    notes = [
        f"{len(typical)} ops per pass, each timed over {len(run.samples[0])} passes with "
        "new words; wall_s sums each op's median latency",
        f"first (cold) pass {run.cold_s:.6g} s against wall_s {wall:.6g} s",
        f"op_tail_ms: {tail_label}",
        f"setup_s: median of {len(setup)} groups spread over the run, each the fastest of "
        f"{SETUP_GROUP_SIZE} fresh processes",
        f"fail_ratio {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} calls)",
    ]
    if members:
        notes.append(f"members_per_s {members / wall:.6g} 1/s ({members} members in the "
                     "median ops)")
    if workload == "verify":
        notes.append(f"cases_per_s {queries / wall:.6g} 1/s (queries_per_s counts cases)")
    return values, notes


def per_layer(run: Run, workload: str, seed: int) -> tuple[dict, list[str]]:
    """Per-layer figures from each op's median traced pass, as wall_s is untraced."""
    values = layer_metrics([seg for seg, _, _ in _median(run.traced, lambda s: s.seconds)])
    untraced = sum(op for op, _, _ in _median(run.samples, float))
    values["trace.untraced_wall_s"] = untraced
    values["tracing_overhead_s"] = values["trace.wall_s"] - untraced
    values["neighborhood.scn_keep_ratio"] = (
        run.scn_kept / run.scn_attempted if run.scn_attempted else 0.0)
    if values["trace.self_sum_s"] > values["trace.wall_s"] * (1 + 1e-9):
        raise RuntimeError("per-layer self times exceed the traced wall time")
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    run.last_tracer.dump(spans)
    notes = [
        f"{len(run.traced)} ops, each timed over {len(run.traced[0])} traced and "
        f"{len(run.samples[0])} untraced passes; spans of the last traced pass in "
        f"{spans.relative_to(ROOT)}",
        f"layer self times sum to {values['trace.self_sum_s']:.6g} s of the traced wall "
        f"{values['trace.wall_s']:.6g} s = untraced wall_s {untraced:.6g} s + overhead "
        f"{values['tracing_overhead_s']:.6g} s (each op's median pass on both sides); "
        f"the remaining {values['trace.wall_s'] - values['trace.self_sum_s']:.3g} s is "
        "the harness and the trampolines",
        "neighborhood.oracle.candidates is computed as the sum of s^k for k <= |W|+d",
        "distance.leftmost.cells is computed as the sum of (m+1)(n+1)",
    ]
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nbhood" / "__init__.py").is_file():
        print(f"bench: no nbhood sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    print(f"# nbhood benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# machine: unpinned and untuned (shared host, no CPU pinning, clock not fixed); "
          "only repeats and medians steady the figures")
    print(f"# python {platform.python_version()}, git {git_sha()}, nproc {os.cpu_count()}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    calibration = calibrate()

    sys.path.insert(0, str(SRC))
    import nbhood.cli

    if not Path(nbhood.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: imported nbhood from {nbhood.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    make_calls = functools.partial(workloads.CALLS[args.workload], args.seed)
    run = Run(nbhood.cli.main, make_calls, checks.load_expected(args.workload))
    setup = run_passes(run, args.seconds, workloads.PASS_FLOOR[args.workload],
                       workloads.MAX_PASSES[args.workload], bool(args.trace))
    if args.trace:
        values, notes = per_layer(run, args.workload, args.seed)
    else:
        values, notes = end_to_end(run, args.workload, setup)
    print(f"# calibration loop: {calibration:.4f} s before, {calibrate():.4f} s after "
          "(context only)")
    for note in notes:
        print(f"# {note}")

    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
