#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 bench/collect.py --runs 10 --out bench/trajectory/BENCH_0.json

Run from the repository root. For each seed 1..runs it runs every workload
once (workloads interleaved, so host drift reaches all of them alike), in
a fresh process each, then one traced run per workload on the default
seed. It prints, per workload and end-to-end metric, the median, the
quartiles and the interquartile range as a share of the median (as
``statistics.quantiles(values, n=4)`` gives them) against the metric's
bound in BENCHMARK.json, and writes everything to ``--out`` as one
trajectory point.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from run import SPEC, git_sha

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [line[2:] for line in lines if line.startswith("# ")]
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed calls\n"
                           f"{done.stderr}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median,
            "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {w: [] for w in names}
    for seed in range(1, args.runs + 1):
        for w in names:
            results[w].append(run_once(w, seed, spec["run_seconds"], 0))
            print(f"seed {seed} {w}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in results[w][-1]["metrics"].items()),
                flush=True)

    point = {"commit": git_sha(), "run_seconds": spec["run_seconds"], "runs": args.runs,
             "seeds": list(range(1, args.runs + 1)), "workloads": {}}
    steady = True
    for w in names:
        e2e = {m: summarize([r["metrics"][m]["value"] for r in results[w]]) for m in bounds}
        entry = {"end_to_end": e2e, "context": results[w][0]["notes"][:3]}
        for m, s in e2e.items():
            flag = "ok" if s["iqr_share"] < bounds[m] / 3 else "WIDE"
            steady = steady and flag == "ok"
            print(f"{w:7s} {m:14s} median {s['median']:.5g}  iqr/median {s['iqr_share']:.3f}"
                  f"  bound {bounds[m]}  {flag}")
        traced = run_once(w, workloads.DEFAULT_SEED, spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        point["workloads"][w] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    print("every spread below a third of its bound" if steady else "SOME SPREADS ARE WIDE")
    return 0


if __name__ == "__main__":
    sys.exit(main())
