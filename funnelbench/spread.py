#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how much each metric spreads.

    python3 funnelbench/spread.py --workloads desk campaign cli --seeds 1 2 3 4 5

Each run is a fresh process, one after another; for every seed the workloads
take turns, so each workload's runs are spread over the whole measurement. For
every metric the report gives the median, the quartiles
(``statistics.quantiles(n=4)``) and their distance as a share of the median,
next to the metric's bound from BENCHMARK.json; a spread above a third of its
bound is marked. The program's inputs do not depend on the seed, so every run
of a workload must print the same report digest. Every run's result is
appended to ``out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("# digest"))
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "digest": digest, "result": json.loads(lines[-1])}


def summarize(workload: str, runs: list[dict], metrics: list[dict]) -> bool:
    """Print the spread of each metric over ``runs``; False if a run is wrong."""
    print(f"== {workload}: {len(runs)} runs")
    ok = all(r["result"]["correct"] for r in runs)
    digests = {r["digest"] for r in runs}
    if len(digests) > 1:
        print(f"runs disagree on the report digest: {sorted(digests)}")
        ok = False
    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    print(f"correct={ok} failed share per run: {sorted(shares)}")
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for m in metrics:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        share = (q3 - q1) / med if med else 0.0
        bound = m.get("bound")
        mark = " *" if bound is not None and share > bound / 3 else ""
        print(f"{m['name']:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} "
              f"{bound if bound is not None else '':>6}{mark}")
    walls = [r["wall_s"] for r in runs]
    print(f"process wall: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    (BENCH_DIR / "out").mkdir(exist_ok=True)
    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            run = run_once(workload, seed, bench["run_seconds"], args.trace)
            with open(BENCH_DIR / "out" / f"spread-{workload}.jsonl", "a") as log:
                log.write(json.dumps(run) + "\n")
            res = run["result"]
            print(f"{workload} seed {seed}: wall {run['wall_s']:.1f} s "
                  f"correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} digest={run['digest'][:12]}", flush=True)
            runs[workload].append(run)

    ok = True
    for workload, done in runs.items():
        ok = summarize(workload, done, metrics) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
