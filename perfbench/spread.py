#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload pd-harness --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --out perfbench/out/spread.json

Runs one after another, each in a fresh process.  The spread of a metric is
the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median; the bounds in
BENCHMARK.json are shares of the median too.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for workload in names if args.workload == "all" else [args.workload]:
        runs, values = [], {}
        for seed in seeds_of(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result, report = json.loads(lines[-1]), json.loads(lines[0])["report"]
            runs.append({"seed": seed, "wall_s": wall, "result": result, "report": report})
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{workload} seed {seed} wall {wall:.1f}s correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        stats = {k: summarize(v) for k, v in values.items()}
        for k, s in stats.items():
            bound = bounds.get(k) if args.trace == 0 else None
            print(f"  {k:40s} median={s['median']:.5g} spread={s['spread'] if s['spread'] is not None else float('nan'):.4f}"
                  + (f" bound={bound}" if bound is not None else ""))
        summary[workload] = {"metrics": stats, "runs": runs}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
