#!/usr/bin/env python3
"""sostensor benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload pd-harness --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  One caller runs one instance at a time with BLAS and OpenMP pinned
to one thread.  `--trace 0` measures for `--seconds` seconds of program time,
stopping only between whole units of the workload, and prints the
end-to-end metrics.  `--trace 1` runs the workload's fixed trace units, each
instance once untraced and once traced, and prints the per-layer metrics.
`--workload all` runs every workload in its own fresh process.

Every output is checked independently (verify.py); the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# import cost as a user of the library pays it: a fresh interpreter each time
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, sostensor; from sostensor import descent, sdp, sos, spectral, structured; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "descent.sphere_minimize.calls": "count",
    "descent.sphere_minimize.busy_s": "s",
    "descent.eval_rows": "count",
    "descent.us_per_row": "us",
    "sdp.solve.calls": "count",
    "sdp.solve.busy_s": "s",
    "sdp.solve.iters": "count",
    "sdp.solve.us_per_iter": "us",
    "sdp.solve.capped": "count",
    "sdp.solve.optimal_frac": "frac",
    "sdp.solve.block_size_max": "count",
    "spectral.sdp_solves_per_call": "count",
    "spectral.min_h_eigenvalue.self_s": "s",
    "spectral.is_positive_definite.self_s": "s",
    "sos.certify_sos.calls": "count",
    "sos.certify_sos.self_s": "s",
    "sos.reduce_to_extreme.busy_s": "s",
    "structured.classify.busy_s": "s",
    "structured.detect_extended_z.busy_s": "s",
    "descent.self_s": "s",
    "sdp.self_s": "s",
    "sos.self_s": "s",
    "spectral.self_s": "s",
    "structured.self_s": "s",
    "bench.untraced_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
}
WORKLOAD_NAMES = ("pd-harness", "class-certify", "blockwise-scale")


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form of its build config
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_timed(inst, span=None):
    """Run one instance; return (seconds, output, exception text or None)."""
    t0 = time.perf_counter()
    try:
        if span is None:
            out = inst.run()
        else:
            with span:
                out = inst.run()
    except Exception:
        return time.perf_counter() - t0, None, traceback.format_exc(limit=3).strip().splitlines()[-1]
    return time.perf_counter() - t0, out, None


def check(inst, out, error):
    """Failure reasons for one output; the output is dropped afterwards."""
    if error is not None:
        return ["exception: " + error]
    try:
        return inst.check(out)
    except Exception:
        return ["verifier raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]


def steps_of(out):
    return out.get("steps") if isinstance(out, dict) else None


def measure(units, seconds: float):
    samples, failures = [], []
    busy, u = 0.0, 0
    while True:
        for inst in units[u % len(units)]:
            dt, out, error = run_timed(inst)
            busy += dt
            samples.append((dt, inst.id, steps_of(out)))
            reasons = check(inst, out, error)
            del out
            if reasons:
                failures.append({"id": inst.id, "reasons": reasons})
        u += 1
        if busy >= seconds:
            return samples, failures, busy, u


def traced(units, recorder, patched):
    """Each instance untraced and traced, alternating which goes first."""
    from spans import ROOT as ROOT_SPAN

    plain_s = traced_s = 0.0
    samples, failures = [], []
    for k, inst in enumerate(i for unit in units for i in unit):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                recorder.instance = inst.id
                with patched(recorder):
                    dt, out, error = run_timed(inst, recorder.span(ROOT_SPAN))
                traced_s += dt
            else:
                dt, out, error = run_timed(inst)
                plain_s += dt
            samples.append((dt, inst.id + (" traced" if with_trace else ""), steps_of(out)))
            reasons = check(inst, out, error)
            del out
            if reasons:
                failures.append({"id": inst.id, "traced": with_trace, "reasons": reasons})
    return samples, failures, plain_s, traced_s


def ladder_steps(samples) -> dict:
    steps = {}
    for _, _, ladder in samples:
        for label, s in ladder or ():
            steps.setdefault(label, []).append(s)
    return {label: statistics.median(v) for label, v in steps.items()}


def import_seconds() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import sostensor

    if Path(sostensor.__file__).resolve().parent != (SRC / "sostensor").resolve():
        print(f"perfbench: imported sostensor from {sostensor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    import_s = [import_seconds() for _ in range(SETUP_REPEATS)]
    gen_s, warm_s = [], []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        units = wl.build(args.seed, size)
        gen_s.append(time.perf_counter() - t)
        t = time.perf_counter()
        wl.warm(size)
        warm_s.append(time.perf_counter() - t)
    setup_s = statistics.median(import_s) + statistics.median(gen_s) + statistics.median(warm_s)

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "loop": "closed, one caller, one instance at a time",
        "environment": environment(),
        "setup": {"import_s": import_s, "generate_s": gen_s, "warm_s": warm_s},
    }
    if args.trace:
        from spans import SpanRecorder, layer_metrics, patched

        recorder = SpanRecorder()
        trace_units = units[: wl.trace_units(size)]
        samples, failures, plain_s, traced_s = traced(trace_units, recorder, patched)
        values = layer_metrics(recorder)
        values["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
        self_sum = sum(values[k] for k in (
            "descent.self_s", "sdp.self_s", "sos.self_s", "spectral.self_s",
            "structured.self_s", "bench.untraced_s"))
        report["trace_check"] = {
            "untraced_wall_s": plain_s, "traced_wall_s": values["trace.wall_s"],
            "self_sum_s": self_sum, "self_sum_minus_wall_s": self_sum - values["trace.wall_s"],
        }
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.write(span_file)
        report["spans"] = {"file": str(span_file.relative_to(ROOT)), "count": len(recorder.spans)}
        units_of = PER_LAYER_UNITS
    else:
        samples, failures, busy, n_units = measure(units, args.seconds)
        lat = sorted(dt for dt, _, _ in samples)
        p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) >= 2 else lat[0]
        beyond = sum(1 for v in lat if v > p90)
        values = {
            "setup_s": setup_s,
            "instances_per_s": len(lat) / busy,
            "latency_p50_s": statistics.median(lat),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report.update({
            "samples": len(lat), "units": n_units, "busy_s": busy,
            "latency_p90_s": {
                "value": p90, "unit": "s", "samples_beyond": beyond,
                "valid": beyond >= 10,
                "note": "reported only as valid with at least 10 samples beyond it",
            },
            "fail_frac": len(failures) / len(samples),
            "slowest": [
                {"id": i, "latency_s": dt}
                for dt, i, _ in sorted(samples, key=lambda s: -s[0])[:5]
            ],
        })
        steps = ladder_steps(samples)
        if steps:
            report["ladder_step_median_s"] = steps
        units_of = END_TO_END_UNITS

    report["failures"] = failures
    report["latencies_s"] = [[i, dt] for dt, i, _ in samples]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units_of.items()}
    print(json.dumps({"report": report}))
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:40s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        p90 = report["latency_p90_s"]
        print(f"{args.workload:16s} {'latency_p90_s':40s} {p90['value']:>16.6g} s"
              f"  ({p90['samples_beyond']} of {len(samples)} samples beyond; "
              f"{'valid' if p90['valid'] else 'not valid, needs 10'}; not gated)")
        print(f"{args.workload:16s} {'fail_frac':40s} {report['fail_frac']:>16.6g} frac"
              f"  ({len(failures)} of {len(samples)}; not gated)")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if not (SRC / "sostensor" / "__init__.py").is_file():
        print(f"perfbench: no sostensor sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
