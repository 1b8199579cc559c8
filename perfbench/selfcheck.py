#!/usr/bin/env python3
"""Self-check of the benchmark at a tiny size (about a minute).

    python3 perfbench/selfcheck.py

1. Every workload runs end to end, untraced and traced, in its own process,
   with no failed instance, and emits exactly the metrics that
   BENCHMARK.json names, each with its unit.
2. The verifier is not vacuous: it accepts a real certificate and rejects
   a perturbed one (coefficient defect), Gram matrices that match every
   coefficient but are indefinite or above the rank bound, a reported rank
   above the bound, a wrong or missing PD verdict and an eigenvalue off its
   truth.  Each rejection must come from the check it targets.

Exits 0 when every check holds.
"""

import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_workloads(spec: dict) -> list:
    problems = []
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            tag = f"{w['name']} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json")
            for k, v in result["metrics"].items():
                if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"])):
                    problems.append(f"{tag}: {k} = {v['value']!r}")
            print(f"selfcheck: {tag}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} failed")
    return problems


def check_verifier() -> list:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    from sostensor import generators, sos
    from sostensor.tensor import SymmetricTensor

    import verify

    rng = np.random.default_rng(0)
    problems = []

    def expect(label, reasons, reason=None):
        """reason=None: must be accepted; else the first reason must start with it."""
        ok = not reasons if reason is None else bool(reasons) and reasons[0].startswith(reason)
        print(f"selfcheck: verifier {label}: " + (f"rejected ({reasons[0]})" if reasons else "accepted"))
        if not ok:
            problems.append(f"verifier {label}: expected " + (reason or "acceptance"))

    def fake(basis, gram, rank):
        return SimpleNamespace(basis=basis, gram=gram, rank_estimate=rank)

    A = generators.random_class_instance("b0", 4, 3, 7)
    cert = sos.certify_sos(A)
    if not isinstance(cert, sos.SosCertificate):
        return ["could not certify the self-check instance"]
    expect("real certificate", verify.check_certificate(A, cert, rng))
    bumped = cert.gram.copy()
    bumped[0, 0] += 1e-3  # stays PSD, moves one coefficient
    expect("coefficient defect", verify.check_certificate(
        A, fake(cert.basis, bumped, cert.rank_estimate), rng), "coefficient defect")
    expect("rank above bound (reported)", verify.check_certificate(
        A, fake(cert.basis, cert.gram, 10 ** 6), rng), "reported rank")

    # x^4 + y^4 over (x^2, xy, y^2): every Gram below reproduces it exactly
    quartic = SymmetricTensor(4, 2, {(0, 0, 0, 0): 1, (1, 1, 1, 1): 1})
    basis = sos.monomial_basis(2, 2)

    def gram(c):
        return np.array([[1.0, 0.0, -c], [0.0, 2.0 * c, 0.0], [-c, 0.0, 1.0]])

    expect("rank-2 gram", verify.check_certificate(quartic, fake(basis, gram(1.0), 2), rng))
    expect("indefinite gram", verify.check_certificate(quartic, fake(basis, gram(2.0), 2), rng),
           "gram not PSD")
    expect("full-rank gram above bound 2", verify.check_certificate(
        quartic, fake(basis, gram(0.5), 2), rng), "gram rank")

    expect("pd verdict wrong", verify.check_pd_verdict(False, True), "verdict")
    expect("pd verdict missing", verify.check_pd_verdict(None, True), "inconclusive")
    expect("pd verdict right", verify.check_pd_verdict(True, True))
    expect("eigenvalue off", verify.check_eigenvalue(19.01, 19.0), "lambda_min")
    expect("eigenvalue right", verify.check_eigenvalue(19.0 + 1e-7, 19.0))
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_verifier() + check_workloads(spec)
    for p in problems:
        print(f"selfcheck: FAIL {p}")
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
