"""Command-line surface: classify, sos, eigmin, pd, gen, repro.

Exit codes: 0 computed/decided, 2 solver inconclusive (for `repro --suite
examples`: a value off its reference), 64 usage, parse or input error (odd
order included).  Every text report has a one-to-one JSON twin behind --format json.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from . import fileio, generators, sos, spectral, structured
from .fileio import ParseError
from .tensor import SymmetricTensor, TensorError

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep 64 for usage
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="sostensor", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fmt=True):
        sp.add_argument("--seed", type=int, default=0)
        # None: each command takes its API's default tolerance
        sp.add_argument("--tol", type=float, default=None)
        if fmt:
            sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", type=str, default=None)

    c = sub.add_parser("classify", help="structured-class report for a tensor file")
    c.add_argument("file")
    common(c)

    s = sub.add_parser("sos", help="sum-of-squares certification")
    s.add_argument("file")
    common(s)

    e = sub.add_parser("eigmin", help="minimum H-eigenvalue")
    e.add_argument("file")
    e.add_argument("--restarts", type=int, default=None)
    e.add_argument("--no-oracle", action="store_true")
    common(e)

    d = sub.add_parser("pd", help="positive definiteness test")
    d.add_argument("file")
    d.add_argument("--restarts", type=int, default=None)
    common(d)

    g = sub.add_parser("gen", help="write a generated tensor file")
    g.add_argument(
        "kind",
        choices=(
            "identity", "all_one", "partial_all_one", "cauchy",
            "example51", "example52", "example53", "example54",
            "procedure1", "random_class",
        ),
    )
    g.add_argument("--m", type=int, default=4, help="tensor order")
    g.add_argument("--n", type=int, default=4, help="tensor dimension")
    g.add_argument("--j", type=str, default=None, help="1-based subset, e.g. 1,2")
    g.add_argument("--c", type=str, default=None, help="generating vector, e.g. 1,2,3")
    g.add_argument("--alpha", type=float, default=0.0)
    g.add_argument("--beta", type=float, default=0.0)
    g.add_argument("--s", type=int, default=2)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--big-m", type=float, default=100.0)
    g.add_argument("--cls", type=str, default="b0")
    common(g, fmt=False)

    r = sub.add_parser("repro", help="reproduction tables")
    r.add_argument("--suite", choices=("examples", "pd-test"), required=True)
    r.add_argument("--count", type=int, default=100)
    common(r)
    return p


def _read(path: str) -> SymmetricTensor:
    return fileio.read_tensor(path)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _cmd_classify(args) -> int:
    A = _read(args.file)
    tol = structured.BOUNDARY_TOL if args.tol is None else max(args.tol, 1e-12)
    report = structured.classify(A, tol=tol)
    if args.format == "json":
        _emit(fileio.to_json(report.to_dict()), args.out)
    else:
        _emit(report.to_text(), args.out)
    return EXIT_OK


def _cmd_sos(args) -> int:
    A = _read(args.file)
    opts = sos.CertifyOptions(seed=args.seed or 20240801)
    result = sos.certify_sos(A, opts)
    lam = sos.lambda_bound(A.order, A.dim) if A.order % 2 == 0 else float("nan")
    if isinstance(result, sos.SosCertificate):
        summary = (
            f"certified rank_estimate={result.rank_estimate} "
            f"residual={result.residual:.3e} lambda_bound={lam:.4f}"
        )
        payload = {"summary": "certified", **result.to_dict(), "lambda_bound": lam}
        code = EXIT_OK
    elif result.status == "not_sos":
        summary = f"not_certified ({result.message}) lambda_bound={lam:.4f}"
        payload = {"summary": "not_certified", **result.to_dict()}
        code = EXIT_OK
    else:
        summary = f"inconclusive ({result.message})"
        payload = {"summary": "inconclusive", **result.to_dict()}
        code = EXIT_INCONCLUSIVE
    if args.format == "json":
        _emit(fileio.to_json(payload), args.out)
    else:
        if args.out:
            _emit(fileio.to_json(payload), args.out)
        print(summary)
    return code


def _eig_options(args) -> spectral.EigMinOptions:
    return spectral.EigMinOptions(
        tol=spectral.EigMinOptions().tol if args.tol is None else args.tol,
        seed=args.seed or 7_652_413,
        with_oracle=not getattr(args, "no_oracle", False),
        oracle_restarts=getattr(args, "restarts", None),
    )


def _cmd_eigmin(args) -> int:
    A = _read(args.file)
    res = spectral.min_h_eigenvalue(A, _eig_options(args))
    if args.format == "json":
        _emit(fileio.to_json(res.to_dict()), args.out)
    else:
        lines = [f"lambda_min: {res.lambda_min:.10g}"]
        lines.append(f"status: {res.solver_status}")
        lines.append(f"method: {res.method}")
        kind = "exact (extended-Z)" if res.exact else "lower bound"
        lines.append(f"value_kind: {kind}")
        lines.append(f"gershgorin_bound: {res.gershgorin:.10g}")
        if res.per_block:
            blocks = ", ".join(
                f"{{{','.join(str(v + 1) for v in b.variables)}}}: {b.value:.6g} ({b.method})"
                for b in res.per_block
            )
            lines.append(f"blocks: {blocks}")
        if res.oracle_value is not None:
            lines.append(
                f"oracle_value: {res.oracle_value:.10g} "
                f"(eigen residual {res.oracle_residual:.2e})"
            )
        _emit("\n".join(lines), args.out)
    return EXIT_OK if res.solver_status == "optimal" else EXIT_INCONCLUSIVE


def _cmd_pd(args) -> int:
    A = _read(args.file)
    setattr(args, "no_oracle", True)
    res = spectral.is_positive_definite(A, _eig_options(args))
    if args.format == "json":
        _emit(fileio.to_json(res.to_dict()), args.out)
    else:
        verdict = {True: "positive_definite", False: "not_positive_definite",
                   None: "inconclusive"}[res.verdict]
        _emit(f"{verdict}\nlambda_min: {res.lambda_min:.10g}", args.out)
    return EXIT_OK if res.verdict is not None else EXIT_INCONCLUSIVE


def _parse_int_list(text: str) -> List[int]:
    return [int(t) for t in text.replace(",", " ").split()]


def _parse_float_list(text: str) -> List[float]:
    return [fileio.parse_value(t) for t in text.replace(",", " ").split()]


def _cmd_gen(args) -> int:
    from .tensor import all_one_tensor, identity_tensor, partially_all_one

    kind = args.kind
    comment = f"kind={kind} seed={args.seed}"
    if kind == "identity":
        A = identity_tensor(args.m, args.n)
    elif kind == "all_one":
        A = all_one_tensor(args.m, args.n)
    elif kind == "partial_all_one":
        if not args.j:
            raise UsageError("partial_all_one needs --j")
        subset = [v - 1 for v in _parse_int_list(args.j)]
        A = partially_all_one(args.m, args.n, subset)
    elif kind == "cauchy":
        if not args.c:
            raise UsageError("cauchy needs --c")
        A = structured.cauchy_tensor(_parse_float_list(args.c), args.m)
    elif kind == "example51":
        A = generators.example51()
    elif kind == "example52":
        A = generators.example52(args.alpha, args.beta)
        comment += f" alpha={args.alpha} beta={args.beta}"
    elif kind == "example53":
        A = generators.example53(args.m)
    elif kind == "example54":
        A = generators.example54(args.n)
    elif kind == "procedure1":
        inst = spectral.generate_procedure1(
            args.m, args.n, args.s, args.k, args.big_m, args.seed
        )
        A = inst.tensor
        comment += f" ground_truth_pd={inst.positive_definite}"
    elif kind == "random_class":
        A = generators.random_class_instance(args.cls, args.m, args.n, args.seed)
        comment += f" class={args.cls}"
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown kind {kind}")
    text = fileio.format_tensor(A, comment)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


_EXAMPLE_ROWS = (
    ("example51 m=6 n=4", lambda: generators.example51(), -1.0),
    ("example52 a=5 b=0", lambda: generators.example52(5.0, 0.0), -49.0),
    ("example53 m=10", lambda: generators.example53(10), 0.0),
    ("example53 m=20 (block path)", lambda: generators.example53(20), 0.0),
    ("example54 n=4", lambda: generators.example54(4), 3.0),
    ("example54 n=20 (block path)", lambda: generators.example54(20), 19.0),
    ("example54 n=100 (block path)", lambda: generators.example54(100), 99.0),
    ("example54 n=500 (block path)", lambda: generators.example54(500), 499.0),
)


def _cmd_repro(args) -> int:
    if args.suite == "examples":
        rows = []
        tol = 1e-6 if args.tol is None else min(args.tol, 1e-6)
        for name, build, truth in _EXAMPLE_ROWS:
            t0 = time.perf_counter()
            A = build()
            res = spectral.min_h_eigenvalue(A, spectral.EigMinOptions(tol=tol))
            dt = time.perf_counter() - t0
            rows.append(
                {
                    "problem": name,
                    "computed": res.lambda_min,
                    "true": truth,
                    "abs_error": abs(res.lambda_min - truth),
                    "status": res.solver_status,
                    "seconds": dt,
                }
            )
        if args.format == "json":
            _emit(fileio.to_json(rows), args.out)
        else:
            header = f"{'problem':32s} {'computed':>14s} {'true':>10s} {'abs err':>10s} {'sec':>8s}"
            lines = [header, "-" * len(header)]
            for r in rows:
                lines.append(
                    f"{r['problem']:32s} {r['computed']:14.6f} {r['true']:10.4f} "
                    f"{r['abs_error']:10.2e} {r['seconds']:8.2f}"
                )
            _emit("\n".join(lines), args.out)
        # a value off its reference means the table was not reproduced
        off = any(r["abs_error"] > tol * (1.0 + abs(r["true"])) for r in rows)
        return EXIT_INCONCLUSIVE if off else EXIT_OK

    # pd-test: seeded instances at (m, n, s, k, M) = (4, 20, 4, 5, 100)
    count = args.count
    pd_count = npd_count = correct = 0
    for i in range(count):
        inst = spectral.generate_procedure1(4, 20, 4, 5, 100.0, seed=args.seed + i)
        res = spectral.is_positive_definite(
            inst.tensor, spectral.EigMinOptions(tol=1e-4, seed=args.seed + i)
        )
        verdict = res.verdict is True
        if verdict:
            pd_count += 1
        else:
            npd_count += 1
        if res.verdict is not None and res.verdict == inst.positive_definite:
            correct += 1
    payload = {
        "instances": count,
        "parameters": {"m": 4, "n": 20, "s": 4, "k": 5, "M": 100},
        "pd": pd_count,
        "npd": npd_count,
        "correct": correct,
        "correctness": 100.0 * correct / count if count else 100.0,
    }
    if args.format == "json":
        _emit(fileio.to_json(payload), args.out)
    else:
        _emit(
            f"instances={count} PD={pd_count} NPD={npd_count} "
            f"correctness={payload['correctness']:.1f}%",
            args.out,
        )
    # a wrong or inconclusive verdict means the harness was not reproduced
    return EXIT_OK if correct == count else EXIT_INCONCLUSIVE


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "classify": _cmd_classify,
            "sos": _cmd_sos,
            "eigmin": _cmd_eigmin,
            "pd": _cmd_pd,
            "gen": _cmd_gen,
            "repro": _cmd_repro,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        ParseError,
        TensorError,
        sos.SosError,
        spectral.SpectralError,
        FileNotFoundError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
