"""Span recorder for the traced run.

Spans are recorded from the benchmark's side by replacing the names that
callers look up at call time: `sos` and `spectral` import `sphere_minimize`
and `detect_extended_z` by name, so those are patched in every importing
module; `sdp.solve` and `sos.reduce_to_extreme` are looked up on their
modules.  The form evaluator behind `sphere_minimize` is called hundreds of
times per minimization, so it is counted (rows, time) instead of
getting a span per call.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

ROOT = "bench.instance"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    instance: str
    attrs: Dict[str, object] = field(default_factory=dict)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.instance = ""
        self._stack: List[int] = []
        self.eval_rows = 0
        self.eval_s = 0.0

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.instance)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, args, kwargs, out)
            return out

        return traced

    def wrap_evaluator(self, fn):
        @functools.wraps(fn)
        def counted(ev, X):
            t0 = time.perf_counter()
            out = fn(ev, X)
            self.eval_s += time.perf_counter() - t0
            self.eval_rows += int(X.shape[0])
            return out

        return counted

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "instance": s.instance, **s.attrs,
                }) + "\n")


def _solve_attrs(rec: Span, args, kwargs, sol) -> None:
    from sostensor import sdp

    problem = args[0]
    opts = args[1] if len(args) > 1 else kwargs.get("opts")
    max_iter = (opts or sdp.SolveOptions()).max_iter
    rec.attrs.update(
        iters=int(sol.iterations),
        status=str(sol.status),
        block_size=int(problem.block_size),
        capped=bool(sol.iterations >= max_iter),
    )


@contextmanager
def patched(rec: SpanRecorder) -> Iterator[None]:
    """Install the span wrappers for the duration of the block."""
    from sostensor import descent, sdp, sos, spectral, structured

    targets = [
        ([sdp], "solve", "sdp.solve", _solve_attrs),
        ([descent, sos, spectral], "sphere_minimize", "descent.sphere_minimize", None),
        ([structured, sos, spectral], "detect_extended_z", "structured.detect_extended_z", None),
        ([structured], "classify", "structured.classify", None),
        ([sos], "certify_sos", "sos.certify_sos", None),
        ([sos], "reduce_to_extreme", "sos.reduce_to_extreme", None),
        ([spectral], "min_h_eigenvalue", "spectral.min_h_eigenvalue", None),
        ([spectral], "is_positive_definite", "spectral.is_positive_definite", None),
    ]
    saved = []
    for modules, attr, name, hook in targets:
        wrapped = rec.wrap(name, getattr(modules[0], attr), hook)
        for mod in modules:
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapped)
    for attr in ("value_batch", "gradient_batch"):
        original = getattr(descent.FormEvaluator, attr)
        saved.append((descent.FormEvaluator, attr, original))
        setattr(descent.FormEvaluator, attr, rec.wrap_evaluator(original))
    try:
        yield
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


def layer_metrics(rec: SpanRecorder) -> Dict[str, float]:
    """Per-layer counts, busy time (span durations) and self time.

    Self time is a span's duration minus its children's; the run is
    single-threaded, so children never overlap.  The self times of all
    spans add up to the root spans' durations, i.e. the traced wall time.
    """
    spans = rec.spans
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    layer_self: Dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        dur = s.end - s.start
        calls[s.name] += 1
        busy[s.name] += dur
        self_s[s.name] += dur - child_s[i]
        layer_self[s.name.split(".")[0]] += dur - child_s[i]

    def under(i: int, name: str) -> bool:
        p = spans[i].parent
        while p is not None:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    solves = [s for s in spans if s.name == "sdp.solve"]
    iters = sum(int(s.attrs["iters"]) for s in solves)
    eig_calls = calls["spectral.min_h_eigenvalue"]
    eig_solves = sum(
        1 for i, s in enumerate(spans)
        if s.name == "sdp.solve" and under(i, "spectral.min_h_eigenvalue")
    )
    wall = busy[ROOT]
    return {
        "descent.sphere_minimize.calls": calls["descent.sphere_minimize"],
        "descent.sphere_minimize.busy_s": busy["descent.sphere_minimize"],
        "descent.eval_rows": rec.eval_rows,
        "descent.us_per_row": 1e6 * rec.eval_s / rec.eval_rows if rec.eval_rows else 0.0,
        "sdp.solve.calls": len(solves),
        "sdp.solve.busy_s": busy["sdp.solve"],
        "sdp.solve.iters": iters,
        "sdp.solve.us_per_iter": 1e6 * busy["sdp.solve"] / iters if iters else 0.0,
        "sdp.solve.capped": sum(1 for s in solves if s.attrs["capped"]),
        "sdp.solve.optimal_frac": (
            sum(1 for s in solves if s.attrs["status"] == "optimal") / len(solves)
            if solves else 0.0
        ),
        "sdp.solve.block_size_max": max((int(s.attrs["block_size"]) for s in solves), default=0),
        "spectral.sdp_solves_per_call": eig_solves / eig_calls if eig_calls else 0.0,
        "spectral.min_h_eigenvalue.self_s": self_s["spectral.min_h_eigenvalue"],
        "spectral.is_positive_definite.self_s": self_s["spectral.is_positive_definite"],
        "sos.certify_sos.calls": calls["sos.certify_sos"],
        "sos.certify_sos.self_s": self_s["sos.certify_sos"],
        "sos.reduce_to_extreme.busy_s": busy["sos.reduce_to_extreme"],
        "structured.classify.busy_s": busy["structured.classify"],
        "structured.detect_extended_z.busy_s": busy["structured.detect_extended_z"],
        "descent.self_s": layer_self["descent"],
        "sdp.self_s": layer_self["sdp"],
        "sos.self_s": layer_self["sos"],
        "spectral.self_s": layer_self["spectral"],
        "structured.self_s": layer_self["structured"],
        "bench.untraced_s": layer_self["bench"],
        "trace.wall_s": wall,
    }
