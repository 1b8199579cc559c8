"""Minimum H-eigenvalue of even-order symmetric tensors.

The smallest H-eigenvalue equals the minimum of the induced form over the
unit m-norm sphere, and for tensors with extended-Z block structure it is the
optimal value of

    max { mu : f(x) - r (||x||_m^m - 1) - mu  is a sum of squares,  over mu, r }.

Since f - r ||x||_m^m is homogeneous and the leftover constant is r - mu, the
program reduces to maximizing r subject to f - r sum x_i^m being a sum of
squares (whence mu* = r*).  Disjoint variable blocks decouple: the overall
value is the minimum of the per-block values, each of which is either a
closed-form critical-coefficient computation (blocks with one mixed term) or
a small Gram-matrix semidefinite program solved by certified bisection on r.

Every reported value is a sound lower bound on the true minimum eigenvalue:
it is the maximum of the diagonal-dominance (Gershgorin) bound and the best
r carrying a verified Gram certificate, minus that certificate's coefficient
defect.  For extended-Z tensors the program value equals the eigenvalue, so
the report is exact up to the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import sdp
from .descent import sphere_minimize
from .sos import (
    _constraint_values,
    gershgorin_lower_bound,
    gram_system,
    max_diagonal_shift_single_term,
)
from .structured import ExtendedZBlock, detect_extended_z
from .tensor import (
    HomogeneousPolynomial,
    SymmetricTensor,
    TensorError,
    eigen_residual,
    from_polynomial,
)


class SpectralError(ValueError):
    pass


@dataclass
class EigMinOptions:
    blockwise: str = "auto"  # auto | on | off
    tol: float = 1e-6
    feas_tol: float = 1e-9
    max_iter: int = 60_000
    use_closed_form: bool = True
    seed: int = 7_652_413
    scan_restarts: int = 60
    scan_iters: int = 400
    with_oracle: bool = False
    oracle_restarts: Optional[int] = None
    dim_cap: int = 8


@dataclass
class BlockValue:
    variables: Tuple[int, ...]
    value: float
    method: str  # closed_form | diagonal | sdp
    status: str  # optimal | inconclusive


@dataclass
class EigMinResult:
    lambda_min: float
    mu: float
    r: float
    blockwise: bool
    per_block: Optional[List[BlockValue]]
    solver_status: str
    gershgorin: float
    exact: bool  # extended-Z structure detected, program value = eigenvalue
    lower_bound_only: bool
    oracle_value: Optional[float] = None
    minimizer: Optional[np.ndarray] = None
    oracle_residual: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "lambda_min": self.lambda_min,
            "mu": self.mu,
            "r": self.r,
            "blockwise": self.blockwise,
            "per_block": [
                {
                    "variables": list(b.variables),
                    "value": b.value,
                    "method": b.method,
                    "status": b.status,
                }
                for b in self.per_block
            ]
            if self.per_block
            else None,
            "solver_status": self.solver_status,
            "gershgorin_bound": self.gershgorin,
            "exact": self.exact,
            "lower_bound_only": self.lower_bound_only,
            "oracle_value": self.oracle_value,
            "minimizer": None
            if self.minimizer is None
            else [float(v) for v in self.minimizer],
            "oracle_residual": self.oracle_residual,
        }


# ---------------------------------------------------------------------------
# certified maximum diagonal shift via the Gram semidefinite program


def _pure_power_rows(system, n: int, m: int) -> np.ndarray:
    rows = np.zeros(system.num_constraints)
    for k, alpha in enumerate(system.alphas):
        if max(alpha) == m:
            rows[k] = 1.0
    return rows


def _max_shift_sdp(
    f: HomogeneousPolynomial, opts: EigMinOptions
) -> Tuple[float, str]:
    """Largest r with f - r * sum x_i^m a sum of squares, certified from below.

    Bisection on r: the top of the bracket is pinned by an evaluated point
    (any x on the sphere shows r > f(x) is infeasible) and by the smallest
    diagonal coefficient; the bottom starts at the diagonal-dominance bound,
    which is always feasible.  Feasible probes are verified by an explicit
    Gram matrix whose coefficient defect is subtracted from the reported
    value, so the result never overshoots the true optimum.
    """
    n, m = f.dim, f.degree
    scale = f.max_abs_coefficient() or 1.0
    fs = f.scale(1.0 / scale)
    As = from_polynomial(fs)
    g = gershgorin_lower_bound(As)
    diag = [float(fs.diagonal_coefficient(i)) for i in range(n)]
    mind = min(diag)

    if not fs.mixed_terms():
        return scale * mind, "optimal"

    probe = sphere_minimize(
        fs, seed=opts.seed, restarts=opts.scan_restarts, iters=opts.scan_iters
    )
    hi = min(mind, probe.value)
    lo = g
    tol = max(opts.tol / scale, 1e-14)
    if hi - lo <= tol:
        return scale * max(g, min(lo, hi)), "optimal"

    system = gram_system(n, m)
    N = len(system.basis)
    pure = _pure_power_rows(system, n, m)
    rhs_base = system.rhs(fs)

    warm: Optional[np.ndarray] = None
    best_certified = g
    witnessed = True

    def feasible(r: float) -> Optional[float]:
        nonlocal warm
        rhs = rhs_base - r * pure
        problem = sdp.SdpProblem(N, 0, operator=system.operator, rhs=rhs)
        sol = sdp.solve(
            problem,
            sdp.SolveOptions(
                feas_tol=opts.feas_tol, max_iter=opts.max_iter, warm_start=warm
            ),
        )
        if sol.status != sdp.OPTIMAL:
            return None
        Q = sdp.psd_project(sol.X)
        warm = sdp.pack_iterate(Q)
        defect = float(np.sum(np.abs(_constraint_values(Q, system) - rhs)))
        return r - defect

    # phase A: one objective-mode solve gives a sharp guess for the optimum
    r_hat: Optional[float] = None
    obj_problem = sdp.SdpProblem(
        N, 1, objective_free=(1.0,), sense="max",
        operator=system.operator, rhs=rhs_base, free_matrix=pure[:, None],
    )
    obj_sol = sdp.solve(
        obj_problem,
        sdp.SolveOptions(feas_tol=opts.feas_tol, max_iter=min(opts.max_iter, 30_000)),
    )
    if obj_sol.status == sdp.OPTIMAL and math.isfinite(obj_sol.free[0]):
        r_hat = float(obj_sol.free[0])
        warm = sdp.pack_iterate(sdp.psd_project(obj_sol.X))

    # phase B: certify slightly under the guess, backing off geometrically
    candidates = []
    if r_hat is not None:
        for delta in (tol, 8 * tol, 64 * tol, 512 * tol):
            candidates.append(min(hi, r_hat) - delta)
    candidates.append(hi - tol)
    for r_try in candidates:
        if not lo < r_try < hi:
            continue
        cert = feasible(r_try)
        if cert is not None:
            lo = r_try
            best_certified = max(best_certified, cert)
            break
        if not probe.value < r_try:
            witnessed = False
        hi = r_try

    # phase C: close the remaining bracket by bisection
    for _ in range(80):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        cert = feasible(mid)
        if cert is not None:
            lo = mid
            best_certified = max(best_certified, cert)
        else:
            if not probe.value < mid:
                witnessed = False
            hi = mid
    status = "optimal" if (hi - lo <= tol and witnessed) else "inconclusive"
    return scale * max(g, best_certified), status


def _single_term_value(f: HomogeneousPolynomial) -> Optional[float]:
    """Closed-form block value when at most one mixed term is present."""
    n = f.dim
    diag = [float(f.diagonal_coefficient(i)) for i in range(n)]
    mixed = f.mixed_terms()
    if not mixed:
        return min(diag)
    if len(mixed) != 1:
        return None
    (alpha, coeff), = mixed.items()
    return max_diagonal_shift_single_term(diag, alpha, float(coeff))


def _block_value(
    f_block: HomogeneousPolynomial, tag: str, opts: EigMinOptions
) -> BlockValue:
    variables = tuple(range(f_block.dim))
    if opts.use_closed_form:
        closed = _single_term_value(f_block)
        if closed is not None:
            method = "diagonal" if not f_block.mixed_terms() else "closed_form"
            return BlockValue(variables, closed, method, "optimal")
    value, status = _max_shift_sdp(f_block, opts)
    return BlockValue(variables, value, "sdp", status)


# ---------------------------------------------------------------------------
# public entry points


def min_h_eigenvalue(
    A: SymmetricTensor, options: Optional[EigMinOptions] = None
) -> EigMinResult:
    """Minimum H-eigenvalue through the sum-of-squares program.

    With blockwise enabled (default auto) the extended-Z partition is used to
    decouple the program into per-block subproblems sharing the scalar shift;
    the overall value is the minimum of the block values.  For tensors
    without extended-Z structure the value is still a valid lower bound on
    the minimum H-eigenvalue and is flagged `lower_bound_only`.
    """
    opts = options or EigMinOptions()
    if A.order % 2 != 0:
        raise SpectralError("minimum H-eigenvalue program needs even order")
    f = A.to_polynomial()
    g = gershgorin_lower_bound(A)
    ext = detect_extended_z(A)

    use_blocks = ext.holds and (
        opts.blockwise == "on" or (opts.blockwise == "auto" and len(ext.blocks) >= 2)
    )
    per_block: Optional[List[BlockValue]] = None
    if use_blocks:
        per_block = []
        for block in ext.blocks:
            sub = f.restrict(block.variables)
            bv = _block_value(sub, block.tag, opts)
            per_block.append(
                BlockValue(block.variables, bv.value, bv.method, bv.status)
            )
        lam = min(b.value for b in per_block)
        status = (
            "optimal"
            if all(b.status == "optimal" for b in per_block)
            else "inconclusive"
        )
    else:
        if opts.use_closed_form:
            closed = _single_term_value(f)
        else:
            closed = None
        if closed is not None:
            lam, status = closed, "optimal"
        else:
            lam, status = _max_shift_sdp(f, opts)

    lam = max(lam, g)
    result = EigMinResult(
        lambda_min=lam,
        mu=lam,
        r=lam,
        blockwise=use_blocks,
        per_block=per_block,
        solver_status=status,
        gershgorin=g,
        exact=ext.holds,
        lower_bound_only=not ext.holds,
    )
    if opts.with_oracle and A.dim <= opts.dim_cap:
        val, x = brute_force_min(
            A,
            restarts=opts.oracle_restarts,
            seed=opts.seed + 1,
        )
        result.oracle_value = val
        result.minimizer = x
        result.oracle_residual = eigen_residual(A, val, x)
    return result


@dataclass
class PdResult:
    verdict: Optional[bool]  # True / False / None (inconclusive)
    lambda_min: float
    detail: EigMinResult
    witness: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        return {
            "positive_definite": self.verdict,
            "lambda_min": self.lambda_min,
            "witness": None
            if self.witness is None
            else [float(v) for v in self.witness],
            "detail": self.detail.to_dict(),
        }


PD_TOL = 1e-6


def is_positive_definite(
    A: SymmetricTensor, options: Optional[EigMinOptions] = None
) -> PdResult:
    """Positive definiteness of the induced multivariate form.

    A positive program value certifies definiteness for any symmetric even
    order tensor (the value is a lower bound on the minimum H-eigenvalue).
    A negative value is conclusive only under extended-Z structure, where the
    program is exact; otherwise the verdict is downgraded to inconclusive
    unless a strictly negative evaluation point is in hand.
    """
    opts = options or EigMinOptions()
    res = min_h_eigenvalue(A, opts)
    scale = 1.0 + max(abs(res.lambda_min), abs(res.gershgorin))
    if res.lambda_min > PD_TOL:
        return PdResult(True, res.lambda_min, res)
    if res.exact and res.solver_status == "optimal" and res.lambda_min < -PD_TOL:
        return PdResult(False, res.lambda_min, res)
    # look for an explicit negative point
    f = A.to_polynomial()
    hit = sphere_minimize(
        f,
        seed=opts.seed + 3,
        restarts=opts.scan_restarts,
        iters=opts.scan_iters,
        stop_below=-PD_TOL * scale,
    )
    if hit.value < -PD_TOL * scale:
        return PdResult(False, res.lambda_min, res, witness=hit.point)
    return PdResult(None, res.lambda_min, res)


def brute_force_min(
    A: SymmetricTensor,
    restarts: Optional[int] = None,
    seed: int = 0,
    iters: int = 600,
    dim_cap: int = 8,
) -> Tuple[float, np.ndarray]:
    """Independent minimization oracle over the unit m-norm sphere.

    Multistart projected gradient descent seeded by the sign-pattern grid
    plus 50 n random directions.  Refuses dimensions above the cap rather
    than silently under-sampling.
    """
    if A.order % 2 != 0:
        raise SpectralError("sphere minimization oracle needs even order")
    if A.dim > dim_cap:
        raise SpectralError(
            f"dimension {A.dim} above oracle cap {dim_cap}; refusing to under-sample"
        )
    n = A.dim
    if restarts is None:
        restarts = 50 * n
    res = sphere_minimize(
        A.to_polynomial(),
        seed=seed,
        restarts=restarts,
        iters=iters,
        grid_cap=3 ** 8,
    )
    return res.value, res.point


# ---------------------------------------------------------------------------
# random extended-Z instances with known positive-definiteness


@dataclass(frozen=True)
class Procedure1Instance:
    tensor: SymmetricTensor
    positive_definite: bool
    parity: int
    partition: Tuple[Tuple[int, ...], ...]
    seed: int


def generate_procedure1(
    order: int,
    dim: int,
    s: int,
    k: int,
    big_m: float = 100.0,
    seed: int = 0,
) -> Procedure1Instance:
    """Random extended-Z instance with ground-truth positive definiteness.

    Draws a random parity L and a random equal partition of the variables
    into s blocks of size k (dim = s k required).  Every diagonal entry is
    (-1)^L * big_m; each of the first s-1 blocks carries one random mixed
    term with coefficient in [0, 1]; the last block is filled with negated
    random values in [0, 1] on its off-diagonal positions.  For large big_m
    the diagonal dominates every off-diagonal row sum, so the form is
    positive definite exactly when L is even; odd L makes every diagonal
    entry negative.

    The same seed reproduces the same instance bit for bit.
    """
    if dim != s * k:
        raise SpectralError(f"dim must equal s*k, got {dim} != {s}*{k}")
    if order % 2 != 0:
        raise SpectralError("even order required")
    if big_m <= 0:
        raise SpectralError("big_m must be positive")
    rng = np.random.default_rng(seed)
    L = int(rng.integers(1, 3))
    perm = [int(v) for v in rng.permutation(dim)]
    blocks = tuple(
        tuple(sorted(perm[i * k : (i + 1) * k])) for i in range(s)
    )
    diag_val = big_m if L % 2 == 0 else -big_m
    entries: Dict[Tuple[int, ...], float] = {
        (i,) * order: diag_val for i in range(dim)
    }
    for bi in range(s - 1):
        vars_ = blocks[bi]
        while True:
            pick = tuple(sorted(int(rng.integers(0, k)) for _ in range(order)))
            idx = tuple(vars_[p] for p in pick)
            if len(set(idx)) >= 2:
                break
        entries[idx] = float(rng.uniform(0.0, 1.0))
    last = blocks[s - 1]
    from itertools import combinations_with_replacement

    for combo in combinations_with_replacement(range(k), order):
        idx = tuple(last[p] for p in combo)
        if len(set(idx)) >= 2:
            entries[idx] = -float(rng.uniform(0.0, 1.0))
    tensor = SymmetricTensor(order, dim, entries)
    return Procedure1Instance(tensor, L % 2 == 0, L, blocks, seed)
