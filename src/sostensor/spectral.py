"""Minimum H-eigenvalue of even-order symmetric tensors.

The smallest H-eigenvalue equals the minimum of the induced form over the
unit m-norm sphere, and for tensors with extended-Z block structure it is the
optimal value of

    max { mu : f(x) - r (||x||_m^m - 1) - mu  is a sum of squares,  over mu, r }.

Since f - r ||x||_m^m is homogeneous and the leftover constant is r - mu, the
program reduces to maximizing r subject to f - r sum x_i^m being a sum of
squares (whence mu* = r*).  Disjoint variable blocks decouple: the overall
value is the minimum of the per-block values, each of which is a
closed-form critical-coefficient computation (blocks with one mixed term),
a power-method sandwich (blocks whose mixed terms are all nonpositive, see
`_z_sandwich`), or one objective-mode Gram-matrix semidefinite program for
r (`_max_shift_sdp`).

Every reported value is a sound lower bound on the true minimum eigenvalue:
it is the maximum of the diagonal-dominance (Gershgorin) bound and the best
r carrying a certificate: a Gram matrix plus the AM-GM bound of its
coefficient defect, or a scaling that makes f - r sum x_i^m diagonally
dominated.  For extended-Z tensors the program value equals the eigenvalue,
so the report is exact up to the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import sdp, structured
from .descent import sphere_minimize
from .sos import (
    _constraint_values,
    _dominance_margin,
    gershgorin_lower_bound,
    gram_system,
    max_diagonal_shift_single_term,
)
from .structured import detect_extended_z, pure_and_mixed
from .tensor import HomogeneousPolynomial, SymmetricTensor, eigen_residual


class SpectralError(ValueError):
    pass


# multistart descent of the sphere probe in `_max_shift_sdp` and of the
# negative-point search in `is_positive_definite`
SCAN_RESTARTS = 60
SCAN_ITERS = 400

# `brute_force_min` refuses dimensions above this cap
ORACLE_DIM_CAP = 8


@dataclass
class EigMinOptions:
    """Options of `min_h_eigenvalue`: `tol` bounds each block value's gap to
    its minimum, `max_iter` caps each Gram SDP solve, and every block takes
    its cheapest route (`_form_value`)."""

    tol: float = 1e-6
    max_iter: int = 60_000
    seed: int = 7_652_413
    with_oracle: bool = False
    oracle_restarts: Optional[int] = None


@dataclass
class BlockValue:
    variables: Tuple[int, ...]
    value: float
    method: str  # closed_form | diagonal | z_sandwich | sdp
    status: str  # optimal | inconclusive


@dataclass
class EigMinResult:
    lambda_min: float
    method: str  # blockwise, or the form's route (see BlockValue.method)
    per_block: Optional[List[BlockValue]]
    solver_status: str
    gershgorin: float
    exact: bool  # extended-Z structure detected, program value = eigenvalue
    oracle_value: Optional[float] = None
    minimizer: Optional[np.ndarray] = None
    oracle_residual: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "lambda_min": self.lambda_min,
            "method": self.method,
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
            "oracle_value": self.oracle_value,
            "minimizer": None
            if self.minimizer is None
            else [float(v) for v in self.minimizer],
            "oracle_residual": self.oracle_residual,
        }


# ---------------------------------------------------------------------------
# certified maximum diagonal shift via the Gram semidefinite program


def _pure_power_rows(system, m: int) -> np.ndarray:
    """1.0 at the constraints of the pure powers x_i^m, 0.0 elsewhere."""
    return (np.array(system.alphas).max(axis=1) == m).astype(float)


def _defect_margin(
    system, target: np.ndarray, X: np.ndarray
) -> Tuple[float, np.ndarray]:
    """AM-GM row bound of the defect target - z' P z, and P = psd_project(X).

    `target` holds coefficients over `system.alphas`; see `_max_shift_sdp`
    for what the bound certifies.
    """
    P = sdp.psd_project(X)
    defect = target - _constraint_values(P, system)
    return _dominance_margin(np.array(system.alphas), defect, 2 * system.basis.degree), P


def _max_shift_sdp(
    f: HomogeneousPolynomial, opts: EigMinOptions
) -> Tuple[float, str]:
    """Largest r with f - r * sum x_i^m a sum of squares, certified from below.

    With a_i the coefficient of x_i^m in a form and w_i its weak row off-sum,
    min_i (a_i - w_i) (`_dominance_margin`) is an SOS shift: subtracting it
    times sum x_i^m leaves every row slack nonnegative, and such a form is a
    sum of Hurwitz's AM-GM squares (`sos._amgm_gram`; Reznick 1989).  Of f
    itself that is the floor of the returned value.

    One objective-mode Gram solve, max { r : <E_alpha, X> + r [alpha pure]
    = f_alpha, X PSD }, then gives an estimate r_hat and an iterate X.  Any
    r and any PSD P define the defect e = f - r sum x_i^m - z' P z, and
    f - (r + t) sum x_i^m = z' P z + (e - t sum x_i^m) is SOS for
    t = min_i (a_i - w_i) of e, so r + t is certified whatever the solve's
    status (`_defect_margin`).  The solve stops once every coefficient of e is
    within tol / (2 K) of zero, K the number of coefficients, so
    t >= -sum |e_alpha| >= -tol/2 costs at most half the tolerance.  The top
    is hi, the smallest of f's diagonal coefficients and the best sphere
    value found by descent: both are values of f on the unit m-norm sphere.
    The status is `optimal` iff hi - lo <= tol.  Only while that gap is
    open, one feasibility solve at r = min(hi, r_hat) - tol/2, warm-started
    from the projected iterate, offers its own certified bound r + t.  When
    it stops at its tolerance, t >= -tol/2 again, so lo >= min(hi, r_hat) -
    tol and the gap closes whenever r_hat >= hi.
    """
    n, m = f.dim, f.degree
    scale = f.max_abs_coefficient() or 1.0
    fs = f.scale(1.0 / scale)
    mind = min(float(fs.diagonal_coefficient(i)) for i in range(n))
    if not fs.mixed_terms():
        return scale * mind, "optimal"

    system = gram_system(n, m)
    rhs = system.rhs(fs)
    lo = _dominance_margin(np.array(system.alphas), rhs, m)
    probe = sphere_minimize(
        fs, seed=opts.seed, restarts=SCAN_RESTARTS, iters=SCAN_ITERS
    )
    hi = min(mind, probe.value)
    tol = max(opts.tol / scale, 1e-14)
    if hi - lo <= tol:
        return scale * lo, "optimal"

    N = len(system.basis)
    pure = _pure_power_rows(system, m)
    feas_tol = tol / (2 * system.num_constraints * (1.0 + float(np.max(np.abs(rhs)))))
    sol = sdp.solve(
        sdp.SdpProblem(
            N, 1, objective_free=(1.0,), sense="max", operator=system.operator,
            rhs=rhs, free_matrix=pure[:, None],
        ),
        sdp.SolveOptions(feas_tol=feas_tol, max_iter=opts.max_iter),
    )
    r_hat = float(sol.free[0])
    t, P = _defect_margin(system, rhs - r_hat * pure, sol.X)
    lo = max(lo, r_hat + t)
    if hi - lo > tol:
        r = min(hi, r_hat) - 0.5 * tol
        sol = sdp.solve(
            sdp.SdpProblem(N, 0, operator=system.operator, rhs=rhs - r * pure),
            sdp.SolveOptions(
                feas_tol=feas_tol, max_iter=opts.max_iter,
                warm_start=sdp.pack_iterate(P),
            ),
        )
        lo = max(lo, r + _defect_margin(system, rhs - r * pure, sol.X)[0])
    return scale * lo, "optimal" if hi - lo <= tol else "inconclusive"


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


# iteration cap of the Z-form sandwich; past it the SDP decides the value
Z_SANDWICH_MAX_ITER = 1000


def _z_sandwich(f: HomogeneousPolynomial, opts: EigMinOptions) -> Optional[float]:
    """Certified minimum of a Z-form over the sphere, or None to fall back.

    A Z-form has no positive mixed coefficient, so its tensor A has no
    positive off-diagonal entry.  For any u > 0 let g = A u^(m-1) and
    t = min_i g_i / u_i^(m-1).  Then B = A - t I is a Z-tensor with
    B u^(m-1) >= 0, and C = B scaled by D = diag(u) on every mode (entries
    b[i1..im] u_i1 ... u_im) has row sums u_i (B u^(m-1))_i >= 0 and
    nonpositive off-diagonal entries, so it is diagonally dominated.  An
    even-order diagonally dominated tensor is SOS (Qi 2005, the paper's
    weakly-diagonally-dominated class), and SOS-ness survives the change of
    variables x = D y, so f - t ||x||_m^m is SOS: t is feasible for the
    program and below the minimum.

    With c the largest diagonal coefficient plus the largest row off-sum,
    N = c I - A is nonnegative and t = c - R, R the largest Collatz ratio
    (N u^(m-1))_i / u_i^(m-1).  `structured._spectral_radius` drives R to
    rho(N) = c - (the program value) on each variable component (Ng, Qi &
    Zhou 2009); it perturbs N by tol/4 and stops at a bracket tol/2 wide,
    so t is within tol of the minimum.  Every term of a float row of
    N u^(m-1) is nonnegative and takes at most K = m + T + 1 roundings, T
    the number of terms of f (two in its weight, among them c - a_i, m - 1
    in the products, T in the sum).  With one ulp for `pow` and a rounding
    for the division, the exact R is at most the float one times
    1 + (K + 4) r, r the unit roundoff, and the subtraction from c adds
    r (|c| + R) (Higham 2002, section 3.1).  Lowering the float c - R by
    (K + 6) eps (|c| + R), eps = 2 r, covers these and its own rounding.
    A `PowerIterationError` (the cap, or a non-finite step) or a u no
    longer positive returns None, and the SDP decides.
    """
    m = f.degree
    diag, exps, coeffs = pure_and_mixed(f)
    offsum = np.abs(coeffs) @ exps.astype(float) / m
    c = float(np.max(diag) + np.max(offsum))
    tol = max(opts.tol, 1e-14 * f.max_abs_coefficient())
    op = structured._row_operator(exps, -coeffs, m, c - diag)
    try:
        _, u = structured._spectral_radius(
            op, structured.variable_components(f), 1.0, tol, Z_SANDWICH_MAX_ITER
        )
    except structured.PowerIterationError:
        return None
    with np.errstate(all="ignore"):
        ratio = float((op(u) / u ** (m - 1)).max())
    # a u_i^(m-1) that underflowed to 0 leaves an infinite or NaN ratio
    if not math.isfinite(ratio):
        return None
    allowance = (m + len(f.terms) + 7) * np.finfo(float).eps * (abs(c) + ratio)
    return float(c - ratio - allowance)


def _form_value(
    f: HomogeneousPolynomial, opts: EigMinOptions
) -> Tuple[float, str, str]:
    """Certified minimum of f over the sphere: value, method and status.

    A form with at most one mixed term takes its closed form and a Z-form
    its sandwich; the Gram SDP (`_max_shift_sdp`) takes the rest and any
    Z-form whose sandwich returns None.
    """
    mixed = f.mixed_terms()
    closed = _single_term_value(f)
    if closed is not None:
        return closed, "closed_form" if mixed else "diagonal", "optimal"
    if all(c <= 0 for c in mixed.values()):
        lo = _z_sandwich(f, opts)
        if lo is not None:
            return lo, "z_sandwich", "optimal"
    value, status = _max_shift_sdp(f, opts)
    return value, "sdp", status


# ---------------------------------------------------------------------------
# public entry points


def min_h_eigenvalue(
    A: SymmetricTensor,
    options: Optional[EigMinOptions] = None,
    form: Optional[HomogeneousPolynomial] = None,
) -> EigMinResult:
    """Minimum H-eigenvalue through the sum-of-squares program.

    When the variables split into two or more connected components (joined
    by shared mixed terms, the blocks of `detect_extended_z`), the program
    decouples: f - r sum x_i^m is SOS iff every component's restriction is,
    so the value is the minimum of the per-component values and `method` is
    `blockwise`.  The value is always a valid lower bound on the minimum
    H-eigenvalue; it is `exact` when extended-Z holds, where the program
    value equals the eigenvalue.  `form` is A's induced form when the
    caller has already built it.
    """
    opts = options or EigMinOptions()
    if A.order % 2 != 0:
        raise SpectralError("minimum H-eigenvalue program needs even order")
    f = A.to_polynomial() if form is None else form
    g = gershgorin_lower_bound(A, f)
    ext = detect_extended_z(A, f)

    per_block: Optional[List[BlockValue]] = None
    if len(ext.blocks) >= 2:
        per_block = []
        for block in ext.blocks:
            value, method, status = _form_value(f.restrict(block.variables), opts)
            per_block.append(BlockValue(block.variables, value, method, status))
        lam = min(b.value for b in per_block)
        method = "blockwise"
        status = (
            "optimal"
            if all(b.status == "optimal" for b in per_block)
            else "inconclusive"
        )
    else:
        lam, method, status = _form_value(f, opts)

    lam = max(lam, g)
    result = EigMinResult(
        lambda_min=lam,
        method=method,
        per_block=per_block,
        solver_status=status,
        gershgorin=g,
        exact=ext.holds,
    )
    if opts.with_oracle and A.dim <= ORACLE_DIM_CAP:
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
    f = A.to_polynomial()
    res = min_h_eigenvalue(A, opts, f)
    scale = 1.0 + max(abs(res.lambda_min), abs(res.gershgorin))
    if res.lambda_min > PD_TOL:
        return PdResult(True, res.lambda_min, res)
    if res.exact and res.solver_status == "optimal" and res.lambda_min < -PD_TOL:
        return PdResult(False, res.lambda_min, res)
    # look for an explicit negative point
    hit = sphere_minimize(
        f,
        seed=opts.seed + 3,
        restarts=SCAN_RESTARTS,
        iters=SCAN_ITERS,
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
    dim_cap: int = ORACLE_DIM_CAP,
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
