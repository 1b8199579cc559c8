"""Small-scale semidefinite solver for Gram coefficient-matching systems.

Solves
    min / max   d' u
    subject to  <A_k, X> + c_k' u = b_k,   k = 1..K,
                X symmetric positive semidefinite,  u free,

where each A_k is 0/1 and every position of X lies in exactly one A_k: the
constraints are a label map, one row label per position, as the Gram
systems of `sos` build them.  Operator splitting alternates (a) projection
of the matrix iterate onto the PSD cone by eigenvalue clamping, (b)
least-squares projection onto the affine constraint set, and (c) a linear
objective tilt folded into the affine step.  Everything is deterministic
for fixed inputs and options.

The iterate is z = [vec(X); u] with X the full symmetric N x N matrix.  Under
the Frobenius inner product vec is an isometry of the symmetric matrices (as
svec is), so no packing happens per sweep.  The normal matrix is diagonal
plus a rank-F correction from the free columns, and the affine projection
is one bincount and one gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

OPTIMAL = "optimal"
INCONCLUSIVE = "inconclusive"
INFEASIBLE_EVIDENCE = "infeasible_evidence"


class SdpError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ConstraintMap:
    """The map X -> (<A_k, X>)_k over the N*N positions of X, row-major.

    `label[p]` is the row k fed by position p, with coefficient 1: every
    position feeds exactly one row, and every row is fed by at least one
    position.  A Gram system labels (p, q) with the coefficient of
    beta_p + beta_q, so both triangles of a symmetric A_k carry its label.
    """

    size: int
    num_rows: int
    label: np.ndarray

    def values(self, x: np.ndarray) -> np.ndarray:
        """(<A_k, X>)_k for x = vec(X)."""
        return np.bincount(self.label, x, self.num_rows)


@dataclass
class SdpProblem:
    """A label map, its right-hand side b and the free columns.

    `operator` is the `ConstraintMap` of the A_k, `rhs` the b_k and
    `free_matrix` the c_k as rows (K x num_free, zero when None).
    """

    block_size: int
    num_free: int
    operator: ConstraintMap
    rhs: np.ndarray
    free_matrix: Optional[np.ndarray] = None
    objective_free: Tuple[float, ...] = ()
    sense: str = "min"

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise SdpError(f"bad sense {self.sense!r}")
        N, F = self.block_size, self.num_free
        op = self.operator
        K = op.num_rows
        if N < 1 or op.size != N:
            raise SdpError(f"operator of size {op.size} for block size {N}")
        label = np.asarray(op.label)
        if label.shape != (N * N,) or label.dtype.kind not in "iu":
            raise SdpError("label map needs one integer label per matrix position")
        if label.min() < 0 or label.max() >= K:
            raise SdpError("label outside the constraint rows")
        if np.count_nonzero(np.bincount(label, minlength=K)) != K:
            raise SdpError("some constraint row is fed by no matrix position")
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.rhs.shape != (K,):
            raise SdpError("right-hand side has wrong length")
        if self.free_matrix is None:
            self.free_matrix = np.zeros((K, F))
        self.free_matrix = np.asarray(self.free_matrix, dtype=float)
        if self.free_matrix.shape != (K, F):
            raise SdpError("free coefficient matrix has wrong shape")


@dataclass
class SdpSolution:
    X: np.ndarray
    free: np.ndarray
    objective_value: float
    primal_residual: float
    dual_residual: float
    psd_violation: float
    status: str
    iterations: int
    farkas: Optional[np.ndarray] = None


@dataclass
class SolveOptions:
    feas_tol: float = 1e-8
    max_iter: int = 200_000
    warm_start: Optional[np.ndarray] = None  # cone-side [vec(X); u] iterate


def pack_iterate(X: np.ndarray, free: Sequence[float] = ()) -> np.ndarray:
    """Vectorize (X, u) into the solver's internal layout for warm starts."""
    return np.concatenate([np.asarray(X, dtype=float).ravel(),
                           np.asarray(free, dtype=float)])


try:
    # the LAPACK gufunc behind np.linalg.eigh; at the block sizes solved here
    # the wrapper's argument checks and error-state context cost more than
    # the decomposition itself
    from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo
except ImportError:  # pragma: no cover
    _eigh_lo = None


def _eigh(S: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(S) for a float64 matrix S."""
    if _eigh_lo is not None:
        w, V = _eigh_lo(S)
        if w[0] == w[0]:
            return w, V
    # no result (NaN on non-convergence): the public call raises LinAlgError
    return np.linalg.eigh(S)


def _psd_part(S: np.ndarray) -> np.ndarray:
    """S itself when it is PSD, else R R' with R = V sqrt(w+).

    S must be exactly symmetric.  The product R R' is formed by one
    symmetric rank-k update, so it is exactly symmetric too.
    """
    w, V = _eigh(S)
    if w[0] >= 0:
        return S
    R = V * np.sqrt(np.maximum(w, 0.0))
    return R @ R.T


def psd_project(S: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (negative eigenvalues clamped)."""
    S = np.asarray(S, dtype=float)
    if not np.all(np.isfinite(S)):
        raise SdpError("non-finite input to psd_project")
    return _psd_part(0.5 * (S + S.T))


def min_eigenvalue(S: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])


class _Compiled:
    """The problem's arrays in the iterate layout z = [vec(X); u]."""

    def __init__(self, problem: SdpProblem):
        N, F = problem.block_size, problem.num_free
        op = problem.operator
        K = op.num_rows
        self.N, self.F, self.NN = N, F, N * N
        self.dimension = N * N + F
        self.op = op
        self.b = problem.rhs
        self.U = problem.free_matrix
        # A A' is diagonal: D_k counts the positions labelled k
        self.D = np.bincount(op.label, minlength=K).astype(float)
        if F:
            # (A A' + U U')^-1 = D^-1 - D^-1 U W^-1 U' D^-1, W = I + U' D^-1 U
            Dinv_U = self.U / self.D[:, None]
            W = np.eye(F) + self.U.T @ Dinv_U
            self.corr = Dinv_U @ np.linalg.inv(W)

        # objective in vector form, with min-sense sign
        q = np.zeros(self.dimension)
        objective_free = np.asarray(problem.objective_free, dtype=float)
        q[self.NN: self.NN + len(objective_free)] += objective_free
        if problem.sense == "max":
            q = -q
        self.q = q
        self.has_objective = bool(np.any(q != 0.0))
        # max-norms are taken in svec units: off-diagonal entries count sqrt(2)
        unit = np.ones(self.dimension)
        unit[: self.NN] = np.where(np.eye(N, dtype=bool), 1.0, math.sqrt(2.0)).ravel()
        self._svec_unit = unit

    def max_abs(self, d: np.ndarray) -> float:
        return float(np.max(np.abs(d) * self._svec_unit))

    def constraint_values(self, z: np.ndarray) -> np.ndarray:
        vals = self.op.values(z[: self.NN])
        if self.F:
            vals = vals + self.U @ z[self.NN:]
        return vals

    def solve_normal(self, r: np.ndarray) -> np.ndarray:
        """(A A' + U U')^-1 r, overwriting r."""
        r /= self.D
        if self.F:
            r -= self.corr @ (self.U.T @ r)
        return r

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        g = y[self.op.label]
        if self.F:
            return np.concatenate([g, self.U.T @ y])
        return g

    def project_affine(self, z: np.ndarray) -> np.ndarray:
        r = self.constraint_values(z)
        r -= self.b
        return z - self.adjoint(self.solve_normal(r))

    def project_cone(self, z: np.ndarray) -> np.ndarray:
        """z itself when its matrix part is PSD, else a new clamped iterate."""
        X = z[: self.NN].reshape(self.N, self.N)
        Y = _psd_part(X)
        if Y is X:
            return z
        if not self.F:
            return Y.ravel()
        return np.concatenate([Y.ravel(), z[self.NN:]])


def _objective_value(comp: _Compiled, problem: SdpProblem, z: np.ndarray) -> float:
    raw = float(comp.q @ z)
    return -raw if problem.sense == "max" else raw


# alternating-projection sweeps that `_try_farkas` runs to open the gap
POCS_SWEEPS = 3000


def _try_farkas(comp: _Compiled, v: np.ndarray, opts: SolveOptions) -> Optional[np.ndarray]:
    """Attempt an infeasibility certificate from the alternating gap.

    When the affine set and the cone do not intersect, pure alternating
    projection settles into a gap e = P_affine(z) - z with e in the row space
    of the constraints.  Mapping e back as e = A' y gives y whose negation is
    the standard certificate: sum_k (-y_k) A_k >= 0 and b'(-y) < 0.
    """
    z = comp.project_cone(v)
    for _ in range(POCS_SWEEPS):
        z_aff = comp.project_affine(z)
        z_new = comp.project_cone(z_aff)
        if comp.max_abs(z_new - z) < 1e-15:
            z = z_new
            break
        z = z_new
    z_aff = comp.project_affine(z)
    e = z_aff - z
    gap = float(np.linalg.norm(e))
    if gap < 10 * opts.feas_tol:
        return None
    y = comp.solve_normal(comp.constraint_values(e))
    # e should reproduce as adjoint(y); verify before trusting it
    if np.linalg.norm(comp.adjoint(y) - e) > 1e-6 * (1.0 + np.linalg.norm(e)):
        return None
    y_hat = -y
    adj = comp.adjoint(y_hat)
    S = adj[: comp.NN].reshape(comp.N, comp.N)
    if comp.F and np.max(np.abs(adj[comp.NN:])) > 1e-8 * (1.0 + np.linalg.norm(y_hat)):
        return None
    lam_min = min_eigenvalue(S)
    bty = float(comp.b @ y_hat)
    scale = 1.0 + float(np.linalg.norm(S))
    if lam_min >= -1e-7 * scale and bty < -1e-9 * (1.0 + abs(bty)):
        return y_hat
    return None


# Splitting step (the ADMM penalty), over-relaxation factor and the number
# of iterations between residual checks.
PENALTY = 1.0
OVER_RELAX = 1.6
CHECK_EVERY = 25
# An objective solve stops once its value moved by at most STALL_TOL
# (relative) over the last STALL_WINDOW iterations, with the primal residual
# within feas_tol and the dual residual within DUAL_TOL_FACTOR * feas_tol.
STALL_TOL = 1e-9
STALL_WINDOW = 100
DUAL_TOL_FACTOR = 10.0


def solve(problem: SdpProblem, opts: Optional[SolveOptions] = None) -> SdpSolution:
    """Run the splitting iteration and return the best iterate found.

    Status is `optimal` when primal and PSD residuals meet feas_tol (and, for
    problems with an objective, the objective has stalled), `inconclusive`
    at the iteration cap, and `infeasible_evidence` when a separating
    certificate y (sum y_k A_k PSD, b'y < 0) is verified.  The returned X
    is exactly symmetric.
    """
    opts = opts or SolveOptions()
    comp = _Compiled(problem)
    N, NN = comp.N, comp.NN

    scale_b = 1.0 + float(np.max(np.abs(comp.b)))
    q_step = comp.q / PENALTY

    if opts.warm_start is not None and opts.warm_start.shape == (comp.dimension,):
        v = np.array(opts.warm_start, dtype=float)
        W0 = v[:NN].reshape(N, N)
        v[:NN] = (0.5 * (W0 + W0.T)).ravel()
        v = comp.project_cone(v)
    else:
        v = np.zeros(comp.dimension)
    lam = np.zeros(comp.dimension)

    # iterates are never modified in place, so they are kept without copies
    best_v = v
    best_prim = math.inf
    best_obj = math.nan
    prev_check_v = v
    obj_hist: List[float] = []
    status = INCONCLUSIVE
    it = 0
    farkas = None
    stall_counter = 0

    while it < opts.max_iter:
        it += 1
        if comp.has_objective:
            w = comp.project_affine(v - lam - q_step)
        else:
            w = comp.project_affine(v - lam)
        w_relaxed = OVER_RELAX * w + (1.0 - OVER_RELAX) * v
        t = w_relaxed + lam
        v = comp.project_cone(t)
        lam = t - v

        if it % CHECK_EVERY == 0 or it == opts.max_iter:
            prim = float(np.max(np.abs(comp.constraint_values(v) - comp.b)))
            dual = PENALTY * comp.max_abs(v - prev_check_v) / CHECK_EVERY
            prev_check_v = v
            obj = _objective_value(comp, problem, v)
            if prim < best_prim:
                best_prim = prim
                best_v = v
                best_obj = obj
                stall_counter = 0
            else:
                stall_counter += 1
            obj_hist.append(obj)

            prim_ok = prim <= opts.feas_tol * scale_b
            dual_ok = dual <= DUAL_TOL_FACTOR * opts.feas_tol * scale_b
            if comp.has_objective:
                window = STALL_WINDOW // CHECK_EVERY + 1
                stalled = (
                    len(obj_hist) > window
                    and abs(obj_hist[-1] - obj_hist[-1 - window])
                    <= STALL_TOL * (1.0 + abs(obj_hist[-1]))
                )
                if prim_ok and dual_ok and stalled:
                    best_v, best_prim, best_obj = v, prim, obj
                    status = OPTIMAL
                    break
            else:
                if prim_ok:
                    best_v, best_prim, best_obj = v, prim, obj
                    status = OPTIMAL
                    break
                if stall_counter * CHECK_EVERY >= 4000 and best_prim > 100 * opts.feas_tol * scale_b:
                    cand = _try_farkas(comp, v, opts)
                    if cand is not None:
                        farkas = cand
                        status = INFEASIBLE_EVIDENCE
                        break
                    stall_counter = 0

    if status == INCONCLUSIVE and not comp.has_objective:
        cand = _try_farkas(comp, v, opts)
        if cand is not None:
            farkas = cand
            status = INFEASIBLE_EVIDENCE

    X = best_v[:NN].reshape(N, N).copy()
    free = best_v[NN:].copy()
    psd = max(0.0, -min_eigenvalue(X))
    dual_final = PENALTY * comp.max_abs(v - best_v)
    return SdpSolution(
        X=X,
        free=free,
        objective_value=best_obj,
        primal_residual=best_prim,
        dual_residual=dual_final,
        psd_violation=psd,
        status=status,
        iterations=it,
        farkas=farkas,
    )
