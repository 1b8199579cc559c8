"""Small-scale semidefinite solver: one PSD block plus free scalars.

Solves
    min / max   <C, X> + d' u
    subject to  <A_k, X> + c_k' u = b_k,   k = 1..K,
                X symmetric positive semidefinite,  u free,

by operator splitting: each sweep alternates (a) projection of the matrix
iterate onto the PSD cone by eigenvalue clamping, (b) least-squares projection
onto the affine constraint set, and (c) a linear objective tilt folded into
the affine step.  Everything is deterministic for fixed inputs and options.

The affine projection exploits the structure of Gram coefficient-matching
systems: constraint rows touch pairwise disjoint matrix positions, so the
normal matrix is diagonal plus a rank-F correction from the free columns and
is solved in closed form.  Generic (small) problems fall back to a dense
factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

OPTIMAL = "optimal"
INCONCLUSIVE = "inconclusive"
INFEASIBLE_EVIDENCE = "infeasible_evidence"


class SdpError(ValueError):
    pass


@dataclass(frozen=True)
class SdpConstraint:
    """<A, X> + c' u = rhs with A sparse symmetric (upper-triangle entries)."""

    matrix_entries: Tuple[Tuple[int, int, float], ...]
    free_coeffs: Tuple[float, ...]
    rhs: float


@dataclass
class SdpProblem:
    block_size: int
    num_free: int
    constraints: List[SdpConstraint]
    objective_matrix: Tuple[Tuple[int, int, float], ...] = ()
    objective_free: Tuple[float, ...] = ()
    sense: str = "min"

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise SdpError(f"bad sense {self.sense!r}")
        for con in self.constraints:
            for i, j, _ in con.matrix_entries:
                if not (0 <= i <= j < self.block_size):
                    raise SdpError(f"matrix entry ({i},{j}) outside upper triangle")
            if len(con.free_coeffs) != self.num_free:
                raise SdpError("free coefficient row has wrong length")


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
    message: str = ""


@dataclass
class SolveOptions:
    feas_tol: float = 1e-8
    max_iter: int = 200_000
    penalty: float = 1.0
    over_relax: float = 1.6
    check_every: int = 25
    stall_tol: float = 1e-9
    stall_window: int = 100
    dual_tol_factor: float = 10.0
    warm_start: Optional[np.ndarray] = None  # cone-side [svec(X); u] iterate


def pack_iterate(X: np.ndarray, free: Sequence[float] = ()) -> np.ndarray:
    """Vectorize (X, u) into the solver's internal layout for warm starts."""
    N = X.shape[0]
    iu, ju = np.triu_indices(N)
    v = X[iu, ju].copy()
    v[iu != ju] *= math.sqrt(2.0)
    return np.concatenate([v, np.asarray(free, dtype=float)])


def psd_project(S: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (negative eigenvalues clamped)."""
    S = np.asarray(S, dtype=float)
    if not np.all(np.isfinite(S)):
        raise SdpError("non-finite input to psd_project")
    S = 0.5 * (S + S.T)
    w, V = np.linalg.eigh(S)
    if w[0] >= 0:
        return S
    w = np.clip(w, 0.0, None)
    return (V * w) @ V.T


def min_eigenvalue(S: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])


class _Compiled:
    """Vectorized form of the problem: z = [svec(X); u]."""

    def __init__(self, problem: SdpProblem):
        N, F = problem.block_size, problem.num_free
        self.N, self.F = N, F
        iu, ju = np.triu_indices(N)
        self.iu, self.ju = iu, ju
        self.P = len(iu)
        self.dimension = self.P + F
        pos_of = {(int(i), int(j)): p for p, (i, j) in enumerate(zip(iu, ju))}
        self.off_mask = iu != ju

        rows_p: List[int] = []
        rows_w: List[float] = []
        rows_k: List[int] = []
        ptr = [0]
        b = []
        U = np.zeros((len(problem.constraints), F))
        for k, con in enumerate(problem.constraints):
            for i, j, v in con.matrix_entries:
                p = pos_of[(i, j)]
                # svec scaling: off-diagonal variables carry sqrt(2)
                w = v if i == j else math.sqrt(2.0) * v
                rows_p.append(p)
                rows_w.append(float(w))
                rows_k.append(k)
            U[k, :] = con.free_coeffs
            b.append(con.rhs)
            ptr.append(len(rows_p))
        self.rows_p = np.asarray(rows_p, dtype=np.int64)
        self.rows_w = np.asarray(rows_w)
        self.rows_k = np.asarray(rows_k, dtype=np.int64)
        self.ptr = np.asarray(ptr, dtype=np.int64)
        self.b = np.asarray(b)
        self.U = U
        self.K = len(problem.constraints)

        counts = np.zeros(self.P, dtype=np.int64)
        np.add.at(counts, self.rows_p, 1)
        self.orthogonal_rows = bool(np.all(counts <= 1))

        D = np.zeros(self.K)
        np.add.at(D, self.rows_k, self.rows_w ** 2)
        self.D = D

        self._chol = None
        self._pinv = None
        self._null_left: Optional[np.ndarray] = None
        if self.orthogonal_rows and np.all(D > 0):
            Dinv_U = U / D[:, None] if F else np.zeros((self.K, 0))
            W = np.eye(F) + U.T @ Dinv_U if F else None
            self._Dinv_U = Dinv_U
            self._W = W
        else:
            if self.K > 4000:
                raise SdpError("constraint system too large for dense fallback")
            M = self.dense_matrix()
            G = M @ M.T
            w, V = np.linalg.eigh(G)
            tol = max(1e-13 * max(w[-1], 1.0), 1e-300)
            inv = np.where(w > tol, 1.0 / np.maximum(w, tol), 0.0)
            self._pinv = (V, inv)
            null_mask = w <= tol
            if np.any(null_mask):
                self._null_left = V[:, null_mask]
            self._Dinv_U = None
            self._W = None

        # objective in vector form, with min-sense sign
        q = np.zeros(self.dimension)
        for i, j, v in problem.objective_matrix:
            p = pos_of[(int(i), int(j))]
            q[p] += v if i == j else math.sqrt(2.0) * v
        for idx, v in enumerate(problem.objective_free):
            q[self.P + idx] += v
        if problem.sense == "max":
            q = -q
        self.q = q
        self.has_objective = bool(np.any(q != 0.0))

    def dense_matrix(self) -> np.ndarray:
        M = np.zeros((self.K, self.dimension))
        M[self.rows_k, self.rows_p] = self.rows_w
        # rows may repeat positions in the generic case; accumulate properly
        if not self.orthogonal_rows:
            M = np.zeros((self.K, self.dimension))
            np.add.at(M, (self.rows_k, self.rows_p), self.rows_w)
        if self.F:
            M[:, self.P:] = self.U
        return M

    def constraint_values(self, z: np.ndarray) -> np.ndarray:
        vals = np.zeros(self.K)
        np.add.at(vals, self.rows_k, self.rows_w * z[self.rows_p])
        if self.F:
            vals += self.U @ z[self.P:]
        return vals

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dimension)
        np.add.at(out, self.rows_p, self.rows_w * y[self.rows_k])
        if self.F:
            out[self.P:] = self.U.T @ y
        return out

    def solve_normal(self, r: np.ndarray) -> np.ndarray:
        if self._pinv is not None:
            V, inv = self._pinv
            return V @ (inv * (V.T @ r))
        t = r / self.D
        if self.F:
            t = t - self._Dinv_U @ np.linalg.solve(self._W, self.U.T @ t)
        return t

    def project_affine(self, z: np.ndarray) -> np.ndarray:
        r = self.constraint_values(z) - self.b
        y = self.solve_normal(r)
        return z - self.adjoint(y)

    def svec(self, X: np.ndarray) -> np.ndarray:
        v = X[self.iu, self.ju].copy()
        v[self.off_mask] *= math.sqrt(2.0)
        return v

    def unsvec(self, v: np.ndarray) -> np.ndarray:
        X = np.zeros((self.N, self.N))
        vals = v.copy()
        vals[self.off_mask] /= math.sqrt(2.0)
        X[self.iu, self.ju] = vals
        X[self.ju, self.iu] = vals
        return X

    def project_cone(self, z: np.ndarray) -> np.ndarray:
        X = self.unsvec(z[: self.P])
        w, V = np.linalg.eigh(X)
        if w[0] < 0:
            w = np.clip(w, 0.0, None)
            X = (V * w) @ V.T
        out = z.copy()
        out[: self.P] = self.svec(X)
        return out


def residuals(problem: SdpProblem, sol: SdpSolution) -> Tuple[float, float, float]:
    """(primal, dual, psd) residuals of a solution against the problem data.

    Primal is the max absolute constraint violation, psd the magnitude of the
    most negative eigenvalue of X; the dual residual is the splitting-scheme
    value cached on the solution.
    """
    comp = _Compiled(problem)
    z = np.concatenate([comp.svec(np.asarray(sol.X, dtype=float)),
                        np.asarray(sol.free, dtype=float)])
    primal = float(np.max(np.abs(comp.constraint_values(z) - comp.b))) if comp.K else 0.0
    psd = max(0.0, -min_eigenvalue(np.asarray(sol.X, dtype=float)))
    return primal, float(sol.dual_residual), psd


def _objective_value(comp: _Compiled, problem: SdpProblem, z: np.ndarray) -> float:
    raw = float(comp.q @ z)
    return -raw if problem.sense == "max" else raw


def _try_farkas(comp: _Compiled, v: np.ndarray, opts: SolveOptions,
                pocs_iters: int = 3000) -> Optional[np.ndarray]:
    """Attempt an infeasibility certificate from the alternating gap.

    When the affine set and the cone do not intersect, pure alternating
    projection settles into a gap e = P_affine(z) - z with e in the row space
    of the constraints; mapping e back as e = M' y yields y with
    sum_k y_k A_k negative semidefinite-free ... specifically -y satisfies
    sum_k (-y_k) A_k >= 0 and b'(-y) < 0, the standard certificate.
    """
    z = comp.project_cone(v.copy())
    for _ in range(pocs_iters):
        z_aff = comp.project_affine(z)
        z_new = comp.project_cone(z_aff)
        if np.max(np.abs(z_new - z)) < 1e-15:
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
    S = comp.unsvec(comp.adjoint(y_hat)[: comp.P])
    if comp.F and np.max(np.abs(comp.adjoint(y_hat)[comp.P:])) > 1e-8 * (
        1.0 + np.linalg.norm(y_hat)
    ):
        return None
    lam_min = min_eigenvalue(S)
    bty = float(comp.b @ y_hat)
    scale = 1.0 + float(np.linalg.norm(S))
    if lam_min >= -1e-7 * scale and bty < -1e-9 * (1.0 + abs(bty)):
        return y_hat
    return None


def solve(problem: SdpProblem, opts: Optional[SolveOptions] = None) -> SdpSolution:
    """Run the splitting iteration and return the best iterate found.

    Status is `optimal` when primal and PSD residuals meet feas_tol (and, for
    problems with an objective, the objective has stalled), `inconclusive`
    at the iteration cap, and `infeasible_evidence` when a separating
    certificate y (sum y_k A_k PSD, b'y < 0) is verified.
    """
    opts = opts or SolveOptions()
    comp = _Compiled(problem)

    if comp._null_left is not None:
        # structurally dependent rows: inconsistent rhs is immediate evidence
        resid = comp._null_left.T @ comp.b
        if np.max(np.abs(resid)) > 1e-10 * (1.0 + np.linalg.norm(comp.b)):
            j = int(np.argmax(np.abs(resid)))
            u = comp._null_left[:, j]
            y_hat = -u * np.sign(float(u @ comp.b))
            return SdpSolution(
                X=np.zeros((comp.N, comp.N)),
                free=np.zeros(comp.F),
                objective_value=math.nan,
                primal_residual=math.inf,
                dual_residual=math.inf,
                psd_violation=0.0,
                status=INFEASIBLE_EVIDENCE,
                iterations=0,
                farkas=y_hat,
                message="inconsistent linear constraints",
            )

    rho = opts.penalty
    alpha = opts.over_relax
    scale_b = 1.0 + float(np.max(np.abs(comp.b))) if comp.K else 1.0
    q_step = comp.q / rho

    if opts.warm_start is not None and opts.warm_start.shape == (comp.dimension,):
        v = comp.project_cone(opts.warm_start.copy())
    else:
        v = np.zeros(comp.dimension)
    lam = np.zeros(comp.dimension)

    best_v = v.copy()
    best_prim = math.inf
    best_obj = math.nan
    prev_check_v = v.copy()
    obj_hist: List[float] = []
    status = INCONCLUSIVE
    it = 0
    farkas = None
    stall_counter = 0

    while it < opts.max_iter:
        it += 1
        w = comp.project_affine(v - lam - q_step)
        w_relaxed = alpha * w + (1.0 - alpha) * v
        v_new = comp.project_cone(w_relaxed + lam)
        lam = lam + w_relaxed - v_new
        v = v_new

        if it % opts.check_every == 0 or it == opts.max_iter:
            prim = (
                float(np.max(np.abs(comp.constraint_values(v) - comp.b)))
                if comp.K
                else 0.0
            )
            dual = rho * float(np.max(np.abs(v - prev_check_v))) / opts.check_every
            prev_check_v = v.copy()
            obj = _objective_value(comp, problem, v)
            if prim < best_prim:
                best_prim = prim
                best_v = v.copy()
                best_obj = obj
                stall_counter = 0
            else:
                stall_counter += 1
            obj_hist.append(obj)

            prim_ok = prim <= opts.feas_tol * scale_b
            dual_ok = dual <= opts.dual_tol_factor * opts.feas_tol * scale_b
            if comp.has_objective:
                window = opts.stall_window // opts.check_every + 1
                stalled = (
                    len(obj_hist) > window
                    and abs(obj_hist[-1] - obj_hist[-1 - window])
                    <= opts.stall_tol * (1.0 + abs(obj_hist[-1]))
                )
                if prim_ok and dual_ok and stalled:
                    best_v, best_prim, best_obj = v.copy(), prim, obj
                    status = OPTIMAL
                    break
            else:
                if prim_ok:
                    best_v, best_prim, best_obj = v.copy(), prim, obj
                    status = OPTIMAL
                    break
                if stall_counter * opts.check_every >= 4000 and best_prim > 100 * opts.feas_tol * scale_b:
                    cand = _try_farkas(comp, v, opts)
                    if cand is not None:
                        farkas = cand
                        status = INFEASIBLE_EVIDENCE
                        break
                    stall_counter = 0

    if status == INCONCLUSIVE and not comp.has_objective and comp.K:
        cand = _try_farkas(comp, v, opts)
        if cand is not None:
            farkas = cand
            status = INFEASIBLE_EVIDENCE

    X = comp.unsvec(best_v[: comp.P])
    free = best_v[comp.P:].copy()
    psd = max(0.0, -min_eigenvalue(X)) if comp.N else 0.0
    dual_final = rho * float(np.max(np.abs(v - best_v))) if it else 0.0
    return SdpSolution(
        X=X,
        free=free,
        objective_value=best_obj,
        primal_residual=best_prim if comp.K else 0.0,
        dual_residual=dual_final,
        psd_violation=psd,
        status=status,
        iterations=it,
        farkas=farkas,
    )


# ---------------------------------------------------------------------------
# plain-text dump / load for offline debugging


def dump_problem(problem: SdpProblem) -> str:
    lines = [f"sdp {problem.block_size} {problem.num_free} {len(problem.constraints)}",
             f"sense {problem.sense}"]
    for i, j, v in problem.objective_matrix:
        lines.append(f"obj m {i} {j} {v!r}")
    for idx, v in enumerate(problem.objective_free):
        if v:
            lines.append(f"obj f {idx} {v!r}")
    for k, con in enumerate(problem.constraints):
        for i, j, v in con.matrix_entries:
            lines.append(f"{k} {i} {j} {v!r}")
        for idx, v in enumerate(con.free_coeffs):
            if v:
                lines.append(f"free {k} {idx} {v!r}")
        lines.append(f"rhs {k} {con.rhs!r}")
    return "\n".join(lines) + "\n"


def load_problem(text: str) -> SdpProblem:
    header = None
    sense = "min"
    obj_m: List[Tuple[int, int, float]] = []
    obj_f: Dict[int, float] = {}
    mat: Dict[int, List[Tuple[int, int, float]]] = {}
    fre: Dict[int, Dict[int, float]] = {}
    rhs: Dict[int, float] = {}
    for raw in text.splitlines():
        tok = raw.split()
        if not tok or tok[0].startswith("#"):
            continue
        if tok[0] == "sdp":
            header = (int(tok[1]), int(tok[2]), int(tok[3]))
        elif tok[0] == "sense":
            sense = tok[1]
        elif tok[0] == "obj":
            if tok[1] == "m":
                obj_m.append((int(tok[2]), int(tok[3]), float(tok[4])))
            else:
                obj_f[int(tok[2])] = float(tok[3])
        elif tok[0] == "free":
            fre.setdefault(int(tok[1]), {})[int(tok[2])] = float(tok[3])
        elif tok[0] == "rhs":
            rhs[int(tok[1])] = float(tok[2])
        else:
            k = int(tok[0])
            mat.setdefault(k, []).append((int(tok[1]), int(tok[2]), float(tok[3])))
    if header is None:
        raise SdpError("missing sdp header line")
    N, F, K = header
    constraints = []
    for k in range(K):
        coeffs = [0.0] * F
        for idx, v in fre.get(k, {}).items():
            coeffs[idx] = v
        constraints.append(
            SdpConstraint(tuple(mat.get(k, [])), tuple(coeffs), rhs.get(k, 0.0))
        )
    objective_free = tuple(obj_f.get(i, 0.0) for i in range(F))
    return SdpProblem(N, F, constraints, tuple(obj_m), objective_free, sense)
