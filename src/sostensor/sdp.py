"""Small-scale semidefinite solver: one PSD block plus free scalars.

Solves
    min / max   <C, X> + d' u
    subject to  <A_k, X> + c_k' u = b_k,   k = 1..K,
                X symmetric positive semidefinite,  u free,

by operator splitting: each sweep alternates (a) projection of the matrix
iterate onto the PSD cone by eigenvalue clamping, (b) least-squares projection
onto the affine constraint set, and (c) a linear objective tilt folded into
the affine step.  Everything is deterministic for fixed inputs and options.

The iterate is z = [vec(X); u] with X the full symmetric N x N matrix.  Under
the Frobenius inner product vec is an isometry of the symmetric matrices (as
svec is), so no packing happens per sweep.  The constraints are compiled
once into a `ConstraintMap`.  When their rows touch pairwise disjoint matrix
positions, as Gram coefficient-matching systems do, the map is one row label
per position, the normal matrix is diagonal plus a rank-F correction from the
free columns, and the affine projection is one bincount and one gather.
Generic (small) problems use a dense pseudo-inverse instead.
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


@dataclass(frozen=True, eq=False)
class ConstraintMap:
    """The map X -> (<A_k, X>)_k over the N*N positions of X, row-major.

    When every position feeds at most one row, `label[p]` is the row fed by
    position p (`num_rows` when it feeds none) and `weight[p]` the entry of
    that A_k at p (None: all ones).  Both triangles of each symmetric A_k are
    stored, so row norms are Frobenius norms.  Otherwise `rows` holds the
    dense num_rows x N*N matrix.
    """

    size: int
    num_rows: int
    label: Optional[np.ndarray] = None
    weight: Optional[np.ndarray] = None
    rows: Optional[np.ndarray] = None

    @classmethod
    def from_entries(cls, size: int, num_rows: int, k, i, j, v) -> "ConstraintMap":
        """Compile the upper-triangle entries (k, i, j, v), i <= j, of the A_k."""
        k, i, j = (np.asarray(a, dtype=np.intp) for a in (k, i, j))
        v = np.asarray(v, dtype=float)
        upper, lower = i * size + j, j * size + i
        if np.all(np.bincount(upper, minlength=size * size) <= 1):
            label = np.full(size * size, num_rows, dtype=np.intp)
            weight = np.zeros(size * size)
            label[upper] = k
            label[lower] = k
            weight[upper] = v
            weight[lower] = v
            return cls(size, num_rows, label=label, weight=weight)
        rows = np.zeros((num_rows, size * size))
        np.add.at(rows, (k, upper), v)
        off = i != j
        np.add.at(rows, (k[off], lower[off]), v[off])
        return cls(size, num_rows, rows=rows)

    def values(self, x: np.ndarray) -> np.ndarray:
        """(<A_k, X>)_k for x = vec(X)."""
        if self.rows is not None:
            return self.rows @ x
        w = x if self.weight is None else self.weight * x
        return np.bincount(self.label, w, self.num_rows + 1)[: self.num_rows]

    def dense(self) -> np.ndarray:
        if self.rows is not None:
            return self.rows
        M = np.zeros((self.num_rows + 1, self.size * self.size))
        M[self.label, np.arange(self.size * self.size)] = (
            1.0 if self.weight is None else self.weight
        )
        return M[: self.num_rows]

    def entries(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero upper-triangle entries (k, i, j, v), ordered by row k."""
        iu, ju = np.triu_indices(self.size)
        pos = iu * self.size + ju
        if self.rows is not None:
            k, c = np.nonzero(self.rows[:, pos])
            return k, iu[c], ju[c], self.rows[k, pos[c]]
        lab = self.label[pos]
        c = np.flatnonzero(lab < self.num_rows)
        c = c[np.argsort(lab[c], kind="stable")]
        v = np.ones(len(c)) if self.weight is None else self.weight[pos[c]]
        return lab[c], iu[c], ju[c], v


@dataclass
class SdpProblem:
    """Constraints given as `SdpConstraint`s, or already compiled.

    A constraint list is compiled on construction into `operator` (the
    `ConstraintMap` of the A_k), `rhs` (the b_k) and `free_matrix` (the c_k
    as rows, K x num_free).  Callers that solve many problems over one map
    pass those three directly and leave `constraints` empty.
    """

    block_size: int
    num_free: int
    constraints: List[SdpConstraint] = field(default_factory=list)
    objective_matrix: Tuple[Tuple[int, int, float], ...] = ()
    objective_free: Tuple[float, ...] = ()
    sense: str = "min"
    operator: Optional[ConstraintMap] = None
    rhs: Optional[np.ndarray] = None
    free_matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise SdpError(f"bad sense {self.sense!r}")
        N, F = self.block_size, self.num_free
        if self.operator is None:
            ks, iis, jjs, vs = [], [], [], []
            for k, con in enumerate(self.constraints):
                for i, j, v in con.matrix_entries:
                    if not (0 <= i <= j < N):
                        raise SdpError(f"matrix entry ({i},{j}) outside upper triangle")
                    ks.append(k)
                    iis.append(i)
                    jjs.append(j)
                    vs.append(v)
                if len(con.free_coeffs) != F:
                    raise SdpError("free coefficient row has wrong length")
            K = len(self.constraints)
            self.operator = ConstraintMap.from_entries(N, K, ks, iis, jjs, vs)
            self.rhs = np.array([float(c.rhs) for c in self.constraints])
            self.free_matrix = np.array(
                [c.free_coeffs for c in self.constraints], dtype=float
            ).reshape(K, F)
            return
        if self.constraints:
            raise SdpError("give constraints or a compiled operator, not both")
        K = self.operator.num_rows
        if self.operator.size != N:
            raise SdpError("operator size differs from the block size")
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.rhs.shape != (K,):
            raise SdpError("right-hand side has wrong length")
        if self.free_matrix is None:
            self.free_matrix = np.zeros((K, F))
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
    message: str = ""


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
    """The problem's arrays in the iterate layout z = [vec(X); u].

    With disjoint rows the row-indexed arrays carry one extra row K that
    collects the positions outside every constraint: its residual is
    always 0 and its normal-matrix entry infinite, so it never moves them.
    """

    def __init__(self, problem: SdpProblem):
        N, F = problem.block_size, problem.num_free
        op = problem.operator
        K = op.num_rows
        self.N, self.F, self.K, self.NN = N, F, K, N * N
        self.dimension = N * N + F
        self.op = op
        self.b = problem.rhs
        self.U = problem.free_matrix
        self._dense: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._null_left: Optional[np.ndarray] = None

        D = None
        if op.label is not None:
            sq = None if op.weight is None else op.weight ** 2
            D = np.bincount(op.label, sq, K + 1)[:K]
        if D is not None and np.all(D > 0):
            self._D1 = np.append(D, math.inf)
            self._b1 = np.append(self.b, 0.0)
            self._U1 = np.vstack([self.U, np.zeros((1, F))])
            if F:
                # (A A' + U U')^-1 = D^-1 - D^-1 U W^-1 U' D^-1, W = I + U' D^-1 U
                Dinv_U = self.U / D[:, None]
                W = np.eye(F) + self.U.T @ Dinv_U
                self._corr1 = np.vstack([Dinv_U @ np.linalg.inv(W), np.zeros((1, F))])
        else:
            if K > 4000:
                raise SdpError("constraint system too large for dense fallback")
            M = np.hstack([op.dense(), self.U])
            w, V = np.linalg.eigh(M @ M.T)
            tol = max(1e-13 * max(w[-1], 1.0), 1e-300)
            inv = np.where(w > tol, 1.0 / np.maximum(w, tol), 0.0)
            Ginv = (V * inv) @ V.T
            self._dense = (M, Ginv, M.T @ Ginv)
            null_mask = w <= tol
            if np.any(null_mask):
                self._null_left = V[:, null_mask]

        # objective in vector form, with min-sense sign
        q = np.zeros(self.dimension)
        for i, j, v in problem.objective_matrix:
            q[i * N + j] += v
            if i != j:
                q[j * N + i] += v
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

    # disjoint rows: normal solve and adjoint on the K+1 rows
    def _normal1(self, r: np.ndarray) -> np.ndarray:
        r /= self._D1
        if self.F:
            r -= self._corr1 @ (self._U1.T @ r)
        return r

    def _adjoint1(self, y: np.ndarray) -> np.ndarray:
        g = y[self.op.label]
        if self.op.weight is not None:
            g *= self.op.weight
        if self.F:
            return np.concatenate([g, self._U1.T @ y])
        return g

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        if self._dense is not None:
            return self._dense[0].T @ y
        return self._adjoint1(np.append(y, 0.0))

    def solve_normal(self, r: np.ndarray) -> np.ndarray:
        if self._dense is not None:
            return self._dense[1] @ r
        return self._normal1(np.append(r, 0.0))[: self.K]

    def project_affine(self, z: np.ndarray) -> np.ndarray:
        if self._dense is not None:
            M, _, H = self._dense
            return z - H @ (M @ z - self.b)
        X = z[: self.NN]
        r = np.bincount(
            self.op.label, X if self.op.weight is None else self.op.weight * X, self.K + 1
        )
        if self.F:
            r += self._U1 @ z[self.NN:]
        r -= self._b1
        return z - self._adjoint1(self._normal1(r))

    def project_cone(self, z: np.ndarray) -> np.ndarray:
        """z itself when its matrix part is PSD, else a new clamped iterate."""
        X = z[: self.NN].reshape(self.N, self.N)
        Y = _psd_part(X)
        if Y is X:
            return z
        if not self.F:
            return Y.ravel()
        return np.concatenate([Y.ravel(), z[self.NN:]])


def residuals(problem: SdpProblem, sol: SdpSolution) -> Tuple[float, float, float]:
    """(primal, dual, psd) residuals of a solution against the problem data.

    Primal is the max absolute constraint violation, psd the magnitude of the
    most negative eigenvalue of X; the dual residual is the splitting-scheme
    value cached on the solution.
    """
    X = np.asarray(sol.X, dtype=float)
    vals = problem.operator.values(X.ravel()) + problem.free_matrix @ np.asarray(
        sol.free, dtype=float
    )
    primal = float(np.max(np.abs(vals - problem.rhs))) if len(vals) else 0.0
    psd = max(0.0, -min_eigenvalue(X))
    return primal, float(sol.dual_residual), psd


def _objective_value(comp: _Compiled, problem: SdpProblem, z: np.ndarray) -> float:
    raw = float(comp.q @ z)
    return -raw if problem.sense == "max" else raw


# alternating-projection sweeps that `_try_farkas` runs to open the gap
POCS_SWEEPS = 3000


def _try_farkas(comp: _Compiled, v: np.ndarray, opts: SolveOptions) -> Optional[np.ndarray]:
    """Attempt an infeasibility certificate from the alternating gap.

    When the affine set and the cone do not intersect, pure alternating
    projection settles into a gap e = P_affine(z) - z with e in the row space
    of the constraints; mapping e back as e = M' y yields y with
    sum_k y_k A_k negative semidefinite-free ... specifically -y satisfies
    sum_k (-y_k) A_k >= 0 and b'(-y) < 0, the standard certificate.
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

    if comp._null_left is not None:
        # structurally dependent rows: inconsistent rhs is immediate evidence
        resid = comp._null_left.T @ comp.b
        if np.max(np.abs(resid)) > 1e-10 * (1.0 + np.linalg.norm(comp.b)):
            j = int(np.argmax(np.abs(resid)))
            u = comp._null_left[:, j]
            y_hat = -u * np.sign(float(u @ comp.b))
            return SdpSolution(
                X=np.zeros((N, N)),
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

    scale_b = 1.0 + float(np.max(np.abs(comp.b))) if comp.K else 1.0
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
            prim = (
                float(np.max(np.abs(comp.constraint_values(v) - comp.b)))
                if comp.K
                else 0.0
            )
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

    if status == INCONCLUSIVE and not comp.has_objective and comp.K:
        cand = _try_farkas(comp, v, opts)
        if cand is not None:
            farkas = cand
            status = INFEASIBLE_EVIDENCE

    X = best_v[:NN].reshape(N, N).copy()
    free = best_v[NN:].copy()
    psd = max(0.0, -min_eigenvalue(X)) if N else 0.0
    dual_final = PENALTY * comp.max_abs(v - best_v) if it else 0.0
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
    K = problem.operator.num_rows
    lines = [f"sdp {problem.block_size} {problem.num_free} {K}",
             f"sense {problem.sense}"]
    for i, j, v in problem.objective_matrix:
        lines.append(f"obj m {i} {j} {v!r}")
    for idx, v in enumerate(problem.objective_free):
        if v:
            lines.append(f"obj f {idx} {v!r}")
    ks, iis, jjs, vs = problem.operator.entries()
    starts = np.searchsorted(ks, np.arange(K + 1))
    for k in range(K):
        for e in range(starts[k], starts[k + 1]):
            lines.append(f"{k} {int(iis[e])} {int(jjs[e])} {float(vs[e])!r}")
        for idx, v in enumerate(problem.free_matrix[k]):
            if v:
                lines.append(f"free {k} {idx} {float(v)!r}")
        lines.append(f"rhs {k} {float(problem.rhs[k])!r}")
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
