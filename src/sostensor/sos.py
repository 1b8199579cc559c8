"""Sum-of-squares certification through Gram matrix feasibility.

A degree-m form f (m even) is a sum of squares of degree-m/2 forms exactly
when f(x) = z(x)' Q z(x) for some PSD matrix Q over the full degree-m/2
monomial basis z.  Matching coefficients turns the search for Q into a
semidefinite feasibility problem with one linear equation per degree-m
monomial; the equations touch disjoint Gram positions, which the built-in
solver exploits.

Certified Gram matrices are pushed to an extreme point of their feasibility
region by deterministic rank reduction, which caps the number of extracted
squares at the universal bound (sqrt(1+8a)-1)/2 with a the number of
degree-m monomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from . import sdp
from .descent import sphere_minimize
from .structured import delta_index_set, detect_extended_z, row_tables
from .tensor import (
    Exponent,
    HomogeneousPolynomial,
    Number,
    SymmetricTensor,
    TensorError,
    from_polynomial,
)


class SosError(ValueError):
    pass


# A certificate is accepted when every coefficient of z' Q z is within
# CERTIFICATE_TOL * (1 + max |coefficient|) of the form's.  The Gram SDP
# solves stop at half that residual (see `_certify_monolithic`).
CERTIFICATE_TOL = 1e-6


def _certificate_tolerance(f: HomogeneousPolynomial) -> float:
    return CERTIFICATE_TOL * (1.0 + f.max_abs_coefficient())


# ---------------------------------------------------------------------------
# monomial basis and Gram systems


@dataclass(frozen=True)
class MonomialBasis:
    """All exponent vectors of a fixed total degree, graded-lex ordered."""

    dim: int
    degree: int
    exponents: Tuple[Exponent, ...]

    def __len__(self) -> int:
        return len(self.exponents)

    @cached_property
    def _positions(self) -> Dict[Exponent, int]:
        return {alpha: p for p, alpha in enumerate(self.exponents)}

    def index_of(self, alpha: Exponent) -> int:
        """Position of `alpha` in the basis; ValueError if it is not there."""
        try:
            return self._positions[tuple(alpha)]
        except KeyError:
            raise ValueError(f"exponent {tuple(alpha)} is not in the basis") from None

    def evaluate(self, x: Sequence[float]) -> np.ndarray:
        out = np.ones(len(self.exponents))
        for p, alpha in enumerate(self.exponents):
            v = 1.0
            for i, e in enumerate(alpha):
                if e:
                    v *= float(x[i]) ** e
            out[p] = v
        return out


@lru_cache(maxsize=None)
def monomial_basis(dim: int, degree: int) -> MonomialBasis:
    """Degree-`degree` monomials in `dim` variables, lexicographically
    descending; the size is C(dim+degree-1, degree)."""
    if dim < 1 or degree < 0:
        raise SosError("dimension must be >= 1 and degree >= 0")
    exps = []
    for combo in combinations_with_replacement(range(dim), degree):
        alpha = [0] * dim
        for i in combo:
            alpha[i] += 1
        exps.append(tuple(alpha))
    exps.sort(reverse=True)
    return MonomialBasis(dim, degree, tuple(exps))


@dataclass(frozen=True)
class GramSystem:
    """Coefficient-matching equations <E_alpha, Q> = f_alpha.

    Gram position (p, q) of the N x N matrix Q feeds the coefficient of
    alpha = beta_p + beta_q, so <E_alpha, Q> sums Q over the positions
    labelled alpha.  `labels` holds that label for every position and is the
    one place that knows the system's structure: coefficient values,
    the solver's constraint map and the congruences V' E_alpha V of rank
    reduction and facial reduction are all read from it.  It is built on
    first use, once per (dim, order).
    """

    basis: MonomialBasis
    alphas: Tuple[Exponent, ...]

    @property
    def num_constraints(self) -> int:
        return len(self.alphas)

    def rhs(self, f: HomogeneousPolynomial) -> np.ndarray:
        return np.array([float(f.coefficient(a)) for a in self.alphas])

    @cached_property
    def labels(self) -> np.ndarray:
        """Index into `alphas` of beta_p + beta_q, at position p * N + q."""
        E = np.array(self.basis.exponents, dtype=np.int16)
        sums = (E[:, None, :] + E[None, :, :]).reshape(len(E) ** 2, -1)
        # group equal rows by their bytes, then name each group's alpha
        rows = sums.view(np.dtype((np.void, sums.itemsize * sums.shape[1]))).ravel()
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        if len(first) != self.num_constraints:
            raise SosError("internal error: incomplete constraint enumeration")
        index = {alpha: k for k, alpha in enumerate(self.alphas)}
        named = np.array([index[tuple(a)] for a in sums[first].tolist()], dtype=np.intp)
        return named[inverse.ravel()]

    @cached_property
    def operator(self) -> sdp.ConstraintMap:
        return sdp.ConstraintMap(len(self.basis), self.num_constraints, label=self.labels)

    @cached_property
    def _segments(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions (p, q) grouped by label, and where each group starts."""
        order = np.argsort(self.labels, kind="stable")
        starts = np.searchsorted(self.labels[order], np.arange(self.num_constraints))
        N = len(self.basis)
        return order // N, order % N, starts

    @cached_property
    def pairs(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Per alpha, the basis index pairs (p, q), p <= q, feeding it."""
        p, q, starts = self._segments
        bounds = list(starts) + [len(p)]
        return tuple(
            tuple((int(a), int(b)) for a, b in zip(p[s:e], q[s:e]) if a <= b)
            for s, e in zip(bounds[:-1], bounds[1:])
        )

    def congruence(self, V: np.ndarray) -> np.ndarray:
        """Upper triangles of V' E_alpha V, one row per alpha.

        Column c holds entry (iu[c], ju[c]) with iu, ju = np.triu_indices(r)
        for V of shape (N, r): a segment sum, by label, of the rows of
        V (x) V over the Gram positions.
        """
        p, q, starts = self._segments
        iu, ju = np.triu_indices(V.shape[1])
        return np.add.reduceat(V[p][:, iu] * V[q][:, ju], starts, axis=0)


@lru_cache(maxsize=None)
def gram_system(dim: int, order: int) -> GramSystem:
    if order % 2 != 0:
        raise SosError("Gram systems need even order")
    # every degree-m exponent is a sum of two degree-m/2 ones
    return GramSystem(monomial_basis(dim, order // 2), monomial_basis(dim, order).exponents)


def gram_to_polynomial(Q: np.ndarray, system: GramSystem) -> HomogeneousPolynomial:
    """Coefficients of z' Q z over the system's monomial list."""
    vals = _constraint_values(Q, system)
    terms = {system.alphas[k]: float(vals[k]) for k in np.flatnonzero(vals)}
    return HomogeneousPolynomial(2 * system.basis.degree, system.basis.dim, terms)


def _constraint_values(Q: np.ndarray, system: GramSystem) -> np.ndarray:
    """<E_alpha, Q> for every alpha: the coefficients of z' Q z."""
    return system.operator.values(np.asarray(Q, dtype=float).ravel())


# ---------------------------------------------------------------------------
# certificates


@dataclass
class SosCertificate:
    basis: MonomialBasis
    gram: np.ndarray
    squares: List[HomogeneousPolynomial]
    rank_estimate: int
    residual: float
    block_structure: Optional[List[Tuple[int, ...]]] = None

    def reconstruction(self) -> HomogeneousPolynomial:
        """Sum of the stored squares, for external verification."""
        out = HomogeneousPolynomial(2 * self.basis.degree, self.basis.dim, {})
        for s in self.squares:
            prod: Dict[Exponent, Number] = {}
            items = list(s.terms.items())
            for a1, c1 in items:
                for a2, c2 in items:
                    key = tuple(x + y for x, y in zip(a1, a2))
                    prod[key] = prod.get(key, 0) + c1 * c2
            out = out + HomogeneousPolynomial(out.degree, out.dim, prod)
        return out

    def to_dict(self) -> dict:
        iu = np.triu_indices(len(self.basis))
        return {
            "basis": [list(a) for a in self.basis.exponents],
            "gram_lower_triangle": [float(v) for v in self.gram.T[iu]],
            "squares": [
                {"coefficients": [[list(a), float(c)] for a, c in s.terms.items()]}
                for s in self.squares
            ],
            "rank_estimate": self.rank_estimate,
            "residual": self.residual,
            "blocks": [list(b) for b in self.block_structure]
            if self.block_structure
            else None,
        }


@dataclass
class NotCertified:
    status: str  # "not_sos" | "inconclusive"
    witness_point: Optional[np.ndarray] = None
    witness_value: Optional[float] = None
    farkas: Optional[np.ndarray] = None
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witness_point": None
            if self.witness_point is None
            else [float(v) for v in self.witness_point],
            "witness_value": self.witness_value,
            "message": self.message,
        }


@dataclass
class CertifyOptions:
    blockwise: str = "auto"  # auto | on | off
    max_iter: int = 200_000
    rank_threshold: float = 1e-7
    point_scan: bool = True
    facial_reduction: bool = True
    seed: int = 20240801


# ---------------------------------------------------------------------------
# universal rank bound and exponent bound


def lambda_bound(order: int, dim: int) -> float:
    """Universal cap on the number of squares: (sqrt(1+8a)-1)/2 with
    a = C(dim+order-1, order).  Exact (often an integer) when 1+8a is a
    perfect square; equals dim when order = 2."""
    if order % 2 != 0 or dim < 1:
        raise SosError("lambda_bound needs even order and dim >= 1")
    a = math.comb(dim + order - 1, order)
    disc = 1 + 8 * a
    root = math.isqrt(disc)
    if root * root == disc:
        return (root - 1) / 2.0
    return (math.sqrt(disc) - 1.0) / 2.0


def bd_exponent(A: SymmetricTensor) -> int:
    """Smallest e bounding every variable exponent of the induced form."""
    f = A.to_polynomial()
    if not f.terms:
        return 0
    return max(max(alpha) for alpha in f.terms)


@dataclass(frozen=True)
class RankBounds:
    lam: float
    bd: Optional[int]
    observed: int


def sos_rank_bounds(A: SymmetricTensor, cert: SosCertificate) -> RankBounds:
    """Observed certificate rank against the applicable upper bounds.

    The bounded-exponent bound SOSrank <= n applies when n >= 3, the order m
    and exponent bound e are even, m >= 4, e < m, and either (n >= 4 and
    m >= en-2) or (n = 3 and (m = 4 or m >= 3e-4)); it sharpens to exactly 1
    when m = en.  The e < m restriction keeps the bound to forms where the
    exponent cap is informative: without pure m-th powers the coefficient
    equations force every high-exponent basis monomial out of the Gram
    matrix, so any feasible certificate meets the bound.  (With e = m the
    bound speaks about the minimal decomposition, which this toolkit does
    not search for.)  A violation signals an extraction bug and raises.
    """
    m, n = A.order, A.dim
    lam = lambda_bound(m, n)
    e = bd_exponent(A)
    bd: Optional[int] = None
    if n >= 3 and m >= 4 and m % 2 == 0 and e % 2 == 0 and 0 < e < m:
        hyp = (n >= 4 and m >= e * n - 2) or (n == 3 and (m == 4 or m >= 3 * e - 4))
        if hyp:
            bd = 1 if m == e * n else n
    observed = cert.rank_estimate
    if observed > math.ceil(lam):
        raise SosError(
            f"certificate rank {observed} exceeds universal bound {lam:.4f}"
        )
    if bd is not None and observed > bd:
        raise SosError(f"certificate rank {observed} exceeds exponent bound {bd}")
    return RankBounds(lam, bd, observed)


# ---------------------------------------------------------------------------
# closed-form pieces


def f_hat(A: SymmetricTensor) -> HomogeneousPolynomial:
    """Diagonal terms minus absolute values of the sign-sensitive mixed terms.

    Keeps each x_i^m coefficient, replaces every mixed term whose coefficient
    is negative or whose exponent vector has an odd component by minus its
    absolute coefficient, and drops the remaining (even, nonnegative) mixed
    terms.  Nonnegativity of this companion form implies the original form is
    a sum of squares.
    """
    if A.order % 2 != 0:
        raise SosError("f_hat needs even order")
    f = A.to_polynomial()
    delta = delta_index_set(A)
    terms: Dict[Exponent, Number] = {}
    for alpha, c in f.terms.items():
        if max(alpha) == A.order:
            terms[alpha] = c
        elif alpha in delta:
            terms[alpha] = -abs(c)
    return HomogeneousPolynomial(A.order, A.dim, terms)


def single_term_mu0(b: Sequence[float], a: Sequence[int]) -> float:
    """Critical coefficient 2d * prod over a_i != 0 of (b_i / a_i)^(a_i/2d)."""
    d2 = sum(a)
    out = float(d2)
    for bi, ai in zip(b, a):
        if ai:
            if bi < 0:
                return -math.inf
            out *= (bi / ai) ** (ai / d2)
    return out


def single_mixed_term_sos(
    b: Sequence[float], a: Sequence[int], mu: float
) -> bool:
    """Decide whether b_1 x_1^{2d} + ... + b_n x_n^{2d} - mu x^a is SOS.

    With mu0 the critical coefficient, the form is a sum of squares exactly
    when |mu| <= mu0, or when mu < mu0 and every exponent a_i is even (then
    x^a is itself a square and arbitrarily negative mu is harmless).
    """
    if any(v < 0 for v in b):
        raise SosError("diagonal coefficients must be nonnegative")
    total = sum(a)
    if total % 2 != 0:
        raise SosError("total degree of the mixed exponent must be even")
    mu0 = single_term_mu0(b, a)
    if all(ai % 2 == 0 for ai in a):
        return mu <= mu0
    return abs(mu) <= mu0


def max_diagonal_shift_single_term(
    b: Sequence[float], a: Sequence[int], coeff: float, tol: float = 1e-13
) -> float:
    """Largest r with sum_i (b_i - r) x_i^{2d} + coeff * x^a a sum of squares.

    Used for eigenvalue blocks carrying one mixed term.  For an even exponent
    with nonnegative coefficient the answer is min b_i; otherwise r solves
    mu0(b - r) = |coeff| by bisection (the critical coefficient is strictly
    decreasing in r), capped by min b_i over the block.
    """
    bs = [float(v) for v in b]
    cap = min(bs)
    if coeff == 0:
        return cap
    if all(ai % 2 == 0 for ai in a) and coeff >= 0:
        return cap
    target = abs(float(coeff))
    supp = [i for i, ai in enumerate(a) if ai]
    cap_supp = min(bs[i] for i in supp)
    lo = cap_supp - target - 1.0
    while single_term_mu0([bi - lo for bi in bs], a) < target:
        lo = cap_supp - 2.0 * (cap_supp - lo)
    hi = cap_supp
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if single_term_mu0([bi - mid for bi in bs], a) >= target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * (1.0 + abs(hi)):
            break
    return min(cap, lo)


def gershgorin_lower_bound(A: SymmetricTensor) -> float:
    """min over rows of (diagonal entry - sum of off-row absolute entries).

    Every H-eigenvalue is at least this value, and the shifted form
    f - bound * sum x_i^m is diagonally dominated, hence itself a sum of
    squares for even order.
    """
    offsums = row_tables(A).absolute_offsum
    out = math.inf
    for i in range(A.dim):
        out = min(out, float(A.diagonal_entry(i)) - float(offsums[i]))
    return out if A.dim else 0.0


# ---------------------------------------------------------------------------
# sampling for negative points (infeasibility witnesses)


def _negative_point_scan(
    f: HomogeneousPolynomial,
    seed: int,
    restarts: int = 40,
    iters: int = 200,
    threshold: float = -1e-9,
) -> Optional[Tuple[np.ndarray, float]]:
    """Cheap multistart descent looking for a strictly negative value.

    Success proves the form is not PSD (hence not SOS); failure proves
    nothing.  Points are normalized to the unit m-norm sphere.
    """
    scale = 1.0 + f.max_abs_coefficient()
    cut = threshold * scale
    res = sphere_minimize(
        f, seed=seed, restarts=restarts, iters=iters, stop_below=cut
    )
    if res.value < cut:
        return res.point, res.value
    return None


# ---------------------------------------------------------------------------
# extreme-point rank reduction


def reduce_to_extreme(
    Q: np.ndarray,
    system: GramSystem,
    rank_eps: float = 1e-8,
    null_eps: float = 1e-8,
    max_rounds: Optional[int] = None,
) -> np.ndarray:
    """Walk a feasible Gram matrix to an extreme point of its spectrahedron.

    While the constraint map restricted to symmetric perturbations supported
    on range(Q) has a nontrivial null direction S, move Q along V S V' until
    a nonzero eigenvalue hits zero; constraints are preserved exactly and the
    rank drops.  At an extreme point the restricted map is injective, so
    rank r obeys r(r+1)/2 <= number of constraints, which is the universal
    square-count bound.  Steps whose numerical constraint drift exceeds a
    tight guard are rolled back, so the output never certifies worse than the
    input.
    """
    N = Q.shape[0]
    rounds = max_rounds if max_rounds is not None else N + 1
    Q = 0.5 * (Q + Q.T)
    vals_ref = _constraint_values(Q, system)
    drift_guard = 1e-9 * (1.0 + float(np.max(np.abs(vals_ref))))
    for _ in range(rounds):
        w, V = np.linalg.eigh(Q)
        wmax = max(float(w[-1]), 0.0)
        keep = w > rank_eps * max(wmax, 1e-30)
        r = int(np.count_nonzero(keep))
        if r <= 1:
            break
        Vr = V[:, keep]
        lam = w[keep]
        # constraint map on the reduced space, rows indexed by alpha; the
        # columns pair diagonal entries with S_pp and off-diagonals with S_pq
        # (coefficient 2 in G), so a null vector fills S as is
        cols = r * (r + 1) // 2
        iu, ju = np.triu_indices(r)
        G = system.congruence(Vr) * np.where(iu == ju, 1.0, 2.0)
        _, sv, VT = np.linalg.svd(G, full_matrices=True)
        if cols <= len(sv) and sv[min(cols, len(sv)) - 1] > null_eps * max(
            1.0, sv[0] if len(sv) else 1.0
        ):
            break  # injective: extreme point reached
        S = np.zeros((r, r))
        S[iu, ju] = VT[-1]
        S[ju, iu] = VT[-1]
        # boundary step: largest |t| with diag(lam) + t S still PSD
        half = 1.0 / np.sqrt(lam)
        Msym = (half[:, None] * S) * half[None, :]
        Msym = 0.5 * (Msym + Msym.T)
        ew = np.linalg.eigvalsh(Msym)
        t_pos = math.inf if ew[0] >= -1e-300 else 1.0 / (-ew[0])
        t_neg = math.inf if ew[-1] <= 1e-300 else 1.0 / ew[-1]
        if not math.isfinite(t_pos) and not math.isfinite(t_neg):
            break  # flat direction; constraints redundant, nothing to gain
        t = t_pos if t_pos <= t_neg else -t_neg
        Q_new = (Vr * lam) @ Vr.T + t * (Vr @ S @ Vr.T)
        Q_new = 0.5 * (Q_new + Q_new.T)
        wn = np.linalg.eigvalsh(Q_new)
        if wn[0] < -1e-7 * max(1.0, wn[-1]):
            break  # numerical trouble; keep the previous iterate
        Q_new = sdp.psd_project(Q_new)
        drift = float(
            np.max(np.abs(_constraint_values(Q_new, system) - vals_ref))
        )
        if drift > drift_guard:
            break  # near-null step bent the constraints; keep the iterate
        Q = Q_new
    return Q


def extract_sos_terms(
    Q: np.ndarray, basis: MonomialBasis, rank_threshold: float = 1e-7
) -> Tuple[List[HomogeneousPolynomial], int]:
    """Eigen-split z'Qz into squares; the count is the numerical rank."""
    Qs = 0.5 * (np.asarray(Q, dtype=float) + np.asarray(Q, dtype=float).T)
    w, V = np.linalg.eigh(Qs)
    wmax = max(float(w[-1]), 0.0)
    squares: List[HomogeneousPolynomial] = []
    for lam, vec in sorted(zip(w, V.T), key=lambda t: -t[0]):
        if lam <= rank_threshold * max(wmax, 1e-30):
            continue
        root = math.sqrt(float(lam))
        terms = {
            alpha: root * float(c)
            for alpha, c in zip(basis.exponents, vec)
            if c != 0.0
        }
        squares.append(HomogeneousPolynomial(basis.degree, basis.dim, terms))
    return squares, len(squares)


# ---------------------------------------------------------------------------
# main certification entry point


def certify_sos(
    A: SymmetricTensor, options: Optional[CertifyOptions] = None
) -> Union[SosCertificate, NotCertified]:
    """Search for a PSD Gram matrix reproducing the induced form of A.

    Even order is required.  When the tensor carries extended-Z block
    structure the blocks are certified independently in their own variables
    and the certificates are merged, which keeps every Gram matrix at the
    per-block size.  A certificate is returned only when every coefficient
    of z' Q z lies within CERTIFICATE_TOL * (1 + max |coefficient|) of the
    form's; the Gram SDP solves stop at half that tolerance.  Failure is
    reported as `not_sos` only with evidence (a point with a strictly
    negative value, or a verified separating certificate); anything else is
    `inconclusive`.
    """
    opts = options or CertifyOptions()
    if A.order % 2 != 0:
        raise SosError("sum-of-squares certification needs even order")
    f = A.to_polynomial()

    if opts.point_scan:
        hit = _negative_point_scan(f, opts.seed)
        if hit is not None:
            x, val = hit
            return NotCertified(
                "not_sos",
                witness_point=x,
                witness_value=val,
                message=f"form evaluates to {val:.6g} < 0",
            )

    use_blocks = False
    blocks = None
    if opts.blockwise in ("auto", "on"):
        ext = detect_extended_z(A)
        if ext.holds and len(ext.blocks) >= 2:
            use_blocks = True
            blocks = ext.blocks
        elif opts.blockwise == "on" and ext.holds:
            use_blocks = True
            blocks = ext.blocks

    if use_blocks and blocks is not None:
        return _certify_blockwise(A, f, blocks, opts)
    return _certify_monolithic(f, opts)


def _certify_monolithic(
    f: HomogeneousPolynomial, opts: CertifyOptions
) -> Union[SosCertificate, NotCertified]:
    """Certify f with one Gram matrix over the full half-degree basis.

    Diagonal forms take an exact diagonal Gram matrix.  Otherwise the Gram
    SDP of f / max|coef| is solved until its residual, in f's units, is half
    the certificate tolerance.  Whatever iterate the solver returns without
    Farkas evidence is finished and checked, and the check alone decides.
    Facial reduction and a deeper negative-point scan follow only when that
    check fails on an iterate stopped at the iteration cap.
    """
    n, m = f.dim, f.degree
    system = gram_system(n, m)

    # diagonal forms have an exact diagonal Gram matrix
    if all(max(alpha) == m for alpha in f.terms):
        coeffs = [float(f.diagonal_coefficient(i)) for i in range(n)]
        if all(c >= 0 for c in coeffs):
            N = len(system.basis)
            Q = np.zeros((N, N))
            for i, c in enumerate(coeffs):
                if c:
                    alpha = tuple(
                        m // 2 if v == i else 0 for v in range(n)
                    )
                    p = system.basis.index_of(alpha)
                    Q[p, p] = c
            squares, rank = extract_sos_terms(Q, system.basis, opts.rank_threshold)
            return SosCertificate(system.basis, Q, squares, rank, 0.0)
        i = int(np.argmin(coeffs))
        e = np.zeros(n)
        e[i] = 1.0
        return NotCertified(
            "not_sos",
            witness_point=e,
            witness_value=float(coeffs[i]),
            message="negative diagonal coefficient",
        )

    scale = f.max_abs_coefficient() or 1.0
    fs = f.scale(1.0 / scale)
    rhs = system.rhs(fs)
    # The solver stops once its cone iterate, PSD by construction, misses
    # every scaled coefficient by at most feas_tol * (1 + max |rhs|).  Put
    # that bound at half the certificate tolerance in f's own units, so the
    # stopped iterate passes the check with a 2x margin over the rank
    # reduction's drift (at most 1e-9 relative).
    stop = 0.5 * _certificate_tolerance(f)
    feas_tol = stop / (scale * (1.0 + float(np.max(np.abs(rhs)))))
    problem = sdp.SdpProblem(
        len(system.basis), 0, operator=system.operator, rhs=rhs
    )
    sol = sdp.solve(
        problem, sdp.SolveOptions(feas_tol=feas_tol, max_iter=opts.max_iter)
    )

    if sol.status == sdp.INFEASIBLE_EVIDENCE:
        return NotCertified(
            "not_sos",
            farkas=sol.farkas,
            message="separating certificate found for the Gram system",
        )

    finished = _finish_certificate(sol.X, system, f, scale, opts)
    if isinstance(finished, SosCertificate) or sol.status == sdp.OPTIMAL:
        # an iterate that met the stop rule is finished either way; the
        # retries below are for iterates stopped at the iteration cap
        return finished

    if opts.facial_reduction:
        reduced = _facial_reduction_solve(fs, system, feas_tol, opts)
        if reduced is not None:
            finished = _finish_certificate(reduced, system, f, scale, opts)
            if isinstance(finished, SosCertificate):
                return finished

    deeper = _negative_point_scan(f, opts.seed + 1, restarts=120, iters=400)
    if deeper is not None:
        x, val = deeper
        return NotCertified(
            "not_sos", witness_point=x, witness_value=val,
            message=f"form evaluates to {val:.6g} < 0",
        )
    return NotCertified(
        "inconclusive",
        message=f"solver stopped after {sol.iterations} iterations "
        f"with primal residual {sol.primal_residual * scale:.3g} "
        f"above stop tolerance {stop:.3g}",
    )


def _finish_certificate(
    X: np.ndarray,
    system: GramSystem,
    f: HomogeneousPolynomial,
    scale: float,
    opts: CertifyOptions,
) -> Union[SosCertificate, NotCertified]:
    """Unscale, rank-reduce and check a solver iterate against f."""
    Q = sdp.psd_project(np.asarray(X) * scale)
    Q = reduce_to_extreme(Q, system)
    Q = sdp.psd_project(Q)
    recon = gram_to_polynomial(Q, system)
    residual = max(
        (abs(float(recon.coefficient(a)) - float(f.coefficient(a))) for a in system.alphas),
        default=0.0,
    )
    tol = _certificate_tolerance(f)
    if residual > tol:
        return NotCertified(
            "inconclusive",
            message=f"certificate residual {residual:.3g} above tolerance {tol:.3g}",
        )
    squares, rank = extract_sos_terms(Q, system.basis, opts.rank_threshold)
    return SosCertificate(system.basis, Q, squares, rank, residual)


def _facial_reduction_solve(
    fs: HomogeneousPolynomial,
    system: GramSystem,
    feas_tol: float,
    opts: CertifyOptions,
) -> Optional[np.ndarray]:
    """Retry feasibility after quotienting out detected zeros of the form.

    A zero x* of a PSD form forces Q z(x*) = 0 for every Gram matrix, so the
    search can be restricted to the orthogonal complement of the observed
    z(x*) directions, which restores interior-point-like geometry for forms
    on the boundary of the cone.  The reduced solve has the same right-hand
    side as the full one and stops at the same `feas_tol`.  Returns the
    lifted iterate unless no zero was seen or the solver found Farkas
    evidence; the caller's certificate check decides.
    """
    n, m = fs.dim, fs.degree
    scale = fs.max_abs_coefficient() or 1.0
    res = sphere_minimize(
        fs,
        seed=opts.seed + 17,
        restarts=40,
        iters=400,
        collect_below=1e-9 * scale,
    )
    zs = [system.basis.evaluate(x) for x in res.near_zeros]
    if not zs:
        return None
    Zmat = np.array(zs).T  # N x zeros
    # orthonormal basis of the span of the zero directions
    Uz, sv, _ = np.linalg.svd(Zmat, full_matrices=False)
    keep = sv > 1e-8 * sv[0]
    Uz = Uz[:, keep]
    N = len(system.basis)
    P = np.linalg.svd(np.eye(N) - Uz @ Uz.T)[0][:, : N - Uz.shape[1]]
    r = P.shape[1]
    if r == 0:
        return np.zeros((N, N))

    # reduced constraints <P' E_alpha P, Qr> = f_alpha, entries above 1e-14
    upper = system.congruence(P)
    iu, ju = np.triu_indices(r)
    k, c = np.nonzero(np.abs(upper) > 1e-14)
    op = sdp.ConstraintMap.from_entries(
        r, system.num_constraints, k, iu[c], ju[c], upper[k, c]
    )
    problem = sdp.SdpProblem(r, 0, operator=op, rhs=system.rhs(fs))
    sol = sdp.solve(
        problem, sdp.SolveOptions(feas_tol=feas_tol, max_iter=opts.max_iter)
    )
    if sol.status == sdp.INFEASIBLE_EVIDENCE:
        return None
    return P @ sol.X @ P.T


def _certify_blockwise(
    A: SymmetricTensor,
    f: HomogeneousPolynomial,
    blocks,
    opts: CertifyOptions,
) -> Union[SosCertificate, NotCertified]:
    n, m = f.dim, f.degree
    sub_opts = replace(opts, blockwise="off")
    total_rank = 0
    residual = 0.0
    squares: List[HomogeneousPolynomial] = []
    structure: List[Tuple[int, ...]] = []
    basis = monomial_basis(n, m // 2)
    Q_full = np.zeros((len(basis), len(basis)))
    for block in blocks:
        vars_ = list(block.variables)
        sub = f.restrict(vars_)
        result = _certify_monolithic(sub, sub_opts)
        if isinstance(result, NotCertified):
            if result.witness_point is not None:
                lifted = np.zeros(n)
                for j, v in enumerate(vars_):
                    lifted[v] = result.witness_point[j]
                result.witness_point = lifted
            result.message = f"block {tuple(v for v in vars_)}: {result.message}"
            return result
        total_rank += result.rank_estimate
        residual = max(residual, result.residual)
        structure.append(tuple(vars_))
        # lift block squares and Gram entries back to the full variable set
        lifted = {}
        for alpha in result.basis.exponents:
            full = [0] * n
            for j, v in enumerate(vars_):
                full[v] = alpha[j]
            lifted[alpha] = tuple(full)
        for s in result.squares:
            terms = {lifted[alpha]: c for alpha, c in s.terms.items()}
            squares.append(HomogeneousPolynomial(m // 2, n, terms))
        # blocks share no variable, so no two blocks lift onto one position
        lift = np.array([basis.index_of(full) for full in lifted.values()], dtype=np.intp)
        Q_full[np.ix_(lift, lift)] += result.gram
    return SosCertificate(basis, Q_full, squares, total_rank, residual, structure)
