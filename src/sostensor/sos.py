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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import sdp
from .descent import sphere_minimize
from .structured import (
    CAUCHY_RTOL,
    cauchy_generator,
    delta_index_set,
    detect_extended_z,
    h_witness,
)
from .tensor import (
    Exponent,
    HomogeneousPolynomial,
    Number,
    SymmetricTensor,
    exponent_multiplicity,
    term_arrays,
)


class SosError(ValueError):
    pass


# A certificate is accepted when every coefficient of z' Q z is within
# CERTIFICATE_TOL * (1 + max |coefficient|) of the form's, both for the form
# and for its rescaling to unit pure powers (see `_Scaling`).  The Gram SDP
# solves stop at half that residual (see `_certify_monolithic`).
CERTIFICATE_TOL = 1e-6


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
    one place that knows the system's structure: coefficient values, the
    solver's constraint map and the congruences V' E_alpha V of rank
    reduction are all read from it.  It is built on first use, once per
    (dim, order).
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


class SosCertificate:
    """A Gram matrix Q with z' Q z = f over the half-degree basis z, and the
    squares split from it.

    `method` names the route that built Q: "diagonal", "amgm", "cauchy",
    "sdp", or "blockwise".  A blockwise certificate stores `blocks`: for each
    variable component of f, its variables and that component's own
    certificate in those variables.  Its `basis`, `gram` and `squares` over
    all of f's variables are lifted from the blocks on first read and then
    cached; the lifted Gram matrix is dense, with C(n+m/2-1, m/2)^2 entries,
    so a caller that can work block by block should read `blocks`.  Any
    other certificate stores its basis, Gram matrix and squares, and has no
    blocks.
    """

    def __init__(
        self,
        basis: MonomialBasis,
        gram: np.ndarray,
        squares: List[HomogeneousPolynomial],
        rank_estimate: int,
        residual: float,
        method: str,
    ):
        # instance attributes shadow the lifting properties below
        self.basis = basis
        self.gram = gram
        self.squares = squares
        self.rank_estimate = rank_estimate
        self.residual = residual
        self.method = method
        self.dim = basis.dim
        self.blocks: Tuple[Tuple[Tuple[int, ...], SosCertificate], ...] = ()

    @classmethod
    def blockwise(
        cls, dim: int, blocks: Sequence[Tuple[Tuple[int, ...], "SosCertificate"]]
    ) -> "SosCertificate":
        """Merge the certificates of a form's variable components, each given
        with its variables, into one certificate over `dim` variables."""
        cert = cls.__new__(cls)
        cert.blocks = tuple(blocks)
        cert.dim = dim
        cert.rank_estimate = sum(b.rank_estimate for _, b in cert.blocks)
        cert.residual = max(b.residual for _, b in cert.blocks)
        cert.method = "blockwise"
        return cert

    @property
    def block_structure(self) -> Optional[List[Tuple[int, ...]]]:
        """Each block's variables, or None without blocks."""
        return [v for v, _ in self.blocks] or None

    @property
    def block_methods(self) -> Optional[List[str]]:
        """Each block's route, aligned with `block_structure`."""
        return [b.method for _, b in self.blocks] or None

    @cached_property
    def basis(self) -> MonomialBasis:
        return monomial_basis(self.dim, self.blocks[0][1].basis.degree)

    @cached_property
    def gram(self) -> np.ndarray:
        N = len(self.basis)
        Q = np.zeros((N, N))
        for vars_, block in self.blocks:
            # blocks share no variable, so no two lift onto one position
            lift = np.array(
                [self.basis.index_of(_lift(a, vars_, self.dim)) for a in block.basis.exponents],
                dtype=np.intp,
            )
            Q[np.ix_(lift, lift)] += block.gram
        return Q

    @cached_property
    def squares(self) -> List[HomogeneousPolynomial]:
        out = []
        for vars_, block in self.blocks:
            lifted = {a: _lift(a, vars_, self.dim) for a in block.basis.exponents}
            for s in block.squares:
                terms = {lifted[a]: c for a, c in s.terms.items()}
                out.append(HomogeneousPolynomial(s.degree, self.dim, terms))
        return out

    def reconstruction(self) -> HomogeneousPolynomial:
        """Sum of the stored squares, for external verification.

        A blockwise certificate sums each block's squares in the block's
        variables and lifts the coefficients: no two blocks share a monomial.
        """
        if not self.blocks:
            return HomogeneousPolynomial(
                2 * self.basis.degree, self.dim, _sum_of_squares(self.squares)
            )
        terms: Dict[Exponent, Number] = {}
        for vars_, block in self.blocks:
            for a, c in _sum_of_squares(block.squares).items():
                terms[_lift(a, vars_, self.dim)] = c
        return HomogeneousPolynomial(2 * self.blocks[0][1].basis.degree, self.dim, terms)

    def _gram_dict(self) -> dict:
        iu = np.triu_indices(len(self.basis))
        return {
            "basis": [list(a) for a in self.basis.exponents],
            "gram_lower_triangle": self.gram.T[iu].tolist(),
            "squares": [
                {"coefficients": [[list(a), float(c)] for a, c in s.terms.items()]}
                for s in self.squares
            ],
            "rank_estimate": self.rank_estimate,
            "residual": self.residual,
            "method": self.method,
        }

    def to_dict(self) -> dict:
        """JSON-ready certificate.  A blockwise one lists, under `blocks`,
        each block's variables with its certificate in those variables
        (basis, Gram lower triangle, squares, rank, residual, route), and
        has no full-basis `basis`, `gram_lower_triangle` or `squares`."""
        if not self.blocks:
            return {**self._gram_dict(), "blocks": None, "block_methods": None}
        return {
            "rank_estimate": self.rank_estimate,
            "residual": self.residual,
            "method": self.method,
            "blocks": [{"variables": list(v), **b._gram_dict()} for v, b in self.blocks],
            "block_methods": self.block_methods,
        }


def _sum_of_squares(squares: Sequence[HomogeneousPolynomial]) -> Dict[Exponent, Number]:
    """Coefficients of sum_k s_k^2, accumulated in one dict."""
    out: Dict[Exponent, Number] = {}
    for s in squares:
        items = list(s.terms.items())
        for a1, c1 in items:
            for a2, c2 in items:
                key = tuple(map(add, a1, a2))
                out[key] = out.get(key, 0) + c1 * c2
    return out


@dataclass
class NotCertified:
    status: str  # "not_sos" | "inconclusive"
    witness_point: Optional[np.ndarray] = None
    witness_value: Optional[float] = None
    # separating certificate: y_alpha per exponent alpha, with
    # sum_alpha y_alpha E_alpha PSD and sum_alpha y_alpha f_alpha < 0
    farkas: Optional[Dict[Exponent, float]] = None
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witness_point": None
            if self.witness_point is None
            else [float(v) for v in self.witness_point],
            "witness_value": self.witness_value,
            "farkas": None
            if self.farkas is None
            else [[list(a), float(y)] for a, y in self.farkas.items()],
            "message": self.message,
        }


@dataclass
class CertifyOptions:
    max_iter: int = 200_000
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


# relative width at which `max_diagonal_shift_single_term` stops bisecting
SHIFT_BISECT_TOL = 1e-13


def max_diagonal_shift_single_term(
    b: Sequence[float], a: Sequence[int], coeff: float
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
        if hi - lo <= SHIFT_BISECT_TOL * (1.0 + abs(hi)):
            break
    return min(cap, lo)


def gershgorin_lower_bound(
    A: SymmetricTensor, form: Optional[HomogeneousPolynomial] = None
) -> float:
    """min over rows of (diagonal entry - sum of off-row absolute entries).

    Every H-eigenvalue is at least this value, and the shifted form
    f - bound * sum x_i^m is diagonally dominated, hence itself a sum of
    squares for even order.  Both row quantities are read from the induced
    form (`form`, when the caller has built it): the diagonal entry is the
    coefficient b of x_i^m, and row i's off-diagonal absolute entries sum to
    sum |b_alpha| * alpha_i / m over the mixed terms b_alpha x^alpha.  The
    terms are read through their supports, so the cost is that of the
    nonzero exponents, not of terms times n.
    """
    f = A.to_polynomial() if form is None else form
    if not f.dim:
        return 0.0
    rows: List[int] = []
    weights: List[float] = []
    for support, c in f._support_index[0]:
        # a pure power's alpha_i / m is 1 in its own row
        w = float(c) if len(support) == 1 else -abs(float(c))
        for v, e in support:
            rows.append(v)
            weights.append(w * e)
    return float(np.min(np.bincount(rows, weights=weights, minlength=f.dim))) / f.degree


def cauchy_gram(c: Sequence[float], basis: MonomialBasis) -> np.ndarray:
    """Gram matrix of the Cauchy form with generator c over `basis`.

    For c > 0 the form is f(x) = integral over s > 0 of
    (sum_i x_i e^(-c_i s))^m ds; expanding the square of the degree-m/2 power
    gives Q[beta, gamma] = mult(beta) mult(gamma) / (c.beta + c.gamma) with
    mult(beta) = (m/2)! / beta!.  That is a positive Cauchy matrix scaled on
    both sides by the same diagonal, so Q is PSD by construction (Chen & Qi
    2015).
    """
    mult = np.array([exponent_multiplicity(b) for b in basis.exponents], dtype=float)
    cb = np.array(basis.exponents, dtype=float) @ np.asarray(c, dtype=float)
    return np.outer(mult, mult) / (cb[:, None] + cb[None, :])


# ---------------------------------------------------------------------------
# AM-GM certificates of weakly dominated forms


@lru_cache(maxsize=None)
def _agiform_squares(pattern: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hurwitz's squares of the agiform sum_i (p_i / m) x_i^m - x^p.

    `pattern` is a degree-m exponent vector p (m = sum p even) that is not a
    pure power.  Returns weights w > 0 and half-degree exponent rows B, C
    with sum_i (p_i / m) x_i^m - x^p = sum_k w_k (x^B_k - x^C_k)^2.

    Write agi(q) for the agiform of q; it is linear in q and zero at a pure
    power.  Split q into two degree-m/2 halves, q = b + c.  Then
    (x^b - x^c)^2 / 2 = x^2b / 2 + x^2c / 2 - x^q, so
    agi(q) = (x^b - x^c)^2 / 2 + agi(2b) / 2 + agi(2c) / 2 (Hurwitz 1891;
    Reznick 1989).  The even children 2b and 2c are split in turn.  The split
    fills b from q's largest exponents first, so 2b is either a pure power or
    has a largest exponent twice q's: from every q a chain of at most
    log2(m) + 1 splits reaches a pure power.  Reading the splits as a Markov
    chain that moves from q to 2b or 2c with probability 1/2 each and stops
    at the pure powers, agi(p) = sum_q v_q (x^b_q - x^c_q)^2 / 2, with v_q the
    expected number of visits to q starting from p.  The chain is absorbing,
    so v solves one linear system (I - T') v = e_p and every v_q >= 2^-(steps
    to q) > 0.
    """
    m = sum(pattern)
    states = [tuple(pattern)]
    index = {states[0]: 0}
    halves = []
    moves = []  # (state, child state) for every child that is not a pure power
    k = 0
    while k < len(states):  # states grows as children are found
        q = np.array(states[k])
        b = np.zeros_like(q)
        left = m // 2
        for i in np.argsort(-q, kind="stable"):
            b[i] = min(q[i], left)
            left -= b[i]
        halves.append((b, q - b))
        for child in (2 * b, 2 * (q - b)):
            if child.max() < m:
                key = tuple(child.tolist())
                if key not in index:
                    index[key] = len(states)
                    states.append(key)
                moves.append((k, index[key]))
        k += 1
    T = np.zeros((len(states), len(states)))
    for src, dst in moves:
        T[src, dst] += 0.5
    start = np.zeros(len(states))
    start[0] = 1.0
    visits = np.linalg.solve(np.eye(len(states)) - T.T, start)
    B = np.array([b for b, _ in halves])
    C = np.array([c for _, c in halves])
    return 0.5 * visits, B, C


def _amgm_gram(
    exps: np.ndarray, coeffs: np.ndarray, basis: MonomialBasis
) -> Optional[np.ndarray]:
    """Gram matrix of a form whose weak-dominance row bound holds, else None.

    The form is sum over rows of `exps` (degree-m exponent vectors in
    basis.dim variables) of coeffs x^alpha, with m = 2 * basis.degree.  With
    a_i the coefficient of x_i^m and w_i the weak row off-sum
    (`_weak_offsum`), min_i (a_i - w_i) >= 0 makes the form
    sum_i (a_i - w_i) x_i^m + sum over mixed terms of T_alpha, where
    T_alpha = b (x^(alpha/2))^2 for b > 0 and every alpha_i even, and
    T_alpha = |b| sum_i (alpha_i / m) x_i^m + b x^alpha otherwise.  The
    latter is |b| times the agiform of alpha (`_agiform_squares`) when
    b < 0; when b > 0 some alpha_j is odd, and negating x_j turns it into
    that agiform.  Each piece is a nonnegative sum of squares, so the sum of
    their Gram matrices is PSD by construction.
    """
    m = 2 * basis.degree
    slack = _row_slack(exps, coeffs, m)
    if np.min(slack) < 0:
        return None
    half = np.eye(basis.dim, dtype=np.int64) * basis.degree
    rows = [basis.index_of(tuple(e)) for e in half.tolist()]
    cols = list(rows)
    vals = list(slack)
    mixed = (exps.max(axis=1) < m) & (coeffs != 0)
    for alpha, b in zip(exps[mixed], coeffs[mixed]):
        if b > 0 and not np.any(alpha % 2):
            p = basis.index_of(tuple((alpha // 2).tolist()))
            rows.append(p)
            cols.append(p)
            vals.append(b)
            continue
        # local variable j is the support variable with the j-th largest
        # exponent, so one cached pattern serves every relabelling
        support = np.flatnonzero(alpha)
        support = support[np.argsort(-alpha[support], kind="stable")]
        w, B, C = _agiform_squares(tuple(alpha[support].tolist()))
        sign = np.ones(len(w))
        if b > 0:
            j = int(np.flatnonzero(alpha[support] % 2)[0])
            sign = (-1.0) ** (B[:, j] + C[:, j])
        full = np.zeros((len(w), basis.dim), dtype=np.int64)
        full[:, support] = B
        p = [basis.index_of(tuple(e)) for e in full.tolist()]
        full[:, support] = C
        q = [basis.index_of(tuple(e)) for e in full.tolist()]
        weight = abs(b) * w
        rows += p + q + p + q
        cols += p + q + q + p
        vals += list(weight) + list(weight) + list(-sign * weight) * 2
    Q = np.zeros((len(basis), len(basis)))
    np.add.at(Q, (np.array(rows), np.array(cols)), np.array(vals, dtype=float))
    return Q


# ---------------------------------------------------------------------------
# sampling for negative points (infeasibility witnesses)


def _unit_power_scale(f: HomogeneousPolynomial) -> np.ndarray:
    """d with d_i = a_i^(1/m) for the coefficient a_i of x_i^m, 1 where a_i <= 0.

    In the variables y = d * x every positive pure power of f is 1.
    """
    pure = np.array([float(f.diagonal_coefficient(i)) for i in range(f.dim)])
    d = np.ones(f.dim)
    d[pure > 0] = pure[pure > 0] ** (1.0 / f.degree)
    return d


def _weak_offsum(exps: np.ndarray, coeffs: np.ndarray, m: int) -> np.ndarray:
    """w_i = sum of |b_alpha| * alpha_i / m over the mixed terms b x^alpha,
    leaving out those with b > 0 and every alpha_i even.

    `exps` holds one exponent vector per row and `coeffs` the matching
    coefficients.  Of a tensor's induced form, this is
    `row_tables(A).weak_offsum`.
    """
    mixed = exps.max(axis=1) < m
    signed = (coeffs < 0) | np.any(exps % 2 == 1, axis=1)
    return exps.T @ np.where(mixed & signed, np.abs(coeffs), 0.0) / m


def _row_slack(exps: np.ndarray, coeffs: np.ndarray, m: int) -> np.ndarray:
    """a_i - w_i, with a_i the coefficient of x_i^m and w_i from `_weak_offsum`."""
    pure = exps.max(axis=1) == m
    a = exps.T @ np.where(pure, coeffs, 0.0) / m
    return a - _weak_offsum(exps, coeffs, m)


def _dominance_margin(exps: np.ndarray, coeffs: np.ndarray, m: int) -> float:
    """min_i (a_i - w_i), a lower bound of the form on the unit m-norm sphere
    (see `_row_slack`)."""
    return float(np.min(_row_slack(exps, coeffs, m)))


def _bound_scale(f: HomogeneousPolynomial, witness: bool) -> Optional[np.ndarray]:
    """A variable scale t > 0 under which the row bound holds, else None.

    The bound is min_i (a_i - w_i) >= 0 (`_dominance_margin`) for the form
    f(y / t), whose coefficients are f_alpha / t^alpha.  SOS-ness and
    nonnegativity survive the substitution, so the bound in any such units
    proves f nonnegative, and `_amgm_gram` in y gives a Gram matrix of f.
    The scales tried, in order:

    - t = 1, f's own units;
    - t = d of `_unit_power_scale`, in which f's positive pure powers are 1;
    - when `witness`, t = 1 / y for the witness y > 0 of `h_witness`.  Its
      row inequality |a_i| y_i^(m-1) > sum of row i's off-diagonal |entries|
      times y_i2 ... y_im, multiplied by y_i, is the strict row bound of
      f(y * z) with every mixed term counted: the paper's proof that an
      even-order H-tensor with a nonnegative diagonal is SOS.  It is tried
      only when every pure power of f is positive, since a_i <= 0 fails row
      i in any units.  The power iteration stops at 1000 steps, so a form
      near the H boundary gets no witness rather than costing the full
      cap, and a form off the boundary's band, on either side, stops as
      soon as its Collatz bracket decides.
    """
    exps, coeffs = term_arrays(f)

    def holds(t: np.ndarray) -> bool:
        return _dominance_margin(exps, coeffs / np.prod(t ** exps, axis=1), f.degree) >= 0

    for t in (np.ones(f.dim), _unit_power_scale(f)):
        if holds(t):
            return t
    if not witness or any(f.diagonal_coefficient(i) <= 0 for i in range(f.dim)):
        return None
    y = h_witness(f, max_iter=1000)
    return 1.0 / y if y is not None and holds(1.0 / y) else None


def _negative_point_scan(
    f: HomogeneousPolynomial, seed: int, cauchy: bool = False
) -> Optional[Tuple[np.ndarray, float]]:
    """Cheap multistart descent looking for a strictly negative value.

    Success proves the form is not PSD (hence not SOS); failure proves
    nothing.  The scan runs 40 starts of 200 steps on g(y) = f(y / d) with
    d from `_unit_power_scale`, cut at -1e-9 * (1 + max |coefficient of g|):
    in f's own units one huge pure power would push the cut below the
    form's whole negative range.  A hit y maps back to x = y / d,
    normalized to the unit m-norm sphere, where f(x) = g(y) / ||y / d||_m^m.

    The descent is unnecessary when a lower bound proves that no point of
    the sphere lies below the cut:

    - Weak diagonal dominance in scaled variables.  For a form
      h, every mixed term b x^alpha with b > 0 and all alpha_i even is
      nonnegative.  For any other, weighted AM-GM gives
      |x^alpha| <= sum_i (alpha_i / m) x_i^m (m is even), so
      h(x) >= sum_i (a_i - w_i) x_i^m, with a_i the coefficient of x_i^m
      and w_i from `_weak_offsum`.  When min_i (a_i - w_i) >= 0 for
      h = f(y / t) with some t > 0, h and with it f and g are nonnegative
      everywhere.  `_bound_scale` looks for t in three units: f's own,
      g's, and those of the H-tensor witness.  `certify_sos` does not call
      the scan when it found one on every variable component of f (the
      bound is a row bound, and no mixed term joins two components).
    - `cauchy`: f, or each of its components, was accepted by
      `cauchy_generator`, so each coefficient is within a relative
      CAUCHY_RTOL of a positive Cauchy form's, which is PSD.  On the
      sphere every |y^alpha| <= 1, so
      g >= -CAUCHY_RTOL / (1 - CAUCHY_RTOL) * sum |g_alpha|; the scan
      returns None without descending when that is above the cut.

    Rounding in either bound is far below the cut's 1e-9 relative margin,
    so a skipped scan is one that would have returned None.
    """
    m = f.degree
    d = _unit_power_scale(f)
    exps, coeffs_f = term_arrays(f)
    coeffs = coeffs_f / np.prod(d ** exps, axis=1)
    cut = -1e-9 * (1.0 + float(np.max(np.abs(coeffs), initial=0.0)))
    if cauchy and -CAUCHY_RTOL / (1.0 - CAUCHY_RTOL) * np.sum(np.abs(coeffs)) > cut:
        return None
    g = HomogeneousPolynomial(m, f.dim, dict(zip(f.terms, coeffs.tolist())))
    res = sphere_minimize(g, seed=seed, restarts=40, iters=200, stop_below=cut)
    if res.value < cut:
        x = res.point / d
        norm_m = float(np.sum(np.abs(x) ** m))
        return x / norm_m ** (1.0 / m), res.value / norm_m
    return None


# ---------------------------------------------------------------------------
# extreme-point rank reduction


# Relative cuts of `reduce_to_extreme`: eigenvalues of Q above RANGE_EPS
# times the largest span its range, and the restricted constraint map is
# injective when its smallest singular value is above NULL_EPS times
# max(1, the largest).  A step may move the constraint values by at most
# DRIFT_TOL (1 + their largest magnitude): along a true null direction they
# move by rounding only, and a merely near-null one (singular value about
# 1e-9 of the largest) would spoil the exactness of closed-form Gram
# matrices.
RANGE_EPS = 1e-8
NULL_EPS = 1e-8
DRIFT_TOL = 1e-12


def reduce_to_extreme(Q: np.ndarray, system: GramSystem) -> np.ndarray:
    """Walk a feasible Gram matrix to an extreme point of its spectrahedron.

    While the constraint map restricted to symmetric perturbations supported
    on range(Q) has a nontrivial null direction S, move Q along V S V' until
    a nonzero eigenvalue hits zero; constraints are preserved exactly and the
    rank drops.  At an extreme point the restricted map is injective, so
    rank r obeys r(r+1)/2 <= number of constraints, which is the universal
    square-count bound.  Steps whose numerical constraint drift exceeds a
    tight guard are rolled back, so the output never certifies worse than the
    input.  Every step moves one eigenvalue to zero, so N + 1 rounds bound
    the walk.
    """
    N = Q.shape[0]
    Q = 0.5 * (Q + Q.T)
    vals_ref = _constraint_values(Q, system)
    drift_guard = DRIFT_TOL * (1.0 + float(np.max(np.abs(vals_ref))))
    for _ in range(N + 1):
        w, V = np.linalg.eigh(Q)
        wmax = max(float(w[-1]), 0.0)
        keep = w > RANGE_EPS * max(wmax, 1e-30)
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
        try:
            _, sv, VT = np.linalg.svd(G, full_matrices=True)
        except np.linalg.LinAlgError:  # LAPACK can fail on a finite G; try G'
            U, sv, _ = np.linalg.svd(G.T, full_matrices=True)
            VT = U.T
        if cols <= len(sv) and sv[min(cols, len(sv)) - 1] > NULL_EPS * max(
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


# eigenvalues of a certified Gram matrix at or below RANK_TOL times the
# largest give no square; `perfbench/verify.py` counts the rank with the same
# cut
RANK_TOL = 1e-7


def extract_sos_terms(
    Q: np.ndarray,
    basis: MonomialBasis,
    basis_scale: Optional[np.ndarray] = None,
) -> Tuple[List[HomogeneousPolynomial], int]:
    """Eigen-split z'Qz into squares; the count is the numerical rank.

    With `basis_scale` = d^beta over the basis, Q is a Gram matrix in the
    variables y = d * x, and each square is returned in x.
    """
    Qs = 0.5 * (np.asarray(Q, dtype=float) + np.asarray(Q, dtype=float).T)
    w, V = np.linalg.eigh(Qs)
    if basis_scale is not None:
        V = basis_scale[:, None] * V
    wmax = max(float(w[-1]), 0.0)
    squares: List[HomogeneousPolynomial] = []
    for lam, vec in sorted(zip(w, V.T), key=lambda t: -t[0]):
        if lam <= RANK_TOL * max(wmax, 1e-30):
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

    Even order is required.  When the variables split into two or more
    connected components (joined by shared mixed terms, the blocks of
    `detect_extended_z`), each component is certified in its own variables
    and the certificates are merged, which keeps every Gram matrix at the
    per-component size; extended-Z structure plays no part.  Each
    component's Cauchy generator and row-bound scale (`_bound_scale`) are
    found once and serve its certificate; the negative-point scan runs only
    when some component has no scale.  A certificate
    is returned only when every coefficient of z' Q z lies within
    CERTIFICATE_TOL * (1 + max |coefficient|) of the form's, in the form's
    variables and in variables scaled to unit pure powers; the Gram SDP
    solves stop at half that tolerance.  Failure is reported as `not_sos`
    only with evidence (a point with a strictly negative value, or a
    verified separating certificate); anything else is `inconclusive`.
    """
    opts = options or CertifyOptions()
    if A.order % 2 != 0:
        raise SosError("sum-of-squares certification needs even order")
    f = A.to_polynomial()
    blocks = detect_extended_z(A, f).blocks
    if len(blocks) >= 2:
        subs = [(list(b.variables), f.restrict(list(b.variables))) for b in blocks]
    else:
        subs = [(list(range(f.dim)), f)]
    # per component: variables, restricted form, Cauchy generator and scale
    parts = []
    for vars_, sub in subs:
        c = cauchy_generator(sub)
        parts.append((vars_, sub, c, _bound_scale(sub, witness=c is None)))

    if any(t is None for _, _, _, t in parts):
        hit = _negative_point_scan(
            f, opts.seed, cauchy=all(c is not None for _, _, c, _ in parts)
        )
        if hit is not None:
            x, val = hit
            return NotCertified(
                "not_sos",
                witness_point=x,
                witness_value=val,
                message=f"form evaluates to {val:.6g} < 0",
            )

    if len(parts) >= 2:
        return _certify_blockwise(f, parts, opts)
    _, _, c, t = parts[0]
    return _certify_monolithic(f, opts, c, t)


@dataclass(frozen=True)
class _Scaling:
    """f in the variables y = d * x, in which its pure powers are 1.

    d_i = a_i^(1/m) for the coefficient a_i of x_i^m; a variable whose pure
    power is not positive keeps d_i = 1.  The scaled form g(y) = f(y / d)
    has coefficients f_alpha / d^alpha, and a Gram matrix Q of g gives the
    Gram matrix S Q S of f with S = diag(d^beta) over the basis, so SOS-ness
    is invariant.  Certificates are checked in both forms: in f's units
    alone, one huge pure power widens the tolerance until it hides the
    defect of a form that is not PSD, and f's units are the ones a reader
    of the certificate checks.
    """

    system: GramSystem
    alpha_scale: np.ndarray  # d^alpha over system.alphas
    basis_scale: np.ndarray  # d^beta over the basis
    rhs_f: np.ndarray  # f's coefficients over system.alphas
    rhs: np.ndarray  # g's coefficients

    @staticmethod
    def of(f: HomogeneousPolynomial, system: GramSystem) -> "_Scaling":
        d = _unit_power_scale(f)
        alpha_scale = np.prod(d ** np.array(system.alphas), axis=1)
        basis_scale = np.prod(d ** np.array(system.basis.exponents), axis=1)
        rhs_f = system.rhs(f)
        return _Scaling(system, alpha_scale, basis_scale, rhs_f, rhs_f / alpha_scale)

    @property
    def tolerance(self) -> float:
        """Certificate tolerance of the scaled form, in its units."""
        return CERTIFICATE_TOL * (1.0 + float(np.max(np.abs(self.rhs))))

    @property
    def tolerance_f(self) -> float:
        return CERTIFICATE_TOL * (1.0 + float(np.max(np.abs(self.rhs_f))))


def _certify_monolithic(
    f: HomogeneousPolynomial,
    opts: CertifyOptions,
    c: Optional[Tuple[Number, ...]],
    t: Optional[np.ndarray],
) -> Union[SosCertificate, NotCertified]:
    """Certify f with one Gram matrix over the full half-degree basis.

    Diagonal forms take an exact diagonal Gram matrix.  A form whose row
    bound holds for f(y / t), with t from `_bound_scale(f, witness=c is
    None)` (None when there is none), takes the AM-GM Gram matrix of `_amgm_gram` in y: in f's units,
    in g's (see `_Scaling`), or in the units of its H-tensor witness.
    Positive Cauchy forms (generator c from `cauchy_generator(f)`, None for
    any other form) take their closed-form one; a matrix that fails the
    check falls through to the next route.
    Otherwise the Gram SDP of the scaled form
    g (see `_Scaling`), divided by its largest coefficient, is solved until
    its residual is half the certificate tolerance of both g and f.
    Whatever matrix is proposed without Farkas evidence is finished and
    checked, and the check alone decides; an iterate stopped at the
    iteration cap that fails it is reported `inconclusive` with the solver's
    residual.
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
            squares, rank = extract_sos_terms(Q, system.basis)
            return SosCertificate(system.basis, Q, squares, rank, 0.0, "diagonal")
        i = int(np.argmin(coeffs))
        e = np.zeros(n)
        e[i] = 1.0
        return NotCertified(
            "not_sos",
            witness_point=e,
            witness_value=float(coeffs[i]),
            message="negative diagonal coefficient",
        )

    scaling = _Scaling.of(f, system)
    s = scaling.basis_scale
    if t is not None:
        # a Gram matrix Q of f(y / t) in y is one of f in x times t^beta on
        # both sides, since z(y) = t^beta z(x); over s s' it is g's
        exps = np.array(system.alphas, dtype=np.int64)
        Q = _amgm_gram(exps, scaling.rhs_f / np.prod(t ** exps, axis=1), system.basis)
        if Q is not None:
            r = s / np.prod(t ** np.array(system.basis.exponents), axis=1)
            finished = _finish_certificate(Q / np.outer(r, r), scaling, 1.0, "amgm")
            if isinstance(finished, SosCertificate):
                return finished

    if c is not None:
        Q = cauchy_gram(c, system.basis) / np.outer(s, s)
        finished = _finish_certificate(Q, scaling, 1.0, "cauchy")
        if isinstance(finished, SosCertificate):
            return finished

    scale = float(np.max(np.abs(scaling.rhs))) or 1.0
    rhs = scaling.rhs / scale
    # The solver stops once its cone iterate, PSD by construction, misses
    # every scaled coefficient by at most feas_tol * (1 + max |rhs|).  Put
    # that bound at half the certificate tolerance of g, and of f after the
    # factor d^alpha, so the stopped iterate passes the check with a 2x
    # margin over the rank reduction's drift (at most 1e-12 relative).
    stop = 0.5 * min(
        scaling.tolerance, scaling.tolerance_f / float(np.max(scaling.alpha_scale))
    )
    feas_tol = stop / (scale * (1.0 + float(np.max(np.abs(rhs)))))
    problem = sdp.SdpProblem(
        len(system.basis), 0, operator=system.operator, rhs=rhs
    )
    sol = sdp.solve(
        problem, sdp.SolveOptions(feas_tol=feas_tol, max_iter=opts.max_iter)
    )

    if sol.status == sdp.INFEASIBLE_EVIDENCE:
        # y separates g's coefficients; y / d^alpha separates f's
        y = sol.farkas / scaling.alpha_scale
        return NotCertified(
            "not_sos",
            farkas=dict(zip(system.alphas, y.tolist())),
            message="separating certificate found for the Gram system",
        )

    finished = _finish_certificate(sol.X, scaling, scale, "sdp")
    if isinstance(finished, SosCertificate) or sol.status == sdp.OPTIMAL:
        # an iterate that met the stop rule is finished either way
        return finished
    return NotCertified(
        "inconclusive",
        message=f"solver stopped after {sol.iterations} iterations "
        f"with primal residual {sol.primal_residual * scale:.3g} "
        f"above stop tolerance {stop:.3g} in the scaled form",
    )


def _finish_certificate(
    X: np.ndarray,
    scaling: _Scaling,
    scale: float,
    method: str,
) -> Union[SosCertificate, NotCertified]:
    """Unscale, rank-reduce and check a Gram matrix of the scaled form g.

    The certificate returned is in f's variables; its residual is in f's
    units, and `method` names the route that proposed the matrix.  It is
    accepted only when the coefficient residual is within the certificate
    tolerance of g and, after the factor d^alpha, of f.
    """
    system = scaling.system
    Q = sdp.psd_project(np.asarray(X) * scale)
    Q = reduce_to_extreme(Q, system)
    Q = sdp.psd_project(Q)
    vals = _constraint_values(Q, system)
    residual_g = float(np.max(np.abs(vals - scaling.rhs)))
    residual = float(np.max(np.abs(scaling.alpha_scale * vals - scaling.rhs_f)))
    if residual_g > scaling.tolerance or residual > scaling.tolerance_f:
        return NotCertified(
            "inconclusive",
            message=f"certificate residual {residual:.3g} (tolerance "
            f"{scaling.tolerance_f:.3g}), {residual_g:.3g} in the scaled form "
            f"(tolerance {scaling.tolerance:.3g})",
        )
    s = scaling.basis_scale
    squares, rank = extract_sos_terms(Q, system.basis, basis_scale=s)
    return SosCertificate(
        system.basis, np.outer(s, s) * Q, squares, rank, residual, method
    )


def _lift(alpha: Exponent, vars_: Sequence[int], n: int) -> Exponent:
    """The exponent alpha over `vars_`, as an exponent over n variables."""
    full = [0] * n
    for j, v in enumerate(vars_):
        full[v] = alpha[j]
    return tuple(full)


def _certify_blockwise(
    f: HomogeneousPolynomial,
    parts,
    opts: CertifyOptions,
) -> Union[SosCertificate, NotCertified]:
    """Certify each block's restriction of f and merge the certificates.

    `parts` holds, per block, its variables, the restriction, its Cauchy
    generator and its `_bound_scale`.  Blocks share no variable and no
    mixed term, so f is the sum of its restrictions; setting the other
    blocks' variables to zero shows that f is SOS only if every restriction
    is.  Each block keeps its certificate in its own variables.
    """
    n = f.dim
    blocks = []
    for vars_, sub, c, t in parts:
        result = _certify_monolithic(sub, opts, c, t)
        if isinstance(result, NotCertified):
            if result.witness_point is not None:
                lifted = np.zeros(n)
                for j, v in enumerate(vars_):
                    lifted[v] = result.witness_point[j]
                result.witness_point = lifted
            if result.farkas is not None:
                result.farkas = {
                    _lift(a, vars_, n): y for a, y in result.farkas.items()
                }
            result.message = f"block {tuple(v for v in vars_)}: {result.message}"
            return result
        blocks.append((tuple(vars_), result))
    return SosCertificate.blockwise(n, blocks)
