"""Structured tensor families: constructors and decidable classifiers.

Implements membership tests, with witnesses, for the families that are known
to admit sum-of-squares decompositions in the even-order symmetric case:
diagonally dominated (strict and weak), Z, extended Z, B0 (with constructive
split), the double-B family, H-tensors, and positive Cauchy tensors with
their completely positive approximation.

All classifiers are pure functions of an immutable tensor.  Strict/non-strict
inequalities are decided with a boundary band (default 1e-9, scaled): verdicts
inside the band are flagged `boundary` instead of being silently resolved.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from .tensor import (
    Exponent,
    HomogeneousPolynomial,
    Index,
    Number,
    SymmetricTensor,
    exponent_multiplicity,
    multiplicity,
    term_arrays,
)

BOUNDARY_TOL = 1e-9
# default cap on the Collatz power iterations of the spectral-radius tests
POWER_ITER_CAP = 200_000
_EPS = float(np.finfo(float).eps)


class ClassificationError(ValueError):
    pass


class PowerIterationError(RuntimeError):
    """Power iteration did not converge; carries the last bracket."""

    def __init__(self, lo: float, hi: float, iterations: int):
        super().__init__(
            f"power iteration bracket [{lo:.6g}, {hi:.6g}] after {iterations} iterations"
        )
        self.bracket = (lo, hi)
        self.iterations = iterations


# ---------------------------------------------------------------------------
# index bookkeeping


def delta_index_set(A: SymmetricTensor) -> Set[Exponent]:
    """Mixed terms with a negative coefficient or an odd exponent component."""
    if A.order % 2 != 0:
        raise ClassificationError("delta index set requires even order")
    f = A.to_polynomial()
    out = set()
    for alpha, c in f.terms.items():
        if max(alpha) == A.order:
            continue
        if c < 0 or any(e % 2 == 1 for e in alpha):
            out.add(alpha)
    return out


# ---------------------------------------------------------------------------
# row tables over canonical storage


@dataclass(frozen=True)
class RowTables:
    """Per-row quantities of a tensor, indexed by row i.

    absolute_offsum  sum of |entries| over the off-diagonal tuples of row i
    weak_offsum      the same over tuples whose exponent vector lies in the
                     delta index set (None for odd order)
    row_sum          sum of entries over all tuples of row i
    max_off_entry    largest off-diagonal entry of row i, at least 0 (entries
                     absent from the sparse map are zero)
    """

    absolute_offsum: List[Number]
    weak_offsum: Optional[List[Number]]
    row_sum: List[Number]
    max_off_entry: List[Number]


def row_tables(A: SymmetricTensor) -> RowTables:
    """A's row tables, built once per tensor and shared by every reader.

    The table is cached on A, so `classify`'s row tests, and any later
    caller, read one table; callers must not modify its lists.
    """
    return A._row_tables


def _build_row_tables(A: SymmetricTensor) -> RowTables:
    """All row quantities from one pass over the canonical entries.

    The row-i tuples (i, i2, ..., im) that sort to a canonical index idx
    containing i with count c_i number multiplicity(idx) * c_i / m.  Each
    row accumulates its terms in entry order starting from int 0, so exact
    (int, Fraction) entries give exact sums.
    """
    n, m = A.dim, A.order
    absolute: List[Number] = [0] * n
    weak: Optional[List[Number]] = [0] * n if m % 2 == 0 else None
    sums: List[Number] = [0] * n
    best: List[Number] = [0] * n
    for idx, v in A.entries.items():
        counts = Counter(idx)
        mult = multiplicity(idx)
        off = len(counts) > 1
        in_delta = off and (v < 0 or any(c % 2 == 1 for c in counts.values()))
        for i, c in counts.items():
            k = mult * c // m
            sums[i] = sums[i] + k * v
            if not off:
                continue
            absolute[i] = absolute[i] + k * abs(v)
            if weak is not None and in_delta:
                weak[i] = weak[i] + k * abs(v)
            if v > best[i]:
                best[i] = v
    return RowTables(absolute, weak, sums, best)


def is_z_tensor(A: SymmetricTensor) -> Tuple[bool, Optional[Index]]:
    """All off-diagonal entries nonpositive; returns a violating index if not."""
    for idx, v in A.entries.items():
        if len(set(idx)) > 1 and v > 0:
            return False, idx
    return True, None


# ---------------------------------------------------------------------------
# diagonal dominance


@dataclass(frozen=True)
class DominanceVerdict:
    strict: bool
    weak: Optional[bool]
    boundary: bool
    witness_row: Optional[int]
    row_slacks: Tuple[float, ...]


def is_diagonally_dominated(
    A: SymmetricTensor, tol: float = BOUNDARY_TOL
) -> DominanceVerdict:
    """Row test a[i..i] >= sum of off-row |entries|.

    The strict variant sums every off-diagonal tuple of the row; the weak
    variant sums only tuples whose exponent vector lies in the delta index
    set.  The weak variant needs even order and is reported as None otherwise.
    """
    rows = row_tables(A)
    strict = True
    weak: Optional[bool] = True if rows.weak_offsum is not None else None
    boundary = False
    witness = None
    slacks = []
    scale = 1.0 + max((abs(float(v)) for v in A.entries.values()), default=0.0)
    for i in range(A.dim):
        d = float(A.diagonal_entry(i))
        s_all = float(rows.absolute_offsum[i])
        slack = d - s_all
        slacks.append(slack)
        if abs(slack) <= tol * scale:
            boundary = True
        if slack < -tol * scale and strict:
            strict = False
            if witness is None:
                witness = i
        if rows.weak_offsum is not None:
            s_weak = float(rows.weak_offsum[i])
            if d - s_weak < -tol * scale and weak:
                weak = False
                if witness is None:
                    witness = i
    return DominanceVerdict(strict, weak, boundary, witness, tuple(slacks))


# ---------------------------------------------------------------------------
# B0 tensors and the constructive split


def is_b0(
    A: SymmetricTensor, tol: float = BOUNDARY_TOL
) -> Tuple[bool, Optional[dict]]:
    """Row sums nonnegative and averaged row sum dominating each off entry."""
    n, m = A.dim, A.order
    nm1 = n ** (m - 1)
    scale = 1.0 + max((abs(float(v)) for v in A.entries.values()), default=0.0)
    rows = row_tables(A)
    for i in range(n):
        rs = float(rows.row_sum[i])
        if rs < -tol * scale:
            return False, {"row": i, "condition": "row_sum", "value": rs}
        threshold = rs / nm1
        worst = float(rows.max_off_entry[i])
        if threshold < worst - tol * scale:
            return False, {
                "row": i,
                "condition": "threshold",
                "threshold": threshold,
                "max_off_entry": worst,
            }
    return True, None


def _max_off_entries(A_entries: Dict[Index, Number], n: int) -> List[Number]:
    """Per-row max over off-diagonal entries (absent positions count as 0)."""
    best: List[Number] = [0] * n
    for idx, v in A_entries.items():
        if len(set(idx)) == 1:
            continue
        if v <= 0:
            continue
        for i in set(idx):
            if v > best[i]:
                best[i] = v
    return best


def b0_split(
    A: SymmetricTensor,
) -> Tuple[SymmetricTensor, List[Tuple[Number, FrozenSet[int]]]]:
    """Peel positive multiples of partially-all-one tensors off a B0 tensor.

    Repeatedly removes h * E^J where J is the set of rows whose largest
    off-row entry d_i is still positive and h = min over J of d_i.  Every
    entry involving an index outside J is already nonpositive (by symmetry,
    it sits in the row of a variable with d = 0), so each pass lowers d on J
    uniformly and retires at least one row; the loop ends within n passes.
    The remainder M is a diagonally dominated Z-tensor and

        A = M + sum_k h_k * E^{J_k}

    holds entrywise, exactly when the input is rational.  The produced J_k
    are nested decreasing, not disjoint; see `is_b0` for the membership test
    this construction assumes.
    """
    ok, witness = is_b0(A)
    if not ok:
        raise ClassificationError(f"b0_split requires a B0 tensor, got witness {witness}")
    from itertools import combinations_with_replacement

    n, m = A.dim, A.order
    work: Dict[Index, Number] = dict(A.entries)
    terms: List[Tuple[Number, FrozenSet[int]]] = []
    for _ in range(n + 1):
        d = _max_off_entries(work, n)
        J = [i for i in range(n) if d[i] > 0]
        if not J:
            break
        h = min(d[i] for i in J)
        for idx in combinations_with_replacement(J, m):
            work[idx] = work.get(idx, 0) - h
        terms.append((h, frozenset(J)))
    work = {idx: v for idx, v in work.items() if v != 0}
    M = SymmetricTensor(m, n, work)
    return M, terms


# ---------------------------------------------------------------------------
# double-B family


def double_b_quantities(
    B: SymmetricTensor,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row quantities used by the double-B classifiers.

    beta[i]  = max(0, largest off-row entry of row i)
    delta[i] = sum over off-row tuples of (beta[i] - entry)
    delta_ij = delta[j] - (beta[j] - b[j, i, i, ..., i])   for i != j
    """
    beta, delta, delta_ij, _ = _double_b(B)
    return beta, delta, delta_ij


def _double_b(
    B: SymmetricTensor,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`double_b_quantities` plus the tail entries tail[i, j] = b[j, i, ..., i]."""
    n, m = B.dim, B.order
    nm1 = n ** (m - 1)
    rows = row_tables(B)
    beta = np.zeros(n)
    delta = np.zeros(n)
    for i in range(n):
        beta[i] = max(0.0, float(rows.max_off_entry[i]))
        off = float(rows.row_sum[i]) - float(B.diagonal_entry(i))
        delta[i] = (nm1 - 1) * beta[i] - off
    tail = _tail_entries(B)
    delta_ij = delta[None, :] - (beta[None, :] - tail)
    np.fill_diagonal(delta_ij, 0.0)
    return beta, delta, delta_ij, tail


def _tail_entries(B: SymmetricTensor) -> np.ndarray:
    """tail[i, j] = b[j, i, ..., i] (j once, i m-1 times) for i != j; zero
    on the diagonal."""
    n, m = B.dim, B.order
    get = B.entries.get
    rows = []
    for i in range(n):
        run = (i,) * (m - 1)
        rows.append([
            0.0 if j == i else float(get((j,) + run if j < i else run + (j,), 0))
            for j in range(n)
        ])
    return np.array(rows)


@dataclass(frozen=True)
class BFamilyVerdict:
    double_b: bool
    quasi_double_b0: bool
    mb0: Optional[bool]  # None when the power iteration stalled
    boundary: bool
    details: Dict[str, object]


def classify_b_family(
    B: SymmetricTensor,
    tol: float = BOUNDARY_TOL,
    power_iter_cap: int = POWER_ITER_CAP,
    form: Optional[HomogeneousPolynomial] = None,
) -> BFamilyVerdict:
    """Verdicts for double-B, quasi-double-B0 and MB0 membership.

    double-B: b[i..i] > beta_i for all i, b[i..i] - beta_i >= delta_i, and
    pairwise (b[i..i]-beta_i)(b[j..j]-beta_j) > delta_i delta_j.

    quasi-double-B0: b[i..i] > beta_i and for i != j
    (b[i..i]-beta_i)(b[j..j]-beta_j-delta_ij) >= (beta_j - b[j,i..i]) delta_i.

    MB0: the row-shifted tensor a[i1..im] = b[i1..im] - beta[i1] is an
    M-tensor, tested as s >= spectral radius of s I - (shifted tensor); the
    shifted operator is applied from B's induced form (`form`, when the
    caller has built it) plus the rank-one shift, so the dense shift never
    needs to be materialized.  The power iteration stops once its Collatz
    bracket leaves the tolerance band around s, so `details["rho"]` is the
    radius only when it lies inside the band (flagged boundary); elsewhere
    it is the certified bound that decided the verdict, an upper bound
    below s - band or a lower bound above s + band.  If the power iteration
    stalls, `mb0` is None, the verdict is flagged boundary and `details`
    carries the last bracket.
    """
    n = B.dim
    beta, delta, delta_ij, tail = _double_b(B)
    diag = np.array([float(B.diagonal_entry(i)) for i in range(n)])
    gap = diag - beta
    scale = 1.0 + float(np.max(np.abs(diag)) if n else 0.0) + float(np.max(beta))
    band = tol * scale
    boundary = bool(np.any(np.abs(gap) <= band))

    positive_gap = bool(np.all(gap > band))
    positive_gap_relaxed = bool(np.all(gap > -band))

    dom = bool(np.all(gap - delta >= -band))
    # pairwise and quasi conditions over all ordered pairs i != j
    pairs = ~np.eye(n, dtype=bool)
    lhs = gap[:, None] * gap[None, :]
    rhs = delta[:, None] * delta[None, :]
    unmet = pairs & ~(lhs > rhs + band * band)
    pairwise = not bool(np.any(unmet))
    if np.any(unmet & (np.abs(lhs - rhs) <= band * (1 + np.abs(lhs) + np.abs(rhs)))):
        boundary = True
    q_lhs = gap[:, None] * (gap[None, :] - delta_ij)
    q_rhs = (beta[None, :] - tail) * delta[:, None]
    quasi = not bool(np.any(
        pairs & (q_lhs < q_rhs - band * (1 + np.abs(q_lhs) + np.abs(q_rhs)))
    ))

    double_b = positive_gap and dom and pairwise
    quasi_double_b0 = positive_gap and quasi

    try:
        mb0, mb0_boundary, s_val, rho_val = _mb0_check(B, beta, tol, power_iter_cap, form)
        mb0_details = {"s": s_val, "rho": rho_val}
    except PowerIterationError as exc:
        # no verdict without a converged radius; the bracket is the evidence
        mb0, mb0_boundary = None, True
        mb0_details = {"bracket": list(exc.bracket)}
    boundary = boundary or mb0_boundary

    return BFamilyVerdict(
        double_b=double_b,
        quasi_double_b0=quasi_double_b0,
        mb0=mb0,
        boundary=boundary,
        details={**mb0_details,
                 "min_gap": float(np.min(gap)) if n else 0.0,
                 "relaxed_positive_gap": positive_gap_relaxed},
    )


def _mb0_check(
    B: SymmetricTensor,
    beta: np.ndarray,
    tol: float,
    max_iter: int,
    form: Optional[HomogeneousPolynomial] = None,
) -> Tuple[bool, bool, float, float]:
    f = B.to_polynomial() if form is None else form
    b, exps, coeffs = pure_and_mixed(f)
    s = max(0.0, float(np.max(b - beta)))
    # Z = s I - (B - rowwise beta); the shift contributes beta_i (sum x)^(m-1),
    # which joins every variable into one component
    shift = beta if np.any(beta > 0) else None
    labels = variable_components(f) if shift is None else [0] * B.dim
    Z = _row_operator(exps, -coeffs, B.order, s - b, shift)
    scale = s + float(np.max(beta)) + 1.0
    test = _Threshold(s, tol)
    rho, _ = _spectral_radius(Z, labels, scale, tol, max_iter, test)
    return rho <= s + test.band(rho), test.inside(rho), s, rho


# ---------------------------------------------------------------------------
# spectral radius of nonnegative tensors


def pure_and_mixed(f: HomogeneousPolynomial) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a with a_i the coefficient of x_i^m in f (0 when absent), and the
    exponent rows and float coefficients of f's mixed terms, in term order
    (see `term_arrays`)."""
    exps, coeffs = term_arrays(f)
    pure = exps.max(axis=1) == f.degree
    a = np.zeros(f.dim)
    a[np.argmax(exps[pure], axis=1)] = coeffs[pure]
    return a, exps[~pure], coeffs[~pure]


@dataclass(frozen=True)
class _RowOperator:
    """The map x -> T x^(m-1) of an order-m tensor, compiled into a table.

    Row i of the image is

        shift_i (sum x)^(m-1) + sum over the table rows r with target_r = i
                                of weight_r * prod(x[slots_r]).

    The table holds each term c x^alpha once per variable v of its support:
    target v, weight c alpha_v / m, and the m-1 slots of x^alpha / x_v.  It
    is thus 1/m times the gradient of the terms' form, and one step is a
    gather, a product and a bincount.  `shift` is an optional rank-one part.
    """

    dim: int
    order: int
    target: np.ndarray
    slots: np.ndarray
    weight: np.ndarray
    shift: Optional[np.ndarray] = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = np.bincount(
            self.target, self.weight * x[self.slots].prod(axis=1), minlength=self.dim
        )
        if self.shift is not None:
            y += self.shift * float(x.sum()) ** (self.order - 1)
        return y

    def split(self, labels: Sequence[int]) -> List[Tuple[np.ndarray, "_RowOperator"]]:
        """The operator on each variable component, in local indices.

        `labels` gives each variable's component as its smallest variable
        (`variable_components`); every table row lies inside the component of
        its target.  Components come in order of their smallest variable,
        each with its variables ascending.
        """
        if len(set(labels)) == 1:
            return [(np.arange(self.dim), self)]
        roots, comp = np.unique(labels, return_inverse=True)
        members = np.argsort(comp, kind="stable")
        starts = np.searchsorted(comp[members], np.arange(roots.size + 1))
        local = np.empty(self.dim, dtype=np.intp)
        local[members] = np.arange(self.dim) - starts[comp[members]]
        row_comp = comp[self.target]
        rows = np.argsort(row_comp, kind="stable")
        row_starts = np.searchsorted(row_comp[rows], np.arange(roots.size + 1))
        out = []
        for k in range(roots.size):
            vs = members[starts[k]:starts[k + 1]]
            r = rows[row_starts[k]:row_starts[k + 1]]
            out.append((vs, _RowOperator(
                vs.size, self.order, local[self.target[r]], local[self.slots[r]],
                self.weight[r], None if self.shift is None else self.shift[vs],
            )))
        return out


def _row_operator(
    exps: np.ndarray,
    coeffs: np.ndarray,
    order: int,
    diag: Optional[np.ndarray] = None,
    shift: Optional[np.ndarray] = None,
) -> _RowOperator:
    """Compile the terms coeffs x^exps (rows of exponents), plus the pure
    powers diag_i x_i^m when given, and the rank-one shift; see
    `_RowOperator`."""
    if diag is not None:
        exps = np.vstack([exps, order * np.eye(exps.shape[1], dtype=exps.dtype)])
        coeffs = np.concatenate([coeffs, diag])
    T, n = exps.shape
    # each term's m slots, ascending; the first of a run of equal slots
    # stands for its variable, with the run length as alpha_v
    slots = np.repeat(np.tile(np.arange(n), T), exps.ravel()).reshape(T, order)
    first = np.ones((T, order), dtype=bool)
    first[:, 1:] = slots[:, 1:] != slots[:, :-1]
    t, k = np.nonzero(first)
    target = slots[t, k]
    others = slots[t][~np.eye(order, dtype=bool)[k]].reshape(t.size, order - 1)
    weight = coeffs[t] * (exps[t, target] / order)
    return _RowOperator(n, order, target, others, weight, shift)


@dataclass(frozen=True)
class _Threshold:
    """The test of a spectral radius rho against a threshold s, with the band
    tol (1 + s + |rho|): rho is above s past the band, below s under it, and
    inside the band otherwise."""

    s: float
    tol: float

    def band(self, rho: float) -> float:
        return self.tol * (1.0 + self.s + abs(rho))

    def above(self, rho: float) -> bool:
        return rho > self.s + self.band(rho)

    def below(self, rho: float) -> bool:
        return rho < self.s - self.band(rho)

    def inside(self, rho: float) -> bool:
        return abs(rho - self.s) <= self.band(rho)


def _spectral_radius(
    op: _RowOperator,
    labels: Sequence[int],
    scale: float,
    tol: float,
    max_iter: int,
    test: Optional[_Threshold] = None,
) -> Tuple[float, np.ndarray]:
    """Dominant eigenvalue of a nonnegative operator, and a positive witness.

    The variable components (`labels`, see `_RowOperator.split`) decouple the
    operator, so the radius is the largest of the components' radii, each
    from `_collatz_radius`.  The witness x > 0 holds each component's last
    iterate, the whole rescaled to unit m-norm.  With a `test`, each
    component stops once its bracket decides it and gives its deciding
    bound; once one component's lower bound is above s + band, that bound
    is returned at once, with x incomplete.
    """
    parts = op.split(labels)
    x = np.empty(len(labels))
    rho = -math.inf
    for vs, sub in parts:
        r, x[vs] = _collatz_radius(sub, scale, tol, max_iter, test)
        rho = max(rho, r)
        if test is not None and test.above(rho):
            return rho, x
    if len(parts) > 1:
        x /= np.sum(x ** op.order) ** (1.0 / op.order)
    return rho, x


def _collatz_radius(
    op: _RowOperator,
    scale: float,
    tol: float,
    max_iter: int,
    test: Optional[_Threshold] = None,
) -> Tuple[float, np.ndarray]:
    """Dominant eigenvalue of a nonnegative operator, and the positive
    iterate x whose Collatz ratios bracketed it last.

    Power iteration with componentwise min/max Collatz ratios brackets the
    radius for entrywise-positive operators.  A nonnegative operator is made
    positive by adding eps times the all-one operator, which perturbs the
    radius by at most eps * n^(m-1); the returned estimate centers that
    correction.  This sidesteps reducible inputs (block-diagonal patterns)
    for which plain iteration stalls.

    With a `test` against s, the iteration stops as soon as the bracket
    decides it (Ng, Qi & Zhou 2009): once the best smallest ratio minus that
    perturbation, a lower bound of the radius, is above s + band, that bound
    is returned; once the current iterate's largest ratio, an upper bound,
    is below s - band, that bound is returned with the iterate, whose rows
    then all satisfy (T x^(m-1))_i < s x_i^(m-1).  Only a radius inside the
    band runs until the bracket closes.
    """
    n, order = op.dim, op.order
    if n == 1:
        x = np.ones(1)
        return float(op(x)[0]), x
    nm1 = n ** (order - 1)
    abs_tol = max(tol * max(scale, 1.0), 1e-300)
    eps = abs_tol / (4.0 * nm1)
    # eps times the all-one operator is eps (sum x)^(m-1) in every row
    positive = replace(op, shift=np.full(n, eps) if op.shift is None else op.shift + eps)
    p = order - 1
    x = np.full(n, n ** (-1.0 / order))
    lo_best, hi_best = -np.inf, np.inf
    # ndarray methods rather than the np.* wrappers: a step is a dozen
    # reductions of a few entries, where the wrappers' overhead dominates
    for it in range(max_iter):
        y = positive(x)
        if not np.isfinite(y).all():
            raise PowerIterationError(lo_best, hi_best, it)
        ratios = y / x ** p
        lo, hi = float(ratios.min()), float(ratios.max())
        lo_best, hi_best = max(lo_best, lo), min(hi_best, hi)
        if test is not None:
            if test.above(lo_best - eps * nm1):
                return lo_best - eps * nm1, x
            if test.below(hi):
                return hi, x
        # a bracket within rounding of its own magnitude cannot narrow further
        if hi_best - lo_best <= max(abs_tol / 2.0, 8 * _EPS * abs(hi_best)):
            mid = 0.5 * (lo_best + hi_best)
            return mid - 0.5 * eps * nm1, x
        x = np.maximum(y, 1e-300) ** (1.0 / p)
        # the m-norm as np.linalg.norm computes it, for x > 0
        x = x / (x ** order).sum() ** (1.0 / order)
    raise PowerIterationError(lo_best, hi_best, max_iter)


def spectral_radius_nonnegative(Z: SymmetricTensor, tol: float = 1e-8) -> float:
    """Spectral radius of an entrywise nonnegative symmetric tensor.

    Raises on negative entries; raises PowerIterationError (with the last
    Collatz bracket) if the iteration cap is hit.  tol is relative to the
    largest entry.
    """
    worst = 0.0
    for idx, v in Z.entries.items():
        fv = float(v)
        if fv < 0:
            raise ClassificationError(f"negative entry {v} at {idx}")
        worst = max(worst, fv)
    f = Z.to_polynomial()
    a, exps, coeffs = pure_and_mixed(f)
    op = _row_operator(exps, coeffs, Z.order, a)
    return _spectral_radius(op, variable_components(f), worst, tol, POWER_ITER_CAP)[0]


# ---------------------------------------------------------------------------
# H-tensors


@dataclass(frozen=True)
class HVerdict:
    """H-tensor verdict from the spectral radius of Z against s.

    `rho` is the radius of Z only when it lies inside the boundary band
    around s (`boundary`); elsewhere it is the certified Collatz bound that
    decided the verdict: an upper bound below s - band when nonsingular, a
    lower bound above s + band when not an H-tensor.
    """

    h: bool
    nonsingular: bool
    y: Optional[np.ndarray]
    s: float
    rho: float
    boundary: bool
    margin: float


def is_h_tensor(
    A: SymmetricTensor,
    tol: float = BOUNDARY_TOL,
    max_iter: int = POWER_ITER_CAP,
    form: Optional[HomogeneousPolynomial] = None,
) -> HVerdict:
    """H-tensor test through the comparison tensor.

    Writes the comparison tensor as s I - Z with s the largest absolute
    diagonal entry and Z nonnegative; membership holds when the spectral
    radius of Z does not exceed s (nonsingular when strictly below).  Z is
    applied from A's induced form (`form`, when the caller has built it):
    s - |a_ii| on the diagonal and the mixed terms' absolute values.  The
    power iteration stops once its Collatz bracket leaves the tolerance band
    around s, and `rho` is the bound that decided (see `HVerdict`); only a
    radius inside the band is iterated to convergence and flagged boundary.
    For a nonsingular verdict the iterate y > 0 whose Collatz ratios are all
    below s is verified directly against the row inequalities

        |a[i..i]| y_i^{m-1} > sum over off tuples |a[i,...]| y_{i2} ... y_{im}

    and attached as a witness.
    """
    return _h_verdict(A.to_polynomial() if form is None else form, tol, max_iter)


def h_witness(f: HomogeneousPolynomial, max_iter: int = 1000) -> Optional[np.ndarray]:
    """The witness y > 0 that `is_h_tensor` verifies for the tensor induced
    by f, or None when it finds none or its power iteration hits `max_iter`.

    The iteration stops as soon as its bracket decides the verdict, so a
    form far from the H boundary, on either side, costs a few steps.
    """
    try:
        return _h_verdict(f, BOUNDARY_TOL, max_iter).y
    except PowerIterationError:
        return None


def _h_verdict(f: HomogeneousPolynomial, tol: float, max_iter: int) -> HVerdict:
    """`is_h_tensor` on the tensor induced by f."""
    n, m = f.dim, f.degree
    a, exps, coeffs = pure_and_mixed(f)
    a = np.abs(a)
    s = float(np.max(a))
    Z = _row_operator(exps, np.abs(coeffs), m, s - a)
    # the largest entry of Z: a mixed term's entry is its coefficient over
    # its multiplicity
    fact = np.array([math.factorial(k) for k in range(m + 1)], dtype=float)
    entries = np.abs(coeffs) * np.prod(fact[exps], axis=1) / fact[m]
    worst = max(s - float(np.min(a)), float(np.max(entries, initial=0.0)))
    test = _Threshold(s, tol)
    rho, x = _spectral_radius(
        Z, variable_components(f), worst, min(tol, 1e-10), max_iter, test
    )
    h = rho <= s + test.band(rho)
    nonsingular = test.below(rho)
    boundary = test.inside(rho)

    y = None
    margin = -math.inf
    if nonsingular:
        off = _row_operator(exps, np.abs(coeffs), m)
        y, margin = _verify_h_witness(a, off, x)
        if y is None:
            # fall back to the all-one vector, which works for strictly
            # diagonally dominated inputs
            y, margin = _verify_h_witness(a, off, np.ones(n))
        if y is None:
            nonsingular = False
            boundary = True
    return HVerdict(h, nonsingular, y, s, rho, boundary, margin)


def _verify_h_witness(
    a: np.ndarray, off: _RowOperator, y: np.ndarray
) -> Tuple[Optional[np.ndarray], float]:
    """min_i of |a_ii| y_i^(m-1) minus row i of the |mixed terms| operator
    `off` at y, with y when that margin is positive."""
    if np.any(y <= 0):
        return None, -math.inf
    margin = float(np.min(a * y ** (off.order - 1) - off(y)))
    if margin > 0:
        return y, margin
    return None, margin


# ---------------------------------------------------------------------------
# extended Z structure


def variable_components(f: HomogeneousPolynomial) -> List[int]:
    """Each variable's connected component, named by its smallest variable.

    Variables are joined whenever they appear in the same term of f, so a
    pure power joins nothing.  Union-find over the terms' supports; a union
    hangs the larger root under the smaller, so every root is the smallest
    variable of its component.
    """
    label = list(range(f.dim))

    def find(a: int) -> int:
        while label[a] != a:
            label[a] = label[label[a]]
            a = label[a]
        return a

    for support, _ in f._support_index[0]:
        if len(support) < 2:
            continue
        root = find(support[0][0])
        for v, _ in support[1:]:
            other = find(v)
            if other != root:
                root, other = min(root, other), max(root, other)
                label[other] = root
    return [find(v) for v in range(f.dim)]


@dataclass(frozen=True)
class ExtendedZBlock:
    variables: Tuple[int, ...]
    tag: str  # "single_term" | "all_nonpositive" | "violating"
    mixed_terms: Tuple[Tuple[Exponent, Number], ...]


@dataclass(frozen=True)
class ExtendedZResult:
    holds: bool
    blocks: Tuple[ExtendedZBlock, ...]
    failing_blocks: Tuple[int, ...]

    @property
    def partition(self) -> List[Tuple[int, ...]]:
        return [b.variables for b in self.blocks]


def detect_extended_z(
    A: SymmetricTensor, form: Optional[HomogeneousPolynomial] = None
) -> ExtendedZResult:
    """Decide extended-Z structure and return the variable partition.

    Variables are joined whenever they co-occur in a mixed term; the
    connected components of that graph (`variable_components`) are the
    coarsest viable partition, and any valid partition splits into unions
    of components blockwise, so checking components decides membership.
    Each block must either carry at most one nonzero mixed term or carry
    only nonpositive mixed terms.
    Variables appearing in no mixed term stay as singleton blocks.  `form`
    is A's induced form when the caller has already built it.
    """
    if A.order % 2 != 0:
        raise ClassificationError("extended-Z detection requires even order")
    f = A.to_polynomial() if form is None else form
    labels = variable_components(f)
    groups: Dict[int, List[int]] = {}
    for v, r in enumerate(labels):
        groups.setdefault(r, []).append(v)
    block_terms: Dict[int, List[Tuple[Exponent, Number]]] = {r: [] for r in groups}
    for alpha, (support, c) in zip(f.terms, f._support_index[0]):
        if len(support) > 1:
            block_terms[labels[support[0][0]]].append((alpha, c))

    blocks: List[ExtendedZBlock] = []
    failing: List[int] = []
    for r, members in groups.items():
        vars_ = tuple(members)
        terms = tuple(sorted(block_terms[r], key=lambda t: t[0], reverse=True))
        nonzero = [t for t in terms if t[1] != 0]
        if len(nonzero) <= 1:
            tag = "single_term"
        elif all(c <= 0 for _, c in nonzero):
            tag = "all_nonpositive"
        else:
            tag = "violating"
            failing.append(len(blocks))
        blocks.append(ExtendedZBlock(vars_, tag, terms))
    return ExtendedZResult(not failing, tuple(blocks), tuple(failing))


# ---------------------------------------------------------------------------
# Cauchy tensors


# `cauchy_tensor` rejects an m-fold sum within this relative distance of 0
CAUCHY_VANISH_TOL = 1e-12


def cauchy_tensor(c: Sequence[Number], order: int) -> SymmetricTensor:
    """Tensor with entries 1 / (c[i1] + ... + c[im]).

    Rejects generating vectors for which some m-fold sum (nearly) vanishes.
    Exact for rational generating vectors.
    """
    from itertools import combinations_with_replacement

    n = len(c)
    if n == 0:
        raise ClassificationError("empty generating vector")
    scale = max(abs(float(v)) for v in c) + 1.0
    entries: Dict[Index, Number] = {}
    for idx in combinations_with_replacement(range(n), order):
        s: Number = 0
        for i in idx:
            s = s + c[i]
        if abs(float(s)) <= CAUCHY_VANISH_TOL * scale:
            raise ClassificationError(
                f"vanishing denominator: sum over index {idx} is {s}"
            )
        if isinstance(s, (int, Fraction)):
            entries[idx] = Fraction(1, 1) / s
        else:
            entries[idx] = 1.0 / s
    return SymmetricTensor(order, n, entries)


# relative tolerance on each float coefficient of a detected Cauchy form
CAUCHY_RTOL = 1e-12


def cauchy_generator(
    f: HomogeneousPolynomial, positive: bool = True
) -> Optional[Tuple[Number, ...]]:
    """Generating vector c of a Cauchy form, or None when f is not one.

    The form of the Cauchy tensor with generator c has every one of the
    C(n+m-1, m) degree-m monomials, with coefficient mult(alpha) / (c.alpha).
    Its pure powers give c_i = 1 / (m * coefficient of x_i^m); every
    coefficient is then checked against that vector, exactly (and c is exact)
    when all coefficients are int or Fraction, else to a relative
    CAUCHY_RTOL.  With `positive` a form whose vector would have an entry
    <= 0 is rejected from its pure powers alone, so a form that is not a
    positive Cauchy form costs O(1) (a missing monomial), O(n) (a pure power
    that is not positive) or one vectorised pass over its terms.
    """
    n, m = f.dim, f.degree
    if m < 1 or len(f.terms) != math.comb(n + m - 1, m):
        return None
    pure = [f.diagonal_coefficient(i) for i in range(n)]
    if positive and any(a <= 0 for a in pure):
        return None
    mult = [exponent_multiplicity(alpha) for alpha in f.terms]
    if all(isinstance(v, (int, Fraction)) for v in f.terms.values()):
        c = tuple(Fraction(1, m) / a for a in pure)
        for (alpha, coef), k in zip(f.terms.items(), mult):
            if coef * sum(e * ci for e, ci in zip(alpha, c) if e) != k:
                return None
        return c
    cf = 1.0 / (m * np.array([float(a) for a in pure]))
    E = np.array(list(f.terms), dtype=float)
    coef = np.array([float(v) for v in f.terms.values()])
    with np.errstate(all="ignore"):
        ratio = coef * (E @ cf) / np.array(mult, dtype=float)
    if not np.all(np.abs(ratio - 1.0) <= CAUCHY_RTOL):
        return None
    return tuple(float(v) for v in cf)


def cauchy_is_psd(c: Sequence[Number], order: int) -> bool:
    """Positive semidefiniteness of the even-order Cauchy tensor.

    Equivalent to every component of the generating vector being positive
    (and, in the even-order case, also equivalent to the tensor being
    completely positive and to it having a sum-of-squares decomposition).
    """
    if order % 2 != 0:
        raise ClassificationError("cauchy_is_psd requires even order")
    return min(float(v) for v in c) > 0.0


def cauchy_cp_approx(
    c: Sequence[Number], order: int, k: int
) -> List[np.ndarray]:
    """Riemann-sum vectors of the completely positive approximation.

    For positive c the Cauchy tensor equals the integral over t in (0, 1] of
    the rank-one power of (t^{c_i - 1/m})_i; sampling t = j/k gives

        u^j = ( (j/k)^{c_i - 1/m} / k^{1/m} )_i,   j = 1..k,

    and sum_j (u^j)^m converges to the tensor as k grows.  Every u^j is
    entrywise positive.
    """
    if min(float(v) for v in c) <= 0:
        raise ClassificationError("completely positive approximation needs c > 0")
    if k < 1:
        raise ClassificationError("k must be at least 1")
    cs = np.asarray([float(v) for v in c])
    out = []
    kroot = k ** (1.0 / order)
    for j in range(1, k + 1):
        t = j / k
        out.append(t ** (cs - 1.0 / order) / kroot)
    return out


# ---------------------------------------------------------------------------
# combined report


@dataclass
class ClassVerdict:
    holds: Optional[bool]
    boundary: bool = False
    witness: Optional[dict] = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "boundary": self.boundary,
            "witness": self.witness,
            "note": self.note,
        }


@dataclass
class ClassificationReport:
    order: int
    dim: int
    verdicts: Dict[str, ClassVerdict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "dim": self.dim,
            "classes": {k: v.to_dict() for k, v in self.verdicts.items()},
        }

    def to_text(self) -> str:
        lines = [f"classification of order-{self.order} dim-{self.dim} tensor"]
        for name, v in self.verdicts.items():
            mark = {True: "yes", False: "no", None: "n/a"}[v.holds]
            extra = " [boundary]" if v.boundary else ""
            note = f"  ({v.note})" if v.note else ""
            lines.append(f"  {name:28s} {mark}{extra}{note}")
        return "\n".join(lines)


def _json_safe(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [float(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (frozenset, set, tuple, list)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    return obj


def classify(A: SymmetricTensor, tol: float = BOUNDARY_TOL) -> ClassificationReport:
    """Run every structured-class test and collect witnesses.

    Classes that need even order report holds=None on odd input instead of
    failing the whole report.
    """
    report = ClassificationReport(A.order, A.dim)
    even = A.order % 2 == 0
    f = A.to_polynomial()

    dom = is_diagonally_dominated(A, tol)
    report.verdicts["diagonally_dominated"] = ClassVerdict(
        dom.strict, dom.boundary,
        {"violating_row": dom.witness_row} if dom.witness_row is not None else None,
    )
    report.verdicts["weakly_diagonally_dominated"] = ClassVerdict(
        dom.weak, dom.boundary,
        {"violating_row": dom.witness_row} if dom.witness_row is not None else None,
        "" if even else "requires even order",
    )

    zok, zwit = is_z_tensor(A)
    report.verdicts["z_tensor"] = ClassVerdict(
        zok, False, {"violating_index": list(zwit)} if zwit else None
    )

    if even:
        ext = detect_extended_z(A, f)
        report.verdicts["extended_z"] = ClassVerdict(
            ext.holds,
            False,
            {
                "partition": [_json_safe(b.variables) for b in ext.blocks],
                "tags": [b.tag for b in ext.blocks],
            },
        )
    else:
        report.verdicts["extended_z"] = ClassVerdict(None, note="requires even order")

    b0ok, b0wit = is_b0(A, tol)
    v = ClassVerdict(b0ok, False, _json_safe(b0wit) if b0wit else None)
    if b0ok:
        try:
            _, terms = b0_split(A)
            v.witness = {
                "split_terms": [
                    {"h": _json_safe(h), "J": sorted(J)} for h, J in terms
                ]
            }
        except ClassificationError:
            pass
    report.verdicts["b0"] = v

    fam = classify_b_family(A, tol, form=f)
    report.verdicts["double_b"] = ClassVerdict(fam.double_b, fam.boundary)
    report.verdicts["quasi_double_b0"] = ClassVerdict(fam.quasi_double_b0, fam.boundary)
    if fam.mb0 is None:
        report.verdicts["mb0"] = ClassVerdict(
            None, True, {"bracket": fam.details["bracket"]}, "power iteration stalled"
        )
    else:
        report.verdicts["mb0"] = ClassVerdict(
            fam.mb0, fam.boundary, {"s": fam.details["s"], "rho": fam.details["rho"]}
        )

    try:
        hv = is_h_tensor(A, tol, form=f)
        report.verdicts["h_tensor"] = ClassVerdict(
            hv.h, hv.boundary, {"s": hv.s, "rho": hv.rho}
        )
        report.verdicts["h_tensor_nonsingular"] = ClassVerdict(
            hv.nonsingular,
            hv.boundary,
            {"y": _json_safe(hv.y), "margin": hv.margin}
            if hv.y is not None
            else None,
        )
    except PowerIterationError as exc:
        report.verdicts["h_tensor"] = ClassVerdict(
            None, True, {"bracket": list(exc.bracket)}, "power iteration stalled"
        )
        report.verdicts["h_tensor_nonsingular"] = ClassVerdict(None, True)

    c = cauchy_generator(f, positive=False)
    if c is None:
        report.verdicts["cauchy"] = ClassVerdict(False)
    else:
        positive = all(v > 0 for v in c)
        report.verdicts["cauchy"] = ClassVerdict(
            positive, False, {"c": _json_safe(c)},
            "" if positive else "non-positive generator",
        )
    return report
