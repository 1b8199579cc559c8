"""Sparse symmetric tensors and homogeneous forms.

An order-m, dimension-n symmetric tensor is stored as a map from sorted
(canonical) index tuples to entry values.  Any permutation of an index tuple
refers to the same stored entry, and each canonical tuple carries a
multinomial multiplicity equal to the number of distinct permutations of the
tuple.  The induced degree-m form is

    f(x) = sum over all index tuples of  a[i1,...,im] * x[i1] * ... * x[im],

so the coefficient of the monomial x^alpha equals multiplicity * entry for the
canonical tuple realizing alpha.

Exact values (int, fractions.Fraction) survive all algebraic constructions in
this module, so rational instances stay rational.  Variable indices are
0-based throughout the programmatic API; 1-based indices appear only in the
text file formats (see fileio).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

Number = Union[int, float, Fraction]
Index = Tuple[int, ...]
Exponent = Tuple[int, ...]


class TensorError(ValueError):
    """Invalid tensor construction or operation."""


def multiplicity(index: Sequence[int]) -> int:
    """Number of distinct permutations of an index tuple (exact integer)."""
    counts = Counter(index)
    out = math.factorial(len(index))
    for c in counts.values():
        out //= math.factorial(c)
    return out


def canonicalize(index: Sequence[int], dim: int) -> Tuple[Index, int]:
    """Sort an index tuple and return it with its permutation multiplicity.

    Raises TensorError when any index falls outside [0, dim).
    Canonicalization is idempotent: canonicalize(canonical) == canonical.
    """
    for i in index:
        if not 0 <= i < dim:
            raise TensorError(f"index {i} out of range [0, {dim})")
    return tuple(sorted(index)), multiplicity(index)


def index_to_exponent(index: Sequence[int], dim: int) -> Exponent:
    """Exponent vector alpha with alpha[v] = number of occurrences of v."""
    alpha = [0] * dim
    for i in index:
        alpha[i] += 1
    return tuple(alpha)


def exponent_to_index(alpha: Sequence[int]) -> Index:
    """Canonical index tuple realizing the exponent vector."""
    out = []
    for v, e in enumerate(alpha):
        out.extend([v] * e)
    return tuple(out)


def exponent_multiplicity(alpha: Sequence[int]) -> int:
    """Multinomial coefficient |alpha|! / prod(alpha_i!)."""
    out = math.factorial(sum(alpha))
    for e in alpha:
        out //= math.factorial(e)
    return out


def _check_finite(value: Number, where: object) -> None:
    if not isinstance(value, (int, Fraction)) and not math.isfinite(value):
        raise TensorError(f"non-finite value {value!r} at {where}")


def _exact_div(value: Number, k: int) -> Number:
    if isinstance(value, (int, Fraction)):
        return Fraction(value, k)
    return value / k


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """Homogeneous polynomial: map from exponent vectors to coefficients.

    Every stored exponent vector has nonnegative entries summing to `degree`;
    zero coefficients are dropped at construction.
    """

    degree: int
    dim: int
    terms: Mapping[Exponent, Number]

    def __post_init__(self):
        clean: Dict[Exponent, Number] = {}
        for alpha, c in self.terms.items():
            # C-level passes: long exponent vectors dominate large forms.  A
            # tuple whose sum is a plain int holds only ints and is kept as is.
            total = sum(alpha) if type(alpha) is tuple else None
            if type(total) is not int:
                exact = tuple(map(int, alpha))
                if exact != tuple(alpha):
                    raise TensorError(f"non-integer exponent vector {tuple(alpha)}")
                alpha, total = exact, sum(exact)
            if len(alpha) != self.dim or (alpha and min(alpha) < 0):
                raise TensorError(f"bad exponent vector {alpha} for dim {self.dim}")
            if total != self.degree:
                raise TensorError(
                    f"non-homogeneous term {alpha}: degree {total} != {self.degree}"
                )
            _check_finite(c, alpha)
            if c != 0:
                clean[alpha] = clean.get(alpha, 0) + c
        clean = {a: c for a, c in clean.items() if c != 0}
        object.__setattr__(self, "terms", clean)

    def coefficient(self, alpha: Sequence[int]) -> Number:
        return self.terms.get(tuple(alpha), 0)

    def diagonal_coefficient(self, i: int) -> Number:
        """Coefficient of x_i ** degree."""
        alpha = tuple(self.degree if v == i else 0 for v in range(self.dim))
        return self.terms.get(alpha, 0)

    def mixed_terms(self) -> Dict[Exponent, Number]:
        """All terms except the pure powers x_i ** degree."""
        out = {}
        for alpha, c in self.terms.items():
            if max(alpha) != self.degree:
                out[alpha] = c
        return out

    def evaluate(self, x: Sequence[Number]) -> Number:
        if len(x) != self.dim:
            raise TensorError("dimension mismatch in evaluate")
        total = 0
        for alpha, c in self.terms.items():
            p = c
            for v, e in enumerate(alpha):
                if e:
                    p = p * x[v] ** e
            total = total + p
        return total

    def scale(self, t: Number) -> "HomogeneousPolynomial":
        return HomogeneousPolynomial(
            self.degree, self.dim, {a: t * c for a, c in self.terms.items()}
        )

    def __add__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        if (self.degree, self.dim) != (other.degree, other.dim):
            raise TensorError("degree/dimension mismatch in polynomial addition")
        terms = dict(self.terms)
        for a, c in other.terms.items():
            terms[a] = terms.get(a, 0) + c
        return HomogeneousPolynomial(self.degree, self.dim, terms)

    def __sub__(self, other: "HomogeneousPolynomial") -> "HomogeneousPolynomial":
        return self + other.scale(-1)

    def max_abs_coefficient(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(float(c)) for c in self.terms.values())

    @cached_property
    def _support_index(
        self,
    ) -> Tuple[List[Tuple[Tuple[Tuple[int, int], ...], Number]], Dict[int, List[int]]]:
        """Each term as its support, (variable, exponent) pairs, with its
        coefficient, in term order; and for each variable the positions of
        the terms using it.  Built once per form, so that `restrict` costs
        what the block's own terms cost."""
        supported = []
        users: Dict[int, List[int]] = {}
        variables = range(self.dim)
        for t, (alpha, c) in enumerate(self.terms.items()):
            # compress finds the nonzero exponents at C speed: long, sparse
            # exponent vectors dominate large forms
            support = tuple((v, alpha[v]) for v in compress(variables, alpha))
            supported.append((support, c))
            for v, _ in support:
                users.setdefault(v, []).append(t)
        return supported, users

    def restrict(self, variables: Sequence[int]) -> "HomogeneousPolynomial":
        """Project onto the terms supported inside `variables` (re-indexed).

        The j-th variable of the result is variables[j]; terms keep their
        order in this form.
        """
        vs = list(variables)
        pos = {v: j for j, v in enumerate(vs)}
        supported, users = self._support_index
        # only terms using a kept variable can survive, except a degree-0
        # term, which uses none
        hits = set(range(len(supported))) if self.degree == 0 else set()
        for v in pos:
            hits.update(users.get(v, ()))
        terms: Dict[Exponent, Number] = {}
        for t in sorted(hits):
            support, c = supported[t]
            if all(v in pos for v, _ in support):
                beta = [0] * len(vs)
                for v, e in support:
                    beta[pos[v]] = e
                terms[tuple(beta)] = c
        return HomogeneousPolynomial(self.degree, len(vs), terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for alpha in sorted(self.terms, reverse=True):
            c = self.terms[alpha]
            mono = "*".join(
                f"x{v + 1}^{e}" if e > 1 else f"x{v + 1}"
                for v, e in enumerate(alpha)
                if e
            )
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(bits)


def term_arrays(f: HomogeneousPolynomial) -> Tuple[np.ndarray, np.ndarray]:
    """f's exponent vectors as integer rows and its coefficients as floats,
    in term order."""
    exps = np.array(list(f.terms), dtype=np.int64).reshape(len(f.terms), f.dim)
    coeffs = np.fromiter(map(float, f.terms.values()), dtype=float, count=len(f.terms))
    return exps, coeffs


@dataclass(frozen=True)
class SymmetricTensor:
    """Even-handed sparse symmetric tensor of order `order`, dimension `dim`.

    `entries` maps canonical (sorted) index tuples to values; absent entries
    are zero.  They are stored in ascending index order whatever the order
    given, so every sum over the entries, or over the induced form's terms,
    is the same for any insertion order.  Instances are treated as immutable
    values: all operations return new tensors.
    """

    order: int
    dim: int
    entries: Mapping[Index, Number]

    def __post_init__(self):
        if self.order < 1 or self.dim < 1:
            raise TensorError("order and dimension must be positive")
        clean: Dict[Index, Number] = {}
        for idx, v in self.entries.items():
            canon, _ = canonicalize(idx, self.dim)
            _check_finite(v, canon)
            if canon in clean and clean[canon] != v:
                raise TensorError(f"conflicting values for canonical index {canon}")
            if v != 0:
                clean[canon] = v
        object.__setattr__(self, "entries", dict(sorted(clean.items())))

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_entries(
        order: int,
        dim: int,
        items: Iterable[Tuple[Sequence[int], Number]],
        accumulate: bool = False,
    ) -> "SymmetricTensor":
        """Build from (index, value) pairs given in any index order.

        With accumulate=False a repeated canonical index is an error; with
        accumulate=True values add up.
        """
        entries: Dict[Index, Number] = {}
        for idx, v in items:
            if len(idx) != order:
                raise TensorError(f"index {tuple(idx)} does not have order {order}")
            canon, _ = canonicalize(idx, dim)
            if canon in entries:
                if not accumulate:
                    raise TensorError(f"duplicate canonical index {canon}")
                entries[canon] = entries[canon] + v
            else:
                entries[canon] = v
        return SymmetricTensor(order, dim, entries)

    # -- access ------------------------------------------------------------

    def entry(self, index: Sequence[int]) -> Number:
        """Entry value; invariant under any permutation of `index`."""
        canon, _ = canonicalize(index, self.dim)
        return self.entries.get(canon, 0)

    def diagonal_entry(self, i: int) -> Number:
        return self.entries.get((i,) * self.order, 0)

    def is_diagonal(self) -> bool:
        return all(len(set(idx)) == 1 for idx in self.entries)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "SymmetricTensor") -> "SymmetricTensor":
        if (self.order, self.dim) != (other.order, other.dim):
            raise TensorError("shape mismatch in tensor addition")
        entries = dict(self.entries)
        for idx, v in other.entries.items():
            entries[idx] = entries.get(idx, 0) + v
        return SymmetricTensor(self.order, self.dim, entries)

    def __sub__(self, other: "SymmetricTensor") -> "SymmetricTensor":
        return self + other.scale(-1)

    def __neg__(self) -> "SymmetricTensor":
        return self.scale(-1)

    def scale(self, t: Number) -> "SymmetricTensor":
        return SymmetricTensor(
            self.order, self.dim, {idx: t * v for idx, v in self.entries.items()}
        )

    def shift_diagonal(self, c: Number) -> "SymmetricTensor":
        """Add c times the identity tensor."""
        entries = dict(self.entries)
        for i in range(self.dim):
            idx = (i,) * self.order
            entries[idx] = entries.get(idx, 0) + c
        return SymmetricTensor(self.order, self.dim, entries)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x: Sequence[Number]) -> Number:
        """Value of the induced form at x (sum over all index tuples)."""
        if len(x) != self.dim:
            raise TensorError("dimension mismatch in evaluate")
        total = 0
        for idx, v in self.entries.items():
            p = v * multiplicity(idx)
            for i in idx:
                p = p * x[i]
            total = total + p
        return total

    @cached_property
    def _form(self):
        """The induced form compiled for the sparse evaluator, built on first use."""
        from .descent import FormEvaluator

        return FormEvaluator(self.to_polynomial())

    @cached_property
    def _row_tables(self):
        """The per-row quantities of `structured.row_tables`, built on first use."""
        from .structured import _build_row_tables

        return _build_row_tables(self)

    def apply(self, x: Sequence[float]) -> np.ndarray:
        """Contract along all but the first mode.

        Component i equals the sum over the remaining m-1 indices of
        a[i, i2, ..., im] * x[i2] * ... * x[im]; it is 1/m times the gradient
        of the induced form, so x . apply(x) == evaluate(x).  Computed in
        floats by the compiled form evaluator (descent.FormEvaluator), which
        is built once per tensor.
        """
        if len(x) != self.dim:
            raise TensorError("dimension mismatch in apply")
        xf = np.asarray(x, dtype=float).reshape(1, -1)
        return self._form._gradient(xf)[0] / self.order

    def inner(self, other: "SymmetricTensor") -> Number:
        """Entrywise inner product over all (non-canonical) index tuples."""
        if (self.order, self.dim) != (other.order, other.dim):
            raise TensorError("shape mismatch in inner product")
        small, big = self.entries, other.entries
        if len(big) < len(small):
            small, big = big, small
        total = 0
        for idx, v in small.items():
            w = big.get(idx)
            if w is not None:
                total = total + multiplicity(idx) * v * w
        return total

    def frobenius_sq(self) -> Number:
        return self.inner(self)

    def norm(self) -> float:
        return math.sqrt(float(self.frobenius_sq()))

    # -- conversions ---------------------------------------------------------

    def to_polynomial(self) -> HomogeneousPolynomial:
        """Induced degree-m form; coefficient of x^alpha is mult * entry."""
        terms: Dict[Exponent, Number] = {}
        for idx, v in self.entries.items():
            alpha = index_to_exponent(idx, self.dim)
            terms[alpha] = multiplicity(idx) * v
        return HomogeneousPolynomial(self.order, self.dim, terms)

    def to_dense(self) -> np.ndarray:
        """Dense n^m array export (guarded against blow-up)."""
        if self.dim ** self.order > 2_000_000:
            raise TensorError("dense export too large")
        out = np.zeros((self.dim,) * self.order)
        for idx, v in self.entries.items():
            seen = set()
            base = list(idx)
            from itertools import permutations

            for perm in permutations(base):
                if perm not in seen:
                    seen.add(perm)
                    out[perm] = float(v)
        return out


def from_polynomial(f: HomogeneousPolynomial) -> SymmetricTensor:
    """Unique symmetric tensor whose induced form is f.

    The canonical entry at the index realizing alpha is coefficient divided
    by the multinomial multiplicity; rational coefficients stay rational.
    """
    entries: Dict[Index, Number] = {}
    for alpha, c in f.terms.items():
        idx = exponent_to_index(alpha)
        entries[idx] = _exact_div(c, exponent_multiplicity(alpha))
    return SymmetricTensor(f.degree, f.dim, entries)


# -- named constructions ---------------------------------------------------


def identity_tensor(order: int, dim: int) -> SymmetricTensor:
    """Ones on the diagonal tuples (i, ..., i), zero elsewhere."""
    return SymmetricTensor(order, dim, {(i,) * order: 1 for i in range(dim)})


def diagonal_tensor(order: int, values: Sequence[Number]) -> SymmetricTensor:
    return SymmetricTensor(
        order, len(values), {(i,) * order: v for i, v in enumerate(values)}
    )


def all_one_tensor(order: int, dim: int) -> SymmetricTensor:
    return partially_all_one(order, dim, range(dim))


def partially_all_one(order: int, dim: int, subset: Iterable[int]) -> SymmetricTensor:
    """Ones exactly on the index tuples drawn from `subset`."""
    from itertools import combinations_with_replacement

    sub = sorted(set(subset))
    if not sub or any(not 0 <= j < dim for j in sub):
        raise TensorError(f"subset {sub} is not a nonempty subset of range({dim})")
    entries = {
        tuple(idx): 1 for idx in combinations_with_replacement(sub, order)
    }
    return SymmetricTensor(order, dim, entries)


def rank_one_tensor(order: int, x: Sequence[Number]) -> SymmetricTensor:
    """The symmetric rank-one tensor with entries x[i1] * ... * x[im]."""
    from itertools import combinations_with_replacement

    n = len(x)
    entries: Dict[Index, Number] = {}
    for idx in combinations_with_replacement(range(n), order):
        v: Number = 1
        for i in idx:
            v = v * x[i]
        if v != 0:
            entries[idx] = v
    return SymmetricTensor(order, n, entries)


def build_special(kind: str, **params) -> SymmetricTensor:
    """Dispatcher over the named constructions.

    Kinds: identity | all_one | partially_all_one(subset) | rank_one(x)
    | cauchy(c).  The Cauchy construction lives in `structured`.
    """
    if kind == "identity":
        return identity_tensor(params["order"], params["dim"])
    if kind == "all_one":
        return all_one_tensor(params["order"], params["dim"])
    if kind == "partially_all_one":
        return partially_all_one(params["order"], params["dim"], params["subset"])
    if kind == "rank_one":
        return rank_one_tensor(params["order"], params["x"])
    if kind == "cauchy":
        from .structured import cauchy_tensor

        return cauchy_tensor(params["c"], params["order"])
    raise TensorError(f"unknown construction kind {kind!r}")


def sym_outer_square(M: SymmetricTensor) -> SymmetricTensor:
    """Symmetric tensor S of order 2m with S x^{2m} = (M x^m)^2.

    Built by convolving the coefficient map of the induced form of M with
    itself, then symmetrizing through the polynomial correspondence; exact
    for rational inputs.
    """
    f = M.to_polynomial()
    terms: Dict[Exponent, Number] = {}
    items = list(f.terms.items())
    for a1, c1 in items:
        for a2, c2 in items:
            a = tuple(e1 + e2 for e1, e2 in zip(a1, a2))
            terms[a] = terms.get(a, 0) + c1 * c2
    sq = HomogeneousPolynomial(2 * M.order, M.dim, terms)
    return from_polynomial(sq)


def absolute_tensor(A: SymmetricTensor) -> SymmetricTensor:
    """Entrywise absolute value."""
    return SymmetricTensor(
        A.order, A.dim, {idx: abs(v) for idx, v in A.entries.items()}
    )


def comparison_tensor(A: SymmetricTensor) -> SymmetricTensor:
    """Absolute values on the diagonal, negated absolute values elsewhere."""
    entries: Dict[Index, Number] = {}
    for idx, v in A.entries.items():
        if len(set(idx)) == 1:
            entries[idx] = abs(v)
        else:
            entries[idx] = -abs(v)
    return SymmetricTensor(A.order, A.dim, entries)


@dataclass(frozen=True)
class EigenPair:
    """Candidate eigenvalue / eigenvector pair (real, vector not all zero)."""

    value: float
    vector: Tuple[float, ...]


def eigen_residual(A: SymmetricTensor, value: float, x: Sequence[float]) -> float:
    """Max-norm residual of the eigenvalue equation A x^{m-1} = lambda x^{[m-1]}.

    Zero exactly at an H-eigenpair.  x^{[m-1]} raises components to the
    (m-1)-th power.
    """
    xf = np.asarray(x, dtype=float)
    if not np.any(xf != 0.0):
        raise TensorError("eigenvector must be nonzero")
    lhs = A.apply(xf)
    rhs = float(value) * xf ** (A.order - 1)
    return float(np.max(np.abs(lhs - rhs)))
