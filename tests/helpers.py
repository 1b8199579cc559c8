"""Independent oracles used to pin expected values in the tests.

Everything here recomputes quantities from first principles (dense index
enumeration, finite differences, direct monomial evaluation) without going
through the library's sparse canonical paths, so the tests compare two
independent routes.
"""

from itertools import product

import numpy as np

from sostensor.tensor import SymmetricTensor


def dense_evaluate(A: SymmetricTensor, x) -> float:
    """Sum over every index tuple of entry * product, by brute force."""
    total = 0.0
    for idx in product(range(A.dim), repeat=A.order):
        v = A.entry(idx)
        if v:
            p = float(v)
            for i in idx:
                p *= float(x[i])
            total += p
    return total


def dense_apply(A: SymmetricTensor, x) -> np.ndarray:
    out = np.zeros(A.dim)
    for idx in product(range(A.dim), repeat=A.order):
        v = A.entry(idx)
        if v:
            p = float(v)
            for i in idx[1:]:
                p *= float(x[i])
            out[idx[0]] += p
    return out


def dense_inner(A: SymmetricTensor, B: SymmetricTensor) -> float:
    total = 0.0
    for idx in product(range(A.dim), repeat=A.order):
        total += float(A.entry(idx)) * float(B.entry(idx))
    return total


def central_difference_gradient(fn, x, h=1e-5) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def grid_min(fn, n, m, steps=9) -> float:
    """Coarse minimum of fn over the unit m-norm sphere via a dense grid."""
    best = np.inf
    axes = np.linspace(-1.0, 1.0, steps)
    for point in product(axes, repeat=n):
        v = np.array(point)
        norm = np.sum(np.abs(v) ** m) ** (1.0 / m)
        if norm == 0.0:
            continue
        best = min(best, fn(v / norm))
    return best


def random_symmetric_tensor(rng, order, dim, density=0.5, scale=1.0) -> SymmetricTensor:
    from itertools import combinations_with_replacement

    entries = {}
    for idx in combinations_with_replacement(range(dim), order):
        if rng.uniform() < density:
            entries[idx] = float(rng.uniform(-scale, scale))
    if not entries:
        entries[(0,) * order] = 1.0
    return SymmetricTensor(order, dim, entries)


def random_extended_z_tensor(rng, order, dim) -> SymmetricTensor:
    """Random tensor with extended-Z block structure (not necessarily PSD)."""
    from itertools import combinations_with_replacement

    cut = int(rng.integers(1, dim)) if dim > 1 else 1
    blocks = [list(range(cut)), list(range(cut, dim))]
    blocks = [b for b in blocks if b]
    entries = {(i,) * order: float(rng.uniform(0.3, 2.0)) for i in range(dim)}
    for block in blocks:
        if len(block) < 2:
            continue
        if rng.uniform() < 0.5:
            for _ in range(50):
                idx = tuple(
                    sorted(block[int(rng.integers(0, len(block)))] for _ in range(order))
                )
                if len(set(idx)) >= 2:
                    entries[idx] = float(rng.uniform(-1.5, 1.5))
                    break
        else:
            picks = set()
            for _ in range(3):
                idx = tuple(
                    sorted(block[int(rng.integers(0, len(block)))] for _ in range(order))
                )
                if len(set(idx)) >= 2:
                    picks.add(idx)
            for idx in picks:
                entries[idx] = -float(rng.uniform(0.0, 1.0))
    return SymmetricTensor(order, dim, entries)


# ---------------------------------------------------------------------------
# reference definitions: the straightforward scans the library's indexed and
# one-pass versions must reproduce exactly (same terms, same order, same
# floating-point sums)


def reference_restrict(f, variables):
    """HomogeneousPolynomial.restrict by a scan of every full exponent vector."""
    from sostensor.tensor import HomogeneousPolynomial

    vs = list(variables)
    pos = {v: j for j, v in enumerate(vs)}
    terms = {}
    for alpha, c in f.terms.items():
        if all(e == 0 or v in pos for v, e in enumerate(alpha)):
            beta = [0] * len(vs)
            for v, e in enumerate(alpha):
                if e:
                    beta[pos[v]] = e
            terms[tuple(beta)] = c
    return HomogeneousPolynomial(f.degree, len(vs), terms)


def _row_tuple_count(idx, i, order):
    from sostensor.tensor import multiplicity

    c = idx.count(i)
    return multiplicity(idx) * c // order if c else 0


def reference_row_absolute_offsum(A, i):
    """Sum of |entries| over the off-diagonal tuples of row i, one row scan."""
    diag = (i,) * A.order
    total = 0
    for idx, v in A.entries.items():
        if idx == diag or i not in idx:
            continue
        total = total + _row_tuple_count(idx, i, A.order) * abs(v)
    return total


def reference_row_weak_offsum(A, i):
    """The off-diagonal sum restricted to the delta index set of A."""
    from sostensor.structured import delta_index_set
    from sostensor.tensor import index_to_exponent

    delta = delta_index_set(A)
    diag = (i,) * A.order
    total = 0
    for idx, v in A.entries.items():
        if idx == diag or i not in idx:
            continue
        if index_to_exponent(idx, A.dim) in delta:
            total = total + _row_tuple_count(idx, i, A.order) * abs(v)
    return total


def reference_h_witness_margin(A, y):
    """min over rows i of |a[i..i]| y_i^(m-1) minus the sum over row i's off
    tuples of |a[i, i2, ..., im]| y_i2 ... y_im, one row scan per row."""
    from collections import Counter

    margin = np.inf
    for i in range(A.dim):
        lhs = abs(float(A.diagonal_entry(i))) * y[i] ** (A.order - 1)
        rhs = 0.0
        diag = (i,) * A.order
        for idx, v in A.entries.items():
            if idx == diag or i not in idx:
                continue
            p = 1.0
            for j, cj in Counter(idx).items():
                e = cj - 1 if j == i else cj
                if e:
                    p *= y[j] ** e
            rhs += _row_tuple_count(idx, i, A.order) * abs(float(v)) * p
        margin = min(margin, lhs - rhs)
    return margin


def reference_partition(f):
    """Variable components of a form by union-find over its mixed terms,
    each component sorted, in order of smallest variable."""
    parent = list(range(f.dim))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for alpha in f.mixed_terms():
        support = [v for v, e in enumerate(alpha) if e]
        for v in support[1:]:
            ra, rb = find(support[0]), find(v)
            parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for v in range(f.dim):
        groups.setdefault(find(v), []).append(v)
    return [tuple(groups[r]) for r in sorted(groups)]


def reference_row_sum(A, i):
    total = 0
    for idx, v in A.entries.items():
        if i in idx:
            total = total + _row_tuple_count(idx, i, A.order) * v
    return total


def reference_row_max_off_entry(A, i):
    """Largest off-diagonal entry of row i; unstored positions count as 0."""
    diag = (i,) * A.order
    best = 0
    for idx, v in A.entries.items():
        if idx == diag or i not in idx:
            continue
        if v > best:
            best = v
    return best


def reference_gershgorin(A):
    out = np.inf
    for i in range(A.dim):
        out = min(
            out, float(A.diagonal_entry(i)) - float(reference_row_absolute_offsum(A, i))
        )
    return out


def reference_double_b_quantities(B):
    n, m = B.dim, B.order
    nm1 = n ** (m - 1)
    beta = np.zeros(n)
    delta = np.zeros(n)
    for i in range(n):
        beta[i] = max(0.0, float(reference_row_max_off_entry(B, i)))
        off = float(reference_row_sum(B, i)) - float(B.diagonal_entry(i))
        delta[i] = (nm1 - 1) * beta[i] - off
    delta_ij = np.zeros((n, n))
    for j in range(n):
        for i in range(n):
            if i == j:
                continue
            tail = float(B.entry((j,) + (i,) * (m - 1)))
            delta_ij[i, j] = delta[j] - (beta[j] - tail)
    return beta, delta, delta_ij


def reference_double_b_pairs(B, tol):
    """(double_b, quasi_double_b0, boundary before the MB0 check) by the
    pairwise loop over i != j."""
    n, m = B.dim, B.order
    beta, delta, delta_ij = reference_double_b_quantities(B)
    diag = np.array([float(B.diagonal_entry(i)) for i in range(n)])
    gap = diag - beta
    scale = 1.0 + float(np.max(np.abs(diag))) + float(np.max(beta))
    band = tol * scale
    boundary = bool(np.any(np.abs(gap) <= band))
    positive_gap = bool(np.all(gap > band))
    dom = bool(np.all(gap - delta >= -band))
    pairwise = True
    quasi = True
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lhs = gap[i] * gap[j]
            rhs = delta[i] * delta[j]
            if not lhs > rhs + band * band:
                if abs(lhs - rhs) <= band * (1 + abs(lhs) + abs(rhs)):
                    boundary = True
                pairwise = False
            tail = float(B.entry((j,) + (i,) * (m - 1)))
            q_lhs = gap[i] * (gap[j] - delta_ij[i, j])
            q_rhs = (beta[j] - tail) * delta[i]
            if q_lhs < q_rhs - band * (1 + abs(q_lhs) + abs(q_rhs)):
                quasi = False
    return positive_gap and dom and pairwise, positive_gap and quasi, boundary


def reference_gram_pairs(basis):
    """Per degree-m exponent alpha, the basis pairs (p, q), p <= q, with
    beta_p + beta_q = alpha, by the double loop over the basis."""
    buckets = {}
    B = basis.exponents
    for p in range(len(B)):
        for q in range(p, len(B)):
            alpha = tuple(a + b for a, b in zip(B[p], B[q]))
            buckets.setdefault(alpha, []).append((p, q))
    return buckets


def reference_constraint_values(Q, basis, alphas):
    """<E_alpha, Q> per alpha: Q[p, p] plus 2 Q[p, q] over the pairs."""
    pairs = reference_gram_pairs(basis)
    out = np.zeros(len(alphas))
    for k, alpha in enumerate(alphas):
        v = 0.0
        for p, q in pairs[alpha]:
            v += Q[p, q] if p == q else 2.0 * Q[p, q]
        out[k] = v
    return out


def reference_congruence(V, basis, alphas):
    """Upper triangles (np.triu_indices order) of V' E_alpha V, one row per
    alpha, summed from outer products pair by pair."""
    pairs = reference_gram_pairs(basis)
    r = V.shape[1]
    iu, ju = np.triu_indices(r)
    out = np.zeros((len(alphas), len(iu)))
    for k, alpha in enumerate(alphas):
        Ak = np.zeros((r, r))
        for p, q in pairs[alpha]:
            if p == q:
                Ak += np.outer(V[p], V[p])
            else:
                Ak += np.outer(V[p], V[q]) + np.outer(V[q], V[p])
        out[k] = Ak[iu, ju]
    return out


def reference_pure_power_rows(system, m):
    """1.0 at the constraints whose alpha is a pure power x_i^m, by a scan
    over the system's alphas."""
    rows = np.zeros(system.num_constraints)
    for k, alpha in enumerate(system.alphas):
        if max(alpha) == m:
            rows[k] = 1.0
    return rows


def h_boundary_form(f, gap):
    """f with every pure power lowered by one constant c, chosen so that
    s - rho(Z) = gap for the split |comparison tensor| = s I - Z that
    `is_h_tensor` tests: Z's diagonal s - |a_ii| and off entries do not move,
    so neither does its radius, while s drops by c.  Every a_ii must stay
    positive (true for an H-tensor with off-diagonal terms in every row)."""
    from sostensor.structured import spectral_radius_nonnegative
    from sostensor.tensor import (
        HomogeneousPolynomial, comparison_tensor, from_polynomial, identity_tensor,
    )

    A = from_polynomial(f)
    s = max(abs(float(A.diagonal_entry(i))) for i in range(A.dim))
    Z = identity_tensor(A.order, A.dim).scale(s) - comparison_tensor(A)
    c = s - spectral_radius_nonnegative(Z, tol=1e-12) - gap
    terms = {alpha: float(v) for alpha, v in f.terms.items()}
    for i in range(f.dim):
        pure = tuple(f.degree if j == i else 0 for j in range(f.dim))
        assert terms[pure] > c
        terms[pure] -= c
    return HomogeneousPolynomial(f.degree, f.dim, terms)
