"""Independent checks of the program's outputs.

Nothing here trusts a status field, a residual or a rank reported by the
program.  Certificates are re-checked from their Gram matrix and monomial
basis alone; the form's coefficients are recomputed from the tensor entries
(coefficient of x^alpha = entry * number of distinct index permutations).
Every check returns a list of failure reasons; an empty list means accepted.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Tuple

import numpy as np

# documented certificate tolerance: 1e-6 * (1 + max |coefficient|)
COEF_REL_TOL = 1e-6
# eigenvalues of a PSD Gram matrix may dip below zero by rounding only
PSD_REL_TOL = 1e-9
# relative eigenvalue cut for the numerical rank (the certificate's own cut)
RANK_REL_TOL = 1e-7
# example54 eigenvalues, as in the acceptance suite
EIG_ABS_TOL = 1e-3
VALUE_POINTS = 4


def tensor_coefficients(tensor) -> Dict[Tuple[int, ...], float]:
    """Coefficients of the induced form, computed from the stored entries."""
    out: Dict[Tuple[int, ...], float] = {}
    m = tensor.order
    for idx, value in tensor.entries.items():
        counts = Counter(idx)
        mult = math.factorial(m)
        for c in counts.values():
            mult //= math.factorial(c)
        alpha = [0] * tensor.dim
        for i in idx:
            alpha[i] += 1
        key = tuple(alpha)
        out[key] = out.get(key, 0.0) + float(value) * mult
    return out


def _components(p: np.ndarray, q: np.ndarray) -> List[np.ndarray]:
    """Connected components of the Gram matrix's nonzero pattern."""
    parent: Dict[int, int] = {}

    def find(a: int) -> int:
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(p.tolist(), q.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: Dict[int, List[int]] = {}
    for a in list(parent):
        groups.setdefault(find(a), []).append(a)
    return [np.array(sorted(g)) for g in groups.values()]


def rank_bound(order: int, dim: int) -> int:
    """floor((sqrt(1+8a)-1)/2) with a = C(dim+order-1, order)."""
    a = math.comb(dim + order - 1, order)
    return (math.isqrt(1 + 8 * a) - 1) // 2


def check_certificate(tensor, cert, rng: np.random.Generator) -> List[str]:
    """PSD, coefficient match, value match at random points and rank bound."""
    n, m = tensor.dim, tensor.order
    B = np.array(cert.basis.exponents, dtype=np.int64).reshape(-1, n)
    Q = np.asarray(cert.gram, dtype=float)
    N = B.shape[0]
    if Q.shape != (N, N):
        return [f"gram shape {Q.shape} does not match basis size {N}"]
    if N != math.comb(n + m // 2 - 1, m // 2) or np.any(B.sum(axis=1) != m // 2):
        return ["basis is not the full degree-m/2 monomial basis"]
    p, q = np.nonzero(Q)
    vals = Q[p, q]
    if not np.all(np.isfinite(vals)):
        return ["gram has non-finite entries"]
    reasons: List[str] = []
    scale = 1.0 + float(np.max(np.abs(vals))) if vals.size else 1.0
    if vals.size and float(np.max(np.abs(vals - Q[q, p]))) > 1e-12 * scale:
        reasons.append("gram is not symmetric")

    eigs = [np.linalg.eigvalsh(Q[np.ix_(c, c)]) for c in _components(p, q)]
    lam_max = max((float(w[-1]) for w in eigs), default=0.0)
    lam_min = min((float(w[0]) for w in eigs), default=0.0)
    if lam_min < -PSD_REL_TOL * max(1.0, lam_max):
        reasons.append(f"gram not PSD: min eigenvalue {lam_min:.3g}")

    f_coef = tensor_coefficients(tensor)
    tol = COEF_REL_TOL * (1.0 + max((abs(v) for v in f_coef.values()), default=0.0))
    g_coef: Dict[Tuple[int, ...], float] = {}
    if vals.size:
        alphas, inv = np.unique(B[p] + B[q], axis=0, return_inverse=True)
        sums = np.zeros(len(alphas))
        np.add.at(sums, inv.ravel(), vals)
        g_coef = {tuple(int(e) for e in a): float(s) for a, s in zip(alphas, sums)}
    support = sorted(set(f_coef) | set(g_coef))
    defect = max(
        (abs(g_coef.get(a, 0.0) - f_coef.get(a, 0.0)) for a in support), default=0.0
    )
    if defect > tol:
        reasons.append(f"coefficient defect {defect:.3g} above {tol:.3g}")

    E = np.array(support, dtype=np.int64).reshape(-1, n)
    f_vec = np.array([f_coef.get(a, 0.0) for a in support])
    for _ in range(VALUE_POINTS):
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        z = np.prod(np.power(x[None, :], B), axis=1)
        terms_cert = vals * z[p] * z[q]
        mono = np.prod(np.power(x[None, :], E), axis=1)
        terms_f = f_vec * mono
        gap = abs(float(terms_cert.sum()) - float(terms_f.sum()))
        # each coefficient may be off by tol, so the value by tol * sum |x^a|
        allowed = tol * float(np.abs(mono).sum()) + 1e-12 * (
            float(np.abs(terms_cert).sum()) + float(np.abs(terms_f).sum())
        )
        if gap > allowed:
            reasons.append(f"value mismatch {gap:.3g} above {allowed:.3g}")
            break

    bound = rank_bound(m, n)
    rank = sum(int(np.count_nonzero(w > RANK_REL_TOL * lam_max)) for w in eigs)
    if rank > bound:
        reasons.append(f"gram rank {rank} above bound {bound}")
    if cert.rank_estimate > bound:
        reasons.append(f"reported rank {cert.rank_estimate} above bound {bound}")
    return reasons


def check_pd_verdict(verdict, truth: bool) -> List[str]:
    if verdict is None:
        return ["inconclusive positive-definiteness verdict"]
    if verdict != truth:
        return [f"verdict {verdict} but ground truth {truth}"]
    return []


def check_eigenvalue(value: float, truth: float) -> List[str]:
    if not math.isfinite(value) or abs(value - truth) > EIG_ABS_TOL:
        return [f"lambda_min {value!r} but truth {truth!r}"]
    return []
