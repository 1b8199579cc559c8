"""Built-in tensor instances and seeded random family generators.

The fixed instances are stored with exact rational entries so that text
round trips and exact inner products are reproducible.  The random family
generators produce members of the structured classes (with safety margins
away from class boundaries) for stress-testing certification; the same seed
always yields the same tensor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .structured import (
    cauchy_tensor,
    double_b_quantities,
    row_tables,
)
from .tensor import (
    Number,
    SymmetricTensor,
    TensorError,
    absolute_tensor,
    identity_tensor,
)


def example51() -> SymmetricTensor:
    """Order-6 dimension-4 instance: unit diagonal, entries 1/5 across the
    permutations of (1,1,1,2,2,2) and 2/5 across those of (3,3,4,4,4,4); the
    induced form is x1^6+x2^6+x3^6+x4^6 + 4 x1^3 x2^3 + 6 x3^2 x4^4."""
    entries: Dict[Tuple[int, ...], Number] = {(i,) * 6: 1 for i in range(4)}
    entries[(0, 0, 0, 1, 1, 1)] = Fraction(1, 5)
    entries[(2, 2, 3, 3, 3, 3)] = Fraction(2, 5)
    return SymmetricTensor(6, 4, entries)


def example52(alpha: float, beta: float) -> SymmetricTensor:
    """Order-6 dimension-4 family: unit diagonal plus one coupling per pair,
    giving x1^6+...+x4^6 + 20a x1^3 x2^3 + 20b x3^3 x4^3."""
    entries: Dict[Tuple[int, ...], Number] = {(i,) * 6: 1 for i in range(4)}
    if alpha:
        entries[(0, 0, 0, 1, 1, 1)] = alpha
    if beta:
        entries[(2, 2, 2, 3, 3, 3)] = beta
    return SymmetricTensor(6, 4, entries)


def example53(order: int) -> SymmetricTensor:
    """Order-10k dimension-4 family with one positive and two negative
    couplings; its minimum H-eigenvalue is exactly zero.

    Entry values are 2 / C(m, m/2) on the permutations of (1..1, 2..2) with
    m/2 of each, and -1 / C(m, m/5) on the two orbits mixing m/5 and 4m/5
    copies of variables 3 and 4, so the induced form is
    x1^m + ... + x4^m + 2 x1^{m/2} x2^{m/2} - x3^{m/5} x4^{4m/5}
    - x3^{4m/5} x4^{m/5}.
    """
    if order % 10 != 0 or order <= 0:
        raise TensorError("order must be a positive multiple of 10")
    m = order
    entries: Dict[Tuple[int, ...], Number] = {(i,) * m: 1 for i in range(4)}
    a = Fraction(2, math.comb(m, m // 2))
    b = Fraction(-1, math.comb(m, m // 5))
    entries[(0,) * (m // 2) + (1,) * (m // 2)] = a
    entries[(2,) * (m // 5) + (3,) * (4 * m // 5)] = b
    entries[(2,) * (4 * m // 5) + (3,) * (m // 5)] = b
    return SymmetricTensor(m, 4, entries)


def example54(dim: int) -> SymmetricTensor:
    """Order-4 family on 4k variables: diagonal n, entries 1/6 across the
    permutations of each consecutive quadruple; the form is
    n (x1^4 + ... + xn^4) + 4 sum_i x_{4i-3} x_{4i-2} x_{4i-1} x_{4i} and the
    minimum H-eigenvalue is n - 1."""
    if dim % 4 != 0 or dim <= 0:
        raise TensorError("dimension must be a positive multiple of 4")
    entries: Dict[Tuple[int, ...], Number] = {(i,) * 4: dim for i in range(dim)}
    for b in range(dim // 4):
        entries[(4 * b, 4 * b + 1, 4 * b + 2, 4 * b + 3)] = Fraction(1, 6)
    return SymmetricTensor(4, dim, entries)


def dual_witness_pair() -> Tuple[SymmetricTensor, SymmetricTensor]:
    """The order-4 instance and the 2x... diag(1,1,-4) matrix whose squared
    outer product separates it from the dual cone: their inner product is
    exactly -8."""
    entries: Dict[Tuple[int, ...], Number] = {
        (0, 0, 0, 0): 1,
        (1, 1, 1, 1): 1,
        (2, 2, 2, 2): Fraction(1, 4),
        (0, 0, 1, 1): 1,
        (0, 0, 2, 2): 1,
        (1, 1, 2, 2): 1,
    }
    A = SymmetricTensor(4, 3, entries)
    M = SymmetricTensor(2, 3, {(0, 0): 1, (1, 1): 1, (2, 2): -4})
    return A, M


# ---------------------------------------------------------------------------
# random members of the structured classes (for certification stress tests)


def _random_mixed_indices(rng: np.random.Generator, order: int, dim: int,
                          count: int) -> list:
    out = set()
    guard = 0
    while len(out) < count and guard < 50 * count:
        guard += 1
        idx = tuple(sorted(int(rng.integers(0, dim)) for _ in range(order)))
        if len(set(idx)) >= 2:
            out.add(idx)
    return sorted(out)


def random_cauchy_psd(order: int, dim: int, rng: np.random.Generator) -> SymmetricTensor:
    c = rng.uniform(0.2, 2.5, size=dim)
    return cauchy_tensor([float(v) for v in c], order)


def random_weak_diag_dominated(order: int, dim: int, rng: np.random.Generator) -> SymmetricTensor:
    count = int(rng.integers(1, 2 * dim))
    entries: Dict[Tuple[int, ...], float] = {}
    for idx in _random_mixed_indices(rng, order, dim, count):
        entries[idx] = float(rng.uniform(-1.0, 1.0))
    draft = SymmetricTensor(order, dim, entries)
    weak = row_tables(draft).weak_offsum
    diag = {}
    for i in range(dim):
        need = float(weak[i])
        diag[(i,) * order] = need + float(rng.uniform(0.05, 0.6))
    entries.update(diag)
    return SymmetricTensor(order, dim, entries)


def random_b0(order: int, dim: int, rng: np.random.Generator) -> SymmetricTensor:
    count = int(rng.integers(dim, 3 * dim))
    entries: Dict[Tuple[int, ...], float] = {}
    for idx in _random_mixed_indices(rng, order, dim, count):
        entries[idx] = float(rng.uniform(0.0, 1.0))
    draft = SymmetricTensor(order, dim, entries)
    nm1 = dim ** (order - 1)
    margin = float(rng.uniform(0.05, 0.3))
    rows = row_tables(draft)
    diag = {}
    for i in range(dim):
        worst = max(0.0, float(rows.max_off_entry[i]))
        off = float(rows.row_sum[i])
        diag[(i,) * order] = max(0.0, nm1 * (worst + margin) - off)
    entries.update(diag)
    return SymmetricTensor(order, dim, entries)


def _b_family_base(order: int, dim: int, rng: np.random.Generator,
                   lo: float, hi: float) -> SymmetricTensor:
    count = int(rng.integers(1, 2 * dim))
    entries: Dict[Tuple[int, ...], float] = {}
    for idx in _random_mixed_indices(rng, order, dim, count):
        entries[idx] = float(rng.uniform(-0.1, 0.1))
    draft = SymmetricTensor(order, dim, entries)
    beta, delta, _ = double_b_quantities(draft)
    for i in range(dim):
        entries[(i,) * order] = float(beta[i] + delta[i] + rng.uniform(lo, hi))
    return SymmetricTensor(order, dim, entries)


def random_double_b(order: int, dim: int, rng: np.random.Generator) -> SymmetricTensor:
    return _b_family_base(order, dim, rng, 0.2, 0.5)


def random_quasi_double_b0(order: int, dim: int, rng: np.random.Generator) -> SymmetricTensor:
    return _b_family_base(order, dim, rng, 0.15, 0.4)


def random_mb0(order: int, dim: int, rng: np.random.Generator) -> SymmetricTensor:
    return _b_family_base(order, dim, rng, 0.1, 0.6)


def random_h_nonneg_diag(order: int, dim: int, rng: np.random.Generator) -> SymmetricTensor:
    count = int(rng.integers(1, 2 * dim))
    entries: Dict[Tuple[int, ...], float] = {}
    for idx in _random_mixed_indices(rng, order, dim, count):
        entries[idx] = float(rng.uniform(-0.5, 0.5))
    draft = SymmetricTensor(order, dim, entries)
    offsums = row_tables(draft).absolute_offsum
    for i in range(dim):
        entries[(i,) * order] = float(offsums[i]) + float(
            rng.uniform(0.1, 0.5)
        )
    dominated = SymmetricTensor(order, dim, entries)
    # rescale variables: entry -> entry * prod y; keeps the H property with
    # witness 1/y while breaking plain diagonal dominance
    y = rng.uniform(0.75, 1.3, size=dim)
    scaled = {}
    for idx, v in dominated.entries.items():
        w = v
        for i in idx:
            w = w * float(y[i])
        scaled[idx] = w
    return SymmetricTensor(order, dim, scaled)


def random_abs_psd_z(order: int, dim: int, rng: np.random.Generator) -> SymmetricTensor:
    count = int(rng.integers(1, 2 * dim))
    entries: Dict[Tuple[int, ...], float] = {}
    for idx in _random_mixed_indices(rng, order, dim, count):
        entries[idx] = -float(rng.uniform(0.0, 0.5))
    draft = SymmetricTensor(order, dim, entries)
    offsums = row_tables(draft).absolute_offsum
    for i in range(dim):
        entries[(i,) * order] = float(offsums[i]) + float(
            rng.uniform(0.05, 0.4)
        )
    psd_z = SymmetricTensor(order, dim, entries)
    return absolute_tensor(psd_z)


def random_psd_extended_z(order: int, dim: int, rng: np.random.Generator) -> SymmetricTensor:
    from .spectral import brute_force_min

    cut = int(rng.integers(1, dim)) if dim > 1 else 1
    blocks = [list(range(cut)), list(range(cut, dim))]
    blocks = [b for b in blocks if b]
    entries: Dict[Tuple[int, ...], float] = {
        (i,) * order: float(rng.uniform(0.5, 1.5)) for i in range(dim)
    }
    for block in blocks:
        if len(block) < 2:
            continue
        if rng.uniform() < 0.5:
            # one mixed term of either sign
            while True:
                idx = tuple(
                    sorted(block[int(rng.integers(0, len(block)))] for _ in range(order))
                )
                if len(set(idx)) >= 2:
                    break
            entries[idx] = float(rng.uniform(-1.0, 1.0))
        else:
            for idx in _random_mixed_indices(rng, order, len(block), 3):
                lifted = tuple(sorted(block[j] for j in idx))
                entries[lifted] = -float(rng.uniform(0.0, 1.0))
    draft = SymmetricTensor(order, dim, entries)
    low, _ = brute_force_min(draft, restarts=30, seed=int(rng.integers(0, 2 ** 31)))
    shift = max(0.0, 0.1 - low)
    return draft.shift_diagonal(shift)


CLASS_GENERATORS: Dict[str, Callable[[int, int, np.random.Generator], SymmetricTensor]] = {
    "cauchy_psd": random_cauchy_psd,
    "weak_diag_dominated": random_weak_diag_dominated,
    "b0": random_b0,
    "double_b": random_double_b,
    "quasi_double_b0": random_quasi_double_b0,
    "mb0": random_mb0,
    "h_nonneg_diag": random_h_nonneg_diag,
    "abs_psd_z": random_abs_psd_z,
    "psd_extended_z": random_psd_extended_z,
}


def random_class_instance(
    name: str, order: int, dim: int, seed: int
) -> SymmetricTensor:
    if name not in CLASS_GENERATORS:
        raise TensorError(
            f"unknown class {name!r}; choose from {sorted(CLASS_GENERATORS)}"
        )
    rng = np.random.default_rng(seed)
    return CLASS_GENERATORS[name](order, dim, rng)
