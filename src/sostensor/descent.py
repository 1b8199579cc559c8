"""Multistart projected descent on the unit m-norm sphere.

Minimizing a degree-m form over { ||x||_m = 1 } is the variational picture of
the smallest H-eigenvalue: stationary points of f(x)/||x||_m^m are exactly the
H-eigenpairs.  The descent is a projected gradient with per-start adaptive
steps, run for every start simultaneously (batched in numpy), seeded from a
sign-pattern grid plus random directions.  It serves both as an independent
minimization oracle and as a cheap source of negative-value witnesses and
zero-set samples.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .tensor import HomogeneousPolynomial, exponent_to_index


class FormEvaluator:
    """Compiled sparse form: batched value and gradient in O(S*T*m).

    Built once per form.  Each of the T terms is stored as its m variable
    slots (x1^2 x3^2 -> (0, 0, 2, 2)), kept slot-major in an (m, T) index
    array, beside the float coefficient vector c.  A batch of S points is
    gathered into an (m, T, S) block; the value is c @ (product over the
    slots), and the gradient sums c times the leave-one-out slot products
    (prefix times suffix) into the variable of each left-out slot.

    Batched calls take an array of shape (S, n) and return S values or an
    (S, n) gradient block.  `SymmetricTensor.apply` is this gradient over m;
    it calls `_gradient` directly, so that the public batch methods see only
    the descent's own calls (the benchmark's traced run counts those as
    descent rows).
    """

    def __init__(self, f: HomogeneousPolynomial):
        self.dim = f.dim
        self.degree = f.degree
        terms = list(f.terms.items())
        self.c = np.array([float(v) for _, v in terms])
        self.scale = 1.0 + (float(np.max(np.abs(self.c))) if terms else 0.0)
        slots = np.array([exponent_to_index(alpha) for alpha, _ in terms], dtype=np.intp)
        self._slots = np.ascontiguousarray(slots.reshape(len(terms), f.degree).T)
        # one stable sort of the flattened slots groups them by variable, so
        # the gradient is a single reduceat over contiguous runs
        flat = self._slots.ravel()
        self._order = np.argsort(flat, kind="stable")
        ordered = flat[self._order]
        self._starts = np.flatnonzero(np.diff(ordered, prepend=-1))
        self._vars = ordered[self._starts]
        self._local = threading.local()

    def _work(self, S: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Work arrays for a batch of S points, reused while S is unchanged.

        Fresh (m, T, S) arrays lie above glibc's mmap threshold (128 KB) for
        moderate forms, about 280 KB for the PD harness form at S = 100.
        Mapped and unmapped on every call, their cost depended on the heap's
        layout; reused, descent time does not.  Each thread has its own
        arrays, so a shared evaluator stays safe to call concurrently.
        """
        work = getattr(self._local, "work", None)
        if work is None or work[0].shape[2] != S:
            m, T = self._slots.shape
            work = self._local.work = (
                np.empty((m, T, S)),  # gathered slot values
                np.empty((m, T, S)),  # leave-one-out products
                np.empty((m * T, S)),  # the same, grouped by variable
                np.empty((T, S)),  # running product
            )
        return work

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_local"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._local = threading.local()

    def _gather(self, X: np.ndarray) -> np.ndarray:
        P = self._work(X.shape[0])[0]
        return np.take(np.ascontiguousarray(X.T, dtype=float), self._slots, axis=0, out=P)

    def value(self, x: np.ndarray) -> float:
        return float(self.value_batch(x.reshape(1, -1))[0])

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        P = self._gather(X)
        # the product over the slots, accumulated in slot order as np.prod does
        prod = self._work(X.shape[0])[3]
        prod.fill(1.0)
        for k in range(P.shape[0]):
            prod *= P[k]
        return self.c @ prod

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.gradient_batch(x.reshape(1, -1))[0]

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        return self._gradient(X)

    def _gradient(self, X: np.ndarray) -> np.ndarray:
        S = X.shape[0]
        G = np.zeros((self.dim, S))
        if self._vars.size:
            P = self._gather(X)
            _, L, grouped, suffix = self._work(S)
            m = P.shape[0]
            # L[k] = c * prod_{j != k} P[j]: prefix products carry c, then
            # each row is multiplied by its suffix product
            L[0] = self.c[:, None]
            for k in range(1, m):
                np.multiply(L[k - 1], P[k - 1], out=L[k])
            suffix[...] = P[m - 1]
            for k in range(m - 2, -1, -1):
                L[k] *= suffix
                if k:
                    suffix *= P[k]
            rows = np.take(L.reshape(-1, S), self._order, axis=0, out=grouped)
            G[self._vars] = np.add.reduceat(rows, self._starts, axis=0)
        return G.T


@dataclass
class SphereMinimum:
    value: float
    point: np.ndarray
    gradient_norm: float


# `sphere_minimize` seeds from the sign-pattern grid only when 3**n is at
# most GRID_CAP, that is for n <= 8
GRID_CAP = 3 ** 8


def _sign_grid(n: int) -> Optional[np.ndarray]:
    if 3 ** n > GRID_CAP:
        return None
    from itertools import product

    rows = []
    for s in product((-1.0, 0.0, 1.0), repeat=n):
        v = np.array(s)
        nz = v[v != 0]
        if nz.size and nz[0] > 0:  # quotient out the global sign (even degree)
            rows.append(v)
    return np.array(rows)


def _normalize_rows(X: np.ndarray, m: int) -> np.ndarray:
    norms = np.power(np.sum(np.abs(X) ** m, axis=1), 1.0 / m)
    return X / norms[:, None]


def sphere_minimize(
    f: HomogeneousPolynomial,
    seed: int = 0,
    restarts: int = 50,
    iters: int = 300,
    stop_below: Optional[float] = None,
) -> SphereMinimum:
    """Best local minimum of f over the unit m-norm sphere across many starts.

    `stop_below` truncates the iteration budget once any value drops under
    it.
    """
    ev = FormEvaluator(f)
    n, m = f.dim, f.degree
    rng = np.random.default_rng(seed)

    seeds: List[np.ndarray] = []
    grid = _sign_grid(n)
    grid_best: Optional[Tuple[float, np.ndarray]] = None
    if grid is not None and len(grid):
        Xg = _normalize_rows(grid, m)
        vals = ev.value_batch(Xg)
        order = np.argsort(vals)
        grid_best = (float(vals[order[0]]), Xg[order[0]].copy())
        seeds.append(Xg[order[: max(8, 5 * n)]])
    if restarts > 0:
        seeds.append(_normalize_rows(rng.standard_normal((restarts, n)), m))
    if not seeds:
        seeds.append(_normalize_rows(rng.standard_normal((1, n)), m))
    X = np.vstack(seeds)

    vals = ev.value_batch(X)
    steps = np.full(len(X), 0.5 / ev.scale)
    for _ in range(iters):
        G = ev.gradient_batch(X) - m * vals[:, None] * X ** (m - 1)
        Y = _normalize_rows(X - steps[:, None] * G, m)
        new_vals = ev.value_batch(Y)
        improved = new_vals < vals - 1e-18 * ev.scale
        X[improved] = Y[improved]
        vals[improved] = new_vals[improved]
        steps[improved] *= 1.3
        steps[~improved] *= 0.5
        if stop_below is not None and float(np.min(vals)) < stop_below:
            break
        if not np.any(improved) and float(np.max(steps)) < 1e-17 / ev.scale:
            break

    best_idx = int(np.argmin(vals))
    best_val = float(vals[best_idx])
    best_x = X[best_idx].copy()
    if grid_best is not None and grid_best[0] < best_val:
        best_val, best_x = grid_best
    g = ev.gradient(best_x) - m * best_val * best_x ** (m - 1)
    return SphereMinimum(best_val, best_x, float(np.max(np.abs(g))))
