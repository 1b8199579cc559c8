"""The compiled sparse form evaluator against independent routes.

Values are checked against the exact term-by-term `HomogeneousPolynomial.
evaluate`, gradients against m times the dense index enumeration of
`helpers.dense_apply` and against central differences.  `SymmetricTensor.
apply` runs on the same kernel, so the Euler identity x . apply(x) =
evaluate(x) is checked on the same cases.
"""

from fractions import Fraction

import numpy as np
import pytest

from sostensor import generators
from sostensor.descent import FormEvaluator
from sostensor.tensor import HomogeneousPolynomial, SymmetricTensor, from_polynomial

from helpers import central_difference_gradient, dense_apply, random_symmetric_tensor


def _points(rng, n, count=6):
    X = rng.uniform(-1.5, 1.5, (count, n))
    X[1, 0] = 0.0  # a zero component
    X[2, :] = 0.0
    X[2, -1] = 1.0  # a basis vector: every other component is zero
    X[3, :] = 0.0  # the origin
    return X


def _cases():
    rng = np.random.default_rng(20240)
    out = []
    for order, dim in ((2, 4), (4, 3), (4, 5), (6, 3)):
        out.append((f"random-{order}-{dim}", random_symmetric_tensor(rng, order, dim)))
    out.append(("fraction", generators.example51()))
    out.append(("fraction-example54", generators.example54(8)))
    # x3 appears in no term: its gradient column must be exactly 0
    out.append((
        "unused-variable",
        from_polynomial(HomogeneousPolynomial(4, 3, {(4, 0, 0): 2, (1, 3, 0): Fraction(-3, 2)})),
    ))
    out.append(("empty", SymmetricTensor(4, 3, {})))
    return out


CASES = _cases()


@pytest.mark.parametrize("name,A", CASES, ids=[c[0] for c in CASES])
def test_value_batch_matches_exact_evaluate(name, A):
    f = A.to_polynomial()
    ev = FormEvaluator(f)
    X = _points(np.random.default_rng(1), A.dim)
    vals = ev.value_batch(X)
    assert vals.shape == (len(X),)
    for x, v in zip(X, vals):
        exact = float(f.evaluate([Fraction(t) for t in x]))
        assert v == pytest.approx(exact, rel=1e-12, abs=1e-12 * ev.scale)


@pytest.mark.parametrize("name,A", CASES, ids=[c[0] for c in CASES])
def test_gradient_batch_matches_dense_and_differences(name, A):
    f = A.to_polynomial()
    ev = FormEvaluator(f)
    X = _points(np.random.default_rng(2), A.dim)
    G = ev.gradient_batch(X)
    assert G.shape == X.shape
    unused = [v for v in range(A.dim) if all(alpha[v] == 0 for alpha in f.terms)]
    assert np.all(G[:, unused] == 0.0)
    for x, g in zip(X, G):
        assert np.allclose(g, A.order * dense_apply(A, x), rtol=1e-12, atol=1e-12 * ev.scale)
        fd = central_difference_gradient(lambda y: float(f.evaluate(y)), x)
        assert np.allclose(g, fd, atol=1e-6 * ev.scale)


@pytest.mark.parametrize("name,A", CASES, ids=[c[0] for c in CASES])
def test_apply_euler_identity(name, A):
    for x in _points(np.random.default_rng(3), A.dim):
        scale = 1.0 + A.to_polynomial().max_abs_coefficient()
        assert float(x @ A.apply(x)) == pytest.approx(
            float(A.evaluate(x)), rel=1e-12, abs=1e-12 * scale
        )


def test_example54_at_n100():
    n = 100
    A = generators.example54(n)
    f = A.to_polynomial()
    ev = FormEvaluator(f)
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, (4, n))
    X[0, 1::4] = 0.0
    vals, G = ev.value_batch(X), ev.gradient_batch(X)
    for x, v, g in zip(X, vals, G):
        # f = n sum x_i^4 + 4 sum_b x_{4b} x_{4b+1} x_{4b+2} x_{4b+3}
        expected = 4 * n * x ** 3
        for b in range(0, n, 4):
            for j in range(4):
                expected[b + j] += 4 * np.prod(np.delete(x[b:b + 4], j))
        assert v == pytest.approx(float(f.evaluate(list(x))), rel=1e-12)
        assert np.allclose(g, expected, rtol=1e-12, atol=1e-12)
        assert np.allclose(A.apply(x), g / 4, rtol=1e-12, atol=1e-12)


class TestWorkArrays:
    """Batches reuse per-thread work arrays; results must not depend on it."""

    @staticmethod
    def _form():
        from sostensor import spectral

        inst = spectral.generate_procedure1(4, 20, 4, 5, 100.0, seed=31000)
        return inst.tensor.to_polynomial()

    def test_batch_sizes_interleaved(self):
        f = self._form()
        ev = FormEvaluator(f)
        rng = np.random.default_rng(4)
        batches = [rng.standard_normal((S, f.dim)) for S in (100, 1, 100, 37)]
        fresh = [(FormEvaluator(f).value_batch(X), FormEvaluator(f).gradient_batch(X))
                 for X in batches]
        for X, (v, G) in zip(batches, fresh):
            assert np.array_equal(ev.value_batch(X), v)
            assert np.array_equal(ev.gradient_batch(X), G)

    def test_results_are_not_views_of_the_work_arrays(self):
        f = self._form()
        ev = FormEvaluator(f)
        rng = np.random.default_rng(5)
        X, Y = rng.standard_normal((2, 50, f.dim))
        v, G = ev.value_batch(X), ev.gradient_batch(X)
        v0, G0 = v.copy(), G.copy()
        ev.value_batch(Y)
        ev.gradient_batch(Y)
        assert np.array_equal(v, v0) and np.array_equal(G, G0)

    def test_threads_share_an_evaluator(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        f = self._form()
        ev = FormEvaluator(f)
        rng = np.random.default_rng(6)
        batches = [rng.standard_normal((60, f.dim)) for _ in range(8)]
        expected = [FormEvaluator(f).gradient_batch(X) for X in batches]

        def run(X):
            return [ev.gradient_batch(X) for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, X) for X in batches]
                got = [fut.result(timeout=60) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        for results, ref in zip(got, expected):
            for G in results:
                assert np.array_equal(G, ref)

    def test_tensor_pickles_after_apply(self):
        import pickle

        A = generators.example54(8)
        x = np.linspace(-1.0, 1.0, 8)
        before = A.apply(x)
        B = pickle.loads(pickle.dumps(A))
        assert np.array_equal(B.apply(x), before)
