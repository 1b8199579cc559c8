import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sostensor.tensor import (
    HomogeneousPolynomial,
    SymmetricTensor,
    TensorError,
    absolute_tensor,
    all_one_tensor,
    build_special,
    canonicalize,
    comparison_tensor,
    diagonal_tensor,
    eigen_residual,
    from_polynomial,
    identity_tensor,
    multiplicity,
    partially_all_one,
    rank_one_tensor,
    sym_outer_square,
)
from sostensor import generators

from helpers import (
    central_difference_gradient,
    dense_apply,
    dense_evaluate,
    dense_inner,
    random_symmetric_tensor,
)


class TestCanonicalize:
    def test_mixed_counts(self):
        canon, mult = canonicalize((1, 0, 0, 1), 4)
        assert canon == (0, 0, 1, 1)
        assert mult == 6  # 4!/(2!2!)

    def test_repeated_index(self):
        canon, mult = canonicalize((2, 2, 2, 2), 4)
        assert canon == (2, 2, 2, 2)
        assert mult == 1

    def test_all_distinct(self):
        canon, mult = canonicalize((0, 1, 2, 3), 4)
        assert canon == (0, 1, 2, 3)
        assert mult == 24

    def test_idempotent(self):
        canon, _ = canonicalize((3, 1, 2), 5)
        again, _ = canonicalize(canon, 5)
        assert canon == again

    def test_out_of_range(self):
        with pytest.raises(TensorError):
            canonicalize((0, 5), 3)
        with pytest.raises(TensorError):
            canonicalize((-1, 0), 3)

    def test_multiplicity_equals_permutation_count(self):
        idx = (0, 0, 1, 2)
        assert multiplicity(idx) == len(set(permutations(idx)))


class TestPolynomialBridge:
    def test_identity_to_polynomial(self):
        f = identity_tensor(4, 2).to_polynomial()
        assert f.terms == {(4, 0): 1, (0, 4): 1}

    def test_example51_polynomial(self):
        f = generators.example51().to_polynomial()
        expected = {
            (6, 0, 0, 0): 1, (0, 6, 0, 0): 1, (0, 0, 6, 0): 1, (0, 0, 0, 6): 1,
            (3, 3, 0, 0): 4, (0, 0, 2, 4): 6,
        }
        assert {k: Fraction(v) for k, v in f.terms.items()} == {
            k: Fraction(v) for k, v in expected.items()
        }

    def test_example54_polynomial(self):
        f = generators.example54(4).to_polynomial()
        assert f.terms[(1, 1, 1, 1)] == 4
        for i in range(4):
            alpha = tuple(4 if j == i else 0 for j in range(4))
            assert f.terms[alpha] == 4

    def test_from_polynomial_coupling(self):
        f = HomogeneousPolynomial(6, 2, {(3, 3): 4})
        A = from_polynomial(f)
        assert A.entry((0, 0, 0, 1, 1, 1)) == Fraction(1, 5)

    def test_from_polynomial_pure_power(self):
        f = HomogeneousPolynomial(4, 1, {(4,): 1})
        A = from_polynomial(f)
        assert A.entry((0, 0, 0, 0)) == 1

    def test_from_polynomial_all_distinct(self):
        f = HomogeneousPolynomial(4, 4, {(1, 1, 1, 1): 4})
        A = from_polynomial(f)
        assert A.entry((0, 1, 2, 3)) == Fraction(1, 6)

    def test_non_homogeneous_rejected(self):
        with pytest.raises(TensorError):
            HomogeneousPolynomial(4, 2, {(3, 0): 1})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(TensorError, match="non-finite"):
            HomogeneousPolynomial(4, 2, {(4, 0): 1, (2, 2): bad})
        with pytest.raises(TensorError, match="non-finite"):
            SymmetricTensor(4, 2, {(0, 0, 0, 0): 1, (0, 0, 1, 1): bad})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 4, 6]), st.integers(1, 5))
    def test_round_trip(self, seed, order, dim):
        rng = np.random.default_rng(seed)
        A = random_symmetric_tensor(rng, order, dim)
        B = from_polynomial(A.to_polynomial())
        assert set(B.entries) == set(A.entries)
        for idx, v in A.entries.items():
            assert float(B.entries[idx]) == pytest.approx(float(v), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 4, 6]), st.integers(1, 4))
    def test_round_trip_exact_on_rationals(self, seed, order, dim):
        rng = np.random.default_rng(seed)
        base = random_symmetric_tensor(rng, order, dim)
        entries = {
            idx: Fraction(int(round(1000 * v)), 1000) for idx, v in base.entries.items()
        }
        A = SymmetricTensor(order, dim, entries)
        B = from_polynomial(A.to_polynomial())
        assert B.entries == A.entries


class TestEvaluateApply:
    def test_all_one_is_power_of_sum(self):
        E = all_one_tensor(4, 3)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(-2, 2, 3)
            assert float(E.evaluate(x)) == pytest.approx(float(np.sum(x)) ** 4, rel=1e-12)

    def test_example51_witness_point(self):
        A = generators.example51()
        xbar = np.array([0.5 ** (1 / 6), -(0.5 ** (1 / 6)), 0.0, 0.0])
        norm6 = float(np.sum(np.abs(xbar) ** 6))
        assert float(A.evaluate(xbar)) + norm6 == pytest.approx(0.0, abs=1e-12)

    def test_identity_at_basis_vector(self):
        I = identity_tensor(6, 3)
        e1 = np.array([1.0, 0.0, 0.0])
        assert float(I.evaluate(e1)) == 1.0

    def test_evaluate_matches_dense_enumeration(self):
        rng = np.random.default_rng(7)
        A = random_symmetric_tensor(rng, 4, 3)
        x = rng.uniform(-1, 1, 3)
        assert float(A.evaluate(x)) == pytest.approx(dense_evaluate(A, x), rel=1e-12)

    def test_apply_identity(self):
        I = identity_tensor(4, 3)
        x = np.array([1.0, -2.0, 3.0])
        assert np.allclose(I.apply(x), x ** 3)

    def test_apply_all_one_row_sums(self):
        E = all_one_tensor(4, 3)
        assert np.allclose(E.apply(np.ones(3)), 27.0)

    def test_apply_matches_dense(self):
        rng = np.random.default_rng(11)
        A = random_symmetric_tensor(rng, 4, 3)
        x = rng.uniform(-1, 1, 3)
        assert np.allclose(A.apply(x), dense_apply(A, x), atol=1e-12)

    def test_apply_is_gradient_over_m(self):
        rng = np.random.default_rng(5)
        A = random_symmetric_tensor(rng, 4, 3)
        x = rng.uniform(-1, 1, 3)
        grad = central_difference_gradient(lambda y: float(A.evaluate(y)), x)
        assert np.allclose(A.apply(x), grad / 4.0, atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_euler_identity(self, seed):
        rng = np.random.default_rng(seed)
        A = random_symmetric_tensor(rng, 4, 3)
        x = rng.uniform(-1, 1, 3)
        scale = 1.0 + abs(float(A.evaluate(x)))
        assert float(x @ A.apply(x)) == pytest.approx(float(A.evaluate(x)), abs=1e-10 * scale)


class TestInnerProduct:
    def test_dual_cone_witness_exact(self):
        A, M = generators.dual_witness_pair()
        S = sym_outer_square(M)
        value = A.inner(S)
        assert value == Fraction(-8)

    def test_identity_self_inner(self):
        I = identity_tensor(4, 5)
        assert I.inner(I) == 5

    def test_inner_with_rank_one_is_evaluation(self):
        rng = np.random.default_rng(3)
        A = random_symmetric_tensor(rng, 4, 3)
        x = rng.uniform(-1, 1, 3)
        R = rank_one_tensor(4, x)
        assert float(A.inner(R)) == pytest.approx(float(A.evaluate(x)), rel=1e-10)

    def test_inner_matches_dense(self):
        rng = np.random.default_rng(13)
        A = random_symmetric_tensor(rng, 3, 3)
        B = random_symmetric_tensor(rng, 3, 3)
        assert float(A.inner(B)) == pytest.approx(dense_inner(A, B), rel=1e-12)

    def test_frobenius_nonnegative(self):
        rng = np.random.default_rng(17)
        A = random_symmetric_tensor(rng, 4, 4)
        assert float(A.frobenius_sq()) >= 0


class TestConstructions:
    def test_identity_entries(self):
        I = identity_tensor(4, 3)
        assert I.entry((0, 0, 0, 0)) == 1
        assert I.entry((0, 0, 0, 1)) == 0

    def test_partially_all_one(self):
        E = partially_all_one(4, 3, [0, 1])
        assert E.entry((0, 1, 1, 0)) == 1
        assert E.entry((0, 0, 0, 0)) == 1
        assert E.entry((0, 1, 2, 1)) == 0

    def test_rank_one_matrix(self):
        R = rank_one_tensor(2, [1, 2])
        assert R.entry((0, 0)) == 1
        assert R.entry((0, 1)) == 2
        assert R.entry((1, 1)) == 4

    def test_build_special_dispatch(self):
        A = build_special("identity", order=4, dim=2)
        assert A.entries == identity_tensor(4, 2).entries
        with pytest.raises(TensorError):
            build_special("nope", order=2, dim=2)
        with pytest.raises(TensorError):
            build_special("partially_all_one", order=2, dim=2, subset=[5])

    def test_sym_outer_square_diag_matrix(self):
        M = SymmetricTensor(2, 3, {(0, 0): 1, (1, 1): 1, (2, 2): -4})
        S = sym_outer_square(M)
        f = S.to_polynomial()
        assert f.terms[(4, 0, 0)] == 1
        assert f.terms[(0, 0, 4)] == 16
        assert f.terms[(2, 2, 0)] == 2
        assert f.terms[(2, 0, 2)] == -8
        assert S.entry((0, 0, 1, 1)) == Fraction(1, 3)
        assert S.entry((0, 0, 2, 2)) == Fraction(-4, 3)

    def test_sym_outer_square_identity_matrix(self):
        M = identity_tensor(2, 2)
        S = sym_outer_square(M)
        f = S.to_polynomial()
        assert f.terms == {(4, 0): 1, (2, 2): 2, (0, 4): 1}

    def test_sym_outer_square_evaluation(self):
        rng = np.random.default_rng(23)
        M = random_symmetric_tensor(rng, 2, 3)
        S = sym_outer_square(M)
        for _ in range(10):
            x = rng.uniform(-1, 1, 3)
            lhs = float(S.evaluate(x))
            rhs = float(M.evaluate(x)) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(rhs)))

    def test_absolute_tensor(self):
        A = SymmetricTensor(4, 2, {(0,) * 4: 1, (1,) * 4: 2, (0, 0, 1, 1): -3})
        B = absolute_tensor(A)
        assert B.entry((0, 0, 1, 1)) == 3
        assert B.entry((1, 1, 1, 1)) == 2
        N = random_symmetric_tensor(np.random.default_rng(1), 4, 2, density=1.0)
        P = absolute_tensor(absolute_tensor(N))
        assert P.entries == absolute_tensor(N).entries
        assert absolute_tensor(identity_tensor(4, 2).scale(-1)).entries == identity_tensor(4, 2).entries

    def test_comparison_tensor(self):
        assert comparison_tensor(identity_tensor(4, 2)).entries == identity_tensor(4, 2).entries
        E = all_one_tensor(4, 2)
        M = comparison_tensor(E)
        assert M.entry((0, 0, 0, 0)) == 1
        assert M.entry((0, 0, 0, 1)) == -1
        rng = np.random.default_rng(2)
        A = random_symmetric_tensor(rng, 4, 3, density=1.0)
        C = comparison_tensor(A)
        for idx, v in C.entries.items():
            if len(set(idx)) > 1:
                assert v <= 0


class TestSymmetry:
    def test_entry_permutation_invariance_exhaustive(self):
        rng = np.random.default_rng(29)
        for order in (2, 3, 4):
            for dim in (2, 3, 4):
                A = random_symmetric_tensor(rng, order, dim, density=0.8)
                for idx in list(A.entries)[:10]:
                    for perm in permutations(idx):
                        assert A.entry(perm) == A.entry(idx)

    def test_duplicate_canonical_rejected(self):
        with pytest.raises(TensorError):
            SymmetricTensor.from_entries(2, 2, [((0, 1), 1.0), ((1, 0), 2.0)])

    def test_accumulate_merges(self):
        A = SymmetricTensor.from_entries(
            2, 2, [((0, 1), 1.0), ((1, 0), 2.0)], accumulate=True
        )
        assert A.entry((0, 1)) == 3.0


class TestEigenResidual:
    def test_identity_eigenpair(self):
        I = identity_tensor(4, 3)
        e1 = np.array([1.0, 0.0, 0.0])
        assert eigen_residual(I, 1.0, e1) == 0.0
        assert eigen_residual(I, 2.0, e1) == 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(TensorError):
            eigen_residual(identity_tensor(2, 2), 1.0, np.zeros(2))

    def test_oracle_minimizer_is_eigenpair(self):
        from sostensor.spectral import brute_force_min

        A = generators.example54(4)
        val, x = brute_force_min(A, seed=5)
        assert val == pytest.approx(3.0, abs=1e-6)
        assert eigen_residual(A, 3.0, x) <= 1e-5


class TestArithmetic:
    def test_shift_diagonal(self):
        A = generators.example51()
        B = A.shift_diagonal(1)
        assert B.diagonal_entry(0) == 2
        assert B.entry((0, 0, 0, 1, 1, 1)) == A.entry((0, 0, 0, 1, 1, 1))

    def test_add_and_scale(self):
        I = identity_tensor(4, 2)
        E = all_one_tensor(4, 2)
        S = I + E
        assert S.entry((0, 0, 0, 0)) == 2
        assert S.entry((0, 0, 1, 1)) == 1
        assert (S - E).entries == I.entries
        assert I.scale(0).entries == {}

    def test_diagonal_tensor(self):
        D = diagonal_tensor(4, [2, 5])
        assert D.entry((1, 1, 1, 1)) == 5
        assert D.is_diagonal()
