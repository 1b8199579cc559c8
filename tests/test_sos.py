import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sostensor import generators, sdp
from sostensor.sos import (
    CERTIFICATE_TOL,
    CertifyOptions,
    NotCertified,
    SosCertificate,
    SosError,
    bd_exponent,
    certify_sos,
    extract_sos_terms,
    f_hat,
    gershgorin_lower_bound,
    _constraint_values,
    gram_system,
    gram_to_polynomial,
    lambda_bound,
    monomial_basis,
    reduce_to_extreme,
    single_mixed_term_sos,
    single_term_mu0,
    sos_rank_bounds,
)
from sostensor.tensor import (
    HomogeneousPolynomial,
    from_polynomial,
    identity_tensor,
)

from helpers import (
    grid_min,
    random_symmetric_tensor,
    reference_congruence,
    reference_constraint_values,
    reference_gram_pairs,
)


def poly_tensor(degree, dim, terms):
    return from_polynomial(HomogeneousPolynomial(degree, dim, terms))


class TestMonomialBasis:
    def test_two_vars_degree_two(self):
        b = monomial_basis(2, 2)
        assert b.exponents == ((2, 0), (1, 1), (0, 2))

    def test_three_vars_degree_one(self):
        b = monomial_basis(3, 1)
        assert b.exponents == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_size_stars_and_bars(self):
        assert len(monomial_basis(4, 3)) == math.comb(6, 3)

    def test_no_duplicates(self):
        b = monomial_basis(3, 4)
        assert len(set(b.exponents)) == len(b.exponents)

    def test_index_of_hit(self):
        b = monomial_basis(4, 2)
        for p, alpha in enumerate(b.exponents):
            assert b.index_of(alpha) == p

    @pytest.mark.parametrize("alpha", [(1, 1, 1, 0), (2, 0, 0), (3, -1, 0, 0)])
    def test_index_of_miss_raises_value_error(self, alpha):
        with pytest.raises(ValueError):
            monomial_basis(4, 2).index_of(alpha)


class TestGramSystem:
    def test_square_of_sum_constraints(self):
        system = gram_system(2, 4)
        f = HomogeneousPolynomial(4, 2, {(4, 0): 1, (2, 2): 2, (0, 4): 1})
        rhs = {a: v for a, v in zip(system.alphas, system.rhs(f))}
        pairs = {a: p for a, p in zip(system.alphas, system.pairs)}
        assert rhs[(4, 0)] == 1 and pairs[(4, 0)] == ((0, 0),)
        assert rhs[(0, 4)] == 1 and pairs[(0, 4)] == ((2, 2),)
        assert rhs[(3, 1)] == 0 and pairs[(3, 1)] == ((0, 1),)
        assert rhs[(2, 2)] == 2 and set(pairs[(2, 2)]) == {(0, 2), (1, 1)}

    def test_constraint_count(self):
        assert gram_system(3, 4).num_constraints == math.comb(6, 4)

    def test_pure_power_isolated(self):
        system = gram_system(2, 4)
        pairs = {a: p for a, p in zip(system.alphas, system.pairs)}
        assert pairs[(4, 0)] == ((0, 0),)


class TestCertify:
    def test_identity_diagonal_path(self):
        cert = certify_sos(identity_tensor(4, 4))
        assert isinstance(cert, SosCertificate)
        assert cert.rank_estimate == 4
        assert cert.residual == 0.0
        mons = sorted(tuple(s.terms) for s in cert.squares)
        assert mons == [((0, 0, 0, 2),), ((0, 0, 2, 0),), ((0, 2, 0, 0),), ((2, 0, 0, 0),)]

    def test_shifted_coupled_instance(self):
        A = generators.example51().shift_diagonal(1)
        cert = certify_sos(A)
        assert isinstance(cert, SosCertificate)
        assert cert.residual <= 1e-6 * (1 + 6)

    def test_indefinite_rejected_with_point(self):
        A = poly_tensor(4, 2, {(4, 0): 1, (2, 2): -3, (0, 4): 1})
        res = certify_sos(A)
        assert isinstance(res, NotCertified)
        assert res.status == "not_sos"
        assert res.witness_value < 0
        x = res.witness_point
        assert float(A.evaluate(x)) == pytest.approx(res.witness_value, rel=1e-9)

    def test_odd_order_rejected(self):
        with pytest.raises(SosError):
            certify_sos(random_symmetric_tensor(np.random.default_rng(0), 3, 2))

    def test_certificate_reconstruction(self):
        A = poly_tensor(4, 2, {(4, 0): 2, (2, 2): 1, (0, 4): 1})
        cert = certify_sos(A)
        assert isinstance(cert, SosCertificate)
        recon = cert.reconstruction()
        f = A.to_polynomial()
        for alpha in set(f.terms) | set(recon.terms):
            assert float(recon.coefficient(alpha)) == pytest.approx(
                float(f.coefficient(alpha)), abs=1e-6
            )

    def test_blockwise_matches_structure(self):
        A = generators.example51().shift_diagonal(1.5)
        cert = certify_sos(A, CertifyOptions(blockwise="auto"))
        assert isinstance(cert, SosCertificate)
        assert cert.block_structure == [(0, 1), (2, 3)]

    def test_blockwise_gram_is_lifted_block_grams(self):
        from dataclasses import replace

        from sostensor.sos import _certify_monolithic
        from sostensor.structured import detect_extended_z
        from sostensor.tensor import SymmetricTensor

        n = 20
        perm = np.random.default_rng(5).permutation(n)
        base = generators.example54(n)
        A = SymmetricTensor(4, n, {
            tuple(sorted(int(perm[i]) for i in idx)): v for idx, v in base.entries.items()
        })
        cert = certify_sos(A)
        assert isinstance(cert, SosCertificate)
        blocks = detect_extended_z(A).blocks
        assert cert.block_structure == [b.variables for b in blocks]
        f = A.to_polynomial()
        covered = np.zeros(cert.gram.shape, dtype=bool)
        for block in blocks:
            own = _certify_monolithic(
                f.restrict(block.variables), replace(CertifyOptions(), blockwise="off")
            )
            lift = []
            for alpha in own.basis.exponents:
                full = [0] * n
                for j, v in enumerate(block.variables):
                    full[v] = alpha[j]
                lift.append(cert.basis.index_of(tuple(full)))
            assert np.array_equal(cert.gram[np.ix_(lift, lift)], own.gram)
            covered[np.ix_(lift, lift)] = True
        assert not np.any(cert.gram[~covered])

    def test_negative_diagonal_fast_path(self):
        A = poly_tensor(4, 2, {(4, 0): -1, (0, 4): 1})
        res = certify_sos(A)
        assert isinstance(res, NotCertified)
        assert res.status == "not_sos"


class TestExtract:
    def test_identity_gram(self):
        basis = monomial_basis(2, 2)
        squares, rank = extract_sos_terms(np.eye(3), basis)
        assert rank == 3
        assert sorted(tuple(s.terms) for s in squares) == [
            ((0, 2),), ((1, 1),), ((2, 0),)
        ]

    def test_rank_one_gram(self):
        basis = monomial_basis(2, 2)
        v = np.array([1.0, 2.0, -1.0])
        squares, rank = extract_sos_terms(np.outer(v, v), basis)
        assert rank == 1
        assert len(squares) == 1

    def test_identity_tensor_diag_gram(self):
        system = gram_system(4, 4)
        N = len(system.basis)
        Q = np.zeros((N, N))
        for i in range(4):
            alpha = tuple(2 if j == i else 0 for j in range(4))
            p = system.basis.index_of(alpha)
            Q[p, p] = 1.0
        squares, rank = extract_sos_terms(Q, system.basis)
        assert rank == 4


class TestRankMachinery:
    def test_lambda_matrix_case(self):
        for n in (2, 3, 5, 8):
            assert lambda_bound(2, n) == pytest.approx(n)

    def test_lambda_quartic_three_vars(self):
        assert lambda_bound(4, 3) == 5.0

    def test_lambda_quartic_two_vars(self):
        assert lambda_bound(4, 2) == pytest.approx((math.sqrt(41) - 1) / 2)

    def test_bd_exponent(self):
        assert bd_exponent(identity_tensor(6, 2)) == 6
        assert bd_exponent(poly_tensor(4, 3, {(2, 2, 0): 1, (0, 2, 2): 1})) == 2
        # the pure powers x_i^6 dominate the scan for the coupled instance
        assert bd_exponent(generators.example51()) == 6
        assert bd_exponent(poly_tensor(6, 2, {(2, 4): 1, (4, 2): 1})) == 4

    def test_biquadratic_rank_three(self):
        A = poly_tensor(4, 3, {(2, 2, 0): 1, (0, 2, 2): 1, (2, 0, 2): 1})
        cert = certify_sos(A)
        assert isinstance(cert, SosCertificate)
        bounds = sos_rank_bounds(A, cert)
        assert bounds.observed == 3
        assert bounds.bd == 3
        assert bounds.lam == 5.0

    def test_full_exponent_product_rank_one(self):
        A = poly_tensor(6, 3, {(2, 2, 2): 1.0})
        cert = certify_sos(A)
        assert isinstance(cert, SosCertificate)
        bounds = sos_rank_bounds(A, cert)
        assert bounds.bd == 1
        assert bounds.observed == 1

    def test_identity_within_universal_bound(self):
        A = identity_tensor(4, 4)
        cert = certify_sos(A)
        bounds = sos_rank_bounds(A, cert)
        assert bounds.observed == 4
        assert bounds.observed <= math.ceil(bounds.lam)

    def test_reduction_keeps_constraints(self):
        rng = np.random.default_rng(3)
        system = gram_system(2, 4)
        N = len(system.basis)
        # random PSD matrix, then reduced; constraint values must not move
        B = rng.standard_normal((N, N))
        Q = B @ B.T
        from sostensor.sos import _constraint_values

        before = _constraint_values(Q, system)
        Q2 = reduce_to_extreme(Q, system)
        after = _constraint_values(Q2, system)
        assert np.allclose(before, after, atol=1e-7 * (1 + np.max(np.abs(before))))
        assert np.linalg.eigvalsh(Q2)[0] >= -1e-9


class TestFHat:
    def test_positive_even_coupling_dropped(self):
        A = poly_tensor(4, 2, {(4, 0): 1, (2, 2): 2})
        assert f_hat(A).terms == {(4, 0): 1}

    def test_negative_odd_coupling_kept(self):
        A = poly_tensor(4, 2, {(4, 0): 1, (0, 4): 1, (3, 1): -2})
        assert f_hat(A).terms == {(4, 0): 1, (0, 4): 1, (3, 1): -2}

    def test_positive_odd_coupling_negated(self):
        A = poly_tensor(4, 2, {(4, 0): 1, (0, 4): 1, (3, 1): 2})
        assert f_hat(A).terms == {(4, 0): 1, (0, 4): 1, (3, 1): -2}

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_companion_certificate_implies_original(self, seed):
        rng = np.random.default_rng(seed)
        A = random_symmetric_tensor(rng, 4, 2, density=0.7)
        companion = from_polynomial(f_hat(A))
        res_hat = certify_sos(companion)
        if isinstance(res_hat, SosCertificate):
            res = certify_sos(A)
            assert isinstance(res, SosCertificate)


class TestSingleMixedTerm:
    def test_boundary_value(self):
        # mu0 = 4 (1/2)^(1/2) (1/2)^(1/2) = 2; witness (x^2 - y^2)^2
        assert single_term_mu0([1, 1], [2, 2]) == pytest.approx(2.0)
        assert single_mixed_term_sos([1, 1], [2, 2], 2.0)

    def test_beyond_boundary(self):
        assert not single_mixed_term_sos([1, 1], [2, 2], 3.0)

    def test_odd_exponent_negative_mu(self):
        mu0 = single_term_mu0([1, 1], [3, 1])
        assert mu0 == pytest.approx(4 * (1 / 3) ** 0.75, abs=1e-12)
        assert not single_mixed_term_sos([1, 1], [3, 1], -2.5)

    def test_even_exponents_allow_negative_mu(self):
        assert single_mixed_term_sos([1, 1], [2, 2], -50.0)

    def test_odd_total_degree_rejected(self):
        with pytest.raises(SosError):
            single_mixed_term_sos([1, 1], [2, 1], 1.0)

    def test_agrees_with_grid_nonnegativity(self):
        for mu in (-2.5, -1.0, 1.0, 1.9, 2.1, 3.0):
            f = HomogeneousPolynomial(4, 2, {(4, 0): 1, (0, 4): 1, (2, 2): -mu})
            verdict = single_mixed_term_sos([1, 1], [2, 2], mu)
            observed = grid_min(
                lambda x: float(f.evaluate(x)), 2, 4, steps=41
            )
            assert verdict == (observed >= -1e-9)

    @pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 1.5])
    @pytest.mark.parametrize("a", [(2, 2), (3, 1), (1, 3, 2)])
    def test_agrees_with_certification(self, factor, a):
        n = len(a)
        d2 = sum(a)
        b = [1.0] * n
        mu0 = single_term_mu0(b, a)
        mu = factor * mu0
        terms = {tuple(d2 if j == i else 0 for j in range(n)): 1.0 for i in range(n)}
        terms[tuple(a)] = -mu
        A = poly_tensor(d2, n, terms)
        verdict = single_mixed_term_sos(b, list(a), mu)
        res = certify_sos(A, CertifyOptions(blockwise="off"))
        assert isinstance(res, SosCertificate) == verdict


class TestGershgorin:
    def test_identity(self):
        assert gershgorin_lower_bound(identity_tensor(4, 3)) == 1.0

    def test_example54(self):
        assert gershgorin_lower_bound(generators.example54(4)) == pytest.approx(3.0)

    def test_strictly_dominated_nonnegative(self):
        rng = np.random.default_rng(12)
        from sostensor.structured import row_tables
        from sostensor.tensor import SymmetricTensor

        base = random_symmetric_tensor(rng, 4, 3)
        entries = {idx: v for idx, v in base.entries.items() if len(set(idx)) > 1}
        draft = SymmetricTensor(4, 3, entries)
        for i in range(3):
            entries[(i,) * 4] = float(row_tables(draft).absolute_offsum[i]) + 0.2
        A = SymmetricTensor(4, 3, entries)
        assert gershgorin_lower_bound(A) >= 0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_soundness_against_oracle(self, seed):
        from sostensor.spectral import brute_force_min

        rng = np.random.default_rng(seed)
        A = random_symmetric_tensor(rng, 4, 3)
        val, _ = brute_force_min(A, restarts=30, seed=seed)
        assert gershgorin_lower_bound(A) <= val + 1e-9


class TestCertificateSoundness:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_soundness_invariant(self, seed):
        rng = np.random.default_rng(seed)
        base = random_symmetric_tensor(rng, 4, 3, density=0.5)
        # shift to clear positivity so certificates exist most of the time
        from sostensor.spectral import brute_force_min

        low, _ = brute_force_min(base, restarts=20, seed=seed)
        A = base.shift_diagonal(max(0.0, -low) + 0.2)
        cert = certify_sos(A)
        if isinstance(cert, SosCertificate):
            f = A.to_polynomial()
            assert cert.residual <= 1e-6 * (1 + f.max_abs_coefficient())
            assert np.linalg.eigvalsh(cert.gram)[0] >= -1e-8
            assert cert.rank_estimate <= math.ceil(lambda_bound(4, 3))


def _independent_residual(A, cert):
    """Largest coefficient gap of z' Q z against A's form, from the basis."""
    f = A.to_polynomial()
    B = cert.basis.exponents
    recon = {}
    for p, bp in enumerate(B):
        for q, bq in enumerate(B):
            alpha = tuple(x + y for x, y in zip(bp, bq))
            recon[alpha] = recon.get(alpha, 0.0) + float(cert.gram[p, q])
    keys = set(recon) | set(f.terms)
    return max(abs(recon.get(a, 0.0) - float(f.coefficient(a))) for a in keys)


class TestStopRule:
    """The Gram SDP stops at half the certificate tolerance, in the form's
    own units, and only the certificate check accepts an iterate."""

    @staticmethod
    def _cauchy(scale=1.0):
        A = generators.random_class_instance("cauchy_psd", 4, 3, 40004)
        return from_polynomial(A.to_polynomial().scale(scale))

    @staticmethod
    def _count_iterations(monkeypatch):
        counts = []
        solve = sdp.solve

        def counting(problem, opts=None):
            sol = solve(problem, opts)
            counts.append(sol.iterations)
            return sol

        monkeypatch.setattr(sdp, "solve", counting)
        return counts

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
    def test_cauchy_certified_within_half_tolerance(self, monkeypatch, scale):
        A = self._cauchy(scale)
        counts = self._count_iterations(monkeypatch)
        cert = certify_sos(A)
        assert isinstance(cert, SosCertificate)
        half = 0.5 * CERTIFICATE_TOL * (1 + A.to_polynomial().max_abs_coefficient())
        assert cert.residual <= half
        assert _independent_residual(A, cert) <= half
        Q = 0.5 * (cert.gram + cert.gram.T)
        w = np.linalg.eigvalsh(Q)
        assert w[0] >= -1e-12 * max(w[-1], 1.0)
        if scale == 1.0:
            # 200k iterations (the cap) at a fixed 1e-8 stop tolerance
            assert 0 < sum(counts) < 20_000

    def test_iteration_cap_never_accepts_above_tolerance(self):
        A = self._cauchy()
        res = certify_sos(A, CertifyOptions(max_iter=50))
        if isinstance(res, SosCertificate):
            tol = CERTIFICATE_TOL * (1 + A.to_polynomial().max_abs_coefficient())
            assert res.residual <= tol
            assert _independent_residual(A, res) <= tol
        else:
            assert res.status == "inconclusive"
            assert "after 50 iterations" in res.message
            assert "stop tolerance" in res.message


GRAM_SIZES = [(2, 4), (3, 4), (4, 4), (2, 6), (3, 6)]


class TestGramOperator:
    """The per-(n, m) label array against the per-alpha loops it replaced."""

    @staticmethod
    def _random_symmetric(rng, N):
        B = rng.standard_normal((N, N))
        return B + B.T

    @pytest.mark.parametrize("dim,order", GRAM_SIZES)
    def test_pairs_match_double_loop(self, dim, order):
        system = gram_system(dim, order)
        ref = reference_gram_pairs(system.basis)
        assert set(ref) == set(system.alphas)
        for alpha, prs in zip(system.alphas, system.pairs):
            assert list(prs) == ref[alpha]

    @pytest.mark.parametrize("dim,order", GRAM_SIZES)
    def test_constraint_values_match_loop(self, dim, order):
        system = gram_system(dim, order)
        rng = np.random.default_rng(dim * 10 + order)
        Q = self._random_symmetric(rng, len(system.basis))
        ref = reference_constraint_values(Q, system.basis, system.alphas)
        got = _constraint_values(Q, system)
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("dim,order", GRAM_SIZES)
    def test_gram_to_polynomial_matches_loop(self, dim, order):
        system = gram_system(dim, order)
        rng = np.random.default_rng(dim * 10 + order + 1)
        Q = self._random_symmetric(rng, len(system.basis))
        ref = reference_constraint_values(Q, system.basis, system.alphas)
        poly = gram_to_polynomial(Q, system)
        assert poly.degree == order and poly.dim == dim
        for alpha, v in zip(system.alphas, ref):
            assert float(poly.coefficient(alpha)) == pytest.approx(v, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("dim,order", GRAM_SIZES)
    def test_rank_reduction_map_matches_loop(self, dim, order):
        system = gram_system(dim, order)
        rng = np.random.default_rng(dim * 10 + order + 2)
        N = len(system.basis)
        for r in (1, max(1, N // 2), N):
            V = rng.standard_normal((N, r))
            ref = reference_congruence(V, system.basis, system.alphas)
            got = system.congruence(V)
            assert got.shape == ref.shape
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_solver_operator_reads_the_labels(self):
        system = gram_system(3, 4)
        N = len(system.basis)
        rng = np.random.default_rng(5)
        Q = self._random_symmetric(rng, N)
        assert system.operator.label is system.labels
        assert np.array_equal(
            system.operator.values(Q.ravel()), _constraint_values(Q, system)
        )
        # the dump of the compiled problem lists the same pairs
        problem = sdp.SdpProblem(
            N, 0, operator=system.operator, rhs=np.arange(system.num_constraints, dtype=float)
        )
        loaded = sdp.load_problem(sdp.dump_problem(problem))
        for con, prs in zip(loaded.constraints, system.pairs):
            assert [(i, j) for i, j, _ in con.matrix_entries] == list(prs)
        assert np.array_equal(loaded.rhs, problem.rhs)

    def test_reduce_cauchy_gram_to_extreme(self):
        # class seed 40000 at order 4, dim 2: the solver's Gram has rank 3,
        # above the universal bound 2.70; the extreme point meets it
        A = generators.random_class_instance("cauchy_psd", 4, 2, 40000)
        f = A.to_polynomial()
        system = gram_system(2, 4)
        problem = sdp.SdpProblem(
            len(system.basis), 0, operator=system.operator, rhs=system.rhs(f)
        )
        sol = sdp.solve(problem, sdp.SolveOptions(feas_tol=5e-7))
        assert sol.status == sdp.OPTIMAL
        Q = sdp.psd_project(sol.X)
        before = _constraint_values(Q, system)
        Q2 = reduce_to_extreme(Q, system)
        after = _constraint_values(Q2, system)
        guard = 1e-9 * (1.0 + np.max(np.abs(before)))
        assert np.max(np.abs(after - before)) <= guard
        w = np.linalg.eigvalsh(Q2)
        assert w[0] >= -1e-9 * w[-1]
        rank = int(np.count_nonzero(w > 1e-7 * w[-1]))
        assert rank <= lambda_bound(4, 2)

    def test_facial_reduction_with_exact_zero(self, monkeypatch):
        # (x0 - x1)^2 (x0^2 + x1^2) + x2^4 vanishes at (1, 1, 0); every Gram
        # matrix has z(1, 1, 0) in its kernel, and the reduced program
        # (dense rows from the congruence P' E_alpha P) finds one
        from sostensor import descent, sos

        f = HomogeneousPolynomial(4, 3, {
            (4, 0, 0): 1.0, (3, 1, 0): -2.0, (2, 2, 0): 2.0, (1, 3, 0): -2.0,
            (0, 4, 0): 1.0, (0, 0, 4): 1.0,
        })
        zero = np.array([1.0, 1.0, 0.0])
        monkeypatch.setattr(
            sos, "sphere_minimize",
            lambda *a, **k: descent.SphereMinimum(0.0, zero, 0.0, [zero]),
        )
        system = gram_system(3, 4)
        Q = sos._facial_reduction_solve(f, system, 1e-9, CertifyOptions(max_iter=20_000))
        assert Q is not None
        resid = _constraint_values(Q, system) - system.rhs(f)
        assert np.max(np.abs(resid)) <= 1e-8
        assert np.linalg.norm(Q @ system.basis.evaluate(zero)) <= 1e-8
        assert np.linalg.eigvalsh(0.5 * (Q + Q.T))[0] >= -1e-9
