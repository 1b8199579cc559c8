import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sostensor import generators, sdp, sos
from sostensor.fileio import to_json
from sostensor.sos import (
    CERTIFICATE_TOL,
    CertifyOptions,
    NotCertified,
    SosCertificate,
    SosError,
    bd_exponent,
    cauchy_gram,
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
from sostensor.structured import cauchy_generator, cauchy_tensor, row_tables
from sostensor.tensor import (
    HomogeneousPolynomial,
    SymmetricTensor,
    from_polynomial,
    identity_tensor,
)

from helpers import (
    grid_min,
    h_boundary_form,
    random_symmetric_tensor,
    reference_congruence,
    reference_constraint_values,
    reference_gram_pairs,
)


def poly_tensor(degree, dim, terms):
    return from_polynomial(HomogeneousPolynomial(degree, dim, terms))


def _monolithic(f):
    """`_certify_monolithic` on a one-component form, with the Cauchy
    generator and row-bound scale that `certify_sos` finds for it."""
    c = cauchy_generator(f)
    return sos._certify_monolithic(f, CertifyOptions(), c, sos._bound_scale(f, witness=c is None))


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
        cert = certify_sos(A)
        assert isinstance(cert, SosCertificate)
        assert cert.method == "blockwise"
        assert cert.block_structure == [(0, 1), (2, 3)]

    def test_blockwise_gram_is_lifted_block_grams(self):
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
            sub = f.restrict(block.variables)
            own = _monolithic(sub)
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


def _permuted_example54(n, seed):
    perm = np.random.default_rng(seed).permutation(n)
    base = generators.example54(n)
    return SymmetricTensor(4, n, {
        tuple(sorted(int(perm[i]) for i in idx)): v for idx, v in base.entries.items()
    })


def _two_weakly_dominated_components():
    """Two weakly dominated forms, on the variables (0, 3, 4) and (1, 2)."""
    terms = {}
    for dim, seed, variables in ((3, 40_000, (0, 3, 4)), (2, 40_001, (1, 2))):
        f = generators.random_class_instance("weak_diag_dominated", 4, dim, seed).to_polynomial()
        for alpha, c in f.terms.items():
            full = [0] * 5
            for j, v in enumerate(variables):
                full[v] = alpha[j]
            terms[tuple(full)] = c
    return from_polynomial(HomogeneousPolynomial(4, 5, terms))


BLOCKWISE_INPUTS = pytest.mark.parametrize(
    "make", [lambda: _permuted_example54(20, 3), _two_weakly_dominated_components],
    ids=["example54", "two_components"],
)


def _coefficient_gap(f, coefficients):
    """Largest |f_alpha - coefficients[alpha]| over both supports."""
    support = set(f.terms) | set(coefficients)
    return max(abs(float(f.coefficient(a)) - float(coefficients.get(a, 0.0))) for a in support)


class TestBlockCertificate:
    """A blockwise certificate keeps each block's certificate in the block's
    variables and lifts the full-basis Gram matrix only when it is read."""

    @BLOCKWISE_INPUTS
    def test_blocks_are_the_components_own_certificates(self, make):
        A = make()
        cert = certify_sos(A)
        f = A.to_polynomial()
        assert [v for v, _ in cert.blocks] == cert.block_structure
        assert [b.method for _, b in cert.blocks] == cert.block_methods
        for vars_, block in cert.blocks:
            own = _monolithic(f.restrict(vars_))
            assert block.basis == own.basis
            assert np.array_equal(block.gram, own.gram)
            assert [s.terms for s in block.squares] == [s.terms for s in own.squares]
            assert (block.method, block.rank_estimate, block.residual) == (
                own.method, own.rank_estimate, own.residual
            )
        assert cert.rank_estimate == sum(b.rank_estimate for _, b in cert.blocks)
        assert cert.residual == max(b.residual for _, b in cert.blocks)

    @BLOCKWISE_INPUTS
    def test_full_basis_gram_is_built_on_first_read_only(self, make):
        cert = certify_sos(make())
        cert.squares
        cert.reconstruction()
        cert.to_dict()
        assert "gram" not in vars(cert)
        assert cert.gram is cert.gram
        assert cert.gram.shape == (len(cert.basis), len(cert.basis))

    @BLOCKWISE_INPUTS
    def test_reconstruction_sums_the_lifted_squares(self, make):
        A = make()
        cert = certify_sos(A)
        lifted = {}
        for s in cert.squares:
            for a1, c1 in s.terms.items():
                for a2, c2 in s.terms.items():
                    key = tuple(x + y for x, y in zip(a1, a2))
                    lifted[key] = lifted.get(key, 0.0) + c1 * c2
        recon = cert.reconstruction()
        assert (recon.degree, recon.dim) == (4, A.dim)
        assert _coefficient_gap(recon, lifted) <= 1e-12
        assert _coefficient_gap(A.to_polynomial(), recon.terms) <= 1e-9

    @BLOCKWISE_INPUTS
    def test_emitted_blocks_rebuild_the_form(self, make):
        A = make()
        payload = json.loads(to_json(certify_sos(A).to_dict()))
        assert not {"basis", "gram_lower_triangle", "squares"} & set(payload)
        assert payload["block_methods"] == [b["method"] for b in payload["blocks"]]
        assert payload["rank_estimate"] == sum(b["rank_estimate"] for b in payload["blocks"])
        coefficients = {}
        for block in payload["blocks"]:
            B = np.array(block["basis"])
            N = len(B)
            Q = np.zeros((N, N))
            Q.T[np.triu_indices(N)] = block["gram_lower_triangle"]
            Q += np.tril(Q, -1).T
            for p in range(N):
                for q in range(N):
                    full = [0] * A.dim
                    for j, v in enumerate(block["variables"]):
                        full[v] = int(B[p, j] + B[q, j])
                    key = tuple(full)
                    coefficients[key] = coefficients.get(key, 0.0) + Q[p, q]
        assert _coefficient_gap(A.to_polynomial(), coefficients) <= 1e-9

    @pytest.mark.parametrize("n, limit_mb", [(100, 20), (500, 50)])
    def test_certify_memory_stays_per_block(self, n, limit_mb):
        # the full basis has C(n+1, 2) monomials: a dense Gram matrix over it
        # would take 204 MB at n = 100
        A = generators.example54(n)
        tracemalloc.start()
        try:
            cert = certify_sos(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.method == "blockwise"
        assert peak < limit_mb * 1e6
        assert _coefficient_gap(A.to_polynomial(), cert.reconstruction().terms) <= 1e-9


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

    def test_reduction_survives_svd_nonconvergence(self, monkeypatch):
        # LAPACK's SVD fails to converge on some finite matrices (the Gram
        # of _dominated_form(12891, 6) hit one); every first attempt fails
        # here, and the transposed retry carries the reduction
        rng = np.random.default_rng(3)
        system = gram_system(2, 4)
        N = len(system.basis)
        B = rng.standard_normal((N, N))
        Q = B @ B.T
        svd = np.linalg.svd
        calls = []

        def flaky(a, *args, **kwargs):
            calls.append(a.shape)
            if len(calls) % 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", flaky)
        from sostensor.sos import _constraint_values

        before = _constraint_values(Q, system)
        Q2 = reduce_to_extreme(Q, system)
        after = _constraint_values(Q2, system)
        assert len(calls) >= 2 and calls[1] == calls[0][::-1]
        assert np.allclose(before, after, atol=1e-7 * (1 + np.max(np.abs(before))))
        assert np.linalg.eigvalsh(Q2)[0] >= -1e-9
        assert np.linalg.matrix_rank(Q2, 1e-7) < N


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
        f = A.to_polynomial()
        res = _monolithic(f)
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

    @staticmethod
    def _pool(name):
        if name == "criterion7":
            return [
                generators.random_class_instance(cls, (4, 6)[s % 2], 2 + s % 3, 40_000 + s)
                for cls in generators.CLASS_GENERATORS for s in range(20)
            ]
        if name == "procedure1":
            from sostensor.spectral import generate_procedure1

            return [generate_procedure1(4, 20, 4, 5, 100.0, seed=31_000 + i).tensor for i in range(10)]
        return [generators.example54(n) for n in (4, 20, 100)]

    @pytest.mark.parametrize("name", ["criterion7", "procedure1", "example54_exact"])
    def test_bound_from_the_form_matches_row_tables(self, name):
        for A in self._pool(name):
            rows = row_tables(A)
            diag = np.array([float(A.diagonal_entry(i)) for i in range(A.dim)])
            off = np.array([float(v) for v in rows.absolute_offsum])
            bound = gershgorin_lower_bound(A)
            assert abs(bound - np.min(diag - off)) <= 1e-12 * np.max(np.abs(diag) + off)
            assert gershgorin_lower_bound(A, A.to_polynomial()) == bound

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


def _count_solves(monkeypatch):
    """Record (status, iterations, max_iter) of every sdp.solve call."""
    calls = []
    solve = sdp.solve

    def counting(problem, opts=None):
        sol = solve(problem, opts)
        calls.append((sol.status, sol.iterations, (opts or sdp.SolveOptions()).max_iter))
        return sol

    monkeypatch.setattr(sdp, "solve", counting)
    return calls


class TestStopRule:
    """The Gram SDP stops at half the certificate tolerance, in the form's
    own units, and only the certificate check accepts an iterate.  The
    Cauchy instance is sent through the SDP: its closed-form Gram matrix is
    switched off, so the solver's stop rule stays under test."""

    @pytest.fixture(autouse=True)
    def _sdp_route(self, monkeypatch):
        from sostensor import sos

        monkeypatch.setattr(sos, "cauchy_generator", lambda f: None)

    @staticmethod
    def _cauchy(scale=1.0):
        A = generators.random_class_instance("cauchy_psd", 4, 3, 40004)
        return from_polynomial(A.to_polynomial().scale(scale))

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
    def test_cauchy_certified_within_half_tolerance(self, monkeypatch, scale):
        A = self._cauchy(scale)
        calls = _count_solves(monkeypatch)
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
            assert 0 < sum(it for _, it, _ in calls) < 20_000

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


def _spy_cauchy_gram(monkeypatch):
    from sostensor import sos

    calls = []

    def spy(c, basis):
        calls.append(c)
        return cauchy_gram(c, basis)

    monkeypatch.setattr(sos, "cauchy_gram", spy)
    return calls


class TestCauchyClosedForm:
    """Positive Cauchy forms are certified from their closed-form Gram
    matrix, with no SDP solve."""

    @pytest.mark.parametrize("s", range(20))
    def test_class_instances_without_sdp(self, monkeypatch, s):
        order, dim = (4, 6)[s % 2], 2 + s % 3
        A = generators.random_class_instance("cauchy_psd", order, dim, 40_000 + s)
        calls = _count_solves(monkeypatch)
        cert = certify_sos(A)
        assert isinstance(cert, SosCertificate)
        assert calls == []
        f = A.to_polynomial()
        assert _independent_residual(A, cert) <= 1e-12 * (1 + f.max_abs_coefficient())
        w = np.linalg.eigvalsh(0.5 * (cert.gram + cert.gram.T))
        assert w[0] >= -1e-12 * w[-1]
        assert cert.rank_estimate <= lambda_bound(order, dim)
        assert int(np.count_nonzero(w > 1e-7 * w[-1])) <= lambda_bound(order, dim)

    def test_gram_reproduces_the_form(self):
        c = [0.4, 1.1, 2.3]
        system = gram_system(3, 4)
        Q = cauchy_gram(c, system.basis)
        f = cauchy_tensor(c, 4).to_polynomial()
        ref = reference_constraint_values(Q, system.basis, system.alphas)
        assert np.allclose(ref, system.rhs(f), rtol=1e-14, atol=0)
        assert np.linalg.eigvalsh(Q)[0] > 0

    def test_rational_generator(self, monkeypatch):
        c = [Fraction(1, 2), Fraction(3, 2), 2]
        A = cauchy_tensor(c, 4)
        assert cauchy_generator(A.to_polynomial()) == tuple(Fraction(v) for v in c)
        calls = _count_solves(monkeypatch)
        cert = certify_sos(A)
        assert isinstance(cert, SosCertificate)
        assert calls == []
        assert _independent_residual(A, cert) <= 1e-12 * (1 + A.to_polynomial().max_abs_coefficient())

    def test_perturbed_entry_takes_the_sdp(self, monkeypatch):
        # a larger diagonal entry keeps the form SOS (it adds 1e-3 x0^4), but
        # the generator read from it misses every mixed coefficient of x0
        A = cauchy_tensor([0.5, 1.0, 1.7], 4)
        idx = (0, 0, 0, 0)
        A = SymmetricTensor(4, 3, {**A.entries, idx: A.entries[idx] + 1e-3})
        assert cauchy_generator(A.to_polynomial()) is None
        closed = _spy_cauchy_gram(monkeypatch)
        calls = _count_solves(monkeypatch)
        cert = certify_sos(A)
        assert closed == []
        assert len(calls) >= 1
        assert isinstance(cert, SosCertificate)

    def test_negative_generator_takes_no_closed_form(self, monkeypatch):
        A = cauchy_tensor([-1, 2.5, 3.1], 4)
        assert cauchy_generator(A.to_polynomial()) is None
        closed = _spy_cauchy_gram(monkeypatch)
        res = certify_sos(A)
        assert closed == []
        assert isinstance(res, NotCertified)


def _scaled_residual(f, cert):
    """Largest coefficient gap, in the form rescaled to unit pure powers,
    between the certificate's Gram matrix and the form."""
    m = f.degree
    d = np.array([
        float(f.diagonal_coefficient(i)) ** (1.0 / m)
        if f.diagonal_coefficient(i) > 0 else 1.0
        for i in range(f.dim)
    ])
    B = cert.basis.exponents
    recon = {}
    for p, bp in enumerate(B):
        for q, bq in enumerate(B):
            alpha = tuple(x + y for x, y in zip(bp, bq))
            recon[alpha] = recon.get(alpha, 0.0) + float(cert.gram[p, q])
    gap, top = 0.0, 0.0
    for alpha in set(recon) | set(f.terms):
        da = float(np.prod(d ** np.array(alpha)))
        g = float(f.coefficient(alpha)) / da
        gap = max(gap, abs(recon.get(alpha, 0.0) / da - g))
        top = max(top, abs(g))
    return gap, top


class TestScaledCertificate:
    """The residual is checked in the form rescaled to unit pure powers, so
    one huge pure power cannot widen the tolerance past a defect."""

    def test_not_psd_form_with_huge_pure_power_is_not_certified(self):
        # minimum about -8e-6 on the sphere; residual 1.27e-5 is below
        # 1e-6 * (1 + 1e6) but far above the scaled form's tolerance
        f = HomogeneousPolynomial(4, 2, {(4, 0): 1e6, (0, 4): 1e-6, (2, 2): -6.0})
        res = certify_sos(from_polynomial(f))
        assert isinstance(res, NotCertified)

    def test_scan_finds_negative_point_in_scaled_variables(self):
        # the scan runs on y1^4 + y2^4 - 6 y1^2 y2^2 (y = d * x), whose
        # minimum -2 is far below the cut; in x the value is about -4e-6
        f = HomogeneousPolynomial(4, 2, {(4, 0): 1e6, (0, 4): 1e-6, (2, 2): -6.0})
        res = certify_sos(from_polynomial(f))
        assert res.status == "not_sos"
        x = res.witness_point
        assert np.sum(x ** 4) == pytest.approx(1.0, rel=1e-12)
        assert float(f.evaluate(x)) < 0
        assert res.witness_value == pytest.approx(float(f.evaluate(x)), rel=1e-6)

    def test_psd_form_with_huge_pure_power_is_certified(self):
        # PSD since 1e-6 > 9 / 1e8; scaled: y1^4 + y2^4 - 0.6 y1^2 y2^2
        f = HomogeneousPolynomial(4, 2, {(4, 0): 1e8, (0, 4): 1e-6, (2, 2): -6.0})
        A = from_polynomial(f)
        cert = certify_sos(A)
        assert isinstance(cert, SosCertificate)
        gap, top = _scaled_residual(f, cert)
        assert gap <= CERTIFICATE_TOL * (1 + top)
        assert _independent_residual(A, cert) <= CERTIFICATE_TOL * (1 + 1e8)
        recon = cert.reconstruction()
        for alpha, coef in f.terms.items():
            assert float(recon.coefficient(alpha)) == pytest.approx(coef, rel=1e-3)


def _exps_coeffs(f):
    exps = np.array(list(f.terms), dtype=float).reshape(len(f.terms), f.dim)
    return exps, np.array([float(c) for c in f.terms.values()])


def _near_dominance_boundary(seed, order):
    """Random mixed terms with pure powers a_i = w_i + noise, where w_i is
    the row's weak off-sum: the dominance margin lands on either side of 0,
    mostly just above it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    terms = {}
    for _ in range(int(rng.integers(2, 6))):
        alpha = np.bincount(rng.integers(0, n, order), minlength=n)
        if alpha.max() == order:
            continue
        c = float(rng.normal())
        if rng.random() < 0.3:
            alpha, c = 2 * np.bincount(rng.integers(0, n, order // 2), minlength=n), abs(c)
            if alpha.max() == order:
                continue
        terms[tuple(int(e) for e in alpha)] = c
    exps, coeffs = _exps_coeffs(HomogeneousPolynomial(order, n, terms))
    w = sos._weak_offsum(exps, coeffs, order)
    for i in range(n):
        pure = tuple(order if v == i else 0 for v in range(n))
        terms[pure] = float(w[i] + rng.uniform(-0.01, 0.05) * (1.0 + w[i]))
    return HomogeneousPolynomial(order, n, terms)


def _count_scans(monkeypatch):
    calls = []
    minimize = sos.sphere_minimize

    def counting(*args, **kwargs):
        calls.append(args[0])
        return minimize(*args, **kwargs)

    monkeypatch.setattr(sos, "sphere_minimize", counting)
    return calls


def _same_certificate(a, b):
    return (
        np.array_equal(a.gram, b.gram)
        and [s.terms for s in a.squares] == [s.terms for s in b.squares]
        and (a.rank_estimate, a.residual, a.block_structure)
        == (b.rank_estimate, b.residual, b.block_structure)
    )


class TestScanSkip:
    """The negative-point scan is skipped when the weak-dominance row bound
    or the Cauchy detector proves the form nonnegative on the sphere."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([4, 6]))
    def test_bound_implies_unskipped_scan_finds_nothing(self, seed, order):
        A = from_polynomial(_near_dominance_boundary(seed, order))
        f = A.to_polynomial()
        exps, coeffs = _exps_coeffs(f)
        assume(sos._dominance_margin(exps, coeffs, order) >= 0)
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_scans(mp)
            assert isinstance(certify_sos(A, CertifyOptions(seed=seed)), SosCertificate)
            assert calls == []
            # the scan certify_sos skipped descends and finds nothing below
            # the cut
            assert sos._negative_point_scan(f, seed) is None
            assert len(calls) == 1

    @pytest.mark.parametrize("make", [
        lambda: generators.example54(20),
        lambda: generators.random_class_instance("weak_diag_dominated", 4, 3, 40_000),
        lambda: generators.random_class_instance("cauchy_psd", 6, 3, 40_001),
    ], ids=["example54", "weak_diag_dominated", "cauchy_psd"])
    def test_no_descent_and_same_certificate(self, monkeypatch, make):
        A = make()
        calls = _count_scans(monkeypatch)
        cert = certify_sos(A)
        assert calls == []
        monkeypatch.setattr(sos, "_negative_point_scan", lambda *args, **kwargs: None)
        unscanned = certify_sos(A)
        assert isinstance(cert, SosCertificate)
        assert _same_certificate(cert, unscanned)

    @pytest.mark.parametrize("terms", [
        {(4, 0): 1e6, (0, 4): 1e-6, (2, 2): -6.0},
        {(4, 0): 1.0, (0, 4): 1.0, (2, 2): -3.0},
    ], ids=["huge_pure_power", "not_dominated"])
    def test_indefinite_forms_keep_their_witness(self, monkeypatch, terms):
        f = HomogeneousPolynomial(4, 2, terms)
        calls = _count_scans(monkeypatch)
        res = certify_sos(from_polynomial(f))
        assert len(calls) == 1
        assert res.status == "not_sos" and res.witness_point is not None
        assert float(f.evaluate(res.witness_point)) < 0

    @pytest.mark.parametrize("order", [4, 6])
    def test_weak_offsum_from_the_form_matches_row_tables(self, order):
        rng = np.random.default_rng(order)
        for _ in range(10):
            A = random_symmetric_tensor(rng, order, int(rng.integers(2, 5)))
            exps, coeffs = _exps_coeffs(A.to_polynomial())
            ref = np.array([float(v) for v in row_tables(A).weak_offsum])
            assert np.allclose(sos._weak_offsum(exps, coeffs, order), ref, rtol=1e-12, atol=0)


PSD_NOT_SOS = {
    # Reznick 2000, "Some concrete aspects of Hilbert's 17th problem"
    "motzkin": {(4, 2, 0): 1, (2, 4, 0): 1, (0, 0, 6): 1, (2, 2, 2): -3},
    "robinson": {
        (6, 0, 0): 1, (0, 6, 0): 1, (0, 0, 6): 1, (4, 2, 0): -1, (2, 4, 0): -1,
        (4, 0, 2): -1, (2, 0, 4): -1, (0, 4, 2): -1, (0, 2, 4): -1, (2, 2, 2): 3,
    },
    "choi_lam_s": {(4, 2, 0): 1, (0, 4, 2): 1, (2, 0, 4): 1, (2, 2, 2): -3},
}


@pytest.mark.parametrize("name", sorted(PSD_NOT_SOS))
def test_psd_but_not_sos_has_farkas_evidence(monkeypatch, name):
    f = HomogeneousPolynomial(6, 3, PSD_NOT_SOS[name])
    calls = _count_solves(monkeypatch)
    res = certify_sos(from_polynomial(f))
    assert isinstance(res, NotCertified)
    assert res.status == "not_sos" and res.farkas is not None
    status, iterations, cap = calls[-1]
    assert status == sdp.INFEASIBLE_EVIDENCE and iterations < cap
    # independent of the solver: sum_alpha y_alpha E_alpha is PSD and
    # sum_alpha y_alpha f_alpha < 0, so no PSD Gram matrix reproduces f
    _assert_separates(f, res.farkas.items())


def _assert_separates(f, pairs):
    """sum_alpha y_alpha E_alpha is PSD over gram_system(n, m) and
    sum_alpha y_alpha f_alpha < 0, for the (alpha, y_alpha) in `pairs`."""
    system = gram_system(f.dim, f.degree)
    N = len(system.basis)
    y = np.zeros(system.num_constraints)
    index = {alpha: k for k, alpha in enumerate(system.alphas)}
    for alpha, value in pairs:
        y[index[tuple(alpha)]] = value
    Y = y[system.labels].reshape(N, N)
    w = np.linalg.eigvalsh(Y)
    assert w[0] >= -1e-9 * w[-1]
    coeffs = np.array([float(f.coefficient(a)) for a in system.alphas])
    assert float(y @ coeffs) < -1e-3 * float(np.linalg.norm(y))


@pytest.mark.parametrize("dim", [3, 4])
def test_farkas_evidence_is_emitted_over_the_full_variables(dim):
    # Motzkin in x0..x2, alone and beside x3^6: the second is certified
    # block by block, and its evidence is lifted from the block's monomials
    terms = dict(PSD_NOT_SOS["motzkin"])
    if dim == 4:
        terms = {a + (0,): c for a, c in terms.items()}
        terms[(0, 0, 0, 6)] = 1
    f = HomogeneousPolynomial(6, dim, terms)
    res = certify_sos(from_polynomial(f))
    assert isinstance(res, NotCertified) and res.status == "not_sos"
    emitted = json.loads(to_json(res.to_dict()))
    assert emitted["witness_point"] is None
    pairs = emitted["farkas"]
    assert all(len(alpha) == dim for alpha, _ in pairs)
    _assert_separates(f, pairs)


def _partitions(m, largest=None):
    """Partitions of m, largest part first."""
    if m == 0:
        yield ()
        return
    for k in range(min(m, largest or m), 0, -1):
        for rest in _partitions(m - k, k):
            yield (k,) + rest


def _square_sum(weights, B, C):
    """Coefficients of sum_k w_k (x^B_k - x^C_k)^2, by exponent."""
    out = {}
    for w, b, c in zip(weights, B, C):
        for e1, s1 in ((b, 1.0), (c, -1.0)):
            for e2, s2 in ((b, 1.0), (c, -1.0)):
                key = tuple(int(v) for v in e1 + e2)
                out[key] = out.get(key, 0.0) + w * s1 * s2
    return out


def _dominated_form(seed, order, zero_row=True):
    """A random weakly dominated form: negative, positive-odd and
    positive-even mixed terms, every pure power at its row's weak off-sum
    plus a slack, and one row's slack exactly 0.  Coefficients are integer
    multiples of the order, so the off-sums and the margin are exact in
    floats."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    terms = {}
    for kind in rng.integers(0, 3, size=int(rng.integers(1, 7))):
        if kind == 2:  # positive, every exponent even
            alpha = 2 * np.bincount(rng.integers(0, n, order // 2), minlength=n)
        else:
            alpha = np.bincount(rng.integers(0, n, order), minlength=n)
            if kind == 1 and not np.any(alpha % 2):  # positive with an odd exponent
                i = rng.choice(np.flatnonzero(alpha))
                j = (i + int(rng.integers(1, n))) % n
                alpha[i] -= 1
                alpha[j] += 1
        if alpha.max() == order:
            continue
        sign = -1 if kind == 0 else 1
        terms[tuple(int(e) for e in alpha)] = sign * order * int(rng.integers(1, 10))
    if not terms:
        terms[(order - 1, 1) + (0,) * (n - 2)] = -order
    exps, coeffs = _exps_coeffs(HomogeneousPolynomial(order, n, terms))
    w = sos._weak_offsum(exps, coeffs, order)
    slack = rng.integers(0, 4, size=n).astype(float)
    if zero_row:
        slack[rng.integers(n)] = 0.0
    for i in range(n):
        pure = tuple(order if v == i else 0 for v in range(n))
        terms[pure] = float(w[i] + slack[i])
    scale = 2.0 ** int(rng.integers(-3, 4))
    return HomogeneousPolynomial(order, n, {a: scale * c for a, c in terms.items()})


# SOS, but failing the row bound in any units: the SDP route's input
_FOURTH_POWER_OF_DIFFERENCE = HomogeneousPolynomial(
    4, 2, {(4, 0): 1.0, (3, 1): -4.0, (2, 2): 6.0, (1, 3): -4.0, (0, 4): 1.0}
)


class TestAmgmRoute:
    """Weakly dominated forms are certified from Hurwitz's AM-GM squares,
    with no SDP solve."""

    @pytest.mark.parametrize("order", [4, 6, 8])
    def test_agiform_squares_of_every_pattern(self, order):
        for pattern in _partitions(order):
            if len(pattern) < 2:
                continue
            w, B, C = sos._agiform_squares(pattern)
            assert np.all(w > 0)
            assert np.all(B.sum(axis=1) == order // 2)
            assert np.all(C.sum(axis=1) == order // 2)
            target = {pattern: -1.0}
            for i, p in enumerate(pattern):
                pure = tuple(order if v == i else 0 for v in range(len(pattern)))
                target[pure] = p / order
            got = _square_sum(w, B, C)
            for alpha in set(got) | set(target):
                assert got.get(alpha, 0.0) == pytest.approx(
                    target.get(alpha, 0.0), abs=1e-12
                ), (pattern, alpha)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([4, 6]))
    @example(seed=12891, order=6)
    @example(seed=330, order=6)
    def test_dominated_forms_take_the_amgm_route(self, seed, order):
        f = _dominated_form(seed, order)
        exps, coeffs = _exps_coeffs(f)
        assert sos._dominance_margin(exps, coeffs, order) == 0.0
        A = from_polynomial(f)
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_solves(mp)
            g = A.to_polynomial()
            cert = _monolithic(g)
        assert isinstance(cert, SosCertificate)
        assert cert.method == "amgm"
        assert calls == []
        assert _independent_residual(A, cert) <= 1e-12 * (1 + f.max_abs_coefficient())
        w = np.linalg.eigvalsh(cert.gram)
        assert w[0] >= -1e-12 * max(w[-1], 1.0)

    def test_gram_of_each_kind_of_term(self):
        # slacks 1/4, 1/2, 1/4 beside a negative, a positive odd and a
        # positive even mixed term
        basis = monomial_basis(3, 2)
        terms = {(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0,
                 (3, 1, 0): -1.0, (0, 1, 3): 1.0, (0, 2, 2): 2.0}
        f = HomogeneousPolynomial(4, 3, terms)
        exps, coeffs = _exps_coeffs(f)
        Q = sos._amgm_gram(exps.astype(np.int64), coeffs, basis)
        assert np.array_equal(Q, Q.T) and np.linalg.eigvalsh(Q)[0] >= -1e-15
        system = gram_system(3, 4)
        assert np.allclose(_constraint_values(Q, system), system.rhs(f), rtol=0, atol=1e-15)

    def test_bound_in_the_scaled_units_only(self, monkeypatch):
        # in f's units x1's row fails (1e-4 < 0.75); scaled to unit pure
        # powers the mixed coefficient is -1.5 and both rows hold
        f = HomogeneousPolynomial(4, 2, {(4, 0): 1e4, (0, 4): 1e-4, (2, 2): -1.5})
        exps, coeffs = _exps_coeffs(f)
        assert sos._dominance_margin(exps, coeffs, 4) < 0
        calls = _count_solves(monkeypatch)
        cert = certify_sos(from_polynomial(f))
        assert isinstance(cert, SosCertificate) and cert.method == "amgm"
        assert calls == []

    def test_form_failing_the_bound_in_both_units_reaches_the_sdp(self, monkeypatch):
        # (x0 - x1)^4 is SOS, each row's weak off-sum 4 exceeds its pure
        # power in both units, and it is no nonsingular H-tensor (its
        # comparison tensor's off-diagonal row sum is 7 against a diagonal
        # of 1), so no witness scale exists either
        f = _FOURTH_POWER_OF_DIFFERENCE
        calls = _count_solves(monkeypatch)
        cert = certify_sos(from_polynomial(f))
        assert isinstance(cert, SosCertificate) and cert.method == "sdp"
        assert len(calls) >= 1

    def test_rank_never_above_the_sdp_route(self, monkeypatch):
        # criterion 7's pool; the SDP route is the same call with the AM-GM
        # route switched off
        pool = [
            generators.random_class_instance(name, (4, 6)[s % 2], 2 + s % 3, 40_000 + s)
            for name in generators.CLASS_GENERATORS for s in range(20)
        ]
        certs = [certify_sos(A) for A in pool]
        monkeypatch.setattr(sos, "_amgm_gram", lambda *args: None)
        compared = 0
        for A, cert in zip(pool, certs):
            assert isinstance(cert, SosCertificate)
            if "amgm" not in [cert.method] + (cert.block_methods or []):
                continue
            reference = certify_sos(A)
            assert "amgm" not in [reference.method] + (reference.block_methods or [])
            assert cert.rank_estimate <= reference.rank_estimate
            compared += 1
        assert compared >= 100


# class-certify's forms whose row bound fails in their own units and in
# unit-pure-power units, in the form or in one block
_WITNESS_SCALED = [
    ("h_nonneg_diag", 6, 3, 40_001),
    ("h_nonneg_diag", 6, 3, 40_021),
    ("h_nonneg_diag", 6, 3, 40_041),
    ("h_nonneg_diag", 4, 4, 40_002),
    ("h_nonneg_diag", 4, 4, 40_042),
    ("h_nonneg_diag", 4, 3, 40_024),
    ("psd_extended_z", 6, 3, 40_021),
    ("psd_extended_z", 6, 3, 40_041),
    ("psd_extended_z", 4, 4, 40_002),
    ("psd_extended_z", 4, 4, 40_022),
    ("psd_extended_z", 4, 4, 40_042),
    ("psd_extended_z", 4, 3, 40_044),
]


def _slowly_mixing_h_pair():
    """Two copies of h_nonneg_diag (4, 3, 40024), the second times 1.001,
    joined by 0.01 x2^2 x3^2: one component whose H-tensor power iteration
    needs more than 1000 steps to converge, since the copies' radii nearly
    tie."""
    base = generators.random_class_instance("h_nonneg_diag", 4, 3, 40_024).to_polynomial()
    terms = {(0, 0, 2, 2, 0, 0): 0.01}
    for alpha, c in base.terms.items():
        terms[tuple(alpha) + (0, 0, 0)] = float(c)
        terms[(0, 0, 0) + tuple(alpha)] = 1.001 * float(c)
    return HomogeneousPolynomial(4, 6, terms)


class TestWitnessScaledAmgm:
    """A form or block that fails the row bound in both units but is a
    nonsingular H-tensor takes the AM-GM route in the variables scaled by
    its witness: no descent and no SDP solve."""

    @pytest.mark.parametrize("name, order, dim, seed", _WITNESS_SCALED)
    def test_class_form_needs_neither_scan_nor_sdp(self, monkeypatch, name, order, dim, seed):
        def unexpected(*args, **kwargs):
            raise AssertionError("no descent or SDP solve expected")

        monkeypatch.setattr(sdp, "solve", unexpected)
        monkeypatch.setattr(sos, "sphere_minimize", unexpected)
        A = generators.random_class_instance(name, order, dim, seed)
        cert = certify_sos(A)
        assert isinstance(cert, SosCertificate)
        methods = cert.block_methods or [cert.method]
        assert "amgm" in methods
        f = A.to_polynomial()
        for block, method in zip(cert.block_structure or [range(A.dim)], methods):
            if method == "amgm":
                # neither fixed units carries the bound: the witness did
                assert sos._bound_scale(f.restrict(list(block)), witness=False) is None
        assert _independent_residual(A, cert) <= 1e-9 * (1 + f.max_abs_coefficient())
        w = np.linalg.eigvalsh(cert.gram)
        assert w[0] >= -1e-9 * max(w[-1], 1.0)

    def test_cauchy_form_takes_no_witness(self, monkeypatch):
        # its closed-form Gram matrix comes next, so the power iteration of
        # the witness would be wasted
        def unexpected(*args, **kwargs):
            raise AssertionError("no H-tensor witness expected")

        A = generators.random_class_instance("cauchy_psd", 6, 3, 40_001)
        assert sos._bound_scale(A.to_polynomial(), witness=False) is None
        monkeypatch.setattr(sos, "h_witness", unexpected)
        assert certify_sos(A).method == "cauchy"

    def test_negative_pure_power_with_h_comparison_tensor_is_not_sos(self):
        from sostensor.structured import is_h_tensor

        f = HomogeneousPolynomial(4, 2, {(4, 0): -1.0, (0, 4): 2.0, (3, 1): 0.1})
        A = from_polynomial(f)
        assert is_h_tensor(A).nonsingular
        assert sos._bound_scale(f, witness=True) is None
        res = certify_sos(A)
        assert isinstance(res, NotCertified) and res.status == "not_sos"
        assert A.evaluate(res.witness_point) < 0

    @staticmethod
    def _record_caps(monkeypatch):
        from sostensor import structured

        raised = []
        collatz = structured._collatz_radius

        def recording(*args):
            try:
                return collatz(*args)
            except structured.PowerIterationError as err:
                raised.append(err)
                raise

        monkeypatch.setattr(structured, "_collatz_radius", recording)
        return raised

    def test_slowly_mixing_pair_is_decided_before_the_step_cap(self, monkeypatch):
        # its radius is far enough below s for the Collatz bracket to decide
        # the witness long before the bracket closes
        A = from_polynomial(_slowly_mixing_h_pair())
        assert sos._bound_scale(A.to_polynomial(), witness=False) is None
        raised = self._record_caps(monkeypatch)
        calls = _count_solves(monkeypatch)
        cert = certify_sos(A)
        assert raised == []
        assert isinstance(cert, SosCertificate) and cert.method == "amgm"
        assert calls == []

    def test_witness_at_the_step_cap_falls_through_to_the_sdp(self, monkeypatch):
        # the same pair with its pure powers lowered until s is within the
        # band of the radius: the bracket cannot decide, and it does not
        # close within the 1000 steps of the witness
        A = from_polynomial(h_boundary_form(_slowly_mixing_h_pair(), 1e-10))
        assert sos._bound_scale(A.to_polynomial(), witness=False) is None
        raised = self._record_caps(monkeypatch)
        calls = _count_solves(monkeypatch)
        cert = certify_sos(A)
        assert [err.iterations for err in raised] == [1000]
        s = max(abs(float(A.diagonal_entry(i))) for i in range(A.dim))
        band = 1e-9 * (1 + 2 * s)
        lo, hi = raised[0].bracket
        assert lo <= s + band and hi >= s - band
        assert isinstance(cert, SosCertificate) and cert.method == "sdp"
        assert len(calls) >= 1


class TestCertificateMethod:
    """Every certificate names the route that built it."""

    def test_diagonal(self):
        f = identity_tensor(4, 3).to_polynomial()
        cert = _monolithic(f)
        assert cert.method == "diagonal"

    def test_amgm(self):
        A = generators.random_class_instance("weak_diag_dominated", 4, 3, 40_000)
        assert certify_sos(A).method == "amgm"

    def test_cauchy(self):
        A = generators.random_class_instance("cauchy_psd", 4, 3, 40_000)
        assert certify_sos(A).method == "cauchy"

    def test_sdp(self):
        assert certify_sos(from_polynomial(_FOURTH_POWER_OF_DIFFERENCE)).method == "sdp"

    def test_blockwise_reports_each_block(self):
        cert = certify_sos(generators.example54(20))
        assert cert.method == "blockwise"
        assert cert.block_methods == ["amgm"] * 5
        payload = cert.to_dict()
        assert payload["method"] == "blockwise"
        assert payload["block_methods"] == ["amgm"] * 5
        assert len(payload["blocks"]) == 5

    def test_blockwise_methods_align_with_blocks(self):
        # (x0 - x1)^4 + x2^4: one block needs the SDP, the other is diagonal
        terms = {a + (0,): c for a, c in _FOURTH_POWER_OF_DIFFERENCE.terms.items()}
        A = from_polynomial(HomogeneousPolynomial(4, 3, {**terms, (0, 0, 4): 1.0}))
        cert = certify_sos(A)
        assert cert.method == "blockwise"
        f = A.to_polynomial()
        for block, method in zip(cert.block_structure, cert.block_methods):
            sub = f.restrict(block)
            own = _monolithic(sub)
            assert own.method == method
        assert sorted(cert.block_methods) == ["diagonal", "sdp"]

    def test_monolithic_to_dict(self):
        f = identity_tensor(4, 2).to_polynomial()
        payload = _monolithic(f).to_dict()
        assert payload["method"] == "diagonal" and payload["block_methods"] is None
