from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sostensor import generators, sdp, sos, spectral
from sostensor.sos import _dominance_margin, gershgorin_lower_bound, gram_system
from sostensor.spectral import (
    EigMinOptions,
    _pure_power_rows,
    SpectralError,
    brute_force_min,
    generate_procedure1,
    is_positive_definite,
    min_h_eigenvalue,
)
from sostensor.structured import cauchy_generator, detect_extended_z
from sostensor.tensor import (
    HomogeneousPolynomial,
    SymmetricTensor,
    eigen_residual,
    from_polynomial,
    identity_tensor,
    term_arrays,
)

from helpers import (
    random_extended_z_tensor,
    random_symmetric_tensor,
    reference_pure_power_rows,
)


def poly_tensor(degree, dim, terms):
    return from_polynomial(HomogeneousPolynomial(degree, dim, terms))


@pytest.mark.parametrize("dim,order", [(1, 2), (2, 4), (3, 4), (4, 4), (2, 6), (3, 6), (5, 4)])
def test_pure_power_rows_match_scan(dim, order):
    system = gram_system(dim, order)
    got = _pure_power_rows(system, order)
    ref = reference_pure_power_rows(system, order)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


class TestMinEigenvalue:
    def test_coupled_instance_value(self):
        res = min_h_eigenvalue(generators.example51())
        assert res.lambda_min == pytest.approx(-1.0, abs=1e-4)
        assert res.exact
        assert res.solver_status == "optimal"
        assert res.to_dict()["lambda_min"] == res.lambda_min

    def test_two_parameter_family(self):
        res = min_h_eigenvalue(generators.example52(5.0, 0.0))
        assert res.lambda_min == pytest.approx(-49.0, abs=1e-3)
        res2 = min_h_eigenvalue(generators.example52(-2.0, 3.0))
        assert res2.lambda_min == pytest.approx(1 - 10 * 3.0, abs=1e-3)

    def test_quartic_family_small(self):
        res = min_h_eigenvalue(generators.example54(4))
        assert res.lambda_min == pytest.approx(3.0, abs=1e-3)

    def test_blockwise_and_monolithic_agree(self):
        A = generators.example54(8)
        blockwise = min_h_eigenvalue(A)
        mono, _, _ = spectral._form_value(A.to_polynomial(), EigMinOptions(tol=1e-4))
        assert blockwise.method == "blockwise"
        assert blockwise.lambda_min == pytest.approx(7.0, abs=1e-6)
        assert mono == pytest.approx(7.0, abs=1e-3)

    def test_degenerate_zero_value(self):
        res = min_h_eigenvalue(generators.example53(10), EigMinOptions(tol=1e-7))
        assert abs(res.lambda_min) <= 1e-5

    def test_identity(self):
        res = min_h_eigenvalue(identity_tensor(4, 3))
        assert res.lambda_min == pytest.approx(1.0, abs=1e-9)

    def test_method_names_the_route(self):
        A = generators.example54(8)
        blockwise = min_h_eigenvalue(A)
        _, mono, _ = spectral._form_value(A.to_polynomial(), EigMinOptions(tol=1e-4))
        assert (blockwise.method, mono) == ("blockwise", "sdp")
        single = min_h_eigenvalue(from_polynomial(z_blocks([31_000])[0]))
        assert single.method == "z_sandwich"
        assert single.to_dict()["method"] == "z_sandwich"

    def test_odd_order_rejected(self):
        with pytest.raises(SpectralError):
            min_h_eigenvalue(random_symmetric_tensor(np.random.default_rng(0), 3, 2))

    def test_oracle_attachment(self):
        res = min_h_eigenvalue(
            generators.example51(), EigMinOptions(with_oracle=True)
        )
        assert res.oracle_value == pytest.approx(-1.0, abs=1e-6)
        assert res.oracle_residual <= 1e-4

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_oracle_agreement_extended_z(self, seed):
        rng = np.random.default_rng(seed)
        A = random_extended_z_tensor(rng, 4, 4)
        res = min_h_eigenvalue(A, EigMinOptions(tol=1e-6, seed=seed))
        val, _ = brute_force_min(A, seed=seed + 1)
        assert res.exact
        assert abs(res.lambda_min - val) <= 1e-3

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_lower_bound_soundness_arbitrary(self, seed):
        rng = np.random.default_rng(seed)
        A = random_symmetric_tensor(rng, 4, 3, density=0.6)
        res = min_h_eigenvalue(A, EigMinOptions(seed=seed))
        val, _ = brute_force_min(A, seed=seed + 1)
        assert res.lambda_min <= val + 1e-6

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_gershgorin_consistency(self, seed):
        rng = np.random.default_rng(seed)
        A = random_symmetric_tensor(rng, 4, 3, density=0.6)
        res = min_h_eigenvalue(A, EigMinOptions(seed=seed))
        assert res.lambda_min >= gershgorin_lower_bound(A) - 1e-6

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10 ** 6), st.floats(0.25, 4.0))
    def test_homogeneity(self, seed, t):
        rng = np.random.default_rng(seed)
        A = random_extended_z_tensor(rng, 4, 3)
        a = min_h_eigenvalue(A, EigMinOptions(seed=seed)).lambda_min
        b = min_h_eigenvalue(A.scale(t), EigMinOptions(seed=seed)).lambda_min
        assert b == pytest.approx(t * a, rel=1e-5, abs=1e-5 * (1 + abs(a)))

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10 ** 6), st.floats(-2.0, 2.0))
    def test_shift_rule(self, seed, c):
        rng = np.random.default_rng(seed)
        A = random_extended_z_tensor(rng, 4, 3)
        a = min_h_eigenvalue(A, EigMinOptions(seed=seed)).lambda_min
        b = min_h_eigenvalue(A.shift_diagonal(c), EigMinOptions(seed=seed)).lambda_min
        assert b == pytest.approx(a + c, abs=1e-5 * (1 + abs(a) + abs(c)))


def random_z_tensor(rng, order, dim):
    """Pure powers in [-1, 2] and two to six negative mixed entries (at most
    as many as there are mixed positions)."""
    from itertools import combinations_with_replacement

    entries = {(i,) * order: float(rng.uniform(-1.0, 2.0)) for i in range(dim)}
    mixed = [
        idx for idx in combinations_with_replacement(range(dim), order)
        if len(set(idx)) > 1
    ]
    count = min(len(mixed), int(rng.integers(2, 7)))
    picks = rng.choice(len(mixed), size=count, replace=False)
    for j in picks:
        entries[mixed[j]] = -float(rng.uniform(0.0, 1.0))
    return SymmetricTensor(order, dim, entries)


def z_blocks(seeds):
    """The all-nonpositive blocks of Procedure-1 instances, as forms."""
    out = []
    for seed in seeds:
        A = generate_procedure1(4, 20, 4, 5, 100.0, seed=seed).tensor
        f = A.to_polynomial()
        for block in detect_extended_z(A).blocks:
            if block.tag == "all_nonpositive":
                out.append(f.restrict(block.variables))
    return out


class TestZSandwich:
    def test_never_above_the_minimum(self):
        rng = np.random.default_rng(2009)
        for i in range(50):
            order, dim = (4, 6)[i % 2], int(rng.integers(2, 5))
            A = random_z_tensor(rng, order, dim)
            f = A.to_polynomial()
            value, method, status = spectral._form_value(f, EigMinOptions())
            val, _ = brute_force_min(A, seed=i)
            assert (method, status) == ("z_sandwich", "optimal")
            assert value <= val + 1e-12 * (1 + abs(val))
            assert val - value <= 1e-5

    def test_agrees_with_sdp_route(self):
        opts = EigMinOptions(tol=1e-4)
        for f in z_blocks(range(31_000, 31_003)):
            value, method, _ = spectral._form_value(f, opts)
            sdp_value, status = spectral._max_shift_sdp(f, opts)
            assert (method, status) == ("z_sandwich", "optimal")
            assert abs(value - sdp_value) <= opts.tol

    def test_capped_iteration_falls_back_to_sdp(self, monkeypatch):
        f = z_blocks([31_000])[0]
        sdp_value, _ = spectral._max_shift_sdp(f, EigMinOptions())
        monkeypatch.setattr(spectral, "Z_SANDWICH_MAX_ITER", 1)
        assert spectral._z_sandwich(f, EigMinOptions()) is None
        assert spectral._form_value(f, EigMinOptions()) == (sdp_value, "sdp", "optimal")

    def test_reducible_form_closes_per_component(self, monkeypatch):
        # two decoupled components whose minima differ by 1e-3: the power
        # iteration runs on each component, so the joined form closes at the
        # smaller minimum, at x3 = x4, 1 - 1.002 / 2, with no SDP
        A = poly_tensor(4, 4, {
            (4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (2, 2, 0, 0): -1.0,
            (0, 0, 4, 0): 1, (0, 0, 0, 4): 1, (0, 0, 2, 2): -1.002,
        })
        f = A.to_polynomial()

        def no_solve(*args, **kwargs):
            raise AssertionError("sdp.solve ran")

        monkeypatch.setattr(sdp, "solve", no_solve)
        value = spectral._z_sandwich(f, EigMinOptions())
        assert value == pytest.approx(0.499, abs=1e-6)
        val, _ = brute_force_min(A, seed=5)
        assert value <= val
        assert spectral._form_value(f, EigMinOptions()) == (value, "z_sandwich", "optimal")
        # min_h_eigenvalue splits it; each component carries one mixed term
        # and takes its closed form
        res = min_h_eigenvalue(A)
        assert res.method == "blockwise"
        assert [b.method for b in res.per_block] == ["closed_form"] * 2
        assert res.solver_status == "optimal"
        assert res.lambda_min == pytest.approx(0.499, abs=1e-6)

    def test_single_block_takes_sandwich_in_auto_mode(self, monkeypatch):
        f = z_blocks([31_000])[0]
        A = from_polynomial(f)
        assert len(detect_extended_z(A).blocks) == 1

        def no_sdp(*args):
            raise AssertionError("the Gram SDP ran")

        monkeypatch.setattr(spectral, "_max_shift_sdp", no_sdp)
        res = min_h_eigenvalue(A)
        assert res.method == "z_sandwich" and res.solver_status == "optimal"
        val, _ = brute_force_min(A, seed=3)
        assert val - 1e-6 <= res.lambda_min <= val + 1e-12 * abs(val)

    def test_method_reported_per_block(self):
        A = generate_procedure1(4, 20, 4, 5, 100.0, seed=31_000).tensor
        res = min_h_eigenvalue(A, EigMinOptions(tol=1e-4))
        methods = [b["method"] for b in res.to_dict()["per_block"]]
        assert methods.count("z_sandwich") == 1
        assert set(methods) <= {"diagonal", "closed_form", "z_sandwich"}

    def test_one_shared_power_iteration(self, monkeypatch):
        from sostensor import descent, structured

        calls = []
        radius = structured._spectral_radius

        def counting(*args, **kwargs):
            calls.append(args[0])
            return radius(*args, **kwargs)

        def no_gradient(*args, **kwargs):
            raise AssertionError("FormEvaluator._gradient ran")

        monkeypatch.setattr(structured, "_spectral_radius", counting)
        monkeypatch.setattr(descent.FormEvaluator, "_gradient", no_gradient)
        f = z_blocks([31_000])[0]
        assert spectral._z_sandwich(f, EigMinOptions(tol=1e-4)) is not None
        assert len(calls) == 1

    def test_pd_harness_blocks_sound_at_tolerance(self):
        tol = 1e-4
        for i, f in enumerate(z_blocks(range(31_000, 31_016))):
            v = spectral._z_sandwich(f, EigMinOptions(tol=tol))
            bf, _ = brute_force_min(from_polynomial(f), seed=i)
            assert type(v) is float
            assert v <= bf + 1e-12 * (1 + abs(bf))
            assert bf - v <= tol

    def test_rounding_allowance_keeps_equal_weight_forms_sound(self):
        # f = sum x_i^4 - t sum_{i<j} x_i^2 x_j^2 has its minimum over the
        # sphere, 1 - t (n - 1) / 2, at the all-equal point, where the
        # iteration closes to within rounding of rho(N); without the
        # allowance the value lands above that minimum on some of these
        tol = 1e-6
        for n in range(3, 8):
            for k in range(1, 40):
                t = k / (32 * (n - 1))
                terms = {}
                for i in range(n):
                    terms[tuple(4 if v == i else 0 for v in range(n))] = 1.0
                    for j in range(i + 1, n):
                        terms[tuple(2 if v in (i, j) else 0 for v in range(n))] = -t
                f = HomogeneousPolynomial(4, n, terms)
                exact = 1 - Fraction(t) * (n - 1) / 2
                v, method, _ = spectral._form_value(f, EigMinOptions(tol=tol))
                assert method == "z_sandwich"
                assert Fraction(v) <= exact, (n, k)
                assert exact - Fraction(v) <= tol, (n, k)


# the classes whose forms carry mixed terms of both signs, each at order 4,
# dim 2 and class seed 40006 (criterion 7's draw)
NON_Z_CLASSES = (
    "cauchy_psd", "weak_diag_dominated", "b0", "double_b", "quasi_double_b0",
    "mb0", "h_nonneg_diag", "abs_psd_z",
)


def _count_solves(monkeypatch):
    calls = []
    solve = sdp.solve

    def counting(problem, opts=None):
        calls.append(problem)
        return solve(problem, opts)

    monkeypatch.setattr(sdp, "solve", counting)
    return calls


class TestMaxShiftSdp:
    """The eigenvalue program as one objective solve, at most one certify
    solve after it, and the AM-GM bound of the defect as the value."""

    @staticmethod
    def _check(A, opts, calls):
        f = A.to_polynomial()
        before = len(calls)
        value, status = spectral._max_shift_sdp(f, opts)
        assert len(calls) - before <= 2
        val, _ = brute_force_min(A, seed=1)
        assert value <= val + 1e-12 * (1 + abs(val))
        if status == "optimal":
            assert val - value <= opts.tol
        return value, status

    @pytest.mark.parametrize("name", NON_Z_CLASSES)
    def test_class_forms_sound(self, monkeypatch, name):
        A = generators.random_class_instance(name, 4, 2, 40_006)
        assert any(c > 0 for c in A.to_polynomial().mixed_terms().values())
        self._check(A, EigMinOptions(), _count_solves(monkeypatch))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_mixed_sign_forms_sound(self, seed):
        A = random_symmetric_tensor(np.random.default_rng(seed), 4, 3, density=0.6)
        opts = EigMinOptions(seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            self._check(A, opts, _count_solves(mp))

    def test_certify_solve_tightens_cauchy(self, monkeypatch):
        # the objective solve alone certifies only -1.49e-4 here
        A = generators.random_class_instance("cauchy_psd", 6, 3, 40_001)
        calls = _count_solves(monkeypatch)
        value, _ = self._check(A, EigMinOptions(), calls)
        assert len(calls) == 2
        assert value >= -1e-5

    def test_feasibility_solve_closes_cauchy_gap(self):
        # the gap closes only if the feasibility solve sits less than tol
        # below min(hi, r_hat); 2 tol below, this form stays at about -2 tol
        A = generators.random_class_instance("cauchy_psd", 4, 3, 40_016)
        res = min_h_eigenvalue(A)
        assert res.method == "sdp"
        assert res.solver_status == "optimal"
        val, _ = brute_force_min(A, seed=1)
        assert res.lambda_min <= val + 1e-12 * (1 + abs(res.lambda_min))

    def test_iteration_cap_keeps_the_floor(self, monkeypatch):
        A = generators.random_class_instance("cauchy_psd", 4, 2, 40_000)
        f = A.to_polynomial()
        exps, coeffs = term_arrays(f)
        floor = _dominance_margin(exps, coeffs, f.degree)
        value, status = self._check(
            A, EigMinOptions(max_iter=50), _count_solves(monkeypatch)
        )
        assert status == "inconclusive"
        assert value >= floor - 1e-12 * (1 + abs(floor))


class TestComponentSplit:
    """A reducible form that fails extended-Z still splits on its variable
    components: x1, x2 carry mixed terms of both signs, and x3, x4, x5 are a
    Z-block."""

    A = poly_tensor(4, 5, {
        (4, 0, 0, 0, 0): 1, (0, 4, 0, 0, 0): 1,
        (3, 1, 0, 0, 0): 0.5, (2, 2, 0, 0, 0): -0.4,
        (0, 0, 4, 0, 0): 1, (0, 0, 0, 4, 0): 1, (0, 0, 0, 0, 4): 1,
        (0, 0, 2, 1, 1): -0.3, (0, 0, 0, 2, 2): -0.2,
    })
    COMPONENTS = [(0, 1), (2, 3, 4)]

    def test_structure(self):
        ext = detect_extended_z(self.A)
        assert not ext.holds
        assert ext.partition == self.COMPONENTS

    def test_certificate_splits(self):
        cert = sos.certify_sos(self.A)
        assert isinstance(cert, sos.SosCertificate)
        assert cert.method == "blockwise"
        assert cert.block_structure == self.COMPONENTS
        f = self.A.to_polynomial()
        own = []
        for block in self.COMPONENTS:
            sub = f.restrict(block)
            c = cauchy_generator(sub)
            t = sos._bound_scale(sub, witness=c is None)
            own.append(sos._certify_monolithic(sub, sos.CertifyOptions(), c, t).method)
        assert cert.block_methods == own

    def test_eigenvalue_splits(self):
        res = min_h_eigenvalue(self.A)
        f = self.A.to_polynomial()
        values = [
            spectral._form_value(f.restrict(block), EigMinOptions())
            for block in self.COMPONENTS
        ]
        assert res.method == "blockwise"
        assert [b.method for b in res.per_block] == [method for _, method, _ in values]
        assert res.per_block[1].method == "z_sandwich"
        assert res.lambda_min == min(value for value, _, _ in values)
        assert res.exact is False
        val, _ = brute_force_min(self.A, seed=1)
        assert res.lambda_min <= val + 1e-12 * (1 + abs(res.lambda_min))


class TestPositiveDefinite:
    def test_identity(self):
        res = is_positive_definite(identity_tensor(4, 3))
        assert res.verdict is True
        assert res.lambda_min == pytest.approx(1.0, abs=1e-6)

    def test_even_parity_instance(self):
        for seed in range(20):
            inst = generate_procedure1(4, 8, 2, 4, 100.0, seed=seed)
            if inst.positive_definite:
                res = is_positive_definite(inst.tensor, EigMinOptions(tol=1e-4))
                assert res.verdict is True
                return
        pytest.skip("no even-parity draw in range")

    def test_odd_parity_instance(self):
        for seed in range(20):
            inst = generate_procedure1(4, 8, 2, 4, 100.0, seed=seed)
            if not inst.positive_definite:
                res = is_positive_definite(inst.tensor, EigMinOptions(tol=1e-4))
                assert res.verdict is False
                return
        pytest.skip("no odd-parity draw in range")

    def test_indefinite_extended_z_conclusive(self):
        A = poly_tensor(4, 2, {(4, 0): 1, (2, 2): -3, (0, 4): 1})
        res = is_positive_definite(A)
        assert res.verdict is False
        assert res.lambda_min == pytest.approx(-0.5, abs=1e-4)

    def test_indefinite_general_tensor_witnessed(self):
        # two positive couplings and one negative in the same block rule out
        # the exact structured path; the verdict needs an explicit point
        A = poly_tensor(
            4, 2, {(4, 0): 1, (0, 4): 1, (2, 2): -3, (3, 1): 0.1, (1, 3): 0.1}
        )
        assert not detect_extended_z(A).holds
        res = is_positive_definite(A)
        assert res.verdict is False
        assert res.witness is not None
        assert float(A.evaluate(res.witness)) < 0


class TestBruteForce:
    def test_coupled_instance_minimizer(self):
        A = generators.example51()
        val, x = brute_force_min(A, seed=2)
        assert val == pytest.approx(-1.0, abs=1e-8)
        target = 0.5 ** (1 / 6)
        xs = np.sort(np.abs(x))
        assert xs[-1] == pytest.approx(target, abs=1e-4)
        assert xs[-2] == pytest.approx(target, abs=1e-4)
        assert np.all(xs[:2] <= 1e-4)
        assert x[0] * x[1] < 0  # opposite signs on the coupled pair

    def test_identity_minimum(self):
        # the induced form is constant on the unit 4-norm sphere, so the
        # value is pinned while the minimizer is arbitrary
        val, x = brute_force_min(identity_tensor(4, 3), seed=0)
        assert val == pytest.approx(1.0, abs=1e-9)
        assert np.sum(np.abs(x) ** 4) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_family_zero(self):
        val, _ = brute_force_min(generators.example53(10), seed=1)
        assert val == pytest.approx(0.0, abs=1e-8)

    def test_dimension_cap_refused(self):
        with pytest.raises(SpectralError):
            brute_force_min(generators.example54(20))

    def test_minimizer_is_near_eigenpair(self):
        rng = np.random.default_rng(5)
        A = random_symmetric_tensor(rng, 4, 4, density=0.7)
        val, x = brute_force_min(A, seed=6)
        assert eigen_residual(A, val, x) <= 1e-4 * (1 + A.norm())


class TestProcedure1:
    def test_partition_and_structure(self):
        inst = generate_procedure1(4, 8, 2, 4, 100.0, seed=11)
        assert sorted(v for blk in inst.partition for v in blk) == list(range(8))
        ext = detect_extended_z(inst.tensor)
        assert ext.holds

    def test_determinism(self):
        a = generate_procedure1(4, 20, 4, 5, 100.0, seed=99)
        b = generate_procedure1(4, 20, 4, 5, 100.0, seed=99)
        assert a.tensor.entries == b.tensor.entries
        assert a.positive_definite == b.positive_definite

    def test_diagonal_parity(self):
        inst = generate_procedure1(4, 8, 2, 4, 50.0, seed=3)
        diag = float(inst.tensor.diagonal_entry(0))
        assert abs(diag) == 50.0
        assert (diag > 0) == inst.positive_definite

    def test_shape_validation(self):
        with pytest.raises(SpectralError):
            generate_procedure1(4, 9, 2, 4, 100.0, seed=0)
        with pytest.raises(SpectralError):
            generate_procedure1(3, 8, 2, 4, 100.0, seed=0)
        with pytest.raises(SpectralError):
            generate_procedure1(4, 8, 2, 4, -1.0, seed=0)

    def test_last_block_nonpositive(self):
        inst = generate_procedure1(4, 8, 2, 4, 100.0, seed=7)
        last = set(inst.partition[-1])
        for idx, v in inst.tensor.entries.items():
            if len(set(idx)) > 1 and set(idx) <= last:
                assert v <= 0
