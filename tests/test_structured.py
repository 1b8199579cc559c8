import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sostensor import generators, sos, spectral, structured
from sostensor.structured import (
    CAUCHY_RTOL,
    ClassificationError,
    b0_split,
    cauchy_cp_approx,
    cauchy_generator,
    cauchy_is_psd,
    cauchy_tensor,
    classify,
    classify_b_family,
    delta_index_set,
    detect_extended_z,
    double_b_quantities,
    is_b0,
    is_diagonally_dominated,
    is_h_tensor,
    is_z_tensor,
    pure_and_mixed,
    row_tables,
    spectral_radius_nonnegative,
)
from sostensor.tensor import (
    HomogeneousPolynomial,
    SymmetricTensor,
    all_one_tensor,
    diagonal_tensor,
    from_polynomial,
    identity_tensor,
    partially_all_one,
)

from helpers import (
    h_boundary_form,
    random_symmetric_tensor,
    reference_double_b_pairs,
    reference_double_b_quantities,
    reference_gershgorin,
    reference_h_witness_margin,
    reference_partition,
    reference_row_absolute_offsum,
    reference_row_max_off_entry,
    reference_row_sum,
    reference_row_weak_offsum,
)


def poly_tensor(degree, dim, terms):
    return from_polynomial(HomogeneousPolynomial(degree, dim, terms))


def count_operator_calls(monkeypatch):
    """The arguments of every `_RowOperator` application from here on."""
    steps = []
    call = structured._RowOperator.__call__
    monkeypatch.setattr(
        structured._RowOperator, "__call__", lambda op, x: steps.append(x) or call(op, x)
    )
    return steps


class TestDeltaIndexSet:
    def test_positive_even_coupling_excluded(self):
        A = poly_tensor(4, 2, {(4, 0): 1, (2, 2): 2})
        assert delta_index_set(A) == set()

    def test_negative_coupling_included(self):
        A = poly_tensor(4, 2, {(4, 0): 1, (2, 2): -2})
        assert delta_index_set(A) == {(2, 2)}

    def test_odd_exponent_included(self):
        A = poly_tensor(4, 2, {(4, 0): 1, (3, 1): 2})
        assert delta_index_set(A) == {(3, 1)}


def _random_exact_or_float_tensor(rng, order, dim, kind):
    base = random_symmetric_tensor(rng, order, dim, density=0.5)
    if kind == "int":
        entries = {idx: int(round(10 * v)) for idx, v in base.entries.items()}
    elif kind == "fraction":
        entries = {idx: Fraction(int(round(100 * v)), 7) for idx, v in base.entries.items()}
    else:
        entries = dict(base.entries)
    return SymmetricTensor(order, dim, entries)


class TestRowTables:
    """The one-pass row tables equal the per-row scans exactly."""

    @pytest.mark.parametrize("kind", ["int", "fraction", "float"])
    @pytest.mark.parametrize("order,dim", [(2, 5), (4, 4), (6, 3)])
    def test_tables_match_row_scans(self, order, dim, kind):
        rng = np.random.default_rng(order * 10 + dim)
        for _ in range(5):
            A = _random_exact_or_float_tensor(rng, order, dim, kind)
            rows = row_tables(A)
            for i in range(dim):
                for got, want in [
                    (rows.absolute_offsum[i], reference_row_absolute_offsum(A, i)),
                    (rows.weak_offsum[i], reference_row_weak_offsum(A, i)),
                    (rows.row_sum[i], reference_row_sum(A, i)),
                    (rows.max_off_entry[i], reference_row_max_off_entry(A, i)),
                ]:
                    assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("kind", ["int", "fraction", "float"])
    @pytest.mark.parametrize("order,dim", [(2, 5), (4, 4), (6, 3)])
    def test_readers_match_row_scans(self, order, dim, kind):
        from sostensor.sos import gershgorin_lower_bound

        rng = np.random.default_rng(order * 10 + dim + 1)
        for _ in range(5):
            A = _random_exact_or_float_tensor(rng, order, dim, kind)
            # the bound is read from the form's float coefficients, so it
            # matches the exact row scans up to rounding
            ref = reference_gershgorin(A)
            size = max(abs(float(v)) for v in A.to_polynomial().terms.values())
            assert abs(gershgorin_lower_bound(A) - ref) <= 1e-12 * dim * size
            slacks = tuple(
                float(A.diagonal_entry(i)) - float(reference_row_absolute_offsum(A, i))
                for i in range(dim)
            )
            assert is_diagonally_dominated(A).row_slacks == slacks
            for got, want in zip(double_b_quantities(A), reference_double_b_quantities(A)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["b0", "double_b", "weak_diag_dominated"])
    def test_classify_builds_the_tables_once(self, monkeypatch, name):
        A = generators.random_class_instance(name, 4, 3, 40_000)
        calls = []
        build = structured._build_row_tables

        def counting(B):
            calls.append(B)
            return build(B)

        monkeypatch.setattr(structured, "_build_row_tables", counting)
        report = classify(A).to_dict()
        assert calls == [A]
        # later readers share the cached table
        assert classify(A).to_dict() == report
        assert row_tables(A) is row_tables(A)
        assert calls == [A]

    @pytest.mark.parametrize("name, order, dim, seed", [
        ("abs_psd_z", 4, 3, 40_001),
        ("abs_psd_z", 6, 4, 40_000),
        ("psd_extended_z", 6, 3, 40_000),
        ("b0", 4, 4, 40_000),
    ])
    def test_classify_does_not_depend_on_entry_order(self, name, order, dim, seed):
        A = generators.random_class_instance(name, order, dim, seed)
        B = SymmetricTensor(order, dim, dict(reversed(list(A.entries.items()))))
        # both are stored in ascending index order
        assert list(B.entries) == sorted(A.entries) == list(A.entries)
        assert row_tables(B) == row_tables(A)
        assert classify(B).to_dict() == classify(A).to_dict()

    def test_odd_order_has_no_weak_sums(self):
        A = SymmetricTensor(3, 2, {(0, 0, 0): 1, (0, 0, 1): 2})
        rows = row_tables(A)
        assert rows.weak_offsum is None
        assert rows.absolute_offsum == [reference_row_absolute_offsum(A, i) for i in range(2)]

    @staticmethod
    def assert_b_family_matches_loop(B):
        from sostensor.structured import BOUNDARY_TOL, _mb0_check

        fam = classify_b_family(B)
        double_b, quasi, boundary = reference_double_b_pairs(B, BOUNDARY_TOL)
        beta = reference_double_b_quantities(B)[0]
        mb0_boundary = _mb0_check(B, beta, BOUNDARY_TOL, 200_000)[1]
        assert (fam.double_b, fam.quasi_double_b0) == (double_b, quasi)
        assert fam.boundary == (boundary or mb0_boundary)
        return double_b, quasi, boundary, mb0_boundary

    @pytest.mark.parametrize("order", [4, 6])
    def test_b_family_pairs_match_loop(self, order):
        # off-diagonal entries of both signs, diagonals placed around the
        # double-B thresholds, so that the verdicts take every combination
        rng = np.random.default_rng(order)
        seen = set()
        for _ in range(150):
            dim = int(rng.integers(2, 4))
            base = random_symmetric_tensor(rng, order, dim, density=0.5)
            entries = {
                idx: 0.6 * abs(v) - 0.2
                for idx, v in base.entries.items() if len(set(idx)) > 1
            }
            if not entries:
                continue
            beta, delta, _ = reference_double_b_quantities(SymmetricTensor(order, dim, entries))
            for i in range(dim):
                entries[(i,) * order] = float(
                    beta[i] + rng.uniform(0.01, 1.5) * max(delta[i], 0.1)
                )
            seen.add(self.assert_b_family_matches_loop(SymmetricTensor(order, dim, entries))[:2])
        assert {(False, False), (True, True)} <= seen

    def test_b_family_pairwise_boundary(self):
        # gap_0 gap_1 equals delta_0 delta_1 while no gap is near zero and
        # the MB0 check is clear of its boundary
        B = SymmetricTensor(4, 2, {(0,) * 4: 2.0, (1,) * 4: 1 / 6, (0, 0, 0, 1): -1 / 3})
        double_b, _, boundary, mb0_boundary = self.assert_b_family_matches_loop(B)
        assert not double_b and boundary and not mb0_boundary

    def test_b_family_quasi_pairs_rows_and_columns(self):
        # quasi-double-B0 holds here, but fails if beta of row i stands in
        # for beta of row j in the pair (i, j)
        B = SymmetricTensor(4, 3, {
            (0, 0, 0, 0): 13.9, (1, 1, 1, 1): 0.2, (2, 2, 2, 2): 22.49,
            (0, 0, 0, 2): 0.49, (0, 0, 2, 2): 0.04, (1, 2, 2, 2): -0.17,
        })
        assert self.assert_b_family_matches_loop(B)[:2] == (True, True)


class TestDiagonalDominance:
    def test_identity(self):
        v = is_diagonally_dominated(identity_tensor(4, 3))
        assert v.strict and v.weak

    def test_example54_row_sums(self):
        A = generators.example54(4)
        # row off-sum is 24 tuples/row-var * 1/4 * 1/6 = 1, against diagonal 4
        assert float(row_tables(A).absolute_offsum[0]) == pytest.approx(1.0)
        v = is_diagonally_dominated(A)
        assert v.strict and v.weak

    def test_strict_fails_weak_holds(self):
        A = poly_tensor(4, 2, {(4, 0): 1, (0, 4): 1, (2, 2): 6})
        assert float(row_tables(A).absolute_offsum[0]) == pytest.approx(3.0)
        v = is_diagonally_dominated(A)
        assert not v.strict
        assert v.weak
        assert v.witness_row == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_strict_implies_weak(self, seed):
        rng = np.random.default_rng(seed)
        base = random_symmetric_tensor(rng, 4, 3)
        entries = dict(base.entries)
        for i in range(3):
            entries[(i,) * 4] = float(row_tables(base).absolute_offsum[i]) + float(
                rng.uniform(0, 1)
            )
        A = SymmetricTensor(4, 3, entries)
        v = is_diagonally_dominated(A)
        assert v.strict
        assert v.weak


class TestB0:
    def test_all_one_is_b0(self):
        ok, _ = is_b0(all_one_tensor(4, 3))
        assert ok

    def test_identity_is_b0(self):
        ok, _ = is_b0(identity_tensor(4, 3))
        assert ok

    def test_negative_diagonal_not_b0(self):
        A = SymmetricTensor(4, 2, {(0, 0, 0, 0): -1})
        ok, wit = is_b0(A)
        assert not ok
        assert wit["condition"] == "row_sum"

    def test_split_all_one(self):
        E = all_one_tensor(4, 2)
        M, terms = b0_split(E)
        assert M.entries == {}
        assert terms == [(1, frozenset({0, 1}))]

    def test_split_dominated_z_is_trivial(self):
        A = SymmetricTensor(
            4, 2, {(0,) * 4: 2, (1,) * 4: 2, (0, 0, 1, 1): Fraction(-1, 6)}
        )
        assert is_b0(A)[0]
        M, terms = b0_split(A)
        assert terms == []
        assert M.entries == A.entries

    def test_split_identity_plus_all_one(self):
        A = identity_tensor(4, 2) + all_one_tensor(4, 2)
        M, terms = b0_split(A)
        assert terms == [(1, frozenset({0, 1}))]
        assert M.entries == identity_tensor(4, 2).entries

    def test_split_reconstruction_and_m_part(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            dim = int(rng.integers(2, 5))
            base = random_symmetric_tensor(rng, 4, dim, density=0.6)
            entries = {
                idx: Fraction(int(round(100 * abs(v))), 100)
                for idx, v in base.entries.items()
                if len(set(idx)) > 1
            }
            draft = SymmetricTensor(4, dim, entries)
            nm1 = dim ** 3
            rows = row_tables(draft)
            for i in range(dim):
                worst = rows.max_off_entry[i]
                if not isinstance(worst, Fraction):
                    worst = Fraction(worst)
                need = nm1 * (worst + Fraction(1, 10)) - rows.row_sum[i]
                entries[(i,) * 4] = max(Fraction(0), need)
            A = SymmetricTensor(4, dim, entries)
            assert is_b0(A)[0]
            M, terms = b0_split(A)
            # exact reconstruction in rational arithmetic
            R = M
            for h, J in terms:
                R = R + partially_all_one(4, dim, J).scale(h)
            assert R.entries == A.entries
            # remainder is a diagonally dominated Z-tensor
            assert is_z_tensor(M)[0]
            dom = is_diagonally_dominated(M)
            assert dom.strict
            assert all(h > 0 for h, _ in terms)

    def test_split_rejects_non_b0(self):
        A = SymmetricTensor(4, 2, {(0, 0, 0, 0): -1})
        with pytest.raises(ClassificationError):
            b0_split(A)


class TestDoubleBFamily:
    def test_identity_quantities(self):
        beta, delta, dij = double_b_quantities(identity_tensor(4, 2))
        assert np.allclose(beta, 0)
        assert np.allclose(delta, 0)
        assert np.allclose(dij, 0)

    def test_all_one_quantities(self):
        beta, delta, _ = double_b_quantities(all_one_tensor(4, 2))
        assert np.allclose(beta, 1)
        assert np.allclose(delta, 0)

    def test_z_tensor_quantities(self):
        A = SymmetricTensor(4, 2, {(0,) * 4: 1, (1,) * 4: 1, (0, 0, 1, 1): -0.5})
        beta, delta, _ = double_b_quantities(A)
        assert np.allclose(beta, 0)
        assert delta[0] == pytest.approx(float(row_tables(A).absolute_offsum[0]))

    def test_near_identity_all_three(self):
        entries = {(0,) * 4: 2.0, (1,) * 4: 2.0}
        for idx in [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1)]:
            entries[idx] = -0.01
        B = SymmetricTensor(4, 2, entries)
        fam = classify_b_family(B)
        assert fam.double_b and fam.quasi_double_b0 and fam.mb0

    def test_all_one_not_double_b(self):
        fam = classify_b_family(all_one_tensor(4, 2))
        assert not fam.double_b

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_quasi_implies_mb0(self, seed):
        A = generators.random_class_instance("quasi_double_b0", 4, 3, seed)
        fam = classify_b_family(A)
        if fam.quasi_double_b0:
            assert fam.mb0


EXTREME_ENTRIES = {
    (0, 0, 0, 0): 1.0,
    (1, 1, 1, 1): 1.0,
    (0, 0, 1, 1): -1e150,
    (0, 1, 1, 1): 1e-300,
}


class TestExtremeMagnitudes:
    def test_classify_extreme_tensor_returns(self):
        import time

        A = SymmetricTensor(4, 2, dict(EXTREME_ENTRIES))
        t0 = time.perf_counter()
        rep = classify(A)
        # the radius bracket converges to rounding of its 3e150 magnitude
        # in a few sweeps instead of running to the 200k iteration cap
        assert time.perf_counter() - t0 < 0.5
        mb0 = rep.verdicts["mb0"]
        assert mb0.holds is False
        assert mb0.witness["rho"] == pytest.approx(3e150, rel=1e-9)
        assert rep.verdicts["h_tensor"].holds is False

    def test_mb0_stall_is_guarded(self, monkeypatch):
        from sostensor import structured

        def stalled(*args, **kwargs):
            raise structured.PowerIterationError(1.0, 2.0, 7)

        monkeypatch.setattr(structured, "_mb0_check", stalled)
        fam = classify_b_family(identity_tensor(4, 2))
        assert fam.mb0 is None and fam.boundary
        assert fam.details["bracket"] == [1.0, 2.0]
        assert fam.double_b  # the closed-form verdicts are unaffected
        rep = classify(identity_tensor(4, 2))
        v = rep.verdicts["mb0"]
        assert v.holds is None and v.boundary
        assert v.note == "power iteration stalled"
        assert v.witness == {"bracket": [1.0, 2.0]}


class TestSpectralRadius:
    def test_all_one(self):
        assert spectral_radius_nonnegative(all_one_tensor(4, 3)) == pytest.approx(
            27.0, abs=1e-6
        )

    def test_identity(self):
        assert spectral_radius_nonnegative(identity_tensor(4, 2)) == pytest.approx(
            1.0, abs=1e-7
        )

    def test_diagonal_decoupled(self):
        D = diagonal_tensor(4, [2, 5])
        assert spectral_radius_nonnegative(D) == pytest.approx(5.0, abs=1e-6)

    def test_negative_entry_rejected(self):
        A = SymmetricTensor(4, 2, {(0, 0, 1, 1): -1})
        with pytest.raises(ClassificationError):
            spectral_radius_nonnegative(A)


class TestRowOperator:
    """The compiled operator x -> T x^(m-1) behind the Collatz iteration."""

    FORMS = [
        # repeated variables, and x3 in no term at all
        (4, 4, {(4, 0, 0, 0): 2.0, (0, 4, 0, 0): 1.5, (2, 2, 0, 0): -0.7,
                (3, 0, 1, 0): 0.4, (1, 1, 2, 0): -0.3, (0, 0, 4, 0): 1.0}),
        (6, 4, {(6, 0, 0, 0): 1.0, (0, 6, 0, 0): 2.0, (0, 0, 6, 0): 0.5,
                (4, 2, 0, 0): -0.6, (3, 1, 2, 0): 0.25, (1, 2, 3, 0): -0.8,
                (2, 2, 2, 0): 0.9}),
        (4, 3, {}),
        (6, 3, {}),
    ]

    @staticmethod
    def operator(A):
        a, exps, coeffs = pure_and_mixed(A.to_polynomial())
        return structured._row_operator(exps, coeffs, A.order, a)

    @pytest.mark.parametrize("order,dim,terms", FORMS)
    def test_operator_is_apply(self, order, dim, terms):
        A = poly_tensor(order, dim, terms)
        op = self.operator(A)
        rng = np.random.default_rng(order * 10 + dim)
        for _ in range(5):
            x = rng.uniform(0.1, 2.0, dim)
            assert np.allclose(op(x), A.apply(x), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("order", [4, 6])
    def test_operator_is_apply_on_random_tensors(self, order):
        rng = np.random.default_rng(order)
        for _ in range(5):
            A = random_symmetric_tensor(rng, order, 4)
            x = rng.uniform(0.1, 2.0, 4)
            assert np.allclose(self.operator(A)(x), A.apply(x), rtol=1e-12, atol=1e-12)

    def test_block_diagonal_radius_is_the_largest_block_radius(self):
        # two nonnegative blocks on interleaved variables {0, 2} and {1, 3, 4}
        first = {(4, 0): 1.0, (0, 4): 2.0, (2, 2): 1.5, (3, 1): 0.5}
        second = {(4, 0, 0): 0.5, (0, 4, 0): 1.0, (0, 0, 4): 0.25,
                  (2, 1, 1): 1.2, (0, 2, 2): 0.3}
        terms = {}
        for alpha, c in first.items():
            beta = [0] * 5
            beta[0], beta[2] = alpha
            terms[tuple(beta)] = c
        for alpha, c in second.items():
            beta = [0] * 5
            beta[1], beta[3], beta[4] = alpha
            terms[tuple(beta)] = c
        whole = spectral_radius_nonnegative(poly_tensor(4, 5, terms), tol=1e-12)
        radii = [
            spectral_radius_nonnegative(poly_tensor(4, 2, first), tol=1e-12),
            spectral_radius_nonnegative(poly_tensor(4, 3, second), tol=1e-12),
        ]
        assert radii[0] != pytest.approx(radii[1], rel=1e-3)
        assert whole == pytest.approx(max(radii), rel=1e-9)

    @pytest.mark.parametrize("name", ["h_nonneg_diag", "weak_diag_dominated"])
    def test_reducible_form_takes_few_steps(self, name):
        # x0 and x3 are isolated; on the whole form the iteration took
        # about 900 steps, per component it takes 1 + 44 + 1
        A = generators.random_class_instance(name, 4, 4, 40_022)
        v = is_h_tensor(A, max_iter=100)
        assert v.h and v.nonsingular and v.margin > 0
        assert classify_b_family(A, power_iter_cap=100).mb0 is not None

    def test_witness_margin_matches_row_scan(self):
        # criterion 7's first draw
        checked = 0
        for name in generators.CLASS_GENERATORS:
            for r in range(20):
                order, dim = (4, 6)[r % 2], 2 + r % 3
                A = generators.random_class_instance(name, order, dim, 40_000 + r)
                v = is_h_tensor(A)
                if v.y is None:
                    continue
                checked += 1
                assert v.margin == pytest.approx(
                    reference_h_witness_margin(A, v.y), rel=1e-12
                )
        assert checked == sum(TestHTensor.POOL_NONSINGULAR.values())


class TestHTensor:
    def test_identity(self):
        v = is_h_tensor(identity_tensor(4, 3))
        assert v.h and v.nonsingular
        assert v.y is not None and np.all(v.y > 0)

    def test_strictly_dominated_positive_diagonal(self):
        rng = np.random.default_rng(31)
        base = random_symmetric_tensor(rng, 4, 3)
        entries = {idx: v for idx, v in base.entries.items() if len(set(idx)) > 1}
        draft = SymmetricTensor(4, 3, entries)
        for i in range(3):
            entries[(i,) * 4] = float(row_tables(draft).absolute_offsum[i]) + 0.3
        A = SymmetricTensor(4, 3, entries)
        v = is_h_tensor(A)
        assert v.h and v.nonsingular
        # the all-one vector also verifies the row inequalities directly
        for i in range(3):
            lhs = abs(float(A.diagonal_entry(i)))
            rhs = float(row_tables(A).absolute_offsum[i])
            assert lhs > rhs
        assert v.margin > 0

    def test_all_one_is_not_h(self):
        # comparison tensor splits as s I - Z with s = 1 and Z = E - I; the
        # all-one vector is a positive eigenvector of Z with value 2^3-1 = 7,
        # and 7 matches the max row sum, so rho(Z) = 7 > s: not an H-tensor
        E = all_one_tensor(4, 2)
        Z = identity_tensor(4, 2).scale(1) - __import__(
            "sostensor.tensor", fromlist=["comparison_tensor"]
        ).comparison_tensor(E)
        ones = np.ones(2)
        assert np.allclose(Z.apply(ones), 7.0 * ones ** 3)
        v = is_h_tensor(E)
        assert v.rho == pytest.approx(7.0, abs=1e-6)
        assert not v.h

    def test_scaled_h_instance(self):
        A = generators.random_class_instance("h_nonneg_diag", 4, 3, 77)
        v = is_h_tensor(A)
        assert v.h and v.nonsingular
        assert v.margin > 0

    # nonsingular H verdicts per class over criterion 7's pool (20 rounds,
    # class seeds 40000 + r)
    POOL_NONSINGULAR = {
        "cauchy_psd": 0, "weak_diag_dominated": 10, "b0": 20, "double_b": 20,
        "quasi_double_b0": 20, "mb0": 20, "h_nonneg_diag": 20, "abs_psd_z": 20,
        "psd_extended_z": 19,
    }

    def test_pool_witness_is_the_power_iterate(self):
        # the witness of every nonsingular verdict is the radius iteration's
        # last iterate (unit m-norm), never the all-one fallback
        found = dict.fromkeys(self.POOL_NONSINGULAR, 0)
        for name in generators.CLASS_GENERATORS:
            for r in range(20):
                order, dim = (4, 6)[r % 2], 2 + r % 3
                A = generators.random_class_instance(name, order, dim, 40_000 + r)
                v = is_h_tensor(A)
                assert not v.boundary
                assert v.nonsingular == v.h
                if v.nonsingular:
                    found[name] += 1
                    assert v.margin > 0 and np.all(v.y > 0)
                    assert np.sum(v.y ** order) == pytest.approx(1.0, rel=1e-9)
        assert found == self.POOL_NONSINGULAR

    def test_h_witness_is_the_verdicts_witness_over_the_pool(self):
        # stopping once the radius passes s changes no witness
        for name in generators.CLASS_GENERATORS:
            for r in range(20):
                order, dim = (4, 6)[r % 2], 2 + r % 3
                A = generators.random_class_instance(name, order, dim, 40_000 + r)
                y = structured.h_witness(A.to_polynomial(), max_iter=200_000)
                v = is_h_tensor(A)
                assert (y is None) == (v.y is None)
                assert y is None or np.array_equal(y, v.y)

    def test_h_witness_stops_once_the_radius_passes_s(self, monkeypatch):
        # the first Collatz lower bound is already above s + band, so both
        # the verdict and the witness stop after one step
        A = generators.random_class_instance("cauchy_psd", 4, 3, 40_000)
        steps = count_operator_calls(monkeypatch)
        assert not is_h_tensor(A).h
        assert len(steps) == 1
        steps.clear()
        assert structured.h_witness(A.to_polynomial()) is None
        assert len(steps) == 1


class TestVerdictStop:
    """The H-tensor and MB0 tests stop their Collatz iteration once its
    bracket leaves the band around s; only a radius inside the band is
    iterated until the bracket closes."""

    def test_connected_form_is_decided_in_a_few_steps(self, monkeypatch):
        # one connected component whose bracket took 902 steps to close
        A = generators.random_class_instance("h_nonneg_diag", 4, 3, 40_044)
        assert len(set(structured.variable_components(A.to_polynomial()))) == 1
        steps = count_operator_calls(monkeypatch)
        v = is_h_tensor(A)
        assert len(steps) <= 10
        assert v.h and v.nonsingular and not v.boundary
        assert v.margin > 0 and np.all(v.y > 0)

    @staticmethod
    def record_radii(monkeypatch):
        """(rho, x, operator, test, radius with no test) of every
        `_spectral_radius` call from here on."""
        seen = []
        radius = structured._spectral_radius

        def recording(op, labels, scale, tol, max_iter, test=None):
            rho, x = radius(op, labels, scale, tol, max_iter, test)
            seen.append((rho, x, op, test, radius(op, labels, scale, tol, max_iter)[0]))
            return rho, x

        monkeypatch.setattr(structured, "_spectral_radius", recording)
        return seen

    def test_decided_rho_is_a_certified_bound(self, monkeypatch):
        # each thresholded radius of criterion 7's first draw against the
        # same operator's radius with no threshold
        seen = self.record_radii(monkeypatch)
        for name in generators.CLASS_GENERATORS:
            for r in range(20):
                order, dim = (4, 6)[r % 2], 2 + r % 3
                classify(generators.random_class_instance(name, order, dim, 40_000 + r))
        decided = {"below": 0, "above": 0}
        for rho, x, op, test, full in seen:
            assert test is not None
            if test.below(rho):
                decided["below"] += 1
                assert rho >= full
                # the witness is the iterate whose Collatz ratios rho bounds
                assert np.all(op(x) <= rho * x ** (op.order - 1) * (1 + 1e-12))
            elif test.above(rho):
                decided["above"] += 1
                assert rho <= full
            else:
                assert rho == full
        assert len(seen) == 2 * 180
        assert decided["below"] > 0 and decided["above"] > 0

    @pytest.mark.parametrize("gap", [2e-9, -2e-9])
    def test_radius_inside_the_band_converges_and_is_flagged(self, monkeypatch, gap):
        # s - rho(Z) = gap, inside the band 1e-9 (1 + s + rho) on either side
        f = generators.random_class_instance("h_nonneg_diag", 4, 3, 40_044).to_polynomial()
        A = from_polynomial(h_boundary_form(f, gap))
        seen = self.record_radii(monkeypatch)
        v = is_h_tensor(A)
        assert [(rho, full) for rho, *_, full in seen] == [(v.rho, v.rho)]
        assert v.h and not v.nonsingular and v.boundary and v.y is None
        assert v.s - v.rho == pytest.approx(gap, abs=1e-10)
        rep = classify(A)
        assert rep.verdicts["h_tensor"].holds and rep.verdicts["h_tensor"].boundary
        assert rep.verdicts["h_tensor_nonsingular"].holds is False


class TestExtendedZ:
    def test_example51(self):
        res = detect_extended_z(generators.example51())
        assert res.holds
        assert res.partition == [(0, 1), (2, 3)]
        assert all(b.tag == "single_term" for b in res.blocks)

    def test_z_tensor_detected(self):
        A = SymmetricTensor(
            4, 3, {(0,) * 4: 1, (1,) * 4: 1, (2,) * 4: 1, (0, 0, 1, 1): -0.5,
                   (0, 1, 2, 2): -0.25}
        )
        assert is_z_tensor(A)[0]
        res = detect_extended_z(A)
        assert res.holds

    def test_two_mixed_terms_one_positive(self):
        A = poly_tensor(4, 2, {(4, 0): 1, (0, 4): 1, (2, 2): 1, (1, 3): 2})
        res = detect_extended_z(A)
        assert not res.holds
        assert res.blocks[res.failing_blocks[0]].tag == "violating"

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_permutation_covariance(self, seed):
        rng = np.random.default_rng(seed)
        from helpers import random_extended_z_tensor

        A = random_extended_z_tensor(rng, 4, 4)
        perm = list(rng.permutation(4))
        entries = {}
        for idx, v in A.entries.items():
            entries[tuple(sorted(perm[i] for i in idx))] = v
        B = SymmetricTensor(4, 4, entries)
        ra, rb = detect_extended_z(A), detect_extended_z(B)
        assert ra.holds == rb.holds
        mapped = sorted(tuple(sorted(perm[v] for v in blk)) for blk in ra.partition)
        assert mapped == sorted(rb.partition)

    def test_z_implies_extended_z_report(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            base = random_symmetric_tensor(rng, 4, 3)
            entries = {
                idx: (-abs(v) if len(set(idx)) > 1 else v)
                for idx, v in base.entries.items()
            }
            A = SymmetricTensor(4, 3, entries)
            assert detect_extended_z(A).holds

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_partition_is_the_union_find_partition(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        terms = {}
        for _ in range(int(rng.integers(0, 8))):
            k = int(rng.integers(1, min(n, 3) + 1))
            alpha = [0] * n
            for v, e in zip(rng.choice(n, size=k, replace=False), {1: [4], 2: [2, 2], 3: [2, 1, 1]}[k]):
                alpha[v] = e
            terms[tuple(alpha)] = float(rng.normal())
        f = HomogeneousPolynomial(4, n, terms)
        assert detect_extended_z(from_polynomial(f)).partition == reference_partition(f)

    def test_form_passed_in_gives_the_same_result(self):
        rng = np.random.default_rng(8)
        from helpers import random_extended_z_tensor

        for _ in range(10):
            A = random_extended_z_tensor(rng, 4, 5)
            assert detect_extended_z(A, A.to_polynomial()) == detect_extended_z(A)


@pytest.mark.parametrize(
    "entry",
    [spectral.is_positive_definite, spectral.min_h_eigenvalue, sos.certify_sos],
    ids=lambda fn: fn.__name__,
)
def test_callers_convert_the_tensor_once(monkeypatch, entry):
    A = spectral.generate_procedure1(4, 8, 2, 4, 100.0, seed=5).tensor
    convert = SymmetricTensor.to_polynomial
    calls = []

    def counted(self):
        calls.append(self)
        return convert(self)

    monkeypatch.setattr(SymmetricTensor, "to_polynomial", counted)
    entry(A)
    assert calls == [A]


class TestCauchy:
    def test_half_half_matrix(self):
        C = cauchy_tensor([0.5, 0.5], 2)
        assert all(v == pytest.approx(1.0) for v in C.entries.values())

    def test_constant_tensor(self):
        C = cauchy_tensor([1, 1, 1], 4)
        assert all(v == Fraction(1, 4) for v in C.entries.values())
        assert C.entry((0, 1, 2, 2)) == Fraction(1, 4)

    def test_vanishing_denominator(self):
        with pytest.raises(ClassificationError):
            cauchy_tensor([1, -1], 2)

    def test_psd_criterion(self):
        assert cauchy_is_psd([0.5, 2, 3], 4)
        assert not cauchy_is_psd([-1, 2, 3], 4)
        assert cauchy_is_psd([1], 2)

    def test_negative_generator_not_certifiable(self):
        from sostensor.sos import NotCertified, certify_sos

        # note: (-1, 2, 3) itself has a vanishing 4-fold sum, so the tensor
        # is undefined there; a nearby negative vector shows the same failure
        assert not cauchy_is_psd([-1, 2.5, 3.1], 4)
        C = cauchy_tensor([-1, 2.5, 3.1], 4)
        res = certify_sos(C)
        assert isinstance(res, NotCertified)
        assert res.status == "not_sos"

    def test_psd_generator_oracle_nonnegative(self):
        from sostensor.spectral import brute_force_min

        rng = np.random.default_rng(6)
        for _ in range(3):
            c = rng.uniform(0.3, 2.0, 3)
            C = cauchy_tensor([float(v) for v in c], 4)
            val, _ = brute_force_min(C, seed=1)
            assert val >= -1e-6

    def test_cp_approx_riemann_entry(self):
        us = cauchy_cp_approx([1.0, 1.0], 2, 4000)
        entry = sum(u[0] * u[0] for u in us)
        assert entry == pytest.approx(0.5, abs=1e-3)

    def test_cp_approx_error_decreases(self):
        C = cauchy_tensor([0.5, 1.5], 4)
        errs = []
        for k in (10, 100, 1000):
            us = cauchy_cp_approx([0.5, 1.5], 4, k)
            S = SymmetricTensor(4, 2, {})
            from sostensor.tensor import rank_one_tensor

            for u in us:
                S = S + rank_one_tensor(4, u)
            errs.append((S - C).norm())
        assert errs[0] > errs[1] > errs[2]

    def test_cp_vectors_positive(self):
        for u in cauchy_cp_approx([0.3, 1.0, 2.2], 4, 25):
            assert np.all(u > 0)

    def test_cp_rejects_nonpositive(self):
        with pytest.raises(ClassificationError):
            cauchy_cp_approx([0.0, 1.0], 4, 10)


class TestCauchyVerdict:
    @pytest.mark.parametrize("order,c", [
        (2, [0.7]),
        (4, [0.5, 1.3, 2.2]),
        (6, [0.25, 2.4]),
        (3, [0.4, 1.9, 1.1]),
    ])
    def test_positive_generator(self, order, c):
        A = cauchy_tensor(c, order)
        assert cauchy_generator(A.to_polynomial()) == pytest.approx(c, rel=1e-13)
        v = classify(A).verdicts["cauchy"]
        assert v.holds is True and v.note == ""
        assert v.witness["c"] == pytest.approx(c, rel=1e-13)

    def test_rational_generator_is_exact(self):
        c = [Fraction(1, 3), Fraction(5, 2), 1]
        A = cauchy_tensor(c, 4)
        got = cauchy_generator(A.to_polynomial())
        assert got == tuple(Fraction(v) for v in c)
        assert all(type(v) is Fraction for v in got)
        v = classify(A).verdicts["cauchy"]
        assert v.holds is True
        assert v.witness == {"c": ["1/3", "5/2", "1"]}

    def test_non_positive_generator(self):
        c = [-1, 2.5, 3.1]
        A = cauchy_tensor(c, 4)
        assert cauchy_generator(A.to_polynomial()) is None
        assert cauchy_generator(A.to_polynomial(), positive=False) == pytest.approx(c, rel=1e-13)
        v = classify(A).verdicts["cauchy"]
        assert v.holds is False
        assert v.note == "non-positive generator"
        assert v.witness["c"] == pytest.approx(c, rel=1e-13)

    @pytest.mark.parametrize("idx", [(0, 1, 1, 2), (0, 0, 0, 0), (2, 2, 2, 2), (0, 0, 1, 1)])
    def test_one_entry_off(self, idx):
        A = cauchy_tensor([0.5, 1.0, 1.7], 4)
        B = SymmetricTensor(4, 3, {**A.entries, idx: A.entries[idx] + 1e-3})
        assert cauchy_generator(B.to_polynomial(), positive=False) is None
        v = classify(B).verdicts["cauchy"]
        assert v.holds is False and v.witness is None

    def test_relative_tolerance(self):
        A = cauchy_tensor([0.5, 1.0, 1.7], 4)
        idx = (0, 1, 1, 2)
        for rel, hit in ((0.1 * CAUCHY_RTOL, True), (10 * CAUCHY_RTOL, False)):
            B = SymmetricTensor(4, 3, {**A.entries, idx: A.entries[idx] * (1 + rel)})
            assert (cauchy_generator(B.to_polynomial()) is not None) is hit

    def test_all_one_is_cauchy(self):
        # 1 = 1 / (m * (1/m)): the all-one tensor has generator (1/m, ..., 1/m)
        assert cauchy_generator(all_one_tensor(4, 3).to_polynomial()) == (Fraction(1, 4),) * 3

    @pytest.mark.parametrize("A", [
        identity_tensor(4, 3),             # missing monomials
        random_symmetric_tensor(np.random.default_rng(3), 4, 3, density=1.0),
        SymmetricTensor(4, 2, {}),         # zero tensor
    ])
    def test_not_cauchy(self, A):
        assert cauchy_generator(A.to_polynomial(), positive=False) is None
        assert classify(A).verdicts["cauchy"].holds is False


class TestClassifyReport:
    def test_example51_report(self):
        rep = classify(generators.example51())
        assert rep.verdicts["extended_z"].holds is True
        assert rep.verdicts["z_tensor"].holds is False

    def test_identity_report(self):
        rep = classify(identity_tensor(4, 3))
        assert rep.verdicts["diagonally_dominated"].holds is True
        assert rep.verdicts["h_tensor"].holds is True

    def test_all_one_report(self):
        rep = classify(all_one_tensor(4, 3))
        assert rep.verdicts["b0"].holds is True
        assert "split_terms" in rep.verdicts["b0"].witness

    def test_dominance_implication_in_report(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            A = random_symmetric_tensor(rng, 4, 3)
            rep = classify(A)
            if rep.verdicts["diagonally_dominated"].holds:
                assert rep.verdicts["weakly_diagonally_dominated"].holds

    def test_odd_order_partial_report(self):
        A = random_symmetric_tensor(np.random.default_rng(9), 3, 3)
        rep = classify(A)
        assert rep.verdicts["extended_z"].holds is None
        assert rep.verdicts["weakly_diagonally_dominated"].holds is None
        assert rep.verdicts["z_tensor"].holds is not None

    def test_report_serializes(self):
        import json

        from sostensor.fileio import to_json

        rep = classify(generators.example51())
        payload = json.loads(to_json(rep.to_dict()))
        assert payload["classes"]["extended_z"]["holds"] is True
