import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sostensor import generators
from sostensor.structured import (
    ClassificationError,
    b0_split,
    cauchy_cp_approx,
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
    random_symmetric_tensor,
    reference_double_b_pairs,
    reference_double_b_quantities,
    reference_gershgorin,
    reference_row_absolute_offsum,
    reference_row_max_off_entry,
    reference_row_sum,
    reference_row_weak_offsum,
)


def poly_tensor(degree, dim, terms):
    return from_polynomial(HomogeneousPolynomial(degree, dim, terms))


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
            assert gershgorin_lower_bound(A) == reference_gershgorin(A)
            slacks = tuple(
                float(A.diagonal_entry(i)) - float(reference_row_absolute_offsum(A, i))
                for i in range(dim)
            )
            assert is_diagonally_dominated(A).row_slacks == slacks
            for got, want in zip(double_b_quantities(A), reference_double_b_quantities(A)):
                assert np.array_equal(got, want)

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
