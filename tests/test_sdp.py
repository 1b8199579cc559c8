import numpy as np
import pytest

from sostensor import sdp


def label_problem(labels, rhs, free_matrix=None, **kw):
    """A problem on the N x N block whose position p feeds row labels[p]."""
    labels = np.array(labels, dtype=np.intp)
    N = int(round(len(labels) ** 0.5))
    op = sdp.ConstraintMap(N, int(labels.max()) + 1, labels)
    F = 0 if free_matrix is None else np.shape(free_matrix)[1]
    return sdp.SdpProblem(
        N, F, operator=op, rhs=np.array(rhs, dtype=float),
        free_matrix=None if free_matrix is None else np.array(free_matrix, dtype=float),
        **kw,
    )


def feas_problem(x12):
    # X00 = 1, X11 = 1, X01 + X10 = 2 * x12
    return label_problem([0, 2, 2, 1], [1.0, 1.0, 2.0 * x12])


class TestSolve:
    def test_feasible_correlation(self):
        sol = sdp.solve(feas_problem(0.9))
        assert sol.status == sdp.OPTIMAL
        assert sol.X[0, 1] == pytest.approx(0.9, abs=1e-6)
        assert np.linalg.det(sol.X) == pytest.approx(0.19, abs=1e-5)
        assert sol.psd_violation <= 1e-9

    def test_infeasible_correlation_gives_farkas(self):
        sol = sdp.solve(feas_problem(1.1), sdp.SolveOptions(max_iter=80_000))
        assert sol.status == sdp.INFEASIBLE_EVIDENCE
        y = sol.farkas
        assert y is not None
        # sum_k y_k A_k, with both X01 and X10 in row 2
        S = np.array([[y[0], y[2]], [y[2], y[1]]])
        assert np.linalg.eigvalsh(S)[0] >= -1e-7
        assert float(np.array([1.0, 1.0, 2.2]) @ y) < 0

    def test_free_variable_objective(self):
        # max r with X00 - r = 1, X11 + r = 1, X01 + X10 = 0
        # => r* = 1 at X = diag(2, 0)
        p = label_problem(
            [0, 2, 2, 1], [1.0, 1.0, 0.0], free_matrix=[[-1.0], [1.0], [0.0]],
            objective_free=(1.0,), sense="max",
        )
        sol = sdp.solve(p)
        assert sol.status == sdp.OPTIMAL
        assert sol.free[0] == pytest.approx(1.0, abs=1e-5)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-5)

    def test_determinism(self):
        p = feas_problem(0.7)
        a = sdp.solve(p)
        b = sdp.solve(p)
        assert np.array_equal(a.X, b.X)
        assert a.iterations == b.iterations
        assert a.objective_value == b.objective_value

    def test_scale_covariance(self):
        # the constraints are homogeneous in (X, b): scaling b scales X
        p = feas_problem(0.6)
        scaled = label_problem([0, 2, 2, 1], 3.0 * p.rhs)
        a, b = sdp.solve(p), sdp.solve(scaled)
        assert np.allclose(3.0 * a.X, b.X, atol=1e-6)

    def test_best_iterate_primal_tracked(self):
        p = feas_problem(0.5)
        sol = sdp.solve(p)
        primal = float(np.max(np.abs(p.operator.values(sol.X.ravel()) - p.rhs)))
        assert primal == pytest.approx(sol.primal_residual, abs=1e-12)
        assert sol.psd_violation <= 1e-9


class TestProjection:
    def test_clamp_negative(self):
        out = sdp.psd_project(np.diag([1.0, -2.0]))
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_fixed_point_on_psd(self):
        X = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.allclose(sdp.psd_project(X), X)

    def test_antidiagonal(self):
        out = sdp.psd_project(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(out, np.full((2, 2), 0.5))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        S = rng.standard_normal((5, 5))
        S = S + S.T
        P = sdp.psd_project(S)
        assert np.allclose(sdp.psd_project(P), P)

    def test_nonfinite_rejected(self):
        with pytest.raises(sdp.SdpError):
            sdp.psd_project(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestExampleFamilySdp:
    def test_block_values_match_closed_form(self, monkeypatch):
        # force the semidefinite path on the 4-variable blocks; the program
        # value must match n - 1 within 1e-3 for each size
        from sostensor import generators, spectral
        from sostensor.structured import detect_extended_z

        monkeypatch.setattr(spectral, "_single_term_value", lambda f: None)
        monkeypatch.setattr(spectral, "_z_sandwich", lambda f, opts: None)
        opts = spectral.EigMinOptions(tol=1e-5)
        for n in (4, 8, 20):
            A = generators.example54(n)
            f = A.to_polynomial()
            blocks = [
                spectral._form_value(f.restrict(b.variables), opts)
                for b in detect_extended_z(A).blocks
            ]
            assert min(value for value, _, _ in blocks) == pytest.approx(n - 1, abs=1e-3)
            assert all(method == "sdp" for _, method, _ in blocks)


def gram_problem(dim=3, order=4, seed=40004):
    from sostensor import generators, sos

    A = generators.random_class_instance("cauchy_psd", order, dim, seed)
    system = sos.gram_system(dim, order)
    rhs = system.rhs(A.to_polynomial())
    return sdp.SdpProblem(len(system.basis), 0, operator=system.operator, rhs=rhs)


class TestFullMatrixIterate:
    def test_warm_start_stops_at_first_check(self):
        p = gram_problem()
        opts = sdp.SolveOptions(feas_tol=5e-7)
        sol = sdp.solve(p, opts)
        assert sol.status == sdp.OPTIMAL and sol.iterations > sdp.CHECK_EVERY
        again = sdp.solve(
            p, sdp.SolveOptions(feas_tol=5e-7, warm_start=sdp.pack_iterate(sol.X))
        )
        assert again.status == sdp.OPTIMAL
        assert again.iterations == sdp.CHECK_EVERY

    def test_asymmetric_warm_start_is_symmetrized(self):
        X0 = np.array([[1.0, 0.2], [0.9, 1.0]])
        sol = sdp.solve(
            feas_problem(0.5), sdp.SolveOptions(warm_start=sdp.pack_iterate(X0))
        )
        assert sol.status == sdp.OPTIMAL
        assert np.array_equal(sol.X, sol.X.T)
        assert sol.X[0, 1] == pytest.approx(0.5, abs=1e-6)

    def test_pack_iterate_layout(self):
        X = np.array([[2.0, 0.5], [0.5, 1.0]])
        z = sdp.pack_iterate(X, (3.0,))
        assert np.array_equal(z, [2.0, 0.5, 0.5, 1.0, 3.0])

    @pytest.mark.parametrize("make", [
        lambda: feas_problem(0.9),
        lambda: gram_problem(),
        lambda: gram_problem(2, 6, 40002),
    ])
    def test_returned_matrix_exactly_symmetric(self, make):
        sol = sdp.solve(make(), sdp.SolveOptions(max_iter=3000))
        assert np.array_equal(sol.X, sol.X.T)

    def test_disjoint_rows_compile_to_labels(self):
        op = feas_problem(0.9).operator
        # X00 -> row 0, X11 -> row 1, both X01 and X10 -> row 2
        assert op.label.tolist() == [0, 2, 2, 1]
        X = np.array([[1.0, 0.9], [0.9, 1.0]])
        assert np.array_equal(op.values(X.ravel()), [1.0, 1.0, 1.8])

    def test_label_length_must_be_block_squared(self):
        op = sdp.ConstraintMap(2, 2, np.array([0, 1, 1], dtype=np.intp))
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(2, 0, operator=op, rhs=np.zeros(2))
        # the operator's size must be the block size
        op = sdp.ConstraintMap(2, 3, np.array([0, 2, 2, 1], dtype=np.intp))
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(3, 0, operator=op, rhs=np.zeros(3))

    def test_label_outside_rows_rejected(self):
        # a position labelled K or below 0 would feed no row
        for labels in ([0, 2, 2, 1], [0, -1, -1, 1]):
            op = sdp.ConstraintMap(2, 2, np.array(labels, dtype=np.intp))
            with pytest.raises(sdp.SdpError):
                sdp.SdpProblem(2, 0, operator=op, rhs=np.zeros(2))

    def test_row_fed_by_no_position_rejected(self):
        # row 2 is named by no position, so nothing can meet its rhs
        op = sdp.ConstraintMap(2, 3, np.array([0, 1, 1, 0], dtype=np.intp))
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(2, 0, operator=op, rhs=np.zeros(3))

    def test_compiled_problem_checks_shapes(self):
        op = sdp.ConstraintMap(2, 3, np.array([0, 2, 2, 1], dtype=np.intp))
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(2, 0, operator=op, rhs=np.zeros(2))
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(2, 0, operator=op, rhs=np.zeros((3, 1)))
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(2, 1, operator=op, rhs=np.zeros(3), free_matrix=np.zeros((3, 2)))
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(2, 1, operator=op, rhs=np.zeros(3), free_matrix=np.zeros((2, 1)))
        p = sdp.SdpProblem(2, 1, operator=op, rhs=np.zeros(3))
        assert np.array_equal(p.free_matrix, np.zeros((3, 1)))
