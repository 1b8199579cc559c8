import numpy as np
import pytest

from sostensor import sdp


def feas_problem(x12):
    cons = [
        sdp.SdpConstraint(((0, 0, 1.0),), (), 1.0),
        sdp.SdpConstraint(((1, 1, 1.0),), (), 1.0),
        sdp.SdpConstraint(((0, 1, 0.5),), (), x12),
    ]
    return sdp.SdpProblem(2, 0, cons)


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
        S = np.array([[y[0], 0.5 * y[2]], [0.5 * y[2], y[1]]])
        assert np.linalg.eigvalsh(S)[0] >= -1e-7
        assert float(np.array([1.0, 1.0, 1.1]) @ y) < 0

    def test_min_trace(self):
        cons = [sdp.SdpConstraint(((0, 0, 1.0), (1, 1, 1.0)), (), 2.0)]
        p = sdp.SdpProblem(
            2, 0, cons, objective_matrix=((0, 0, 1.0), (1, 1, 1.0)), sense="min"
        )
        sol = sdp.solve(p)
        assert sol.status == sdp.OPTIMAL
        assert sol.objective_value == pytest.approx(2.0, abs=1e-6)

    def test_free_variable_objective(self):
        # max r with X11 - r = 1, X22 + r = 1 => r* = 1 at X = diag(2, 0)
        cons = [
            sdp.SdpConstraint(((0, 0, 1.0),), (-1.0,), 1.0),
            sdp.SdpConstraint(((1, 1, 1.0),), (1.0,), 1.0),
        ]
        p = sdp.SdpProblem(2, 1, cons, objective_free=(1.0,), sense="max")
        sol = sdp.solve(p)
        assert sol.status == sdp.OPTIMAL
        assert sol.free[0] == pytest.approx(1.0, abs=1e-5)

    def test_inconsistent_rows_detected(self):
        cons = [
            sdp.SdpConstraint(((0, 0, 1.0),), (), 1.0),
            sdp.SdpConstraint(((0, 0, 1.0),), (), 2.0),
        ]
        sol = sdp.solve(sdp.SdpProblem(1, 0, cons))
        assert sol.status == sdp.INFEASIBLE_EVIDENCE

    def test_determinism(self):
        p = feas_problem(0.7)
        a = sdp.solve(p)
        b = sdp.solve(p)
        assert np.array_equal(a.X, b.X)
        assert a.iterations == b.iterations
        assert a.objective_value == b.objective_value

    def test_scale_covariance(self):
        p = feas_problem(0.6)
        scaled = sdp.SdpProblem(
            2,
            0,
            [
                sdp.SdpConstraint(
                    tuple((i, j, 3.0 * v) for i, j, v in c.matrix_entries),
                    (),
                    3.0 * c.rhs,
                )
                for c in p.constraints
            ],
        )
        a, b = sdp.solve(p), sdp.solve(scaled)
        assert np.allclose(a.X, b.X, atol=1e-7)

    def test_best_iterate_primal_tracked(self):
        sol = sdp.solve(feas_problem(0.5))
        primal, _, psd = sdp.residuals(feas_problem(0.5), sol)
        assert primal == pytest.approx(sol.primal_residual, abs=1e-12)
        assert psd <= 1e-9


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


class TestResiduals:
    def test_exact_point(self):
        p = feas_problem(0.9)
        sol = sdp.SdpSolution(
            X=np.array([[1.0, 0.9], [0.9, 1.0]]),
            free=np.zeros(0),
            objective_value=0.0,
            primal_residual=0.0,
            dual_residual=0.0,
            psd_violation=0.0,
            status=sdp.OPTIMAL,
            iterations=0,
        )
        primal, _, psd = sdp.residuals(p, sol)
        assert primal == pytest.approx(0.0, abs=1e-12)
        assert psd == pytest.approx(0.0, abs=1e-12)

    def test_zero_matrix_violates(self):
        p = sdp.SdpProblem(1, 0, [sdp.SdpConstraint(((0, 0, 1.0),), (), 1.0)])
        sol = sdp.SdpSolution(
            X=np.zeros((1, 1)), free=np.zeros(0), objective_value=0.0,
            primal_residual=0.0, dual_residual=0.0, psd_violation=0.0,
            status=sdp.OPTIMAL, iterations=0,
        )
        primal, _, _ = sdp.residuals(p, sol)
        assert primal == pytest.approx(1.0)

    def test_psd_violation_measured(self):
        p = sdp.SdpProblem(2, 0, [sdp.SdpConstraint(((0, 0, 1.0),), (), -0.25)])
        sol = sdp.SdpSolution(
            X=np.diag([-0.25, 1.0]), free=np.zeros(0), objective_value=0.0,
            primal_residual=0.0, dual_residual=0.0, psd_violation=0.0,
            status=sdp.OPTIMAL, iterations=0,
        )
        _, _, psd = sdp.residuals(p, sol)
        assert psd == pytest.approx(0.25)


class TestDumpLoad:
    def test_round_trip(self):
        cons = [
            sdp.SdpConstraint(((0, 0, 1.0), (0, 1, -2.5)), (1.0, 0.0), 3.0),
            sdp.SdpConstraint(((1, 1, 4.0),), (0.0, -1.0), -1.0),
        ]
        p = sdp.SdpProblem(
            2, 2, cons, objective_matrix=((0, 1, 1.0),),
            objective_free=(0.0, 2.0), sense="max",
        )
        q = sdp.load_problem(sdp.dump_problem(p))
        assert q.block_size == p.block_size
        assert q.num_free == p.num_free
        assert q.sense == p.sense
        assert q.constraints[0].matrix_entries == p.constraints[0].matrix_entries
        assert q.constraints[1].rhs == p.constraints[1].rhs
        assert q.objective_free == p.objective_free


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
        assert sol.status == sdp.OPTIMAL and sol.iterations > opts.check_every
        again = sdp.solve(
            p, sdp.SolveOptions(feas_tol=5e-7, warm_start=sdp.pack_iterate(sol.X))
        )
        assert again.status == sdp.OPTIMAL
        assert again.iterations == opts.check_every

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

    def test_non_orthogonal_rows_solve(self):
        # the trace row shares X00 and X11 with the other rows, so the
        # affine step takes the dense pseudo-inverse
        cons = [
            sdp.SdpConstraint(((0, 0, 1.0), (1, 1, 1.0)), (), 2.0),
            sdp.SdpConstraint(((0, 0, 1.0),), (), 0.5),
            sdp.SdpConstraint(((0, 1, 0.5),), (), 0.3),
        ]
        p = sdp.SdpProblem(2, 0, cons)
        assert p.operator.rows is not None
        sol = sdp.solve(p)
        assert sol.status == sdp.OPTIMAL
        assert np.allclose(sol.X, [[0.5, 0.3], [0.3, 1.5]], atol=1e-6)
        assert np.array_equal(sol.X, sol.X.T)
        primal, _, psd = sdp.residuals(p, sol)
        assert primal <= 1e-8 * 3 and psd == 0.0

    def test_disjoint_rows_compile_to_labels(self):
        p = feas_problem(0.9)
        op = p.operator
        assert op.rows is None
        # X00 -> row 0, X11 -> row 1, both X01 and X10 -> row 2 with weight 0.5
        assert op.label.tolist() == [0, 2, 2, 1]
        assert op.weight.tolist() == [1.0, 0.5, 0.5, 1.0]
        assert np.array_equal(op.dense(), [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0.5, 0.5, 0]])
        X = np.array([[1.0, 0.9], [0.9, 1.0]])
        assert np.allclose(op.values(X.ravel()), [1.0, 1.0, 0.9])

    def test_unconstrained_positions_stay_free(self):
        # X01 feeds no row: it keeps the value the cone step gives it
        cons = [
            sdp.SdpConstraint(((0, 0, 1.0),), (), 1.0),
            sdp.SdpConstraint(((1, 1, 1.0),), (), 4.0),
        ]
        sol = sdp.solve(sdp.SdpProblem(2, 0, cons))
        assert sol.status == sdp.OPTIMAL
        assert sol.X[0, 0] == pytest.approx(1.0, abs=1e-7)
        assert sol.X[1, 1] == pytest.approx(4.0, abs=1e-7)

    def test_compiled_problem_checks_shapes(self):
        op = sdp.ConstraintMap.from_entries(2, 1, [0], [0], [1], [1.0])
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(2, 0, operator=op, rhs=np.zeros(2))
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(3, 0, operator=op, rhs=np.zeros(1))
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(2, 1, operator=op, rhs=np.zeros(1), free_matrix=np.zeros((1, 2)))
        with pytest.raises(sdp.SdpError):
            sdp.SdpProblem(
                2, 0, [sdp.SdpConstraint(((0, 0, 1.0),), (), 1.0)], operator=op, rhs=np.zeros(1)
            )
