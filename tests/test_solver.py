import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse as sp

from layout_views import active_phases, contact_bases, row_meta, state_bases
from test_transcription import (
    biped_scenario,
    dense_curvature,
    flight_and_hand_scenario,
    foot_surface,
    stepping_scenario,
)

from kinomo import qpm, solver, transcription
from kinomo.contact import (
    ContactPhase,
    ContactWrenchCom,
    com_to_cop,
    cop_wrench_feasibility,
)
from kinomo.dynamics import MomentumState, RobotConstants
from kinomo.linalg import NotPositiveDefinite
from kinomo.planner import initialize_references
from kinomo.scenario import (
    load_scenario,
    make_standing_scenario,
    rescale_horizon,
    scenario_from_dict,
)
from kinomo.solver import (
    KKTSystem,
    SolverOptions,
    _solve_dense_qp,
    kkt_residual,
    solve,
    solve_ipm,
)
from kinomo.transcription import (
    MomentumScenario,
    NlpProblem,
    TrackingWeights,
    build_sequential,
    build_simultaneous,
    extract,
)


def one_contact_scenario(T=3, delta=0.1):
    phases = (ContactPhase("foot", 0, T, foot_surface(0.0)),)
    consts = RobotConstants(M=30.0)
    h0 = MomentumState(np.array([0.0, 0.0, 0.5]), np.zeros(3), np.zeros(3))
    h_ref = np.tile(h0.as_vector(), (T + 1, 1))
    force_ref = {0: np.tile([0.0, 0.0, 30.0 * 9.81], (T, 1))}
    return MomentumScenario(phases, T, delta, h0, consts, h_ref, force_ref)


def convex_variant(p):
    """Same problem with the nonconvex CoP rows dropped (affine subclass)."""
    rows = [k for k, m in enumerate(row_meta(p)[0]) if m[2] == "friction"]
    return NlpProblem(
        p.layout, p.objective, qpm.select_rows(p.ineq, rows), p.eq, p.h, p.f, p.kappa, p.x0,
        p.scenario,
    )


class TestOptions:
    def test_defaults(self):
        o = SolverOptions()
        assert o.max_iter == 200 and o.kkt_tol == 1e-6 and o.backend == "ipm"

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverOptions(kkt_tol=0.0)
        with pytest.raises(TypeError):
            SolverOptions(mu_reduction=1.5)
        with pytest.raises(ValueError):
            SolverOptions(backend="newton")


class TestDenseQP:
    def test_clipped_scalar(self):
        # min (x-2)^2 s.t. x <= 1  ->  x = 1, multiplier 2
        d, z, y = _solve_dense_qp(
            np.array([[2.0]]),
            np.array([-4.0]),
            np.array([[-1.0]]),
            np.array([1.0]),
            np.zeros((0, 1)),
            np.zeros(0),
        )
        assert abs(d[0] - 1.0) < 1e-8
        assert abs(z[0] - 2.0) < 1e-6

    def test_equality(self):
        # min x^2 + y^2 s.t. x + y = 1
        d, z, y = _solve_dense_qp(
            2.0 * np.eye(2),
            np.zeros(2),
            np.zeros((0, 2)),
            np.zeros(0),
            np.array([[1.0, 1.0]]),
            np.array([-1.0]),
        )
        assert np.allclose(d, [0.5, 0.5], atol=1e-9)

    def test_inactive_constraint(self):
        d, _, _ = _solve_dense_qp(
            np.array([[2.0]]),
            np.array([-4.0]),
            np.array([[1.0]]),
            np.array([10.0]),  # x >= -10, inactive
            np.zeros((0, 1)),
            np.zeros(0),
        )
        assert abs(d[0] - 2.0) < 1e-8

    def test_singular_kkt_is_infeasible(self):
        # H = -1e-12 I cancels the solver's own 1e-12 shift exactly, and
        # without rows the KKT matrix is that zero matrix
        with pytest.raises(solver.QPSubproblemInfeasible, match="singular"):
            _solve_dense_qp(-1e-12 * np.eye(2), np.ones(2), np.zeros((0, 2)), np.zeros(0),
                            np.zeros((0, 2)), np.zeros(0))


class TestIpm:
    def test_tiny_contact_instance_kkt(self):
        p = build_sequential(one_contact_scenario())
        res = solve_ipm(p, SolverOptions(kkt_tol=1e-8))
        assert res.converged
        assert max(kkt_residual(p, res.x, res.z, res.y)) <= 1e-8

    def test_double_support_reaches_reference(self):
        p = build_sequential(biped_scenario(6))
        res = solve_ipm(p)
        assert res.converged
        # the reference is exactly attainable: zero tracking cost
        assert res.objective < 1e-8
        sol = extract(p, res.x)
        assert np.allclose(sol["h"], p.scenario.h_ref, atol=1e-4)

    def test_simultaneous_backend(self):
        p = build_simultaneous(biped_scenario(6))
        res = solve_ipm(p)
        assert res.converged
        assert res.objective < 1e-8
        assert res.y.size == p.n_eq

    def test_stepping_feasible_at_solution(self):
        scn = stepping_scenario()
        p = build_sequential(scn)
        res = solve_ipm(p, SolverOptions(max_iter=300))
        assert res.converged
        sol = extract(p, res.x)
        for t, act in enumerate(active_phases(p)):
            for i in act:
                ph = scn.phases[i]
                w = com_to_cop(
                    ContactWrenchCom(sol["forces"][i][t], sol["kappas"][i][t]),
                    ph.surface,
                    sol["h"][t, :3],
                )
                verdict = cop_wrench_feasibility(ph, w, tol=1e-6)
                assert verdict["feasible"], (t, i, verdict)

    def test_mu_schedule_monotone(self):
        p = build_sequential(biped_scenario(6))
        res = solve_ipm(p)
        mus = [st.mu for st in res.stats]
        assert all(b <= a for a, b in zip(mus, mus[1:]))
        assert all(0.0 < st.alpha <= 1.0 for st in res.stats[:-1])

    def test_infeasible_scenario_flagged(self):
        # demand a huge lateral force that friction cannot supply
        scn = biped_scenario(4)
        scn.h_ref[:, 3] = 1e4  # linear momentum x
        p = build_sequential(scn)
        res = solve_ipm(p, SolverOptions(max_iter=60))
        # the problem stays feasible (tracking is soft) so it must not
        # report Infeasible; the solution saturates the friction cone
        assert res.status in ("Converged", "MaxIter")
        assert res.kkt[1] <= 1e-6

    @pytest.mark.parametrize(
        "build, max_iter", [(build_simultaneous, 1), (build_sequential, 3)]
    )
    def test_budget_exhausted_is_max_iter(self, build, max_iter):
        # far from feasible when the budget runs out, but not stalled
        scn = rescale_horizon(load_scenario("scenarios/step_stones.json"), 30)
        state = initialize_references(scn)
        p = build(scn.momentum_scenario(state.h_bar, state.lambda_bar))
        res = solve_ipm(p, SolverOptions(max_iter=max_iter))
        assert len(res.stats) == max_iter
        assert res.kkt[1] > 1e-4
        assert res.status == "MaxIter"


def _step_stones_problem(build, T=None, name="step_stones"):
    scn = load_scenario(f"scenarios/{name}.json")
    if T is not None:
        scn = rescale_horizon(scn, T)
    state = initialize_references(scn)
    return build(scn.momentum_scenario(state.h_bar, state.lambda_bar))


class TestHessianMode:
    @pytest.mark.parametrize("build", [build_sequential, build_simultaneous])
    def test_step_stones_newton_iterations(self, build):
        # the convexified Hessian took 576 (seq) and 538 (sim) iterations
        res = solve_ipm(_step_stones_problem(build))
        assert res.converged
        assert len(res.stats) <= 60

    def test_rejected_exact_matrix_falls_back_for_good(self):
        # the exact sequential K fails the Cholesky late in this solve, at
        # iteration 15 of 24
        res = solve_ipm(_step_stones_problem(build_sequential, T=215))
        assert res.converged
        modes = [st.hessian for st in res.stats]
        k = modes.index("convexified")
        assert k > 0 and set(modes[k:]) == {"convexified"}

    def test_curvature_test_rejects_simultaneous_step(self, monkeypatch):
        # no step passes the curvature test: the first iteration falls back
        monkeypatch.setattr(solver, "CURVATURE_MIN", np.inf)
        res = solve_ipm(build_simultaneous(biped_scenario(6)))
        assert res.converged
        assert {st.hessian for st in res.stats} == {"convexified"}


class TestColdStart:
    @pytest.mark.parametrize("build", [build_sequential, build_simultaneous])
    @pytest.mark.parametrize("name, T", [("stand", None), ("step_stones", 30)])
    def test_cold_start_is_the_warm_start_from_x0(self, name, T, build):
        # a cold solve starts as a warm one from (x0, 0, 0) at mu = MU0 = 1:
        # slacks max(g_I, 1), z = mu / s and y = 0, to the last bit
        p = _step_stones_problem(build, T, name)
        res = solve_ipm(p, SolverOptions(max_iter=0))
        z0 = 1.0 / np.maximum(p.compiled_ineq().value(p.x0), 1.0)
        assert res.x is not p.x0
        assert res.x.tobytes() == p.x0.tobytes()
        assert res.z.tobytes() == z0.tobytes()
        assert res.y.tobytes() == np.zeros(p.n_eq).tobytes()


class TestStepLengths:
    @pytest.mark.parametrize("build", [build_sequential, build_simultaneous])
    def test_step_stones_cold_iterations(self, build):
        # x, s and z, y move by separate step lengths: 17 (seq) and 19
        # (sim) iterations, against 35 and 31 with one length for all four
        res = solve_ipm(_step_stones_problem(build))
        assert res.converged
        assert len(res.stats) <= 22
        assert {st.hessian for st in res.stats} == {"exact"}

    @pytest.mark.parametrize("build", [build_sequential, build_simultaneous])
    def test_dual_boundary_does_not_throttle_the_primal_step(self, build):
        # at the cold start the duals' fraction-to-boundary rule allows
        # 0.0076 (seq) and 0.0075 (sim); the primal step is still full
        p = _step_stones_problem(build, T=30)
        res = solve_ipm(p, SolverOptions(max_iter=1))
        st = res.stats[0]
        assert st.alpha == 1.0
        assert 0.0 < st.alpha_dual < 0.01
        # z moved by alpha_dual keeps the fraction-to-boundary margin
        z0 = 1.0 / np.maximum(p.compiled_ineq().value(p.x0), 1.0)
        assert np.all(res.z >= (1.0 - solver.FRACTION_TO_BOUNDARY) * z0 * (1.0 - 1e-12))


class TestNonFinite:
    @pytest.mark.parametrize("backend", ["ipm", "sqp_dense"])
    @pytest.mark.parametrize("build", [build_sequential, build_simultaneous])
    def test_nan_reference_is_numeric_failure(self, build, backend):
        scn = make_standing_scenario(T=6)
        state = initialize_references(scn)
        ms = scn.momentum_scenario(state.h_bar, state.lambda_bar)
        ms.h_ref[3, 0] = np.nan
        res = solve(build(ms), SolverOptions(backend=backend))
        assert res.status == "NumericFailure"


class TestObjective:
    @pytest.mark.parametrize("backend", ["ipm", "sqp_dense"])
    @pytest.mark.parametrize("build", [build_sequential, build_simultaneous])
    def test_reported_objective_is_a_sum_of_squares(self, build, backend):
        # stand.json tracks its references almost exactly; the compiled
        # c + 0.5 x'(g + q) read -6.1e-9 there (sequential IPM)
        scn = load_scenario("scenarios/stand.json")
        state = initialize_references(scn)
        p = build(scn.momentum_scenario(state.h_bar, state.lambda_bar))
        res = solve(p, dataclasses.replace(scn.solver, backend=backend))
        assert res.converged
        r, y, w = p.objective
        direct = float(np.sum(w * (qpm.evaluate(r, res.x) - y) ** 2))
        assert res.objective >= 0.0
        assert res.objective == pytest.approx(direct, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["stand", "step_stones"])
    def test_line_search_reads_the_reported_objective(self, name):
        # the compiled value is the one the line search reads; it must be
        # the reported sum of squares, not an expansion that cancels near
        # exact tracking (it read -6.05e-9 against 1.85e-14 on stand.json)
        scn = load_scenario(f"scenarios/{name}.json")
        state = initialize_references(scn)
        p = build_sequential(scn.momentum_scenario(state.h_bar, state.lambda_bar))
        res = solve(p, scn.solver)
        assert res.converged
        f = p.compiled_objective().value(res.x)
        assert f >= 0.0
        assert np.float64(f).tobytes() == np.float64(res.objective).tobytes()


class TestLineSearch:
    def test_each_trial_point_evaluated_once(self, monkeypatch):
        # every point the IPM visits is evaluated once, values and
        # Jacobians together; only the initial slacks take one more value
        calls = {"value": 0, "jacobian": 0}
        for name in calls:
            method = getattr(transcription.CompiledVectorFunction, name)

            def counted(self, x, *args, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, x, *args)

            monkeypatch.setattr(transcription.CompiledVectorFunction, name, counted)
        p = build_sequential(stepping_scenario())
        res = solve_ipm(p, SolverOptions(max_iter=300))
        assert res.converged
        assert calls["jacobian"] >= len(res.stats)
        assert calls["value"] <= calls["jacobian"] + 1

    @pytest.mark.parametrize("build", [build_sequential, build_simultaneous])
    def test_no_sparse_matrix_per_iteration(self, build, monkeypatch):
        # the Jacobians stay value arrays through the solve: k and 3 k
        # iterations construct the same number of CSR and CSC matrices
        built = []
        for cls in (sp.csr_matrix, sp.csc_matrix):
            init = cls.__init__

            def counted(self, *args, _init=init, **kwargs):
                built.append(type(self))
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        p = build(stepping_scenario())
        counts = []
        for k in (3, 9):
            kkt = KKTSystem(p)
            built.clear()
            res = solve_ipm(p, SolverOptions(max_iter=k), kkt=kkt)
            assert len(res.stats) == k
            counts.append(len(built))
        assert counts[0] == counts[1]


def _reject_trials(monkeypatch, reject):
    """Make solver._evaluate give a NaN objective and stationarity residual,
    which fail both acceptance measures, at the calls whose 0-based index
    ``reject`` accepts: call 0 evaluates the start, every later one a trial
    point. Returns a one-entry list that counts the calls."""
    calls = [0]
    evaluate = solver._evaluate

    def poisoned(*args):
        ev = evaluate(*args)
        calls[0] += 1
        if reject(calls[0] - 1):
            f, grad, r_d, *rest = ev
            ev = (np.nan, grad, np.full_like(r_d, np.nan), *rest)
        return ev

    monkeypatch.setattr(solver, "_evaluate", poisoned)
    return calls


class TestFaultInjection:
    """The IPM's exits for a rejected trial point and a failed factorization."""

    def test_rejected_trial_halves_the_primal_step(self, monkeypatch):
        p = build_sequential(biped_scenario(6))
        first = solve_ipm(p).stats[0]
        _reject_trials(monkeypatch, lambda call: call == 1)
        res = solve_ipm(p)
        assert res.converged
        assert first.alpha == 1.0
        assert res.stats[0].alpha == 0.5
        assert res.stats[0].alpha_dual == first.alpha_dual  # only alpha backtracks

    @pytest.mark.parametrize("build, k, status", [
        (build_sequential, 0, "MaxIter"),
        (build_simultaneous, 0, "MaxIter"),
        (build_sequential, 3, "Infeasible"),
        (build_simultaneous, 1, "Infeasible"),
    ])
    def test_stall_exit(self, build, k, status, monkeypatch):
        # k iterations run as usual, then no trial point is accepted: the
        # solve stops at the k-th iterate, Infeasible above a primal
        # residual of 1e-4 and MaxIter below it (x0 is feasible)
        p = _step_stones_problem(build, T=30)
        before = solve_ipm(p, SolverOptions(max_iter=k))
        calls = _reject_trials(monkeypatch, lambda call: call > k)
        res = solve_ipm(p)
        assert res.status == status
        assert calls[0] == 1 + k + 40  # one trial per usual iteration, then 40
        assert len(res.stats) == k + 1
        assert (res.stats[-1].alpha, res.stats[-1].alpha_dual) == (0.0, 0.0)
        assert all(st.alpha > 0.0 for st in res.stats[:-1])
        assert res.x.tobytes() == before.x.tobytes()
        assert (res.kkt[1] > 1e-4) == (status == "Infeasible")

    @pytest.mark.parametrize("build", [build_sequential, build_simultaneous])
    def test_failing_factorization_is_numeric_failure(self, build, monkeypatch):
        deltas = []

        def failing(self, delta):
            deltas.append(delta)
            raise NotPositiveDefinite

        monkeypatch.setattr(KKTSystem, "factor", failing)
        p = build(biped_scenario(6))
        res = solve_ipm(p)
        assert res.status == "NumericFailure"
        assert res.stats == []
        assert res.x.tobytes() == p.x0.tobytes()
        # the exact matrix at the floor, then the convexified one with the
        # regularization raised tenfold while it stays within 1e-2
        assert deltas[:2] == [solver.REG_FLOOR] * 2
        assert all(b == pytest.approx(10.0 * a) for a, b in zip(deltas[1:], deltas[2:]))
        assert deltas[-1] <= 1e-2 < 10.0 * deltas[-1]


class TestConvexSubclass:
    def test_matches_dense_reference(self):
        # unit force weight and a single contact keep the QP strictly
        # convex so all three solvers pin the same minimizer; with two
        # feet the affine subclass leaves a shared angular-impulse
        # direction unpenalized and the solution set is a subspace
        scn = dataclasses.replace(
            one_contact_scenario(T=8), weights=TrackingWeights(force=1.0)
        )
        p = convex_variant(build_sequential(scn))
        obj = p.compiled_objective()
        ineq = p.compiled_ineq()
        x0 = np.zeros(p.n)
        d_ref, _, _ = _solve_dense_qp(
            obj.H.toarray(),
            obj.gradient(x0),
            ineq.to_csr(ineq.jacobian(x0)).toarray(),
            ineq.value(x0),
            np.zeros((0, p.n)),
            np.zeros(0),
        )
        for backend in ("ipm", "sqp_dense"):
            res = solve(p, SolverOptions(backend=backend, kkt_tol=1e-10, max_iter=300))
            assert np.abs(res.x - d_ref).max() < 1e-8, backend


class TestNoInequalityRows:
    @pytest.mark.parametrize("build", [build_sequential, build_simultaneous])
    def test_backends_agree(self, build):
        """With ineq cut to zero rows, as convex_variant cuts rows, the IPM
        and the dense SQP both take the empty family as it is and reach
        the same minimizer: the reference is reachable, so the objective
        reads 0."""
        scn = dataclasses.replace(
            one_contact_scenario(T=8), weights=TrackingWeights(force=1.0)
        )
        full = build(scn)
        p = NlpProblem(
            full.layout, full.objective, qpm.select_rows(full.ineq, []), full.eq, full.h,
            full.f, full.kappa, full.x0, full.scenario,
        )
        assert p.n_ineq == 0 and p.n_eq == full.n_eq
        xs = []
        for backend in ("ipm", "sqp_dense"):
            res = solve(p, SolverOptions(backend=backend))
            assert res.converged, backend
            assert res.z.size == 0 and res.objective < 1e-12, backend
            xs.append(res.x)
        assert np.abs(xs[0] - xs[1]).max() < 1e-8


class TestBackendsAgree:
    def test_objective_agreement(self):
        p = build_sequential(stepping_scenario())
        r_ipm = solve(p, SolverOptions(max_iter=300))
        r_sqp = solve(p, SolverOptions(backend="sqp_dense", max_iter=60))
        assert r_ipm.converged
        rel = abs(r_ipm.objective - r_sqp.objective) / (1.0 + abs(r_ipm.objective))
        assert rel < 1e-4


class TestDiagnostics:
    def test_kkt_residual_blocks(self):
        p = build_sequential(biped_scenario(4))
        x = np.zeros(p.n)
        z = np.zeros(p.n_ineq)
        stat, primal, dual, comp = kkt_residual(p, x, z, np.zeros(0))
        g = p.compiled_objective().gradient(x)
        assert stat == pytest.approx(np.abs(g).max())
        assert dual == 0.0 and comp == 0.0
        # negative dual shows up in the dual-feasibility block
        z[0] = -1.0
        assert kkt_residual(p, x, z, np.zeros(0))[2] == 1.0

    def test_result_properties(self):
        p = build_sequential(biped_scenario(4))
        res = solve(p)
        assert res.converged and res.status == "Converged"
        assert len(res.stats) >= 1
        assert res.stats[-1].kkt <= 1e-6


def _check_against_oracle(p, exact):
    """Assemble p's KKTSystem twice at random points and check the matrix
    it reads out, its curvature and its factorization against a dense
    assembly from qpm.hessian_parts and a dense solve. Returns the
    KKTSystem."""
    ineq, eq = p.compiled_ineq(), p.compiled_eq()
    kkt = KKTSystem(p)
    rng = np.random.default_rng(7)
    for _ in range(2):  # the second assembly overwrites the first
        x = rng.normal(size=p.n)
        z = rng.uniform(0.1, 10.0, size=p.n_ineq)
        sigma = z / rng.uniform(0.1, 10.0, size=p.n_ineq)
        y = rng.normal(size=p.n_eq)
        J_i, J_e = ineq.jacobian(x), eq.jacobian(x)
        kkt.assemble(-2.0 * z, sigma, J_i, -2.0 * y, J_e, exact=exact)
    A_i, A_e = ineq.to_csr(J_i).toarray(), eq.to_csr(J_e).toarray()
    K = p.compiled_objective().H.toarray()
    for fn, c in ((p.ineq, -2.0 * z), (p.eq, -2.0 * y)):
        K = K + dense_curvature(fn, c, convexify=not exact)
    K = K + A_i.T @ (sigma[:, None] * A_i)
    dx = rng.normal(size=p.n)
    dKd = dx @ (K @ dx)
    assert abs(kkt.curvature(dx) - dKd) <= 1e-12 * np.abs(K).max() * (dx @ dx)
    assert np.abs(kkt.hessian().toarray() - K).max() <= 1e-12 * np.abs(K).max()
    if p.n_eq:
        K = np.block([[K, A_e.T], [A_e, -KKTSystem.gamma * np.eye(p.n_eq)]])
    shift = np.zeros(K.shape[0])
    shift[: p.n] = 1.0
    rhs = rng.normal(size=K.shape[0])
    for delta in (1e-4, 1e-2):  # the second as after a rejected factorization
        Kd = K + np.diag(delta * shift)
        ref = np.linalg.solve(Kd, rhs)
        sol = kkt.factor(delta).solve(rhs)
        assert np.linalg.norm(sol - ref) <= 1e-8 * np.linalg.norm(ref)
    return kkt


class TestKKTSystem:
    @pytest.mark.parametrize("build, exact, standing", [
        # the convexified cases keep their ids from before the exact mode
        pytest.param(build, exact, False, id=build.__name__ + ("-exact" if exact else ""))
        for exact in (False, True) for build in (build_sequential, build_simultaneous)
    ] + [
        # a sequential instance without an arrow: empty W and C blocks
        pytest.param(build_sequential, exact, True,
                     id="build_sequential-standing" + ("-exact" if exact else ""))
        for exact in (False, True)
    ])
    def test_matches_sparse_oracle(self, build, exact, standing):
        if standing:
            scn = make_standing_scenario(T=6)
        else:
            scn = rescale_horizon(load_scenario("scenarios/step_stones.json"), 12)
        state = initialize_references(scn)
        p = build(scn.momentum_scenario(state.h_bar, state.lambda_bar))
        if not p.n_eq:
            # the step_stones instance uses the W and C blocks, the standing one none
            assert bool(p.layout.arrow_indices.size) != standing
        _check_against_oracle(p, exact)

    @pytest.mark.parametrize("exact", [False, True], ids=["convexified", "exact"])
    def test_flight_and_three_contacts(self, exact):
        """Simultaneous, on a schedule with a step without contact and a
        step with three: the band is 3 S + 11 for the S = 3 samples of
        the widest step, at every horizon, and the factorization solves the
        matrix."""
        p = build_simultaneous(flight_and_hand_scenario())
        active = active_phases(p)
        assert () in active and max(map(len, active)) == 3
        kkt = _check_against_oracle(p, exact)
        assert kkt.band.bw == 3 * 3 + 11
        assert KKTSystem(build_simultaneous(flight_and_hand_scenario(T=40))).band.bw == 20

    @pytest.mark.parametrize("case", ["step_stones-seq", "standing", "step_stones-sim", "flight"])
    def test_symbolic_pass_matches_searched_union(self, case):
        """The pattern and slots equal those of the plain construction:
        the sorted union of every source's keys, each searched in it."""
        if case == "flight":
            p = build_simultaneous(flight_and_hand_scenario())
        else:
            scn = (make_standing_scenario(T=6) if case == "standing"
                   else rescale_horizon(load_scenario("scenarios/step_stones.json"), 12))
            state = initialize_references(scn)
            build = build_simultaneous if case.endswith("sim") else build_sequential
            p = build(scn.momentum_scenario(state.h_bar, state.lambda_bar))
        if not p.n_eq:
            assert bool(p.layout.arrow_indices.size) == (case != "standing")
        ineq, eq = p.compiled_ineq(), p.compiled_eq()
        n, N = p.n, p.n + p.n_eq
        H = sp.tril(p.compiled_objective().H).tocoo()
        lengths = np.diff(ineq.indptr)
        p1, p2 = qpm.row_pairs(ineq.indptr)
        eq_rows = n + np.repeat(np.arange(p.n_eq), np.diff(eq.indptr))
        # the Q and P entry lists of each family, taken from the one support
        # as the nonzero entries of each part
        curv = []
        for fn in (ineq, eq):
            r, i, j, q, p_ = fn.curvature_entries()
            for part, v in zip("QP", (q, p_)):
                nz = v != 0.0
                curv.append((fn, part, (r[nz], i[nz], j[nz], v[nz])))
        keys = {
            "obj": H.row.astype(np.int64) * N + H.col,
            "pairs": ineq.indices[p1] * N + ineq.indices[p2],
            "diag": np.arange(n) * (N + 1),
            "ae": eq_rows * N + eq.indices,
            "eq_diag": np.arange(n, N) * (N + 1),
        }
        for part in "QP":
            keys[part] = np.concatenate([i.astype(np.int64) * N + j
                                         for _, pt, (_, i, j, _) in curv if pt == part])
        # every inequality Q/P entry lies in the A_I^T A_I pair pattern
        for fn, _, (_, i, j, _) in curv:
            if fn is ineq:
                assert np.isin(i.astype(np.int64) * N + j, keys["pairs"]).all()
        pattern = np.unique(np.concatenate(list(keys.values())))
        slot = {k: np.searchsorted(pattern, v) for k, v in keys.items()}
        S = pattern.size
        kkt = KKTSystem(p)
        # the primal block's slots come first; the rest hold A_E and -gamma I
        n_k = kkt._k_row.size
        assert np.array_equal(kkt._k_row.astype(np.int64) * N + kkt._k_col, pattern[:n_k])
        assert (pattern[n_k:] >= n * N).all() and kkt._const.size == S
        const = np.bincount(slot["obj"], H.data, minlength=S)
        const[slot["eq_diag"]] -= KKTSystem.gamma
        assert np.array_equal(kkt._const, const)
        assert np.array_equal(kkt._diag, slot["diag"])
        assert np.array_equal(kkt._ae_slot, slot["ae"])
        G = {}
        for part in "QP":
            entries = [(r + (ineq.m if fn is eq else 0), v)
                       for fn, pt, (r, _, _, v) in curv if pt == part]
            r, v = (np.concatenate(a) for a in zip(*entries))
            G[part] = sp.csr_matrix((v, (slot[part], r)), shape=(S, ineq.m + eq.m))
            assert (kkt._G[part] != G[part]).nnz == 0
        # G_Q and G_P differ in values only
        for a in ("indices", "indptr"):
            assert np.shares_memory(getattr(kkt._G["Q"], a), getattr(kkt._G["P"], a))
        # each slot sums its terms shorter rows first, rows of one length in
        # index order, at most one term per row
        r = np.repeat(np.arange(ineq.m), lengths)[kkt._AtA.indices]
        rank = lengths[r] * ineq.m + r
        slot_of = np.repeat(np.arange(S), np.diff(kkt._AtA.indptr))
        assert ((np.diff(rank) > 0) | (np.diff(slot_of) > 0)).all()
        rng = np.random.default_rng(3)
        x = rng.normal(size=n)
        c_i, c_e = rng.normal(size=ineq.m), rng.normal(size=eq.m)
        sigma = rng.uniform(0.1, 10.0, size=ineq.m)
        J_i, J_e = ineq.jacobian(x), eq.jacobian(x)
        pair_row = np.repeat(np.arange(ineq.m), lengths)[p1]
        AtA = np.bincount(slot["pairs"], sigma[pair_row] * J_i[p1] * J_i[p2], minlength=S)
        c = np.concatenate([c_i, c_e])
        for exact in (True, False):
            cq, cp = (c, -c) if exact else (np.maximum(c, 0.0), np.maximum(-c, 0.0))
            ref = const + G["Q"] @ cq + G["P"] @ cp + AtA
            ref[slot["ae"]] = J_e
            kkt.assemble(c_i, sigma, J_i, c_e, J_e, exact=exact)
            assert np.abs(kkt._v - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_sequential_order_is_band_then_arrow(self):
        """Sequential: the variables outside the arrow in index order, then
        the arrow."""
        for scn in (stepping_scenario(20), biped_scenario(10)):
            p = build_sequential(scn)
            band = KKTSystem(p).band
            arrow = p.layout.arrow_indices
            rest = np.setdiff1d(np.arange(p.n), arrow)
            assert np.array_equal(band.order, np.concatenate([rest, arrow]))
            assert band.n_arrow == arrow.size

    def test_simultaneous_order_groups_each_step(self):
        """Simultaneous: step after step, each step in its coupling order:
        k_t, the (p, tau) half of every wrench, r_t and l_t; the k dynamics
        rows, the f half of every wrench; the r rows, the l rows."""
        for scn in (stepping_scenario(20), flight_and_hand_scenario()):
            p = build_simultaneous(scn)
            T, state, base, active = scn.T, state_bases(p), contact_bases(p), active_phases(p)
            expected = []
            for t in range(T + 1):  # step T holds h_T alone
                h = list(range(state[t], state[t] + 9)) if t else []
                bases = [base[i, t] for i in active[t]] if t < T else []
                rows = list(range(p.n + 9 * t, p.n + 9 * t + 9)) if t < T else []
                expected += h[6:] + [b + k for b in bases for k in range(3, 6)] + h[:6]
                expected += rows[6:] + [b + k for b in bases for k in range(3)] + rows[:6]
            assert KKTSystem(p).band.order.tolist() == expected

    def test_step_seq_objective(self):
        # step_stones cut at T=49 (instance 0 of perfbench's step-seq
        # workload), pinned to the objective this solve reaches with the
        # Newton matrix assembled from the sparse convexified_lagrangian_hessian
        with open("scenarios/step_stones.json") as f:
            data = json.load(f)
        data["T"] = 49
        data["phases"] = [ph for ph in data["phases"] if ph["sigma"] < 49]
        for ph in data["phases"]:
            ph["epsilon"] = min(ph["epsilon"], 49)
        scn = scenario_from_dict(data, name="step_stones")
        state = initialize_references(scn)
        p = build_sequential(scn.momentum_scenario(state.h_bar, state.lambda_bar))
        res = solve_ipm(p, scn.solver)
        assert res.converged
        assert res.objective == pytest.approx(57.939665012061596, rel=1e-6)
