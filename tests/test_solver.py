import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse as sp

from test_transcription import biped_scenario, foot_surface, stepping_scenario

from kinomo import qpm, solver, transcription
from kinomo.contact import (
    ContactPhase,
    ContactWrenchCom,
    com_to_cop,
    cop_wrench_feasibility,
)
from kinomo.dynamics import MomentumState, RobotConstants
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
    solve_sqp_dense,
)
from kinomo.transcription import (
    MomentumScenario,
    NlpProblem,
    TrackingWeights,
    build_sequential,
    build_simultaneous,
    convexified_lagrangian_hessian,
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
    rows = [k for k, m in enumerate(p.ineq_meta) if m[2] == "friction"]
    return NlpProblem(
        p.layout, p.objective, qpm.select_rows(p.ineq, rows), p.eq, p.h, p.f, p.kappa,
        p.scenario, [p.ineq_meta[k] for k in rows], [],
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
        for t in range(scn.T):
            for i in scn.active_at(t):
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
        "build, max_iter", [(build_simultaneous, 1), (build_sequential, 10)]
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


def _step_stones_problem(build, T=None):
    scn = load_scenario("scenarios/step_stones.json")
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
        # the exact sequential K fails the Cholesky late in this solve
        res = solve_ipm(_step_stones_problem(build_sequential, T=200))
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
            ineq.jacobian(x0).toarray(),
            ineq.value(x0),
            np.zeros((0, p.n)),
            np.zeros(0),
        )
        for backend in ("ipm", "sqp_dense"):
            res = solve(p, SolverOptions(backend=backend, kkt_tol=1e-10, max_iter=300))
            assert np.abs(res.x - d_ref).max() < 1e-8, backend


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


def _unpacked(band, blocks):
    """The matrix held in a linalg.BandStorage, as a dense array in the
    problem's own variable order."""
    N = band.order.size
    D = np.zeros((N, N))
    if band.n_arrow is None:
        (ab,) = blocks
        mid = 2 * band.bw
        for d in range(-band.bw, band.bw + 1):  # d = i - j
            j = np.arange(max(0, -d), min(N, N - d))
            D[j + d, j] = ab[mid + d, j]
    else:
        ab, W, C = blocks
        nb = ab.shape[1]
        for d in range(ab.shape[0]):
            j = np.arange(nb - d)
            D[j + d, j] = D[j, j + d] = ab[d, j]
        D[:nb, nb:] = W
        D[nb:, :nb] = W.T
        D[nb:, nb:] = C
    out = np.empty_like(D)
    out[np.ix_(band.order, band.order)] = D
    return out


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
        ineq = p.compiled_ineq()
        eq = p.compiled_eq() if p.n_eq else None
        if eq is None:
            # the step_stones instance uses the W and C blocks, the standing one none
            assert bool(p.layout.arrow_indices.size) != standing
        kkt = KKTSystem(p, ineq, eq)
        rng = np.random.default_rng(7)
        for _ in range(2):  # the second assembly overwrites the first
            x = rng.normal(size=p.n)
            z = rng.uniform(0.1, 10.0, size=p.n_ineq)
            sigma = z / rng.uniform(0.1, 10.0, size=p.n_ineq)
            y = rng.normal(size=p.n_eq)
            A_i = ineq.jacobian(x)
            A_e = eq.jacobian(x) if eq else None
            kkt.assemble(-2.0 * z, sigma, A_i.data, -2.0 * y, A_e.data if eq else None,
                         exact=exact)
        if exact:
            K = p.compiled_objective().H + ineq.hessian_combo(-2.0 * z, convexify=False)
            if eq is not None:
                K = K + eq.hessian_combo(-2.0 * y, convexify=False)
        else:
            K = convexified_lagrangian_hessian(p, x, (-2.0 * z, -2.0 * y))
        K = K + A_i.T @ sp.diags(sigma) @ A_i
        dx = rng.normal(size=p.n)
        dKd = dx @ (K @ dx)
        assert abs(kkt.curvature(dx) - dKd) <= 1e-12 * abs(K).max() * (dx @ dx)
        if eq is not None:
            K = sp.bmat([[K, A_e.T], [A_e, -KKTSystem.gamma * sp.eye(p.n_eq)]])
        K = K.toarray()
        shift = np.zeros(K.shape[0])
        shift[: p.n] = 1.0
        rhs = rng.normal(size=K.shape[0])
        for delta in (1e-4, 1e-2):  # the second as after a rejected factorization
            Kd = K + np.diag(delta * shift)
            packed = _unpacked(kkt.band, kkt.pack(delta))
            assert np.abs(packed - Kd).max() <= 1e-12 * np.abs(Kd).max()
            ref = np.linalg.solve(Kd, rhs)
            sol = kkt.factor(delta).solve(rhs)
            assert np.linalg.norm(sol - ref) <= 1e-8 * np.linalg.norm(ref)

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
