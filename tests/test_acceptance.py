"""End-to-end acceptance gate: one test per release criterion.

Each test prints a single PASS line with its measured quantity so the
suite output doubles as a release report."""

import statistics
import time

import numpy as np

from test_dynamics import built, rollout_states, with_integrals
from test_qpm import cross6
from test_solver import convex_variant, one_contact_scenario
from test_transcription import biped_scenario

from kinomo import contact, qpm
from kinomo.contact import (
    ContactPhase,
    ContactSurface,
    ContactWrenchCop,
    com_to_cop,
    cop_to_com,
    cop_wrench_feasibility,
)
from kinomo.dynamics import MomentumState, RobotConstants
from kinomo.kinematics import centroidal_momentum_matrix, default_biped, momentum_jacobian
from kinomo.linalg import BlockTridiagCholesky, factorize_banded_arrow
from kinomo.planner import PlanOptions, initialize_references, plan
from kinomo.scenario import (
    load_scenario,
    make_stepping_scenario,
    quaternion_to_matrix,
    rescale_horizon,
)
from kinomo.solver import SolverOptions, _solve_dense_qp, solve, solve_ipm
from kinomo.transcription import build_sequential, build_simultaneous, extract

STAND = "scenarios/stand.json"
STEP = "scenarios/step_stones.json"


def _momentum_problem(scn, build):
    state = initialize_references(scn)
    return build(scn.momentum_scenario(state.h_bar, state.lambda_bar))


def test_criterion_01_cross_product():
    """Q+- cross product: exact reconstruction and PSD certificates."""
    fn = cross6()
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        z = rng.uniform(-1.0, 1.0, size=6)
        worst = max(worst, np.abs(qpm.evaluate(fn, z) - np.cross(z[:3], z[3:])).max())
    assert worst <= 1e-12
    assert qpm.min_quad_eigenvalue(fn) >= -1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS 1: cross-product err {worst:.2e}, min eig ok, {elapsed:.2f}s")


def test_criterion_02_sequential_map_oracle():
    """The sequential builder's state map equals the Euler rollout of the
    second differences of random force integrals."""
    rng = np.random.default_rng(2)
    worst = 0.0
    t0 = time.perf_counter()
    surface = ContactSurface(np.eye(3), np.zeros(3), 0.7, np.array([0.1, 0.05]), 0.3)
    for _ in range(100):
        T = int(rng.integers(3, 51))
        phases = []
        for _ in range(int(rng.integers(1, 4))):
            sigma = int(rng.integers(0, T - 1))
            epsilon = int(rng.integers(sigma + 1, T + 1))
            phases.append(ContactPhase("e", sigma, epsilon, surface))
        phi = {i: rng.normal(size=(ph.epsilon - ph.sigma, 3))
               for i, ph in enumerate(phases)}
        psi = {i: rng.normal(size=(ph.epsilon - ph.sigma, 3))
               for i, ph in enumerate(phases)}
        h0 = MomentumState(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3))
        consts = RobotConstants(M=float(rng.uniform(10, 60)))
        delta = float(rng.uniform(0.01, 0.2))
        p = built(phases, T, h0, delta, consts)
        x = with_integrals(p, phi, psi)
        a, b = extract(p, x)["h"], rollout_states(p, x)
        worst = max(worst, float(np.max(np.abs(a - b) / (1.0 + np.abs(b)))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 5.0
    print(f"PASS 2: state-map vs rollout rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_representation_equivalence():
    """CoP-space and CoM-space feasibility verdicts agree; round trips tight."""
    rng = np.random.default_rng(3)
    checked = 0
    worst_rt = 0.0
    for _ in range(1000):
        q = rng.normal(size=4)
        q[0] += 2.0  # bias toward mild rotations
        R = quaternion_to_matrix(q / np.linalg.norm(q))
        s = ContactSurface(R, rng.normal(size=3), 0.7, np.array([0.1, 0.05]), 0.3)
        phase = ContactPhase("e", 0, 1, s)
        fz = float(rng.uniform(1e-3, 200.0))
        w = ContactWrenchCop(
            np.array([rng.normal(0, 30), rng.normal(0, 30), fz]),
            rng.uniform(-0.2, 0.2, size=2),
            float(rng.normal(0, 0.2)),
        )
        r = rng.normal(size=3)
        com = cop_to_com(w, s, r)
        back = com_to_cop(com, s, r)
        worst_rt = max(
            worst_rt,
            np.abs(back.f_hat - w.f_hat).max(),
            np.abs(back.p_hat - w.p_hat).max(),
            abs(back.tau_hat - w.tau_hat),
        )
        # CoP-box verdicts: affine rows in CoP space vs Q+- rows in CoM space
        g = contact.build_affine_contact_constraints(phase)
        vals_cop = g(np.concatenate([w.f_hat, w.p_hat, [w.tau_hat]]))[2:6]
        r_map = qpm.make_affine(np.zeros((3, 6)), r)
        f_map = qpm.make_affine(np.hstack([np.eye(3), np.zeros((3, 3))]), np.zeros(3))
        k_map = qpm.make_affine(np.hstack([np.zeros((3, 3)), np.eye(3)]), np.zeros(3))
        fn = contact.build_cop_qpm_constraints([phase], r_map, f_map, k_map)
        vals_com = qpm.evaluate(fn, np.concatenate([com.f, com.kappa]))
        # row order: Q+- (ux, uy, lx, ly) vs affine (ux, lx, uy, ly)
        pairs = [(0, 0), (1, 2), (2, 1), (3, 3)]
        for i, j in pairs:
            if abs(vals_cop[j]) < 1e-9 or abs(vals_com[i]) < 1e-9:
                continue  # tie tolerance
            assert (vals_cop[j] > 0) == (vals_com[i] > 0)
            checked += 1
    assert worst_rt <= 1e-9
    print(f"PASS 3: {checked} verdicts agree, round-trip err {worst_rt:.2e}")


def test_criterion_04_variable_accounting():
    """Double-support biped counts: 12T sequential, 21T simultaneous."""
    for T in (10, 100):
        scn = biped_scenario(T)
        assert build_sequential(scn).n == 12 * T
        assert build_simultaneous(scn).n == 21 * T
    print("PASS 4: 12T / 21T variable counts for T in {10, 100}")


def test_criterion_05_solver_correctness():
    """Convex subclass matches a dense reference; tiny instance KKT tight."""
    import dataclasses

    from kinomo.transcription import TrackingWeights

    # single contact: with two feet the affine subclass is non-unique
    # (angular impulse can shift between feet without changing the cost)
    ms = dataclasses.replace(
        one_contact_scenario(T=8), weights=TrackingWeights(force=1.0)
    )
    p = convex_variant(build_sequential(ms))
    obj, ineq = p.compiled_objective(), p.compiled_ineq()
    x0 = np.zeros(p.n)
    d_ref, _, _ = _solve_dense_qp(
        obj.H.toarray(), obj.gradient(x0), ineq.to_csr(ineq.jacobian(x0)).toarray(),
        ineq.value(x0), np.zeros((0, p.n)), np.zeros(0),
    )
    errs = {}
    for backend in ("ipm", "sqp_dense"):
        res = solve(p, SolverOptions(backend=backend, kkt_tol=1e-10, max_iter=300))
        errs[backend] = float(np.abs(res.x - d_ref).max())
        assert errs[backend] <= 1e-8, backend

    tiny = build_sequential(one_contact_scenario())
    res = solve_ipm(tiny, SolverOptions(kkt_tol=1e-8))
    kkt = max(res.kkt)
    assert res.converged and kkt <= 1e-8
    print(
        f"PASS 5: dense-ref err ipm {errs['ipm']:.2e} / sqp {errs['sqp_dense']:.2e}, "
        f"tiny KKT {kkt:.2e}"
    )


def _stepping_problem(T=None):
    scn = load_scenario(STEP)
    if T is not None and T != scn.T:
        scn = rescale_horizon(scn, T)
    state = initialize_references(scn)
    return scn, build_sequential(scn.momentum_scenario(state.h_bar, state.lambda_bar))


def test_criterion_06_desk_stepping():
    """T=100 stepping: KKT <= 1e-6, all contact samples feasible, < 60 s."""
    scn, p = _stepping_problem()
    t0 = time.perf_counter()
    res = solve_ipm(p, scn.solver)
    elapsed = time.perf_counter() - t0
    assert res.converged and max(res.kkt) <= 1e-6
    assert elapsed < 60.0
    sol = extract(p, res.x)
    worst = np.inf
    for t in range(scn.T):
        for i, ph in enumerate(scn.phases):
            if not ph.active(t):
                continue
            w = com_to_cop(
                contact.ContactWrenchCom(sol["forces"][i][t], sol["kappas"][i][t]),
                ph.surface, sol["h"][t, :3],
            )
            verdict = cop_wrench_feasibility(ph, w, tol=1e-6)
            # the sequential form constrains the CoP rectangle and the
            # friction pyramid; the normal-torque bound is not part of
            # its constraint set and is reported separately
            assert verdict["cop"] >= -1e-6, (t, i, verdict)
            assert verdict["friction"] >= -1e-6, (t, i, verdict)
            worst = min(worst, verdict["cop"], verdict["friction"])
    print(
        f"PASS 6: stepping T=100 KKT {max(res.kkt):.2e} in {elapsed:.1f}s, "
        f"{len(res.stats)} iters, min constraint slack {worst:.2e}"
    )


def test_criterion_07_linear_scaling():
    """Median per-iteration time: time(2T)/time(T) <= 2.5 for T up to 400.

    The horizons run in the mirrored order 50, 100, 200, 400, 400, 200,
    100, 50, and each T takes the lower median of the iteration times of
    both its runs, so that a drift in the machine's speed during the sweep
    does not read as scaling."""
    horizons = (50, 100, 200, 400)
    times = {T: [] for T in horizons}
    for T in horizons + horizons[::-1]:
        scn, p = _stepping_problem(T)
        res = solve_ipm(p, SolverOptions(max_iter=30))
        times[T].extend(st.time_ms for st in res.stats)
    medians = {T: statistics.median_low(times[T]) for T in horizons}
    ratios = [medians[2 * T] / medians[T] for T in (50, 100, 200)]
    assert all(r <= 2.5 for r in ratios), (medians, ratios)
    print(
        "PASS 7: per-iter ms "
        + ", ".join(f"T={T}: {medians[T]:.1f}" for T in medians)
        + f"; ratios {['%.2f' % r for r in ratios]}"
    )


def test_criterion_08_cross_formulation():
    """Sequential and simultaneous agree on a T=20 stepping instance."""
    scn = make_stepping_scenario(T=20, max_iter=800)
    state = initialize_references(scn)
    ms = scn.momentum_scenario(state.h_bar, state.lambda_bar)
    p_seq = build_sequential(ms)
    p_sim = build_simultaneous(ms)
    r_seq = solve_ipm(p_seq, scn.solver)
    r_sim = solve_ipm(p_sim, scn.solver)
    assert r_seq.converged and r_sim.converged
    rel = abs(r_seq.objective - r_sim.objective) / (1.0 + abs(r_seq.objective))
    assert rel <= 1e-3
    h_seq = extract(p_seq, r_seq.x)["h"]
    h_sim = extract(p_sim, r_sim.x)["h"]
    dh = float(np.abs(h_seq - h_sim).max())
    assert dh <= 1e-3
    print(f"PASS 8: objective rel diff {rel:.2e}, momentum diff {dh:.2e}")


def test_criterion_09_end_to_end_plan():
    """plan() on the stepping scenario: <= 5 passes, small mismatch, sway."""
    scn = load_scenario(STEP)
    traj, h, forces, report = plan(scn, PlanOptions(max_outer=5))
    assert report["passes"] <= 5
    assert report["mismatch"][-1] <= 1e-2
    assert report["com_y_range_final"] > report["com_y_range_init"]
    print(
        f"PASS 9: {report['passes']} passes, mismatch {report['mismatch'][-1]:.2e}, "
        f"lateral sway {report['com_y_range_final']:.3f} m "
        f"(init {report['com_y_range_init']:.3f} m)"
    )


def test_criterion_10_numerical_hygiene():
    """Analytic gradients vs finite differences; factorizations vs dense."""
    rng = np.random.default_rng(10)
    worst_grad = 0.0
    scn = make_stepping_scenario(T=8)
    state = initialize_references(scn)
    p = build_sequential(scn.momentum_scenario(state.h_bar, state.lambda_bar))
    ineq, obj = p.compiled_ineq(), p.compiled_objective()
    # the functions are quadratic, so a central difference has no truncation
    # error: eps sets only the rounding error, which falls as eps grows
    eps = 1e-3
    for _ in range(60):  # transcription constraint/objective gradients
        x = rng.normal(size=p.n) * 20.0
        J = ineq.to_csr(ineq.jacobian(x)).toarray()
        g = obj.gradient(x)
        for _ in range(3):
            j = int(rng.integers(p.n))
            e = np.zeros(p.n)
            e[j] = eps
            fd = (ineq.value(x + e) - ineq.value(x - e)) / (2 * eps)
            worst_grad = max(worst_grad, float(np.abs(J[:, j] - fd).max()))
            fd_o = (obj.value(x + e) - obj.value(x - e)) / (2 * eps)
            worst_grad = max(worst_grad, abs(g[j] - fd_o) / (1.0 + abs(fd_o)))
    model = default_biped()
    for _ in range(40):  # kinematic momentum Jacobian velocity block
        q = rng.normal(size=model.dof) * 0.3
        qdot = rng.normal(size=model.dof)
        _, dqd = momentum_jacobian(model, q, qdot)
        H = centroidal_momentum_matrix(model, q)
        worst_grad = max(worst_grad, float(np.abs(dqd[3:] - H).max()))
    assert worst_grad <= 1e-5

    worst_fac = 0.0
    for n, bw, na in ((60, 4, 3), (240, 6, 8), (500, 8, 12)):
        A = rng.normal(size=(n, n))
        K = np.eye(n) * (n + 10.0)
        for i in range(n):
            lo = max(0, i - bw)
            K[i, lo : i + 1] += A[i, lo : i + 1]
            K[lo : i + 1, i] += A[i, lo : i + 1]
        K[-na:, :] += rng.normal(size=(na, n)) * 0.3
        K = 0.5 * (K + K.T) + np.eye(n) * n
        b = rng.normal(size=n)
        fac = factorize_banded_arrow(K, np.arange(n - na), np.arange(n - na, n))
        worst_fac = max(worst_fac, float(np.abs(fac.solve(b) - np.linalg.solve(K, b)).max()))
        # block tridiagonal SPD instance of the same dimension
        bs = 10
        diag = []
        off = []
        for i in range(n // bs):
            D = rng.normal(size=(bs, bs))
            diag.append(D @ D.T + np.eye(bs) * bs * 4)
            if i:
                off.append(rng.normal(size=(bs, bs)))
        dense = np.zeros((n // bs * bs,) * 2)
        for i, D in enumerate(diag):
            dense[i * bs : (i + 1) * bs, i * bs : (i + 1) * bs] = D
        for i, B in enumerate(off):
            dense[(i + 1) * bs : (i + 2) * bs, i * bs : (i + 1) * bs] = B
            dense[i * bs : (i + 1) * bs, (i + 1) * bs : (i + 2) * bs] = B.T
        bt = BlockTridiagCholesky(diag, off)
        bb = rng.normal(size=dense.shape[0])
        worst_fac = max(worst_fac, float(np.abs(bt.solve(bb) - np.linalg.solve(dense, bb)).max()))
    assert worst_fac <= 1e-9
    print(f"PASS 10: gradient err {worst_grad:.2e}, factorization err {worst_fac:.2e}")
