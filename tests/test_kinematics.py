import numpy as np
import pytest

from kinomo import kinematics
from kinomo.kinematics import (
    KinematicModel,
    KinematicRefs,
    KinematicWeights,
    Link,
    biped_standing_configuration,
    centroidal_momentum_matrix,
    default_biped,
    effector_positions,
    forward_kinematics,
    momentum_jacobian,
    momentum_state,
    point_jacobian,
    solve_kinematic_subproblem,
)
from kinomo.planner import KINEMATIC_WEIGHTS, initialize_references
from kinomo.scenario import make_stepping_scenario

MODEL = default_biped()
Q_STAND = biped_standing_configuration(MODEL)


def fd_link_motion(model, q, qdot, eps=1e-6):
    """Finite-difference link CoM velocities and angular velocities."""
    Rp, _, cp, _ = forward_kinematics(model, q + eps * qdot)
    Rm, _, cm, _ = forward_kinematics(model, q - eps * qdot)
    R, _, _, _ = forward_kinematics(model, q)
    cdot = (cp - cm) / (2 * eps)
    omega = np.empty((model.dof, 3))
    for i in range(model.dof):
        W = (Rp[i] - Rm[i]) / (2 * eps) @ R[i].T
        omega[i] = np.array([W[2, 1], W[0, 2], W[1, 0]])
    return cdot, omega


def fd_momentum_jacobian(model, q, qdot, eps=1e-6):
    """Central finite differences of momentum_state in q and in qdot,
    (..., 9, n) each, with all 2n probes of a row in one batch."""
    n = model.dof
    step = eps * np.eye(n)

    def columns(q_probe, qdot_probe):
        h = momentum_state(model, *np.broadcast_arrays(q_probe, qdot_probe))
        return np.swapaxes(h[..., :n, :] - h[..., n:, :], -1, -2) / (2 * eps)

    q, qdot = q[..., None, :], qdot[..., None, :]
    plus_minus = np.concatenate([step, -step])
    return columns(q + plus_minus, qdot), columns(q, qdot + plus_minus)


def branched_model():
    """Revolute root with two branches: a prismatic joint on a tilted axis
    carrying a revolute link, and a revolute link on a second axis. Every
    body has an off-axis CoM and a full inertia tensor."""
    rng = np.random.default_rng(23)

    def inertia(m):
        A = rng.normal(size=(3, 3))
        return m * (A @ A.T * 0.01 + 0.01 * np.eye(3))

    tilt = np.array([1.0, 1.0, 0.5]) / 1.5
    links = [
        Link("root", -1, "revolute", [0.0, 0.0, 1.0], [0.1, -0.2, 0.3], 2.0,
             [0.05, 0.02, -0.01], inertia(2.0)),
        Link("slide", 0, "prismatic", tilt, [0.2, 0.0, 0.1], 1.0,
             [0.0, 0.1, 0.05], inertia(1.0)),
        Link("wrist", 1, "revolute", [0.0, 1.0, 0.0], [0.0, 0.0, -0.15], 0.7,
             [0.1, 0.0, -0.05], inertia(0.7)),
        Link("arm", 0, "revolute", [1.0, 0.0, 0.0], [-0.1, 0.25, 0.0], 1.2,
             [0.0, -0.08, 0.12], inertia(1.2)),
    ]
    return KinematicModel(tuple(links), {"tip": (2, np.array([0.0, 0.0, -0.1]))})


class TestModel:
    def test_total_mass(self):
        assert MODEL.total_mass == pytest.approx(30.0)

    def test_structure(self):
        assert MODEL.dof == 16
        assert set(MODEL.effectors) == {"l_foot", "r_foot"}

    def test_standing_feet_on_ground(self):
        eff = effector_positions(MODEL, Q_STAND)
        assert np.allclose(eff["l_foot"], [0.0, 0.09, 0.0], atol=1e-12)
        assert np.allclose(eff["r_foot"], [0.0, -0.09, 0.0], atol=1e-12)

    def test_base_translation_moves_everything(self):
        d = np.array([0.3, -0.2, 0.1])
        q2 = Q_STAND.copy()
        q2[:3] += d
        _, _, _, c1 = forward_kinematics(MODEL, Q_STAND)
        _, _, _, c2 = forward_kinematics(MODEL, q2)
        assert np.allclose(c2, c1 + d)
        e1 = effector_positions(MODEL, Q_STAND)
        e2 = effector_positions(MODEL, q2)
        for k in e1:
            assert np.allclose(e2[k], e1[k] + d)

    def test_symmetric_com(self):
        _, _, _, x_com = forward_kinematics(MODEL, Q_STAND)
        # lateral symmetry is exact; the bent knees pull the CoM slightly back
        assert abs(x_com[1]) < 1e-12
        assert abs(x_com[0]) < 0.03
        assert 0.0 < x_com[2] < Q_STAND[2] + 0.2


class TestMomentum:
    def test_pure_translation(self):
        v = np.array([0.4, -0.1, 0.2])
        qdot = np.zeros(MODEL.dof)
        qdot[:3] = v
        l, k = np.split(momentum_state(MODEL, Q_STAND, qdot)[3:], 2)
        assert np.allclose(l, MODEL.total_mass * v, atol=1e-12)
        assert np.allclose(k, 0.0, atol=1e-12)

    def test_matches_finite_difference_link_motion(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            q = Q_STAND + rng.normal(size=MODEL.dof) * 0.3
            qdot = rng.normal(size=MODEL.dof)
            l, k = np.split(momentum_state(MODEL, q, qdot)[3:], 2)
            cdot, omega = fd_link_motion(MODEL, q, qdot)
            R, _, coms, x_com = forward_kinematics(MODEL, q)
            l_ref = np.zeros(3)
            k_ref = np.zeros(3)
            for i, ln in enumerate(MODEL.links):
                l_ref += ln.mass * cdot[i]
                k_ref += R[i] @ ln.inertia @ R[i].T @ omega[i]
                k_ref += ln.mass * np.cross(coms[i] - x_com, cdot[i])
            assert np.allclose(l, l_ref, atol=1e-6)
            assert np.allclose(k, k_ref, atol=1e-6)

    def test_momentum_matrix_linearity(self):
        rng = np.random.default_rng(7)
        q = Q_STAND + rng.normal(size=MODEL.dof) * 0.2
        H = centroidal_momentum_matrix(MODEL, q)
        assert H.shape == (6, MODEL.dof)
        for _ in range(10):
            qdot = rng.normal(size=MODEL.dof)
            assert np.allclose(H @ qdot, momentum_state(MODEL, q, qdot)[3:], atol=1e-10)

    def test_momentum_jacobian_vs_fd(self):
        # every column of both blocks, over a batch of steps
        rng = np.random.default_rng(11)
        q = Q_STAND + rng.normal(size=(12, MODEL.dof)) * 0.3
        qdot = rng.normal(size=(12, MODEL.dof))
        dq, dqd = momentum_jacobian(MODEL, q, qdot)
        fd_q, fd_qdot = fd_momentum_jacobian(MODEL, q, qdot)
        assert np.allclose(dq, fd_q, rtol=0.0, atol=1e-6)
        assert np.allclose(dqd, fd_qdot, rtol=0.0, atol=1e-6)

    def test_momentum_jacobian_prismatic_below_revolute(self):
        # the biped's prismatic joints all sit at the root, where their
        # axes never turn; here one rides on a revolute joint
        model = branched_model()
        rng = np.random.default_rng(29)
        q = rng.normal(size=(6, model.dof))
        qdot = rng.normal(size=(6, model.dof))
        dq, dqd = momentum_jacobian(model, q, qdot)
        fd_q, fd_qdot = fd_momentum_jacobian(model, q, qdot)
        assert np.allclose(dq, fd_q, rtol=0.0, atol=1e-6)
        assert np.allclose(dqd, fd_qdot, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("model", [MODEL, branched_model()], ids=["biped", "branched"])
    def test_momentum_jacobian_com_rows(self, model):
        # dx_com/dq is the mass-weighted Jacobian of the link CoMs, and the
        # CoM does not depend on the velocities
        rng = np.random.default_rng(31)
        q = rng.normal(size=model.dof) * 0.3
        dq, dqd = momentum_jacobian(model, q, rng.normal(size=model.dof))
        J = sum(ln.mass * point_jacobian(model, q, i, ln.com)
                for i, ln in enumerate(model.links))
        assert np.allclose(dq[:3], J / model.total_mass, rtol=0.0, atol=1e-12)
        assert np.all(dqd[:3] == 0.0)

    def test_point_jacobian_vs_fd(self):
        rng = np.random.default_rng(13)
        q = Q_STAND + rng.normal(size=MODEL.dof) * 0.3
        idx, off = MODEL.effectors["r_foot"]
        J = point_jacobian(MODEL, q, idx, off)
        eps = 1e-7
        for j in range(MODEL.dof):
            e = np.zeros(MODEL.dof)
            e[j] = eps
            xp = effector_positions(MODEL, q + e)["r_foot"]
            xm = effector_positions(MODEL, q - e)["r_foot"]
            assert np.allclose(J[:, j], (xp - xm) / (2 * eps), atol=1e-6)


@pytest.mark.parametrize("shapes", [
    ((22, 16, 3), (22, 16, 3)), ((22, 1, 3), (22, 16, 3)), ((16, 3), (3,)), ((4, 1, 3), (3, 3)),
])
def test_cross_is_numpy_cross(shapes):
    rng = np.random.default_rng(3)
    a, b = (rng.normal(size=s) for s in shapes)
    a[..., 0] = -0.0  # the sign of a zero product too
    assert kinematics._cross(a, b).tobytes() == np.cross(a, b).tobytes()


class TestBatched:
    """Every kinematics function on a batch equals its row-by-row calls."""

    rng = np.random.default_rng(17)
    Q = Q_STAND + rng.normal(size=(8, MODEL.dof)) * 0.3
    QDOT = rng.normal(size=(8, MODEL.dof))

    def assert_rows(self, batched, rows, atol=1e-12):
        assert batched.shape == (len(rows),) + rows[0].shape
        assert np.allclose(batched, np.array(rows), rtol=0.0, atol=atol)

    def test_forward_kinematics(self):
        batched = forward_kinematics(MODEL, self.Q)
        rows = [forward_kinematics(MODEL, q) for q in self.Q]
        for i, out in enumerate(batched):
            self.assert_rows(out, [r[i] for r in rows])

    def test_effector_positions(self):
        batched = effector_positions(MODEL, self.Q)
        for name in MODEL.effectors:
            self.assert_rows(batched[name], [effector_positions(MODEL, q)[name] for q in self.Q])

    def test_momentum(self):
        self.assert_rows(
            momentum_state(MODEL, self.Q, self.QDOT),
            [momentum_state(MODEL, q, qd) for q, qd in zip(self.Q, self.QDOT)],
        )
        self.assert_rows(
            centroidal_momentum_matrix(MODEL, self.Q),
            [centroidal_momentum_matrix(MODEL, q) for q in self.Q],
        )

    def test_jacobians(self):
        dq, dqd = momentum_jacobian(MODEL, self.Q, self.QDOT)
        rows = [momentum_jacobian(MODEL, q, qd) for q, qd in zip(self.Q, self.QDOT)]
        self.assert_rows(dq, [r[0] for r in rows])
        self.assert_rows(dqd, [r[1] for r in rows])
        idx, off = MODEL.effectors["l_foot"]
        self.assert_rows(
            point_jacobian(MODEL, self.Q, idx, off),
            [point_jacobian(MODEL, q, idx, off) for q in self.Q],
        )

    def test_first_pass_cost_pinned(self):
        # the cost of the planner's first kinematic pass on the benchmark's
        # one-step instance, as computed before the kinematics were batched
        scn = make_stepping_scenario(T=21)
        state = initialize_references(scn)
        refs = KinematicRefs(state.h_bar, state.c_bar, scn.q0.copy())
        traj, cost = solve_kinematic_subproblem(
            scn.model, refs, scn.delta, KINEMATIC_WEIGHTS, scn.q0, max_iter=10
        )
        assert cost == pytest.approx(0.7810224205592, rel=1e-8)
        assert traj.trials == 45


def standing_refs(T, model=MODEL, q0=Q_STAND):
    h0 = momentum_state(model, q0, np.zeros(model.dof))
    eff = effector_positions(model, q0)
    return KinematicRefs(
        h_ref=np.tile(h0, (T + 1, 1)),
        effector_ref={k: np.tile(v, (T + 1, 1)) for k, v in eff.items()},
        posture_ref=q0.copy(),
    )


class TestSubproblem:
    def test_standing_is_fixed_point(self):
        T = 6
        traj, cost = solve_kinematic_subproblem(
            MODEL, standing_refs(T), 0.1, KinematicWeights(), Q_STAND, max_iter=10
        )
        assert traj.converged
        assert np.abs(traj.q - Q_STAND).max() < 1e-3
        assert cost < 1e-6

    def test_iteration_cap_is_not_convergence(self):
        # one Gauss-Newton step towards a moved foot target cannot meet the
        # stopping rule, so the capped solve must not report convergence
        T = 6
        refs = standing_refs(T)
        refs.effector_ref["r_foot"][3:] += np.array([0.06, 0.0, 0.0])
        traj, _ = solve_kinematic_subproblem(
            MODEL, refs, 0.1, KinematicWeights(), Q_STAND, max_iter=1
        )
        assert not traj.converged
        assert 1 <= traj.trials <= 25  # one line search

    def test_tracks_effector_target(self):
        T = 8
        refs = standing_refs(T)
        shift = np.array([0.06, 0.0, 0.0])
        refs.effector_ref["r_foot"][4:] += shift
        w = KinematicWeights(momentum=np.ones(9) * 0.1, effector=50.0)
        traj, _ = solve_kinematic_subproblem(MODEL, refs, 0.1, w, Q_STAND, max_iter=40)
        foot = effector_positions(MODEL, traj.q[T])["r_foot"]
        assert np.linalg.norm(foot - (np.array([0.0, -0.09, 0.0]) + shift)) < 5e-3

    def test_tracks_com_reference(self):
        T = 8
        delta = 0.1
        refs = standing_refs(T)
        # consistent reference: CoM ramp in y with the matching linear momentum
        vy = 0.03 / (T * delta)
        refs.h_ref[:, 1] += np.linspace(0.0, 0.03, T + 1)
        refs.h_ref[:T, 4] += MODEL.total_mass * vy
        w = KinematicWeights(momentum=np.concatenate([np.ones(3) * 50, np.ones(6)]))
        traj, _ = solve_kinematic_subproblem(MODEL, refs, delta, w, Q_STAND, max_iter=40)
        _, _, _, x_com = forward_kinematics(MODEL, traj.q[T])
        assert abs(x_com[1] - 0.03) < 5e-3

    @pytest.mark.parametrize("T", [1, 4])
    def test_normal_equations_match_cost(self, T):
        # gradient and Gauss-Newton matrix over q_1..q_T against finite
        # differences of the residuals, the extrapolated last step included
        rng = np.random.default_rng(5)
        n, delta = MODEL.dof, 0.1
        refs = standing_refs(T)
        refs = KinematicRefs(refs.h_ref, refs.effector_ref, np.tile(Q_STAND, (T + 1, 1)))
        w = KinematicWeights()
        q = Q_STAND + rng.normal(size=(T + 1, n)) * 0.05

        def residuals(dx):
            qx = q.copy()
            qx[1:] += dx.reshape(T, n)
            return kinematics._residuals(MODEL, qx, delta, refs, w)[0]

        r, kin = kinematics._residuals(MODEL, q, delta, refs, w)
        grad, diag, off = kinematics._normal_equations(
            r, *kinematics._jacobians(MODEL, q, *kin, delta, refs, w)
        )
        eps = 1e-6
        fd = np.array([
            (0.5 * np.sum(residuals(e) ** 2) - 0.5 * np.sum(residuals(-e) ** 2)) / (2 * eps)
            for e in np.eye(T * n) * eps
        ])
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-6)
        d = rng.normal(size=(T, n))
        Jd = (residuals(eps * d) - residuals(-eps * d)) / (2 * eps)
        quad = sum(d[b] @ diag[b] @ d[b] for b in range(T))
        quad += 2 * sum(d[b + 1] @ off[b] @ d[b] for b in range(T - 1))
        assert quad == pytest.approx(np.sum(Jd ** 2), rel=1e-6)

    @pytest.mark.parametrize("T", [1, 4])
    def test_gauss_newton_matrix_at_least_posture(self, T):
        # every step's own Jacobian holds the rows sqrt(posture) I, so the
        # Gauss-Newton matrix is at least posture I and its Cholesky needs
        # no damping
        rng = np.random.default_rng(T)
        n, delta, w = MODEL.dof, 0.1, KINEMATIC_WEIGHTS
        refs = standing_refs(T)
        refs.effector_ref["r_foot"][1:] += np.array([0.06, 0.0, 0.0])
        q = Q_STAND + rng.normal(size=(T + 1, n)) * 0.3
        r, kin = kinematics._residuals(MODEL, q, delta, refs, w)
        _, diag, off = kinematics._normal_equations(
            r, *kinematics._jacobians(MODEL, q, *kin, delta, refs, w)
        )
        G = np.zeros((T * n, T * n))
        for b in range(T):
            G[b * n:(b + 1) * n, b * n:(b + 1) * n] = diag[b]
        for b in range(T - 1):
            G[(b + 1) * n:(b + 2) * n, b * n:(b + 1) * n] = off[b]
            G[b * n:(b + 1) * n, (b + 1) * n:(b + 2) * n] = off[b].T
        lam = np.linalg.eigvalsh(G)
        assert lam[0] >= w.posture - 1e-12 * np.abs(lam).max()

    @pytest.mark.parametrize("bad", [{"posture": 0.0}, {"posture": -0.01}, {"effector": -1.0}])
    def test_weights_rejected(self, bad):
        with pytest.raises(ValueError):
            KinematicWeights(**bad)

    @pytest.mark.parametrize("T", [1, 2, 3, 21])
    def test_normal_equations_match_scatter_reference(self, T):
        # the slice adds sum each block's terms in the order np.add.at
        # would, so the result is the same to the last bit
        rng = np.random.default_rng(T)
        n, m = 5, 7
        r = rng.normal(size=(T + 1, m))
        Jt, Jn = rng.normal(size=(2, T + 1, m, n))
        lo = np.arange(-1, T)
        lo[T] = T - 2
        hi, keep = lo + 1, lo >= 0
        J_lo = np.concatenate([Jt[:T], -Jn[T:]])
        J_hi = np.concatenate([Jn[:T], Jt[T:] + 2 * Jn[T:]])
        J_loT, J_hiT = np.swapaxes(J_lo, 1, 2), np.swapaxes(J_hi, 1, 2)
        grad, diag, off = np.zeros((T, n)), np.zeros((T, n, n)), np.zeros((T - 1, n, n))
        np.add.at(grad, hi, (J_hiT @ r[..., None])[..., 0])
        np.add.at(grad, lo[keep], (J_loT[keep] @ r[keep][..., None])[..., 0])
        np.add.at(diag, hi, J_hiT @ J_hi)
        np.add.at(diag, lo[keep], J_loT[keep] @ J_lo[keep])
        np.add.at(off, lo[keep], J_hiT[keep] @ J_lo[keep])
        got = kinematics._normal_equations(r, Jt, Jn)
        for a, b in zip(got, (grad.ravel(), diag, off)):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_each_configuration_evaluated_once(self, monkeypatch):
        # one forward-kinematics pass for the start and one per line-search
        # trial: the accepted trial's pass serves the next Jacobians
        T = 8
        refs = standing_refs(T)
        refs.effector_ref["r_foot"][4:] += np.array([0.06, 0.0, 0.0])
        calls = []

        def counting(model, q):
            calls.append(q)
            return forward_kinematics(model, q)

        monkeypatch.setattr(kinematics, "forward_kinematics", counting)
        traj, _ = solve_kinematic_subproblem(
            MODEL, refs, 0.1, KinematicWeights(), Q_STAND, max_iter=5
        )
        assert len(calls) == traj.trials + 1

    def test_one_band_storage_per_solve(self, monkeypatch):
        bands, build = [], kinematics.block_tridiag_band

        def recording(N, b):
            bands.append(build(N, b))
            return bands[-1]

        monkeypatch.setattr(kinematics, "block_tridiag_band", recording)
        refs = standing_refs(6)
        refs.effector_ref["r_foot"][3:] += np.array([0.06, 0.0, 0.0])
        solve_kinematic_subproblem(MODEL, refs, 0.1, KinematicWeights(), Q_STAND, max_iter=4)
        assert len(bands) == 1

    def test_no_decrease_ends_the_solve(self, monkeypatch):
        # a NaN step lowers no cost: one line search of 25 trials, then
        # the solve ends unconverged at its start
        class NanStep:
            def __init__(self, diag, off, band):
                pass

            def solve(self, b):
                return np.full_like(b, np.nan)

        monkeypatch.setattr(kinematics, "BlockTridiagCholesky", NanStep)
        T = 6
        refs = standing_refs(T)
        refs.effector_ref["r_foot"][3:] += np.array([0.06, 0.0, 0.0])
        traj, cost = solve_kinematic_subproblem(
            MODEL, refs, 0.1, KinematicWeights(), Q_STAND, max_iter=10
        )
        assert traj.trials == 25
        assert not traj.converged
        assert traj.q.tobytes() == np.tile(Q_STAND, (T + 1, 1)).tobytes()
        r, _ = kinematics._residuals(MODEL, traj.q, 0.1, refs, KinematicWeights())
        assert cost == 0.5 * float(np.sum(r * r))

    def test_qdot_convention(self):
        traj = kinematics.JointTrajectory(np.arange(12.0).reshape(4, 3), 0.5)
        qd = traj.qdot
        assert qd.shape == (4, 3)
        assert np.allclose(qd[0], (traj.q[1] - traj.q[0]) / 0.5)
        assert np.allclose(qd[3], qd[2])
        # step T's velocity is the residuals' rule, to the last bit
        q = traj.q
        assert np.array_equal(qd[3], ((2 * q[3:] - q[2:3]) - q[3:])[0] / 0.5)

    def test_joint_limit_penalty_active(self):
        q = Q_STAND.copy()
        q[8] = 3.0  # beyond the 2.5 rad soft limit
        r, outside = kinematics._limit_residual(MODEL, q, 4.0)
        assert r[8] == pytest.approx(2.0 * 0.5)
        assert np.count_nonzero(r) == 1
        assert np.flatnonzero(outside).tolist() == [8]
