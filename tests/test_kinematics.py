import numpy as np
import pytest

from kinomo import kinematics
from kinomo.kinematics import (
    KinematicRefs,
    KinematicWeights,
    biped_standing_configuration,
    centroidal_momentum,
    centroidal_momentum_matrix,
    default_biped,
    effector_positions,
    forward_kinematics,
    momentum_jacobian,
    momentum_state,
    point_jacobian,
    solve_kinematic_subproblem,
)
from kinomo.planner import PlanOptions, initialize_references
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
        l, k = centroidal_momentum(MODEL, Q_STAND, qdot)
        assert np.allclose(l, MODEL.total_mass * v, atol=1e-12)
        assert np.allclose(k, 0.0, atol=1e-12)

    def test_matches_finite_difference_link_motion(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            q = Q_STAND + rng.normal(size=MODEL.dof) * 0.3
            qdot = rng.normal(size=MODEL.dof)
            l, k = centroidal_momentum(MODEL, q, qdot)
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
            l, k = centroidal_momentum(MODEL, q, qdot)
            assert np.allclose(H @ qdot, np.concatenate([l, k]), atol=1e-10)

    def test_momentum_jacobian_vs_fd(self):
        rng = np.random.default_rng(11)
        q = Q_STAND + rng.normal(size=MODEL.dof) * 0.2
        qdot = rng.normal(size=MODEL.dof)
        dq, dqd = momentum_jacobian(MODEL, q, qdot)
        eps = 1e-6
        for j in rng.choice(MODEL.dof, size=6, replace=False):
            e = np.zeros(MODEL.dof)
            e[j] = eps
            fd = (momentum_state(MODEL, q + e, qdot) - momentum_state(MODEL, q - e, qdot)) / (2 * eps)
            assert np.allclose(dq[:, j], fd, atol=1e-4)
            fd = (momentum_state(MODEL, q, qdot + e) - momentum_state(MODEL, q, qdot - e)) / (2 * eps)
            assert np.allclose(dqd[:, j], fd, atol=1e-6)

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
        l, k = centroidal_momentum(MODEL, self.Q, self.QDOT)
        rows = [centroidal_momentum(MODEL, q, qd) for q, qd in zip(self.Q, self.QDOT)]
        self.assert_rows(l, [r[0] for r in rows])
        self.assert_rows(k, [r[1] for r in rows])
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
        self.assert_rows(dq, [r[0] for r in rows], atol=1e-8)
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
        opts = PlanOptions()
        state = initialize_references(scn, opts)
        refs = KinematicRefs(state.h_bar, state.c_bar, scn.q0.copy())
        _, cost = solve_kinematic_subproblem(
            scn.model, refs, scn.T, scn.delta, opts.kinematic_weights, scn.q0, max_iter=10
        )
        assert cost == pytest.approx(0.7810224205592, rel=1e-8)


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
            MODEL, standing_refs(T), T, 0.1, KinematicWeights(), Q_STAND, max_iter=10
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
            MODEL, refs, T, 0.1, KinematicWeights(), Q_STAND, max_iter=1
        )
        assert not traj.converged

    def test_tracks_effector_target(self):
        T = 8
        refs = standing_refs(T)
        shift = np.array([0.06, 0.0, 0.0])
        refs.effector_ref["r_foot"][4:] += shift
        w = KinematicWeights(momentum=np.ones(9) * 0.1, effector=50.0)
        traj, _ = solve_kinematic_subproblem(MODEL, refs, T, 0.1, w, Q_STAND, max_iter=40)
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
        traj, _ = solve_kinematic_subproblem(MODEL, refs, T, delta, w, Q_STAND, max_iter=40)
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
            return kinematics._residuals(MODEL, qx, delta, refs, w, with_jac=False)[0]

        grad, diag, off = kinematics._normal_equations(
            *kinematics._residuals(MODEL, q, delta, refs, w)
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

    def test_qdot_convention(self):
        traj = kinematics.JointTrajectory(np.arange(12.0).reshape(4, 3), 0.5)
        qd = traj.qdot
        assert qd.shape == (4, 3)
        assert np.allclose(qd[0], (traj.q[1] - traj.q[0]) / 0.5)
        assert np.allclose(qd[3], qd[2])

    def test_joint_limit_penalty_active(self):
        q = Q_STAND.copy()
        q[8] = 3.0  # beyond the 2.5 rad soft limit
        r = kinematics._limit_residual(MODEL, q, 4.0)
        assert r[8] == pytest.approx(2.0 * 0.5)
        assert np.count_nonzero(r) == 1
