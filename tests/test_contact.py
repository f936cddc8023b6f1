import numpy as np
import pytest

from kinomo import contact, qpm

rng = np.random.default_rng(7)


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


def random_rotation(r):
    A = r.normal(size=(3, 3))
    Q, _ = np.linalg.qr(A)
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def flat_surface(mu=0.7, p_max=(0.1, 0.05), tau_max=0.3, t=(0, 0, 0)):
    return contact.ContactSurface(np.eye(3), np.array(t, dtype=float), mu, np.array(p_max), tau_max)


def random_surface(r):
    return contact.ContactSurface(
        random_rotation(r), r.normal(size=3), 0.5 + r.uniform(), r.uniform(0.02, 0.2, size=2), r.uniform(0, 0.5)
    )


class TestSurfaceValidation:
    def test_bad_rotation(self):
        with pytest.raises(ValueError):
            contact.ContactSurface(2 * np.eye(3), np.zeros(3), 0.5, np.ones(2), 0.1)

    def test_reflection_rejected(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            contact.ContactSurface(R, np.zeros(3), 0.5, np.ones(2), 0.1)

    def test_negative_mu(self):
        with pytest.raises(ValueError):
            contact.ContactSurface(np.eye(3), np.zeros(3), -0.5, np.ones(2), 0.1)


class TestTransforms:
    def test_identity_surface(self):
        s = flat_surface()
        w = contact.ContactWrenchCop(np.array([1.0, 2, 3]), np.array([0.02, -0.01]), 0.1)
        f, tau, p = contact.local_to_world(w, s)
        assert np.allclose(f, w.f_hat)
        assert np.allclose(tau, [0, 0, 0.1])
        assert np.allclose(p, [0.02, -0.01, 0.0])

    def test_rotation_90(self):
        s = contact.ContactSurface(rot_z(np.pi / 2), np.zeros(3), 0.5, np.ones(2), 0.1)
        w = contact.ContactWrenchCop(np.array([1.0, 0, 0]), np.zeros(2), 0.0)
        f, _, _ = contact.local_to_world(w, s)
        assert np.allclose(f, [0, 1.0, 0], atol=1e-12)

    def test_world_local_round_trip(self):
        # f = R f_hat, tau = R_z tau_hat, p = R_xy p_hat + t, written out
        # over the columns of R, and read back through R's orthonormality
        for seed in range(20):
            r = np.random.default_rng(seed)
            s = random_surface(r)
            w = contact.ContactWrenchCop(r.normal(size=3), r.normal(size=2), r.normal())
            f, tau, p = contact.local_to_world(w, s)
            R = s.R
            assert np.allclose(f, sum(w.f_hat[k] * R[:, k] for k in range(3)), atol=1e-12)
            assert np.allclose(tau, w.tau_hat * R[:, 2], atol=1e-12)
            assert np.allclose(p, w.p_hat[0] * R[:, 0] + w.p_hat[1] * R[:, 1] + s.t,
                               atol=1e-12)
            assert np.allclose(R.T @ f, w.f_hat, atol=1e-12)
            assert np.allclose(R[:, :2].T @ (p - s.t), w.p_hat, atol=1e-12)
            assert np.isclose(R[:, 2] @ tau, w.tau_hat, atol=1e-12)


class TestCopComConversion:
    def test_spec_example(self):
        s = flat_surface()
        w = contact.ContactWrenchCop(np.array([0, 0, 10.0]), np.array([0.1, 0]), 0.0)
        com = contact.cop_to_com(w, s, np.array([0, 0, 1.0]))
        assert np.allclose(com.f, [0, 0, 10.0])
        assert np.allclose(com.kappa, [0, -1.0, 0])
        back = contact.com_to_cop(com, s, np.array([0, 0, 1.0]))
        assert np.allclose(back.p_hat, [0.1, 0], atol=1e-10)
        assert np.isclose(back.tau_hat, 0.0, atol=1e-10)

    def test_contact_at_com(self):
        s = flat_surface()
        w = contact.ContactWrenchCop(np.array([1.0, -2.0, 5.0]), np.zeros(2), 0.0)
        com = contact.cop_to_com(w, s, np.zeros(3))
        assert np.allclose(com.kappa, 0.0)

    def test_zero_force_kappa_is_tau(self):
        s = flat_surface()
        w = contact.ContactWrenchCop(np.zeros(3), np.array([0.05, 0.02]), 0.2)
        com = contact.cop_to_com(w, s, rng.normal(size=3))
        assert np.allclose(com.kappa, [0, 0, 0.2])

    def test_static_balance_above_contact(self):
        M = 30.0
        s = flat_surface(t=(0.2, -0.1, 0.0))
        r = np.array([0.2, -0.1, 0.9])
        com = contact.ContactWrenchCom(np.array([0, 0, M * 9.81]), np.zeros(3))
        w = contact.com_to_cop(com, s, r)
        assert np.allclose(w.p_hat, 0.0, atol=1e-12)
        assert np.isclose(w.tau_hat, 0.0, atol=1e-12)

    def test_projector_example(self):
        # R = I, f = (0,0,10): S^T [R^T f]_x S = [[0,-10],[10,0]]
        f = np.array([0, 0, 10.0])
        fx = np.array([[0, -f[2], f[1]], [f[2], 0, -f[0]], [-f[1], f[0], 0]])
        proj = fx[:2, :2]
        assert np.allclose(proj, [[0, -10], [10, 0]])
        assert np.allclose(np.linalg.inv(proj), 0.1 * np.array([[0, 1], [-1, 0]]))

    def test_round_trip_both_ways(self):
        for seed in range(200):
            r = np.random.default_rng(seed)
            s = random_surface(r)
            f_hat = r.normal(size=3)
            f_hat[2] = abs(f_hat[2]) + 0.1
            w = contact.ContactWrenchCop(f_hat, r.normal(size=2), r.normal())
            rr = r.normal(size=3)
            back = contact.com_to_cop(contact.cop_to_com(w, s, rr), s, rr)
            scale = max(1.0, np.linalg.norm(f_hat))
            assert np.allclose(back.f_hat, w.f_hat, atol=1e-9 * scale)
            assert np.allclose(back.p_hat, w.p_hat, atol=1e-9 * max(1, np.abs(w.p_hat).max()))
            assert np.isclose(back.tau_hat, w.tau_hat, atol=1e-9 * max(1, abs(w.tau_hat)))
            com = contact.cop_to_com(w, s, rr)
            again = contact.cop_to_com(contact.com_to_cop(com, s, rr), s, rr)
            assert np.allclose(again.f, com.f, atol=1e-9 * scale)
            assert np.allclose(again.kappa, com.kappa, atol=1e-9 * max(1, np.linalg.norm(com.kappa)))

    def test_nonpositive_normal_force(self):
        s = flat_surface()
        with pytest.raises(contact.NormalForceNonPositive):
            contact.com_to_cop(contact.ContactWrenchCom(np.array([1.0, 0, -1.0]), np.zeros(3)), s, np.zeros(3))


def make_phase(surface=None, c_hat=(0.0, 0.0)):
    return contact.ContactPhase("foot", 0, 10, surface or flat_surface(mu=0.5), np.array(c_hat))


class TestAffineConstraints:
    def test_feasible_point(self):
        g = contact.build_affine_contact_constraints(make_phase())
        x = np.array([0, 0, 1.0, 0, 0, 0])
        assert np.all(g(x) >= 0)

    def test_friction_violation(self):
        g = contact.build_affine_contact_constraints(make_phase())
        x = np.array([1.0, 0, 1.0, 0, 0, 0])  # f_x > mu f_z with mu = 0.5
        assert g(x).min() < 0

    def test_random_sign_agreement(self):
        phase = make_phase(c_hat=(0.01, -0.02))
        s = phase.surface
        g = contact.build_affine_contact_constraints(phase)
        for _ in range(1000):
            x = rng.normal(size=6)
            f, p, tau = x[:3], x[3:5], x[5]
            direct = np.array(
                [
                    s.tau_max - tau,
                    tau + s.tau_max,
                    s.p_max[0] - (p[0] - phase.c_hat[0]),
                    (p[0] - phase.c_hat[0]) + s.p_max[0],
                    s.p_max[1] - (p[1] - phase.c_hat[1]),
                    (p[1] - phase.c_hat[1]) + s.p_max[1],
                    s.mu * f[2] - f[0],
                    f[0] + s.mu * f[2],
                    s.mu * f[2] - f[1],
                    f[1] + s.mu * f[2],
                ]
            )
            assert np.allclose(g(x), direct, atol=1e-12)

    def test_point_contact_degenerate(self):
        surf = flat_surface(p_max=(0.0, 0.0), tau_max=0.0)
        g = contact.build_affine_contact_constraints(make_phase(surface=surf))
        x = np.array([0, 0, 1.0, 0.0, 0.0, 0.0])
        assert np.all(g(x) >= 0)
        x[3] = 0.01
        assert g(x).min() < 0


def identity_maps(n=9):
    # decision vector x = (r, f, kappa)
    sel = np.zeros((3, n))
    r_map = qpm.make_affine(np.hstack([np.eye(3), np.zeros((3, 6))]), np.zeros(3))
    f_map = qpm.make_affine(np.hstack([np.zeros((3, 3)), np.eye(3), np.zeros((3, 3))]), np.zeros(3))
    k_map = qpm.make_affine(np.hstack([np.zeros((3, 6)), np.eye(3)]), np.zeros(3))
    return r_map, f_map, k_map


class TestCopQpmConstraints:
    def test_static_balance_feasible(self):
        phase = make_phase()
        rows = contact.build_cop_qpm_constraints([phase], *identity_maps())
        x = np.concatenate([[0, 0, 0.9], [0, 0, 100.0], [0, 0, 0]])
        assert np.all(rows(x) >= -1e-12)

    def test_violation_detected(self):
        phase = make_phase()
        s = phase.surface
        rows = contact.build_cop_qpm_constraints([phase], *identity_maps())
        # CoP pushed outside the support in +x via a CoM torque
        w = contact.ContactWrenchCop(np.array([0, 0, 10.0]), np.array([0.2, 0.0]), 0.0)
        com = contact.cop_to_com(w, s, np.array([0, 0, 1.0]))
        x = np.concatenate([[0, 0, 1.0], com.f, com.kappa])
        vals = rows(x)
        assert vals[0] < 0  # upper x row
        assert np.all(vals[1:] >= -1e-12)

    def test_equivalence_sweep(self):
        for seed in range(40):
            r = np.random.default_rng(seed)
            surf = random_surface(r)
            phase = contact.ContactPhase("f", 0, 5, surf, r.uniform(-0.02, 0.02, size=2))
            rows = contact.build_cop_qpm_constraints([phase], *identity_maps())
            assert qpm.min_quad_eigenvalue(rows) >= -qpm.PSD_TOL
            for _ in range(25):
                f_hat = r.normal(size=3)
                f_hat[2] = abs(f_hat[2]) + 1e-3
                w = contact.ContactWrenchCop(f_hat, r.normal(size=2) * 0.3, 0.0)
                rr = r.normal(size=3)
                com = contact.cop_to_com(w, surf, rr)
                x = np.concatenate([rr, com.f, com.kappa])
                vals = rows(x)
                fz = f_hat[2]
                cop_slack = np.array(
                    [
                        surf.p_max[0] - (w.p_hat[0] - phase.c_hat[0]),
                        surf.p_max[1] - (w.p_hat[1] - phase.c_hat[1]),
                        (w.p_hat[0] - phase.c_hat[0]) + surf.p_max[0],
                        (w.p_hat[1] - phase.c_hat[1]) + surf.p_max[1],
                    ]
                )
                # multiplied-through rows equal fz * the CoP-space slack
                assert np.allclose(vals, fz * cop_slack, atol=1e-9 * max(1, np.abs(vals).max()))

    def test_frame_covariance(self):
        r = np.random.default_rng(3)
        surf = flat_surface()
        phase = make_phase(surface=surf, c_hat=(0.01, 0.0))
        rows = contact.build_cop_qpm_constraints([phase], *identity_maps())
        W = random_rotation(r)
        surf2 = contact.ContactSurface(W @ surf.R, W @ surf.t, surf.mu, surf.p_max, surf.tau_max)
        phase2 = contact.ContactPhase("foot", 0, 10, surf2, phase.c_hat)
        rows2 = contact.build_cop_qpm_constraints([phase2], *identity_maps())
        for _ in range(50):
            rr, f, k = r.normal(size=3), r.normal(size=3), r.normal(size=3)
            x1 = np.concatenate([rr, f, k])
            x2 = np.concatenate([W @ rr, W @ f, W @ k])
            assert np.allclose(rows(x1), rows2(x2), atol=1e-10 * max(1, np.abs(rows(x1)).max()))

    def test_rejects_nonaffine_maps(self):
        phase = make_phase()
        cross = qpm.compose_affine(
            qpm.cross_product_qpm(), qpm.make_affine(np.random.default_rng(0).normal(size=(6, 9)), np.zeros(6))
        )
        r_map, f_map, k_map = identity_maps()
        with pytest.raises(ValueError):
            contact.build_cop_qpm_constraints([phase], r_map, cross, k_map)
