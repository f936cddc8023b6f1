import numpy as np
import pytest

from kinomo import contact, dynamics, qpm, transcription
from kinomo.contact import ContactPhase, ContactSurface, ContactWrenchCom, com_to_cop
from kinomo.dynamics import MomentumState, RobotConstants
from kinomo.transcription import (
    MomentumScenario,
    TrackingWeights,
    build_sequential,
    build_simultaneous,
    convexified_lagrangian_hessian,
    extract_sequential,
    extract_simultaneous,
    hessian_pattern,
    jacobian_pattern,
    map_sequential_point,
)

M_TOTAL = 30.0
G = 9.81


def foot_surface(y):
    return ContactSurface(np.eye(3), np.array([0.0, y, 0.0]), 0.7, np.array([0.1, 0.05]), 0.3)


def biped_scenario(T, delta=0.1, gravity=-G):
    phases = (
        ContactPhase("l_foot", 0, T, foot_surface(0.09)),
        ContactPhase("r_foot", 0, T, foot_surface(-0.09)),
    )
    consts = RobotConstants(M=M_TOTAL, g=np.array([0.0, 0.0, gravity]))
    h0 = MomentumState(np.array([0.0, 0.0, 0.5]), np.zeros(3), np.zeros(3))
    h_ref = np.tile(h0.as_vector(), (T + 1, 1))
    fz = -M_TOTAL * gravity / 2.0
    force_ref = {i: np.tile([0.0, 0.0, fz], (T, 1)) for i in range(2)}
    return MomentumScenario(phases, T, delta, h0, consts, h_ref, force_ref)


def stepping_scenario(T=12, delta=0.1):
    """Left foot down throughout; right foot breaks contact mid-horizon."""
    phases = (
        ContactPhase("l_foot", 0, T, foot_surface(0.09)),
        ContactPhase("r_foot", 0, 5, foot_surface(-0.09)),
        ContactPhase("r_foot", 7, T, foot_surface(-0.09), c_hat=np.array([0.02, 0.0])),
    )
    consts = RobotConstants(M=M_TOTAL)
    h0 = MomentumState(np.array([0.0, 0.0, 0.5]), np.zeros(3), np.zeros(3))
    h_ref = np.tile(h0.as_vector(), (T + 1, 1))
    force_ref = {i: np.zeros((T, 3)) for i in range(3)}
    return MomentumScenario(phases, T, delta, h0, consts, h_ref, force_ref)


def positive_stance_point(p, rng=None, noise=0.5):
    """A point whose forces keep a large positive normal component."""
    scn = p.scenario
    x = np.zeros(p.n)
    f0 = np.array([0.0, 0.0, 100.0])
    for i, ph in enumerate(scn.phases):
        for t in range(ph.sigma, ph.epsilon):
            b = p.layout.contact_base[(i, t)]
            k = t - ph.sigma
            x[b : b + 3] = (k + 1) * (k + 2) / 2.0 * f0
    if rng is not None:
        x = x + noise * rng.normal(size=p.n)
    return x


def static_stance_point(p):
    """phi/psi of the balanced double-support stance (CoP at foot centers)."""
    scn = p.scenario
    x = np.zeros(p.n)
    f0 = np.array([0.0, 0.0, M_TOTAL * G / 2.0])
    for i, ph in enumerate(scn.phases):
        kappa = np.cross(ph.surface.t - scn.h0.r, f0)
        for t in range(ph.sigma, ph.epsilon):
            b = p.layout.contact_base[(i, t)]
            s = (t + 1) * (t + 2) / 2.0
            x[b : b + 3] = s * f0
            x[b + 3 : b + 6] = s * kappa
    return x


class TestLayouts:
    def test_sequential_count(self):
        p = build_sequential(biped_scenario(10))
        assert p.n == 120
        assert p.n_eq == 0
        assert p.layout.arrow_indices.size == 0

    def test_simultaneous_count(self):
        p = build_simultaneous(biped_scenario(10))
        assert p.n == 210
        assert p.n_eq == 90

    def test_stepping_counts_and_arrow(self):
        scn = stepping_scenario()
        p = build_sequential(scn)
        assert p.n == 6 * (12 + 5 + 5)
        # phase 1 ends at 5 < T: its steps 3, 4 are frozen boundary (arrow)
        arrow = set(p.layout.arrow_indices.tolist())
        for t in (3, 4):
            b = p.layout.contact_base[(1, t)]
            assert set(range(b, b + 6)) <= arrow
        assert len(arrow) == 12

    def test_blocks_partition(self):
        for p in (build_sequential(biped_scenario(4)), build_simultaneous(biped_scenario(4))):
            assert p.layout.var_block.size == p.n
            band = p.layout.band_order()
            assert band.size + p.layout.arrow_indices.size == p.n


class TestSequentialMaps:
    def test_h_map_matches_dynamics(self):
        rng = np.random.default_rng(0)
        for scn in (biped_scenario(8), stepping_scenario()):
            p = build_sequential(scn)
            x = rng.normal(size=p.n) * 5
            sol = extract_sequential(p, x)
            for t in range(scn.T + 1):
                ref = dynamics.sequential_state_map(
                    sol["integrals"], scn.h0, scn.consts, scn.delta, t
                ).as_vector()
                assert np.allclose(sol["h"][t], ref, atol=1e-12)

    def test_objective_value_at_static_stance(self):
        scn = biped_scenario(6)
        p = build_sequential(scn)
        x = static_stance_point(p)
        obj = p.compiled_objective()
        sol = extract_sequential(p, x)
        # the stance holds h exactly at the reference; forces match refs too
        assert np.allclose(sol["h"], scn.h_ref, atol=1e-9)
        assert obj.value(x) == pytest.approx(0.0, abs=1e-8)

    def test_static_stance_feasible(self):
        scn = biped_scenario(6)
        p = build_sequential(scn)
        x = static_stance_point(p)
        g = p.compiled_ineq().value(x)
        assert g.min() > 1.0  # comfortably interior

    def test_cop_rows_match_direct_computation(self):
        rng = np.random.default_rng(1)
        scn = biped_scenario(5)
        p = build_sequential(scn)
        x = static_stance_point(p) + rng.normal(size=p.n)
        sol = extract_sequential(p, x)
        vals = p.compiled_ineq().value(x)
        for fn_idx, (t, i, fam) in enumerate(p.ineq_meta):
            if fam != "cop":
                continue
            ph = scn.phases[i]
            f = sol["forces"][i][t]
            kappa = sol["kappas"][i][t]
            r = sol["h"][t][:3]
            s = ph.surface
            fz = s.R_z @ f
            m = s.R_xy.T @ (kappa + np.cross(r - s.t, f))
            pmx, pmy = s.p_max
            cx, cy = ph.c_hat
            expected = np.array(
                [
                    (pmx + cx) * fz + m[1],
                    (pmy + cy) * fz - m[0],
                    (pmx - cx) * fz - m[1],
                    (pmy - cy) * fz + m[0],
                ]
            )
            base = sum(f.output_dim for f in p.ineq_affine)
            off = base + sum(
                p.ineq_qpm[k].output_dim
                for k in range(fn_idx - len(p.ineq_affine))
            )
            got = vals[off : off + 4]
            assert np.allclose(got, expected, atol=1e-8), (t, i)

    def test_violated_cop_detected(self):
        scn = biped_scenario(4)
        p = build_sequential(scn)
        x = static_stance_point(p)
        # push the CoP of contact 0 outside the support rectangle in y
        sol = extract_sequential(p, x)
        for t in range(scn.T):
            b = p.layout.contact_base[(0, t)]
            s = (t + 1) * (t + 2) / 2.0
            x[b + 3] -= s * 0.08 * M_TOTAL * G / 2.0  # psi_x shifts CoP in y
        vals = p.compiled_ineq().value(x)
        assert vals.min() < 0
        # confirm with the conversion oracle
        sol = extract_sequential(p, x)
        w = com_to_cop(
            ContactWrenchCom(sol["forces"][0][2], sol["kappas"][0][2]),
            scn.phases[0].surface,
            sol["h"][2][:3],
        )
        assert abs(w.p_hat[1]) > 0.05


class TestSimultaneous:
    def test_zero_point_optimal_without_gravity(self):
        scn = biped_scenario(5, gravity=0.0)
        scn.h0 = MomentumState(np.zeros(3), np.zeros(3), np.zeros(3))
        scn.h_ref = np.zeros((6, 9))
        scn.force_ref = {0: np.zeros((5, 3)), 1: np.zeros((5, 3))}
        for build in (build_simultaneous, build_sequential):
            p = build(scn)
            x = np.zeros(p.n)
            assert p.compiled_objective().value(x) == pytest.approx(0.0)
            assert np.allclose(p.compiled_objective().gradient(x), 0.0)
            if p.n_eq:
                assert np.abs(p.compiled_eq().value(x)).max() < 1e-12
            assert p.compiled_ineq().value(x).min() >= 0.0

    def test_equality_residual_zero_at_rollout_consistent_point(self):
        rng = np.random.default_rng(2)
        for scn in (biped_scenario(8), stepping_scenario()):
            p_seq = build_sequential(scn)
            p_sim = build_simultaneous(scn)
            x_seq = positive_stance_point(p_seq, rng)
            x_sim = map_sequential_point(p_seq, p_sim, x_seq)
            res = p_sim.compiled_eq().value(x_sim)
            assert np.abs(res).max() < 1e-9

    def test_extracted_torques_agree_at_lifted_point(self):
        rng = np.random.default_rng(9)
        scn = stepping_scenario()
        p_seq = build_sequential(scn)
        p_sim = build_simultaneous(scn)
        x_seq = positive_stance_point(p_seq, rng)
        seq = extract_sequential(p_seq, x_seq)
        sim = extract_simultaneous(p_sim, map_sequential_point(p_seq, p_sim, x_seq))
        for i in range(len(scn.phases)):
            assert np.allclose(sim["kappas"][i], seq["kappas"][i], rtol=0.0, atol=1e-9)

    def test_cross_formulation_objective_agreement(self):
        rng = np.random.default_rng(3)
        scn = biped_scenario(7)
        p_seq = build_sequential(scn)
        p_sim = build_simultaneous(scn)
        x_seq = static_stance_point(p_seq) + rng.normal(size=p_seq.n)
        x_sim = map_sequential_point(p_seq, p_sim, x_seq)
        a = p_seq.compiled_objective().value(x_seq)
        b = p_sim.compiled_objective().value(x_sim)
        assert a == pytest.approx(b, rel=1e-10)

    def test_contact_rows_match_direct(self):
        rng = np.random.default_rng(4)
        scn = biped_scenario(4)
        p = build_simultaneous(scn)
        x = rng.normal(size=p.n)
        vals = p.compiled_ineq().value(x)
        sol = extract_simultaneous(p, x)
        k = 0
        for (t, i, fam) in p.ineq_meta:
            ph = scn.phases[i]
            w = sol["wrenches"][(i, t)]
            direct = contact.build_affine_contact_constraints(ph)(
                np.concatenate([w.f_hat, w.p_hat, [w.tau_hat]])
            )
            assert np.allclose(vals[k : k + 10], direct, atol=1e-12)
            k += 10


class TestPatterns:
    def test_sequential_row_blocks(self):
        p = build_sequential(biped_scenario(5))
        pat = jacobian_pattern(p)
        k = 0
        for fn, (t, i, fam) in zip(p.ineq_affine + p.ineq_qpm, p.ineq_meta):
            for _ in range(fn.output_dim):
                blocks, arrow = pat.rows[k]
                assert set(blocks) <= {t, t - 1, t - 2}
                assert not arrow
                k += 1

    def test_stepping_rows_touch_arrow(self):
        p = build_sequential(stepping_scenario())
        pat = jacobian_pattern(p)
        # CoP rows of late steps involve frozen boundary variables
        k = 0
        saw_arrow = False
        for fn, (t, i, fam) in zip(p.ineq_affine + p.ineq_qpm, p.ineq_meta):
            for _ in range(fn.output_dim):
                blocks, arrow = pat.rows[k]
                assert set(blocks) <= {t, t - 1, t - 2}
                if arrow:
                    saw_arrow = True
                k += 1
        assert saw_arrow

    def test_simultaneous_dynamics_row_blocks(self):
        p = build_simultaneous(biped_scenario(5))
        pat = jacobian_pattern(p)
        k = 0
        for fn, (t, i, fam) in zip(p.eq_constraints, p.eq_meta):
            for _ in range(fn.output_dim):
                blocks, arrow = pat.rows[k]
                assert set(blocks) <= {t, t + 1}
                assert t + 1 in blocks
                assert not arrow
                k += 1

    def test_hessian_bandwidth(self):
        for p in (build_sequential(biped_scenario(5)), build_simultaneous(biped_scenario(5))):
            for a, b in hessian_pattern(p).hessian_pairs:
                assert abs(a - b) <= 2

    def test_hessian_block_count_linear(self):
        counts = [
            len(hessian_pattern(build_sequential(biped_scenario(T))).hessian_pairs)
            for T in (10, 20, 30)
        ]
        assert counts[2] - counts[1] == counts[1] - counts[0]

    def test_pattern_matches_dense_jacobian(self):
        rng = np.random.default_rng(5)
        for build in (build_sequential, build_simultaneous):
            p = build(biped_scenario(4))
            x = rng.normal(size=p.n)
            pat = jacobian_pattern(p)
            k = 0
            for fn in p.eq_constraints + p.ineq_affine + p.ineq_qpm:
                J = qpm.gradient(fn, x)
                for r in range(fn.output_dim):
                    cols = np.flatnonzero(np.abs(J[r]) > 1e-14)
                    blocks, arrow = pat.rows[k]
                    seen = set(int(b) for b in p.layout.var_block[cols])
                    assert seen <= (set(blocks) | ({-1} if arrow else set()))
                    k += 1


class TestCompiled:
    def test_values_and_jacobians_match_symbolic(self):
        rng = np.random.default_rng(6)
        for build in (build_sequential, build_simultaneous):
            p = build(stepping_scenario(10) if build is build_sequential else biped_scenario(6))
            comp = p.compiled_ineq()
            fns = list(p.ineq_affine) + list(p.ineq_qpm)
            for _ in range(3):
                x = rng.normal(size=p.n) * 3
                ref = np.concatenate([qpm.evaluate(fn, x) for fn in fns])
                assert np.allclose(comp.value(x), ref, atol=1e-10)
                Jref = np.vstack([qpm.gradient(fn, x) for fn in fns])
                assert np.allclose(comp.jacobian(x).toarray(), Jref, atol=1e-10)

    def test_no_stored_zero_in_jacobians(self):
        rng = np.random.default_rng(10)
        for build in (build_sequential, build_simultaneous):
            p = build(stepping_scenario())
            x = rng.normal(size=p.n)
            fns = [p.compiled_ineq()] + ([p.compiled_eq()] if p.n_eq else [])
            for fn in fns:
                assert np.all(fn.jacobian(x).data != 0)
            assert np.all(p.compiled_objective().H.data != 0)

    def test_objective_matches_symbolic(self):
        rng = np.random.default_rng(7)
        for build in (build_sequential, build_simultaneous):
            p = build(biped_scenario(6))
            obj = p.compiled_objective()
            r, y, w = p.objective
            for _ in range(3):
                x = rng.normal(size=p.n) * 2
                ref = float(np.sum(w * (qpm.evaluate(r, x) - y) ** 2))
                assert obj.value(x) == pytest.approx(ref, rel=1e-12, abs=1e-9)
                eps = 1e-6
                g = obj.gradient(x)
                for j in rng.choice(p.n, size=5, replace=False):
                    e = np.zeros(p.n)
                    e[j] = eps
                    fd = (obj.value(x + e) - obj.value(x - e)) / (2 * eps)
                    assert g[j] == pytest.approx(fd, abs=1e-4)

    def test_jacobian_matches_fd(self):
        rng = np.random.default_rng(8)
        p = build_sequential(biped_scenario(5))
        comp = p.compiled_ineq()
        x = rng.normal(size=p.n)
        J = comp.jacobian(x).toarray()
        eps = 1e-6
        for j in rng.choice(p.n, size=8, replace=False):
            e = np.zeros(p.n)
            e[j] = eps
            fd = (comp.value(x + e) - comp.value(x - e)) / (2 * eps)
            assert np.allclose(J[:, j], fd, atol=1e-5)

    def test_objective_hessian_psd(self):
        for build in (build_sequential, build_simultaneous):
            p = build(biped_scenario(5))
            H = p.compiled_objective().H.toarray()
            assert np.linalg.eigvalsh(H)[0] >= -1e-10


class TestConvexifiedHessian:
    def test_zero_duals(self):
        p = build_sequential(biped_scenario(4))
        H = convexified_lagrangian_hessian(p, np.zeros(p.n), (np.zeros(p.n_ineq), np.zeros(0)))
        assert np.allclose(H.toarray(), p.compiled_objective().H.toarray())

    def test_single_positive_dual_keeps_q_part(self):
        p = build_sequential(biped_scenario(4))
        # pick a CoP row at t >= 2, where the CoM position is non-constant
        # and the row carries genuine Q/P parts
        n_aff = sum(f.output_dim for f in p.ineq_affine)
        fn_pos = next(
            k for k, (t, i, fam) in enumerate(
                m for m in p.ineq_meta if m[2] == "cop"
            ) if t >= 2
        )
        c = np.zeros(p.n_ineq)
        c[n_aff + 4 * fn_pos] = 1.0
        H = convexified_lagrangian_hessian(p, np.zeros(p.n), (c, np.zeros(0)))
        row = p.ineq_qpm[fn_pos].rows[0]
        assert row.plus is not None
        Q = np.zeros((p.n, p.n))
        Q[np.ix_(row.plus.idx, row.plus.idx)] = row.plus.mat
        assert np.allclose(
            (H - p.compiled_objective().H).toarray(), Q, atol=1e-12
        )

    def test_random_duals_psd_and_dominant(self):
        rng = np.random.default_rng(9)
        p = build_sequential(biped_scenario(4))
        comp = p.compiled_ineq()
        for _ in range(5):
            c = rng.normal(size=p.n_ineq)
            Ht = convexified_lagrangian_hessian(p, np.zeros(p.n), (c, np.zeros(0)))
            gap = (Ht - p.compiled_objective().H) - comp.hessian_combo(c, convexify=False)
            lam = np.linalg.eigvalsh((Ht - p.compiled_objective().H).toarray())
            assert lam[0] >= -1e-9
            for _ in range(10):
                z = rng.normal(size=p.n)
                assert z @ (gap @ z) >= -1e-9 * (z @ z)


class TestScenarioValidation:
    def test_phase_beyond_horizon(self):
        with pytest.raises(ValueError):
            scn = biped_scenario(5)
            MomentumScenario(
                (ContactPhase("l", 0, 9, foot_surface(0.0)),),
                5, 0.1, scn.h0, scn.consts, scn.h_ref, {0: np.zeros((5, 3))},
            )

    def test_bad_h_ref_shape(self):
        scn = biped_scenario(5)
        with pytest.raises(ValueError):
            MomentumScenario(scn.phases, 5, 0.1, scn.h0, scn.consts,
                             np.zeros((3, 9)), scn.force_ref)
