import numpy as np
import pytest

from test_dynamics import rollout_states, sample_wrenches

from kinomo import contact, qpm, transcription
from kinomo.contact import ContactPhase, ContactSurface, com_to_cop
from kinomo.dynamics import MomentumState, RobotConstants
from kinomo.solver import KKTSystem
from kinomo.transcription import (
    MomentumScenario,
    TrackingWeights,
    build_sequential,
    build_simultaneous,
    convexified_lagrangian_hessian,
    extract,
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
            ref = rollout_states(p, x)
            assert np.allclose(extract(p, x)["h"], ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_objective_value_at_static_stance(self):
        scn = biped_scenario(6)
        p = build_sequential(scn)
        x = static_stance_point(p)
        obj = p.compiled_objective()
        sol = extract(p, x)
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
        wrenches = sample_wrenches(p, x)
        h = rollout_states(p, x)
        vals = p.compiled_ineq().value(x)
        for k in range(0, p.n_ineq, 4):
            t, i, fam = p.ineq_meta[k]
            if fam != "cop":
                continue
            ph = scn.phases[i]
            f, kappa = wrenches[(i, t)].f, wrenches[(i, t)].kappa
            r = h[t, :3]
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
            got = vals[k : k + 4]
            assert np.allclose(got, expected, atol=1e-8), (t, i)

    def test_violated_cop_detected(self):
        scn = biped_scenario(4)
        p = build_sequential(scn)
        x = static_stance_point(p)
        # push the CoP of contact 0 outside the support rectangle in y
        for t in range(scn.T):
            b = p.layout.contact_base[(0, t)]
            s = (t + 1) * (t + 2) / 2.0
            x[b + 3] -= s * 0.08 * M_TOTAL * G / 2.0  # psi_x shifts CoP in y
        vals = p.compiled_ineq().value(x)
        assert vals.min() < 0
        # confirm with the conversion oracle
        r = rollout_states(p, x)[2, :3]
        w = com_to_cop(sample_wrenches(p, x)[(0, 2)], scn.phases[0].surface, r)
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
        seq = extract(p_seq, x_seq)
        sim = extract(p_sim, map_sequential_point(p_seq, p_sim, x_seq))
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
        sol = extract(p, x)
        for k in range(0, p.n_ineq, 10):
            t, i, fam = p.ineq_meta[k]
            assert fam == "contact"
            ph = scn.phases[i]
            w = sol["wrenches"][(i, t)]
            direct = contact.build_affine_contact_constraints(ph)(
                np.concatenate([w.f_hat, w.p_hat, [w.tau_hat]])
            )
            assert np.allclose(vals[k : k + 10], direct, atol=1e-12)

    def test_extraction_matches_direct(self):
        """h, world forces and torques about the CoM at random x against
        x's slices, the torque written out with np.cross."""
        rng = np.random.default_rng(13)
        scn = stepping_scenario()
        p = build_simultaneous(scn)
        x = rng.normal(size=p.n) * 3
        sol = extract(p, x)
        h = np.vstack([scn.h0.as_vector()] + [
            x[p.layout.state_base[t] : p.layout.state_base[t] + 9] for t in range(1, scn.T + 1)
        ])
        assert np.array_equal(sol["h"], h)
        f = np.zeros((len(scn.phases), scn.T, 3))
        kappa = np.zeros_like(f)
        for (i, t), b in p.layout.contact_base.items():
            s = scn.phases[i].surface
            f[i, t] = s.R @ x[b : b + 3]
            cop = s.R[:, :2] @ x[b + 3 : b + 5] + s.t
            kappa[i, t] = x[b + 5] * s.R[:, 2] + np.cross(cop - h[t, :3], f[i, t])
        for i in range(len(scn.phases)):
            assert np.allclose(sol["forces"][i], f[i], rtol=0, atol=1e-12)
            assert np.allclose(sol["kappas"][i], kappa[i], rtol=0, atol=1e-9)

    def test_dynamics_rows_match_direct(self):
        """Each step's nine dynamics rows at random x against the momentum
        update written out with np.cross."""
        rng = np.random.default_rng(12)
        scn = stepping_scenario()
        p = build_simultaneous(scn)
        M, g, dt = scn.consts.M, scn.consts.g, scn.delta
        for _ in range(3):
            x = rng.normal(size=p.n) * 3
            h = np.vstack([scn.h0.as_vector()] + [
                x[p.layout.state_base[t] : p.layout.state_base[t] + 9] for t in range(1, scn.T + 1)
            ])
            direct = []
            for t in range(scn.T):
                r, l, k = h[t, :3], h[t, 3:6], h[t, 6:]
                f_sum, kappa_sum = np.zeros(3), np.zeros(3)
                for i in p.layout.active[t]:
                    s = scn.phases[i].surface
                    b = p.layout.contact_base[(i, t)]
                    f = s.R @ x[b : b + 3]
                    cop = s.R[:, :2] @ x[b + 3 : b + 5] + s.t
                    f_sum += f
                    kappa_sum += x[b + 5] * s.R[:, 2] + np.cross(cop - r, f)
                direct += [
                    h[t + 1, :3] - r - dt / M * l,
                    h[t + 1, 3:6] - l - dt * (M * g + f_sum),
                    h[t + 1, 6:] - k - dt * kappa_sum,
                ]
            direct = np.concatenate(direct)
            assert np.allclose(p.compiled_eq().value(x), direct, rtol=0, atol=1e-10)
            assert np.allclose(qpm.evaluate(p.eq, x), direct, rtol=0, atol=1e-10)


def row_blocks(p, comp):
    """Per row of a compiled constraint function: the step blocks of its
    columns and whether it touches the arrow block."""
    out = []
    for r in range(comp.m):
        blocks = p.layout.var_block[comp.indices[comp.indptr[r] : comp.indptr[r + 1]]]
        out.append((set(blocks[blocks >= 0].tolist()), bool(np.any(blocks < 0))))
    return out


def hessian_block_pairs(p):
    """Step-block pairs (a, b), a <= b, coupled by an entry of the compiled
    objective Hessian or by a stored Q or P entry; the arrow is block -1."""
    H = p.compiled_objective().H.tocoo()
    ii, jj = [H.row], [H.col]
    for comp in (p.compiled_ineq(), p.compiled_eq()):
        for _, i, j, _ in comp.curvature_entries():
            ii.append(i)
            jj.append(j)
    a = p.layout.var_block[np.concatenate(ii)]
    b = p.layout.var_block[np.concatenate(jj)]
    return set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))


class TestPatterns:
    def test_sequential_row_step_blocks(self):
        p = build_sequential(biped_scenario(5))
        rows = row_blocks(p, p.compiled_ineq())
        assert len(rows) == p.n_ineq == len(p.ineq_meta)
        for (blocks, arrow), (t, i, fam) in zip(rows, p.ineq_meta):
            assert blocks <= {t, t - 1, t - 2}
            assert not arrow

    def test_stepping_rows_touch_arrow(self):
        p = build_sequential(stepping_scenario())
        rows = row_blocks(p, p.compiled_ineq())
        # CoP rows of late steps involve frozen boundary variables
        saw_arrow = False
        for (blocks, arrow), (t, i, fam) in zip(rows, p.ineq_meta):
            assert blocks <= {t, t - 1, t - 2}
            if arrow:
                saw_arrow = True
        assert saw_arrow

    def test_simultaneous_dynamics_row_step_blocks(self):
        p = build_simultaneous(biped_scenario(5))
        rows = row_blocks(p, p.compiled_eq())
        assert len(rows) == p.n_eq == len(p.eq_meta)
        for (blocks, arrow), (t, i, fam) in zip(rows, p.eq_meta):
            assert blocks <= {t, t + 1}
            assert t + 1 in blocks
            assert not arrow

    def test_hessian_bandwidth(self):
        for p in (build_sequential(biped_scenario(5)), build_simultaneous(biped_scenario(5))):
            pairs = hessian_block_pairs(p)
            assert pairs
            for a, b in pairs:
                assert a >= 0 and abs(a - b) <= 2

    def test_hessian_block_count_linear(self):
        counts = [
            len(hessian_block_pairs(build_sequential(biped_scenario(T))))
            for T in (10, 20, 30)
        ]
        assert counts[2] - counts[1] == counts[1] - counts[0]

    def test_pattern_matches_dense_jacobian(self):
        rng = np.random.default_rng(5)
        for build in (build_sequential, build_simultaneous):
            p = build(biped_scenario(4))
            x = rng.normal(size=p.n)
            for comp, fn in ((p.compiled_eq(), p.eq), (p.compiled_ineq(), p.ineq)):
                rows = row_blocks(p, comp)
                J = qpm.gradient(fn, x)
                assert len(rows) == J.shape[0] == comp.m
                for (blocks, arrow), J_r in zip(rows, J):
                    cols = np.flatnonzero(np.abs(J_r) > 1e-14)
                    seen = set(int(b) for b in p.layout.var_block[cols])
                    assert seen <= (blocks | ({-1} if arrow else set()))

    @pytest.mark.parametrize(
        "scenario, horizons", [(stepping_scenario, (20, 40, 80)), (biped_scenario, (10, 30, 60))]
    )
    def test_kkt_band_and_arrow_constant_in_T(self, scenario, horizons):
        """The Newton matrix's band and arrow do not grow with the horizon."""
        arrow = 12 if scenario is stepping_scenario else 0
        for T in horizons:
            p = build_sequential(scenario(T))
            band = KKTSystem(p, p.compiled_ineq(), None).band
            ab, W, C = band.blocks
            assert ab.shape[0] == 35
            assert band.n_arrow == W.shape[1] == C.shape[0] == arrow
            p = build_simultaneous(scenario(T))
            band = KKTSystem(p, p.compiled_ineq(), p.compiled_eq()).band
            assert band.bw == 47


class TestCompiled:
    def test_values_and_jacobians_match_symbolic(self):
        rng = np.random.default_rng(6)
        for build in (build_sequential, build_simultaneous):
            p = build(stepping_scenario(10) if build is build_sequential else biped_scenario(6))
            comp = p.compiled_ineq()
            for _ in range(3):
                x = rng.normal(size=p.n) * 3
                ref = qpm.evaluate(p.ineq, x)
                assert np.allclose(comp.value(x), ref, atol=1e-10)
                Jref = qpm.gradient(p.ineq, x)
                assert np.allclose(comp.jacobian(x).toarray(), Jref, atol=1e-10)

    def test_no_stored_zero_in_jacobians(self):
        rng = np.random.default_rng(10)
        for build in (build_sequential, build_simultaneous):
            p = build(stepping_scenario())
            x = rng.normal(size=p.n)
            fns = [p.compiled_ineq()] + ([p.compiled_eq()] if p.n_eq else [])
            for fn in fns:
                assert np.all(fn.jacobian(x).data != 0)
                assert np.all(fn._M.data != 0)
                for _, i, j, v in fn.curvature_entries():
                    assert np.all(v != 0) and np.all(i >= j)
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

    @pytest.mark.parametrize("build", [build_sequential, build_simultaneous])
    def test_quadratic_parts_psd(self, build):
        """Every stored Q_i and P_i of the constraint functions is PSD."""
        for scn in (biped_scenario(5), stepping_scenario()):
            p = build(scn)
            for fn in (p.ineq, p.eq):
                assert qpm.min_quad_eigenvalue(fn) >= -qpm.PSD_TOL
            assert not (p.ineq.is_affine() and p.eq.is_affine())

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
        k = next(k for k, (t, i, fam) in enumerate(p.ineq_meta) if fam == "cop" and t >= 2)
        c = np.zeros(p.n_ineq)
        c[k] = 1.0
        H = convexified_lagrangian_hessian(p, np.zeros(p.n), (c, np.zeros(0)))
        Q, _ = qpm.hessian_parts(p.ineq, k)
        assert Q.any()
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


    @pytest.mark.parametrize("convexify", [True, False])
    def test_combo_matches_symbolic_parts(self, convexify):
        """hessian_combo against the dense Q_i and P_i of qpm.hessian_parts,
        summed row by row."""
        rng = np.random.default_rng(11)
        for build in (build_sequential, build_simultaneous):
            p = build(stepping_scenario())
            if build is build_sequential:
                comp, fn = p.compiled_ineq(), p.ineq
            else:
                comp, fn = p.compiled_eq(), p.eq
            c = rng.normal(size=comp.m)
            ref = np.zeros((p.n, p.n))
            for k in range(fn.output_dim):
                Q, P = qpm.hessian_parts(fn, k)
                if convexify:
                    ref += max(c[k], 0.0) * Q + max(-c[k], 0.0) * P
                else:
                    ref += c[k] * (Q - P)
            assert np.abs(ref).max() > 0
            H = comp.hessian_combo(c, convexify=convexify).toarray()
            assert np.allclose(H, ref, rtol=0, atol=1e-12)


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
