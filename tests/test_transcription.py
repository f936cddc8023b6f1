import dataclasses
from pathlib import Path

import numpy as np
import pytest

from layout_views import active_phases, contact_bases, row_meta, state_bases, var_blocks
from test_dynamics import rollout_states, sample_wrenches

from kinomo import contact, dynamics, qpm
from kinomo.contact import ContactPhase, ContactSurface, ContactWrenchCop, com_to_cop
from kinomo.dynamics import MomentumState, RobotConstants
from kinomo.planner import initialize_references
from kinomo.scenario import load_scenario, make_standing_scenario, make_stepping_scenario
from kinomo.solver import KKTSystem, convexified_lagrangian_hessian, solve
from kinomo.transcription import (
    MomentumScenario,
    build_sequential,
    build_simultaneous,
    extract,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

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


def flight_and_hand_scenario(T=8):
    """Two feet, a hand added at step 2, every contact off at step 4,
    both feet down again from step 5."""
    phases = (
        ContactPhase("l_foot", 0, 3, foot_surface(0.09)),
        ContactPhase("r_foot", 0, 3, foot_surface(-0.09)),
        ContactPhase("hand", 2, 4, foot_surface(0.4)),
        ContactPhase("l_foot", 5, T, foot_surface(0.09)),
        ContactPhase("r_foot", 5, T, foot_surface(-0.09)),
    )
    h0 = MomentumState(np.array([0.0, 0.0, 0.5]), np.zeros(3), np.zeros(3))
    return MomentumScenario(phases, T, 0.1, h0, RobotConstants(M=30.0),
                            np.tile(h0.as_vector(), (T + 1, 1)), {})


def positive_stance_point(p, rng=None, noise=0.5):
    """A point whose forces keep a large positive normal component."""
    scn = p.scenario
    x = np.zeros(p.n)
    f0 = np.array([0.0, 0.0, 100.0])
    base = contact_bases(p)
    for i, ph in enumerate(scn.phases):
        for t in range(ph.sigma, ph.epsilon):
            b = base[(i, t)]
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
    base = contact_bases(p)
    for i, ph in enumerate(scn.phases):
        kappa = np.cross(ph.surface.t - scn.h0.r, f0)
        for t in range(ph.sigma, ph.epsilon):
            b = base[(i, t)]
            s = (t + 1) * (t + 2) / 2.0
            x[b : b + 3] = s * f0
            x[b + 3 : b + 6] = s * kappa
    return x


def map_sequential_point(p_seq, p_sim, x_seq):
    """Lift a sequential point into simultaneous variables with identical
    dynamics (zero equality residual) and identical wrenches."""
    scn = p_seq.scenario
    sol = extract(p_seq, x_seq)
    x = np.zeros(p_sim.n)
    for t, b in state_bases(p_sim).items():
        x[b : b + 9] = sol["h"][t]
    base = contact_bases(p_sim)
    for i, ph in enumerate(scn.phases):
        for t in range(ph.sigma, ph.epsilon):
            b = base[(i, t)]
            try:
                w = com_to_cop(
                    contact.ContactWrenchCom(sol["forces"][i][t], sol["kappas"][i][t]),
                    ph.surface, sol["h"][t][:3],
                )
            except contact.NormalForceNonPositive:
                # no CoP without normal force: keep the local force only
                w = ContactWrenchCop(ph.surface.R.T @ sol["forces"][i][t], np.zeros(2), 0.0)
            x[b : b + 6] = np.concatenate([w.f_hat, w.p_hat, [w.tau_hat]])
    return x


def dict_layout(scn, kind):
    """The layout as (phase, step) -> index dicts, built step by step over
    ContactPhase.active, as the layout was before it became a table of
    samples: (contact bases, h_t bases, arrow indices, newton_key)."""
    wrench, state_group, row_group = [4] * 3 + [1] * 3, [2] * 6 + [0] * 3, [5] * 6 + [3] * 3
    base, state, block, group = {}, {}, [], []
    for t in range(scn.T):
        for i, ph in enumerate(scn.phases):
            if ph.active(t):
                base[(i, t)] = len(block)
                block += [t] * 6
                group += wrench
        if kind == "simultaneous":
            state[t + 1] = len(block)
            block += [t + 1] * 9
            group += state_group
    arrow = {
        j for i, ph in enumerate(scn.phases) if kind == "sequential" and ph.epsilon < scn.T
        for m in range(max(ph.sigma, ph.epsilon - 2), ph.epsilon)
        for j in range(base[(i, m)], base[(i, m)] + 6)
    }
    if kind == "sequential":
        key = [scn.T if j in arrow else b for j, b in enumerate(block)]
    else:
        key = [6 * b + g for b, g in zip(block, group)]
        key += [6 * t + g for t in range(scn.T) for g in row_group]
    return base, state, sorted(arrow), key


class TestLayouts:
    @pytest.mark.parametrize("kind", ["sequential", "simultaneous"])
    @pytest.mark.parametrize("make", [
        make_standing_scenario,
        lambda: make_stepping_scenario(T=21),
        lambda: load_scenario(SCENARIOS / "step_stones.json"),
        flight_and_hand_scenario,
    ], ids=["standing", "stepping21", "step_stones", "flight"])
    def test_matches_dict_layout(self, make, kind):
        """Every sample, state, arrow entry and Newton key gets the index
        of the dict-based layout, element for element; the simultaneous
        form's wrenches stay keyed by (int, int) tuples."""
        scn = make()
        if not isinstance(scn, MomentumScenario):
            refs = initialize_references(scn)
            scn = scn.momentum_scenario(refs.h_bar, refs.lambda_bar)
        p = (build_sequential if kind == "sequential" else build_simultaneous)(scn)
        base, state, arrow, key = dict_layout(scn, kind)
        assert list(contact_bases(p).items()) == list(base.items())
        assert state_bases(p) == state
        assert p.layout.arrow_indices.tolist() == arrow
        assert p.layout.newton_key.tolist() == key
        assert p.n == 6 * len(base) + 9 * len(state)
        if kind == "simultaneous":
            keys = list(extract(p, p.x0)["wrenches"])
            assert keys == list(base)
            assert all(type(i) is int and type(t) is int for i, t in keys)

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
            b = contact_bases(p)[(1, t)]
            assert set(range(b, b + 6)) <= arrow
        assert len(arrow) == 12

    def test_blocks_partition(self):
        for p in (build_sequential(biped_scenario(4)), build_simultaneous(biped_scenario(4)),
                  build_sequential(stepping_scenario())):
            lay = p.layout
            owned = np.concatenate([(lay.contact_base[:, None] + np.arange(6)).ravel(),
                                    (lay.state_base[:, None] + np.arange(9)).ravel()])
            assert np.array_equal(np.sort(owned), np.arange(p.n))
            blocks = var_blocks(p)
            assert blocks.size == p.n
            arrow = np.flatnonzero(blocks == -1)
            assert np.array_equal(arrow, p.layout.arrow_indices)


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
        meta, _ = row_meta(p)
        for k in range(0, p.n_ineq, 4):
            t, i, fam = meta[k]
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
            b = contact_bases(p)[(0, t)]
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
        meta, _ = row_meta(p)
        for k in range(0, p.n_ineq, 10):
            t, i, fam = meta[k]
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
        h = np.vstack([scn.h0.as_vector()] + [x[b : b + 9] for b in state_bases(p).values()])
        assert np.array_equal(sol["h"], h)
        f = np.zeros((len(scn.phases), scn.T, 3))
        kappa = np.zeros_like(f)
        for (i, t), b in contact_bases(p).items():
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
        base, active = contact_bases(p), active_phases(p)
        for _ in range(3):
            x = rng.normal(size=p.n) * 3
            h = np.vstack([scn.h0.as_vector()] + [x[b : b + 9] for b in state_bases(p).values()])
            direct = []
            for t in range(scn.T):
                r, l, k = h[t, :3], h[t, 3:6], h[t, 6:]
                f_sum, kappa_sum = np.zeros(3), np.zeros(3)
                for i in active[t]:
                    s = scn.phases[i].surface
                    b = base[(i, t)]
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


class TestStart:
    @pytest.mark.parametrize("make", [
        lambda: load_scenario(SCENARIOS / "step_stones.json"),
        lambda: load_scenario(SCENARIOS / "stand.json"),
        lambda: make_stepping_scenario(T=30),
    ], ids=["step_stones", "stand", "stepping30"])
    def test_builders_start_on_the_ballistic_states(self, make):
        scn = make()
        state = initialize_references(scn)
        ms = scn.momentum_scenario(state.h_bar, state.lambda_bar)
        p_seq, p_sim = build_sequential(ms), build_simultaneous(ms)
        assert not p_seq.x0.any()
        h_seq, h_sim = extract(p_seq, p_seq.x0)["h"], extract(p_sim, p_sim.x0)["h"]
        assert np.array_equal(h_seq, h_sim)
        states = dynamics.rollout(ms.h0, [], ms.delta, ms.T, ms.consts)
        ballistic = np.array([h.as_vector() for h in states])
        assert np.allclose(h_sim, ballistic, rtol=1e-12, atol=1e-9)
        assert np.abs(p_sim.compiled_eq().value(p_sim.x0)).max() <= 1e-9


def row_blocks(p, comp):
    """Per row of a compiled constraint function: the step blocks of its
    columns and whether it touches the arrow block."""
    out = []
    block = var_blocks(p)
    for r in range(comp.m):
        blocks = block[comp.indices[comp.indptr[r] : comp.indptr[r + 1]]]
        out.append((set(blocks[blocks >= 0].tolist()), bool(np.any(blocks < 0))))
    return out


def hessian_block_pairs(p):
    """Step-block pairs (a, b), a <= b, coupled by an entry of the compiled
    objective Hessian or by a stored curvature entry; the arrow is block -1."""
    H = p.compiled_objective().H.tocoo()
    ii, jj = [H.row], [H.col]
    for comp in (p.compiled_ineq(), p.compiled_eq()):
        _, i, j, _, _ = comp.curvature_entries()
        ii.append(i)
        jj.append(j)
    block = var_blocks(p)
    a = block[np.concatenate(ii)]
    b = block[np.concatenate(jj)]
    return set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))


class TestPatterns:
    def test_sequential_row_step_blocks(self):
        p = build_sequential(biped_scenario(5))
        rows = row_blocks(p, p.compiled_ineq())
        meta, _ = row_meta(p)
        assert len(rows) == p.n_ineq == len(meta)
        for (blocks, arrow), (t, i, fam) in zip(rows, meta):
            assert blocks <= {t, t - 1, t - 2}
            assert not arrow

    def test_stepping_rows_touch_arrow(self):
        p = build_sequential(stepping_scenario())
        rows = row_blocks(p, p.compiled_ineq())
        # CoP rows of late steps involve frozen boundary variables
        saw_arrow = False
        for (blocks, arrow), (t, i, fam) in zip(rows, row_meta(p)[0]):
            assert blocks <= {t, t - 1, t - 2}
            if arrow:
                saw_arrow = True
        assert saw_arrow

    def test_simultaneous_dynamics_row_step_blocks(self):
        p = build_simultaneous(biped_scenario(5))
        rows = row_blocks(p, p.compiled_eq())
        _, meta = row_meta(p)
        assert len(rows) == p.n_eq == len(meta)
        for (blocks, arrow), (t, i, fam) in zip(rows, meta):
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
            block = var_blocks(p)
            for comp, fn in ((p.compiled_eq(), p.eq), (p.compiled_ineq(), p.ineq)):
                rows = row_blocks(p, comp)
                J = qpm.gradient(fn, x)
                assert len(rows) == J.shape[0] == comp.m
                for (blocks, arrow), J_r in zip(rows, J):
                    cols = np.flatnonzero(np.abs(J_r) > 1e-14)
                    seen = set(int(b) for b in block[cols])
                    assert seen <= (blocks | ({-1} if arrow else set()))

    @pytest.mark.parametrize(
        "scenario, horizons", [(stepping_scenario, (20, 40, 80)), (biped_scenario, (10, 30, 60))]
    )
    def test_kkt_band_and_arrow_constant_in_T(self, scenario, horizons):
        """The Newton matrix's band and arrow do not grow with the horizon."""
        arrow = 12 if scenario is stepping_scenario else 0
        for T in horizons:
            p = build_sequential(scenario(T))
            band = KKTSystem(p).band
            ab, W, C = band.blocks
            assert ab.shape[0] == 35
            assert band.n_arrow == W.shape[1] == C.shape[0] == arrow
            # the simultaneous band: 3 S + 11 for the S = 2 feet
            p = build_simultaneous(scenario(T))
            band = KKTSystem(p).band
            assert band.bw == 17


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
                assert np.allclose(comp.to_csr(comp.jacobian(x)).toarray(), Jref, atol=1e-10)

    def test_no_stored_zero_in_jacobians(self):
        rng = np.random.default_rng(10)
        for build in (build_sequential, build_simultaneous):
            p = build(stepping_scenario())
            x = rng.normal(size=p.n)
            fns = [p.compiled_ineq()] + ([p.compiled_eq()] if p.n_eq else [])
            for fn in fns:
                assert np.all(fn.to_csr(fn.jacobian(x)).data != 0)
                assert np.all(fn._M.data != 0)
                _, i, j, q, p_ = fn.curvature_entries()
                assert np.all((q != 0) | (p_ != 0)) and np.all(i >= j)
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

    @pytest.mark.parametrize("build", [build_sequential, build_simultaneous])
    def test_products_match_csr(self, build):
        """matvec and rmatvec on the Jacobian values equal the products of
        to_csr to the last bit, and value(x, J) equals value(x), on both
        families, the sequential form's 0-row equalities included; two
        points in turn, so that a product left on the first point's
        values would show."""
        def same(a, b):
            return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

        p = build(stepping_scenario())
        assert (p.compiled_eq().m == 0) == (build is build_sequential)
        rng = np.random.default_rng(11)
        for fn in (p.compiled_ineq(), p.compiled_eq()):
            for _ in range(2):
                x, v = rng.normal(size=fn.n) * 3, rng.normal(size=fn.n)
                y = rng.normal(size=fn.m)
                J = fn.jacobian(x)
                A = fn.to_csr(J)
                assert same(fn.matvec(J, v), A @ v)
                assert same(fn.rmatvec(J, y), A.T @ y)
                assert same(fn.value(x, J), fn.value(x))

    def test_jacobian_matches_fd(self):
        rng = np.random.default_rng(8)
        p = build_sequential(biped_scenario(5))
        comp = p.compiled_ineq()
        x = rng.normal(size=p.n)
        J = comp.to_csr(comp.jacobian(x)).toarray()
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


class TestRetarget:
    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "uncompiled"])
    @pytest.mark.parametrize("build", [build_sequential, build_simultaneous])
    def test_equals_fresh_build(self, build, compiled):
        scn = stepping_scenario()
        rng = np.random.default_rng(4)
        h_ref = scn.h_ref + 0.01 * rng.normal(size=scn.h_ref.shape)
        force_ref = {i: v + rng.normal(size=v.shape) for i, v in scn.force_ref.items()}
        p = build(scn)
        if compiled:  # as after a solve: the compiled q and c are retargeted
            p.compiled_objective()
        p.retarget(h_ref, force_ref)
        fresh = build(dataclasses.replace(scn, h_ref=h_ref, force_ref=dict(force_ref)))
        assert p.scenario.h_ref.tobytes() == h_ref.tobytes()
        assert p.objective[1].tobytes() == fresh.objective[1].tobytes()
        got, want = p.compiled_objective(), fresh.compiled_objective()
        assert got.y.tobytes() == want.y.tobytes()
        assert got.q.tobytes() == want.q.tobytes()
        x = rng.normal(size=p.n)
        assert got.value(x) == want.value(x)
        for attr in ("indptr", "indices", "data"):
            assert getattr(got.H, attr).tobytes() == getattr(want.H, attr).tobytes()
        assert solve(p).x.tobytes() == solve(fresh).x.tobytes()


def dense_curvature(fn, c, convexify):
    """sum_k c_k (Q_k - P_k) over the rows of the QpmFunction fn, from the
    dense Q_k and P_k of qpm.hessian_parts; convexified, each row keeps its
    PSD part: c_k Q_k for c_k >= 0 and |c_k| P_k for c_k < 0."""
    ref = np.zeros((fn.input_dim, fn.input_dim))
    for k in range(fn.output_dim):
        Q, P = qpm.hessian_parts(fn, k)
        if convexify:
            ref += max(c[k], 0.0) * Q + max(-c[k], 0.0) * P
        else:
            ref += c[k] * (Q - P)
    return ref


def lagrangian_hessian(p, c_i, c_e, convexify=True):
    """KKTSystem's curvature assembly of p with Sigma = 0, as a dense matrix:
    convexified through convexified_lagrangian_hessian, the dense SQP's
    path, or exact."""
    kkt = KKTSystem(p)
    J_i, J_e = p.compiled_ineq().jacobian(p.x0), p.compiled_eq().jacobian(p.x0)
    if convexify:
        return convexified_lagrangian_hessian(kkt, c_i, J_i, c_e, J_e).toarray()
    kkt.assemble(c_i, np.zeros(c_i.size), J_i, c_e, J_e, exact=True)
    return kkt.hessian().toarray()


class TestConvexifiedHessian:
    def test_zero_duals(self):
        p = build_sequential(biped_scenario(4))
        H = lagrangian_hessian(p, np.zeros(p.n_ineq), np.zeros(0))
        assert np.allclose(H, p.compiled_objective().H.toarray())

    def test_single_positive_dual_keeps_q_part(self):
        p = build_sequential(biped_scenario(4))
        # pick a CoP row at t >= 2, where the CoM position is non-constant
        # and the row carries genuine Q/P parts
        k = next(k for k, (t, i, fam) in enumerate(row_meta(p)[0]) if fam == "cop" and t >= 2)
        c = np.zeros(p.n_ineq)
        c[k] = 1.0
        H = lagrangian_hessian(p, c, np.zeros(0))
        Q, _ = qpm.hessian_parts(p.ineq, k)
        assert Q.any()
        assert np.allclose(H - p.compiled_objective().H.toarray(), Q, atol=1e-12)

    def test_random_duals_psd_and_dominant(self):
        rng = np.random.default_rng(9)
        p = build_sequential(biped_scenario(4))
        H_obj = p.compiled_objective().H.toarray()
        for _ in range(5):
            c = rng.normal(size=p.n_ineq)
            Ht = lagrangian_hessian(p, c, np.zeros(0))
            gap = (Ht - H_obj) - dense_curvature(p.ineq, c, convexify=False)
            lam = np.linalg.eigvalsh(Ht - H_obj)
            assert lam[0] >= -1e-9
            for _ in range(10):
                z = rng.normal(size=p.n)
                assert z @ (gap @ z) >= -1e-9 * (z @ z)

    @pytest.mark.parametrize("convexify", [True, False])
    def test_combo_matches_symbolic_parts(self, convexify):
        """KKTSystem's curvature, less the objective Hessian, against the
        dense Q_i and P_i of qpm.hessian_parts, summed row by row."""
        rng = np.random.default_rng(11)
        for build in (build_sequential, build_simultaneous):
            p = build(stepping_scenario())
            c_i, c_e = np.zeros(p.n_ineq), np.zeros(p.n_eq)
            if build is build_sequential:
                c, fn = c_i, p.ineq
            else:
                c, fn = c_e, p.eq
            c[:] = rng.normal(size=c.size)
            ref = dense_curvature(fn, c, convexify)
            assert np.abs(ref).max() > 0
            H = lagrangian_hessian(p, c_i, c_e, convexify) - p.compiled_objective().H.toarray()
            assert np.allclose(H, ref, rtol=0, atol=1e-12)


class TestScenarioValidation:
    def test_phase_beyond_horizon(self):
        with pytest.raises(ValueError):
            scn = biped_scenario(5)
            MomentumScenario(
                (ContactPhase("l", 0, 9, foot_surface(0.0)),),
                5, 0.1, scn.h0, scn.consts, scn.h_ref, {0: np.zeros((5, 3))},
            )

    def test_force_ref_is_its_own(self):
        """The scenario keeps a dict of its own: the caller's stays as it
        was, and editing it later leaves the scenario's references."""
        scn = biped_scenario(5)
        given = {}
        ms = MomentumScenario(scn.phases, 5, 0.1, scn.h0, scn.consts, scn.h_ref, given)
        assert given == {} and ms.force_ref is not given
        assert sorted(ms.force_ref) == [0, 1] and not np.any(ms.force_ref[0])
        given[0] = np.ones((5, 3))
        assert not np.any(ms.force_ref[0])

    def test_bad_h_ref_shape(self):
        scn = biped_scenario(5)
        with pytest.raises(ValueError):
            MomentumScenario(scn.phases, 5, 0.1, scn.h0, scn.consts,
                             np.zeros((3, 9)), scn.force_ref)
