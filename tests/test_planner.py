import dataclasses

import numpy as np
import pytest

from kinomo import kinematics, planner, solver
from kinomo.contact import ContactPhase
from kinomo.dynamics import MomentumState
from kinomo.kinematics import effector_positions, forward_kinematics
from kinomo.planner import (
    PlanOptions,
    initialize_references,
    momentum_mismatch,
    plan,
)
from kinomo.scenario import Scenario, make_standing_scenario, make_stepping_scenario

G = 9.81


def one_foot_scenario(T=6):
    base = make_standing_scenario(T=T)
    phases = (ContactPhase("l_foot", 0, T, base.phases[0].surface),)
    return Scenario(
        "one_foot", base.model, base.q0, phases, T, base.delta, base.gravity
    )


def _bits(obj):
    """obj with every array, float and nested container replaced by what
    compares equal only when the two are bit for bit the same."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, float):
        return np.float64(obj).tobytes()
    if isinstance(obj, dict):
        return sorted((k, _bits(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, _bits(vars(obj))
    return obj


class TestInitialization:
    def test_standing_references(self):
        scn = make_standing_scenario(T=8)
        state = initialize_references(scn)
        M = scn.model.total_mass
        # CoM centered between the feet at its initial height
        _, _, _, x_com = forward_kinematics(scn.model, scn.q0)
        assert np.allclose(state.h_bar[:, 0], 0.0)
        assert np.allclose(state.h_bar[:, 1], 0.0)
        assert np.allclose(state.h_bar[:, 2], x_com[2])
        assert np.allclose(state.h_bar[:, 3:], 0.0)
        # gravity split evenly: -Mg/2 per foot, summing to -Mg
        for t in range(scn.T):
            total = sum(state.lambda_bar[i][t] for i in range(len(scn.phases)))
            assert np.allclose(total, [0.0, 0.0, M * G], atol=1e-12)
            assert state.lambda_bar[0][t][2] == pytest.approx(M * G / 2)

    def test_single_contact_full_gravity(self):
        scn = one_foot_scenario()
        state = initialize_references(scn)
        M = scn.model.total_mass
        assert np.allclose(state.h_bar[:, :2], [0.0, 0.09])
        for t in range(scn.T):
            assert np.allclose(state.lambda_bar[0][t], [0, 0, M * G])

    def test_stepping_centroid_piecewise(self):
        scn = make_stepping_scenario(T=28, switch=7)
        state = initialize_references(scn)
        ys = state.h_bar[:, 1]
        # double support -> centered; right swing steps 7..13 -> over left foot
        assert np.allclose(ys[:7], 0.0)
        assert np.allclose(ys[7:14], 0.09)

    def test_swing_path_interpolates(self):
        scn = make_stepping_scenario(T=28, switch=7)
        state = initialize_references(scn)
        path = state.c_bar["r_foot"]
        assert np.allclose(path[:7], [0.0, -0.09, 0.0])
        assert np.allclose(path[14:28], [0.1, -0.09, 0.0])
        # swing steps move monotonically forward and lift off the ground
        xs = path[7:14, 0]
        assert np.all(np.diff(np.concatenate([[0.0], xs, [0.1]])) > 0)
        assert path[7:14, 2].max() > 0.01

    def test_path_holds_last_stance(self):
        # a foot whose last contact ends before T stays where it last stood
        for T, name in ((14, "r_foot"), (28, "l_foot")):
            scn = make_stepping_scenario(T=T)
            path = initialize_references(scn).c_bar[name]
            last = max(
                (ph for ph in scn.phases if ph.effector_id == name), key=lambda ph: ph.sigma
            )
            assert last.epsilon < T
            assert np.all(np.any(path != 0.0, axis=1))
            assert np.allclose(path[last.epsilon :], last.location_world)

    def test_path_holds_initial_position_before_first_contact(self):
        base = make_standing_scenario(T=8)
        l_foot, r_foot = base.phases
        late = ContactPhase(r_foot.effector_id, 3, r_foot.epsilon, r_foot.surface)
        scn = dataclasses.replace(base, phases=(l_foot, late))
        path = initialize_references(scn).c_bar["r_foot"]
        p0 = effector_positions(scn.model, scn.q0)["r_foot"]
        assert np.array_equal(path[:3], np.tile(p0, (3, 1)))
        assert np.allclose(path[3:8], late.location_world)

    def test_force_reference_is_never_updated(self):
        scn = make_standing_scenario(T=6)
        state0 = initialize_references(scn)
        _, _, _, report = plan(scn)
        final = report["state"].lambda_bar
        for i in state0.lambda_bar:
            assert np.array_equal(final[i], state0.lambda_bar[i])


class TestMismatchMetric:
    def test_zero_for_identical(self):
        h = np.random.default_rng(0).normal(size=(5, 9))
        assert momentum_mismatch(h, h.copy(), 30.0) == 0.0

    def test_momentum_rows_normalized_by_mass(self):
        h = np.zeros((2, 9))
        d = h.copy()
        d[0, 4] = 3.0  # linear momentum error of 3 kg m/s
        assert momentum_mismatch(h, d, 30.0) == pytest.approx(0.1)
        d2 = h.copy()
        d2[0, 1] = 0.05  # position error passes through unscaled
        assert momentum_mismatch(h, d2, 30.0) == pytest.approx(0.05)


class TestPlan:
    def test_standing_fixed_point(self):
        scn = make_standing_scenario(T=8)
        traj, h, forces, report = plan(scn)
        assert report["converged"]
        assert report["passes"] <= 2
        assert len(report["kinematic_trials"]) == report["passes"]
        assert np.abs(traj.q - scn.q0).max() < 1e-3
        # near-zero momentum everywhere
        assert np.abs(h[:, 3:]).max() < 1e-2
        assert report["mismatch"][-1] < 1e-3

    def test_metric_non_increasing_at_the_end(self):
        scn = make_standing_scenario(T=8)
        _, _, _, report = plan(scn)
        hist = [max(dh, dc) for dh, dc in zip(report["delta_h"], report["delta_c"])]
        if len(hist) >= 2:
            assert hist[-1] <= hist[-2]

    def test_returns_force_trajectories(self):
        scn = make_standing_scenario(T=6)
        _, h, forces, report = plan(scn)
        M = scn.model.total_mass
        for t in range(scn.T):
            total = sum(forces[i][t] for i in forces)
            assert np.allclose(total, [0, 0, M * G], atol=1e-3)

    def test_simultaneous_formulation(self):
        scn = make_standing_scenario(T=6)
        _, h_sim, _, rep = plan(scn, PlanOptions(formulation="simultaneous"))
        _, h_seq, _, _ = plan(scn)
        assert rep["momentum_status"][-1] == "Converged"
        assert np.abs(h_sim - h_seq).max() < 1e-3

    def test_one_problem_per_plan(self, monkeypatch):
        builds = []
        build = planner.build_sequential
        monkeypatch.setattr(planner, "build_sequential", lambda ms: builds.append(ms) or build(ms))
        _, _, _, report = plan(make_stepping_scenario(T=21), PlanOptions(max_outer=3))
        assert report["passes"] == 3
        assert len(builds) == 1

    @pytest.mark.parametrize("formulation", ["sequential", "simultaneous"])
    def test_one_kkt_system_per_plan(self, formulation, monkeypatch):
        """A plan builds one KKTSystem, at pass 1, and every pass's solve
        assembles on it. The plan is bit for bit the one whose solves each
        build their own."""
        opts = PlanOptions(max_outer=3, formulation=formulation, kinematic_max_iter=10)
        runs, base = [], solver.KKTSystem
        for shared in (True, False):
            built = []

            class Counted(base):
                def __init__(self, p):
                    built.append(p)
                    super().__init__(p)

            monkeypatch.setattr(solver, "KKTSystem", Counted)
            monkeypatch.setattr(planner, "KKTSystem", Counted if shared else lambda p: None)
            runs.append((plan(make_stepping_scenario(T=21), opts), built))
        (out, built), (ref, ref_built) = runs
        assert out[3]["passes"] == ref[3]["passes"] == 3
        assert len(built) == 1 and len(ref_built) == 3
        assert _bits(out) == _bits(ref)

    @pytest.mark.parametrize("formulation", ["sequential", "simultaneous"])
    def test_warm_start_matches_cold(self, formulation, monkeypatch):
        # each pass's solve, and a cold solve of the same retargeted problem
        solves = []

        def warm_and_cold(p, opts, start=None, kkt=None):
            res = solver.solve(p, opts, start, kkt)
            solves.append((res, solver.solve(p, opts)))
            return res

        monkeypatch.setattr(planner, "solve", warm_and_cold)
        opts = PlanOptions(max_outer=3, formulation=formulation, kinematic_max_iter=10)
        _, _, _, report = plan(make_stepping_scenario(T=21), opts)
        assert report["passes"] == len(solves) == 3
        assert report["momentum_iters"] == [len(warm.stats) for warm, _ in solves]
        first, cold = solves[0]
        assert first.x.tobytes() == cold.x.tobytes()  # pass 1 starts cold
        for warm, cold in solves[1:]:
            assert warm.converged and cold.converged
            assert abs(warm.objective - cold.objective) <= 1e-5 * (1 + abs(cold.objective))
        if formulation == "sequential":
            warm, cold = solves[1]
            assert len(warm.stats) <= len(cold.stats) / 2

    @staticmethod
    def _on_pass(monkeypatch, owner, name, k, fault):
        """Replace owner.name, called once per pass, by the original that
        hands its output to ``fault`` at pass k."""
        real, calls = getattr(owner, name), []

        def wrapped(*args, **kwargs):
            calls.append(None)
            out = real(*args, **kwargs)
            return fault(out) if len(calls) == k else out

        monkeypatch.setattr(owner, name, wrapped)

    def _plan_fails_at(self, k, match):
        opts = PlanOptions(max_outer=3, kinematic_max_iter=10)
        with pytest.raises(planner.PlannerError, match=f"^pass {k}: {match}") as exc:
            plan(make_stepping_scenario(T=21), opts)
        assert exc.value.outer_pass == k

    @pytest.mark.parametrize("k", [1, 2])
    def test_dynamics_violation_raises(self, k, monkeypatch):
        def off(h):  # the rolled-out final state 1e-6 away from the plan's
            return h[:-1] + [MomentumState.from_vector(h[-1].as_vector() + 1e-6)]

        self._on_pass(monkeypatch, planner, "rollout", k, off)
        self._plan_fails_at(k, "momentum plan violates its own dynamics by 1.00e-06")

    def test_kinematic_failure_raises(self, monkeypatch):
        def fail(out):
            raise np.linalg.LinAlgError("injected")

        self._on_pass(monkeypatch, kinematics, "solve_kinematic_subproblem", 2, fail)
        self._plan_fails_at(2, "kinematic sub-problem failed: injected")

    @pytest.mark.parametrize("status", ["NumericFailure", "Infeasible"])
    def test_momentum_failure_raises(self, status, monkeypatch):
        self._on_pass(monkeypatch, planner, "solve", 2,
                      lambda res: dataclasses.replace(res, status=status))
        self._plan_fails_at(2, f"momentum sub-problem failed: {status}")

    def test_options_validation(self):
        with pytest.raises(ValueError):
            PlanOptions(formulation="hybrid")
        with pytest.raises(ValueError):
            PlanOptions(max_outer=0)
        for bad in (2.5, True, "3"):
            with pytest.raises(ValueError, match="max_outer"):
                PlanOptions(max_outer=bad)
        for bad in (-1, 2.5, True, "3"):
            with pytest.raises(ValueError, match="kinematic_max_iter"):
                PlanOptions(kinematic_max_iter=bad)
        assert PlanOptions(max_outer=1, kinematic_max_iter=0).kinematic_max_iter == 0
