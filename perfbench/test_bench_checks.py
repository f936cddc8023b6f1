"""Each output check of the benchmark accepts a clean solution and rejects
a corrupted one.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import check_momentum_solution, check_plan, momentum_converged  # noqa: E402
from kinomo import contact, planner, scenario, solver, transcription  # noqa: E402
from kinomo.kinematics import effector_positions, momentum_state  # noqa: E402


def _failing(checks):
    return {c.name for c in checks if not c.ok}


@pytest.fixture(scope="module")
def solved():
    """Both formulations of a short stepping instance, solved."""
    scn = scenario.make_stepping_scenario(T=12, switch=4)
    state = planner.initialize_references(scn)
    ms = scn.momentum_scenario(state.h_bar, state.lambda_bar)
    out = {"ms": ms}
    for name, build, extract in (
        ("sequential", transcription.build_sequential, transcription.extract_sequential),
        ("simultaneous", transcription.build_simultaneous, transcription.extract_simultaneous),
    ):
        p = build(ms)
        res = solver.solve(p, scn.solver)
        assert res.converged
        out[name] = (extract(p, res.x), res.objective)
    return out


def _check(solved, name, sol=None, objective=None, reference=None):
    own_sol, own_obj = solved[name]
    other_sol, other_obj = solved["simultaneous" if name == "sequential" else "sequential"]
    checks, gap = check_momentum_solution(
        solved["ms"], own_sol if sol is None else sol,
        own_obj if objective is None else objective,
        torque_row=name == "simultaneous",
        reference=(other_obj, other_sol["h"]) if reference is None else reference,
    )
    return _failing(checks), gap


def _active_sample(sol, ms):
    """(phase, step) of a stance sample: the second step of phase 0."""
    return 0, ms.phases[0].sigma + 1


@pytest.mark.parametrize("name", ["sequential", "simultaneous"])
def test_clean_solution_passes(solved, name):
    failing, _ = _check(solved, name)
    assert failing == set()


def test_scaled_force_breaks_rollout_sequential(solved):
    sol = copy.deepcopy(solved["sequential"][0])
    i, t = _active_sample(sol, solved["ms"])
    sol["forces"][i][t] *= 1.1
    failing, _ = _check(solved, "sequential", sol=sol)
    assert "euler_rollout" in failing


def test_scaled_force_breaks_rollout_simultaneous(solved):
    sol = copy.deepcopy(solved["simultaneous"][0])
    i, t = _active_sample(sol, solved["ms"])
    w = sol["wrenches"][(i, t)]
    sol["wrenches"][(i, t)] = contact.ContactWrenchCop(1.1 * w.f_hat, w.p_hat, w.tau_hat)
    failing, _ = _check(solved, "simultaneous", sol=sol)
    assert "euler_rollout" in failing


def test_cop_outside_rectangle_simultaneous(solved):
    sol = copy.deepcopy(solved["simultaneous"][0])
    ms = solved["ms"]
    i, t = _active_sample(sol, ms)
    w = sol["wrenches"][(i, t)]
    p_out = ms.phases[i].c_hat + ms.phases[i].surface.p_max + np.array([0.01, 0.0])
    sol["wrenches"][(i, t)] = contact.ContactWrenchCop(w.f_hat, p_out, w.tau_hat)
    failing, _ = _check(solved, "simultaneous", sol=sol)
    assert "contact_cop" in failing


def test_cop_outside_rectangle_sequential(solved):
    """Moving the CoP by d in the world changes the torque about the CoM
    by d x f."""
    sol = copy.deepcopy(solved["sequential"][0])
    ms = solved["ms"]
    i, t = _active_sample(sol, ms)
    s = ms.phases[i].surface
    d = s.R[:, 0] * (2.0 * s.p_max[0] + 0.01)
    sol["kappas"][i][t] = sol["kappas"][i][t] + np.cross(d, sol["forces"][i][t])
    failing, _ = _check(solved, "sequential", sol=sol)
    assert "contact_cop" in failing


def test_negative_normal_force(solved):
    sol = copy.deepcopy(solved["simultaneous"][0])
    i, t = _active_sample(sol, solved["ms"])
    w = sol["wrenches"][(i, t)]
    f = w.f_hat * np.array([1.0, 1.0, -1.0])
    sol["wrenches"][(i, t)] = contact.ContactWrenchCop(f, w.p_hat, w.tau_hat)
    failing, _ = _check(solved, "simultaneous", sol=sol)
    assert "contact_normal" in failing


def test_friction_pyramid(solved):
    sol = copy.deepcopy(solved["sequential"][0])
    ms = solved["ms"]
    i, t = _active_sample(sol, ms)
    s = ms.phases[i].surface
    fz = float(s.R[:, 2] @ sol["forces"][i][t])
    sol["forces"][i][t] = sol["forces"][i][t] + s.R[:, 1] * 2.0 * s.mu * fz
    failing, _ = _check(solved, "sequential", sol=sol)
    assert "contact_friction" in failing


def test_normal_torque_checked_only_where_bounded(solved):
    ms = solved["ms"]
    sol = copy.deepcopy(solved["simultaneous"][0])
    i, t = _active_sample(sol, ms)
    w = sol["wrenches"][(i, t)]
    tau = ms.phases[i].surface.tau_max + 0.05
    sol["wrenches"][(i, t)] = contact.ContactWrenchCop(w.f_hat, w.p_hat, tau)
    failing, _ = _check(solved, "simultaneous", sol=sol)
    assert "contact_torque" in failing

    seq = copy.deepcopy(solved["sequential"][0])
    s = ms.phases[i].surface
    seq["kappas"][i][t] = seq["kappas"][i][t] + s.R[:, 2] * (s.tau_max + 0.05)
    failing, gap = _check(solved, "sequential", sol=seq)
    assert "contact_torque" not in failing
    assert gap > 0.04


def test_reported_objective(solved):
    _, obj = solved["sequential"]
    failing, _ = _check(solved, "sequential", objective=obj * 1.01)
    assert failing == {"objective"}


def test_cross_formulation_agreement(solved):
    other_sol, other_obj = solved["simultaneous"]
    failing, _ = _check(solved, "sequential", reference=(other_obj * 1.01, other_sol["h"]))
    assert failing == {"agree_objective"}
    failing, _ = _check(solved, "sequential", reference=(other_obj, other_sol["h"] + 2e-3))
    assert failing == {"agree_momentum"}


@pytest.fixture(scope="module")
def planned():
    scn = scenario.make_stepping_scenario(T=8, switch=3)
    traj, h, forces, report = planner.plan(
        scn, planner.PlanOptions(max_outer=2, kinematic_max_iter=3))
    return scn, traj.q, h, forces, report


def _plan_failing(planned, q=None, h=None, report=None):
    scn, q0, h0, forces, report0 = planned
    checks, _ = check_plan(
        scn, q0 if q is None else q, h0 if h is None else h, forces,
        report0["state"].kappas, report0 if report is None else report,
        momentum_state, effector_positions)
    return _failing(checks)


def test_clean_plan_passes(planned):
    assert _plan_failing(planned) == set()


def test_plan_must_start_at_q0(planned):
    q = planned[1].copy()
    q[0, 3] += 1e-3
    assert "starts_at_q0" in _plan_failing(planned, q=q)


def test_plan_mismatch_must_fall(planned):
    report = dict(planned[4])
    report["mismatch"] = [report["mismatch"][-1]] * 2
    assert "mismatch_falls" in _plan_failing(planned, report=report)


def test_plan_final_mismatch_bound(planned):
    report = dict(planned[4])
    report["mismatch"] = [0.5, 0.02]
    failing = _plan_failing(planned, report=report)
    assert {"final_mismatch", "mismatch_recomputed"} <= failing


def test_plan_momentum_must_follow_its_forces(planned):
    h = planned[2].copy()
    h[5:, 3] += 0.5
    assert "euler_rollout" in _plan_failing(planned, h=h)


def test_plan_momentum_solves_must_converge(planned):
    report = dict(planned[4])
    assert momentum_converged(report)
    report["momentum_status"] = ["Converged", "MaxIter"]
    assert not momentum_converged(report)
    report["momentum_status"] = []
    assert not momentum_converged(report)
