"""Alternating momentum/kinematics planner.

One outer pass solves the kinematic tracking sub-problem against the
current momentum reference, re-extracts the achieved momentum profile,
then solves the momentum sub-problem against that profile. The exchanged
references (h_bar, c_bar) are exactly the sub-problem outputs; the force
reference lambda_bar keeps its initial even-gravity split throughout.
The loop stops when neither reference moved more than REFERENCE_TOL
between consecutive passes, the momentum reference measured as
momentum_mismatch measures it (positions in m, momenta over the total mass
in m/s).

Between passes only the momentum sub-problem's targets move: the
schedule, the initial state and the weights are the scenario's. A plan
therefore builds one momentum problem at the initial references, and its
Newton matrix (solver.KKTSystem), before the first pass. Every pass
retargets the problem in place (NlpProblem.retarget), which gives the same
problem as a fresh build and keeps the matrix's pattern. From pass 2 on,
the interior-point solve is warm-started at the previous pass's solution
(solver.solve's ``start``); the report lists each pass's IPM iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contact import ContactWrenchCom
from .dynamics import MomentumState, rollout
from .kinematics import (
    KinematicRefs,
    KinematicWeights,
    effector_positions,
    forward_kinematics,
    momentum_state,
)
from .solver import KKTSystem, solve
from .transcription import build_sequential, build_simultaneous, extract


# Height (m) of the sine arc of a swing reference path at mid-swing.
SWING_LIFT = 0.03
# Reference-delta convergence threshold in m and m/s: path and CoM moves
# in m, momentum moves divided by the total mass.
REFERENCE_TOL = 1e-4
# The kinematic sub-problem's tracking weights.
KINEMATIC_WEIGHTS = KinematicWeights(posture=0.01, momentum=[20, 20, 20, 2, 2, 2, 2, 2, 2])


class PlannerError(RuntimeError):
    def __init__(self, outer_pass, message):
        super().__init__(f"pass {outer_pass}: {message}")
        self.outer_pass = outer_pass


@dataclass
class PlanOptions:
    max_outer: int = 10
    formulation: str = "sequential"  # "sequential" | "simultaneous"
    kinematic_max_iter: int = 30

    def __post_init__(self):
        if type(self.max_outer) is not int or self.max_outer < 1:  # isinstance would take True
            raise ValueError("max_outer must be an integer >= 1")
        if type(self.kinematic_max_iter) is not int or self.kinematic_max_iter < 0:
            raise ValueError("kinematic_max_iter must be a non-negative integer")
        if self.formulation not in ("sequential", "simultaneous"):
            raise ValueError(f"unknown formulation {self.formulation!r}")


@dataclass
class PlanState:
    """References exchanged between the sub-problems, and the forces and
    torques of the last momentum plan."""

    h_bar: np.ndarray  # (T+1, 9) momentum reference
    lambda_bar: dict  # phase index -> (T, 3) force reference (never updated)
    c_bar: dict  # effector name -> (T+1, 3) path reference
    q: np.ndarray  # current joint trajectory, (T+1, dof)
    forces: dict = None  # phase index -> (T, 3) momentum-plan forces
    kappas: dict = None  # phase index -> (T, 3) torques about the CoM


def _support_centroid(scn, t):
    pts = [ph.location_world for ph in scn.phases if ph.active(min(t, scn.T - 1))]
    return np.mean(pts, axis=0)


def _effector_path(scn, name, p0):
    """Scheduled contact locations with interpolated swing segments. The
    initial position p0 is held until the first contact, the last stance
    after the last one."""
    phases = sorted(
        (ph for ph in scn.phases if ph.effector_id == name), key=lambda ph: ph.sigma
    )
    path = np.tile(p0, (scn.T + 1, 1))
    for ph in phases:
        path[ph.sigma : ph.epsilon] = ph.location_world
    if phases:
        path[phases[-1].epsilon :] = phases[-1].location_world
    for a, b in zip(phases, phases[1:]):
        lo, hi = a.epsilon, b.sigma  # swing steps lo..hi-1
        if lo >= hi:
            continue
        for j, t in enumerate(range(lo, hi)):
            s = (j + 1) / (hi - lo + 1)
            path[t] = (1 - s) * a.location_world + s * b.location_world
            path[t, 2] += SWING_LIFT * np.sin(np.pi * s)
    return path


def initialize_references(scn):
    """Zero-momentum references: CoM over the support centroid at its
    initial height, gravity split evenly across the active contacts."""
    _, _, _, x_com = forward_kinematics(scn.model, scn.q0)
    M, g = scn.consts.M, scn.consts.g
    h_bar = np.zeros((scn.T + 1, 9))
    for t in range(scn.T + 1):
        c = _support_centroid(scn, t)
        h_bar[t, :3] = [c[0], c[1], x_com[2]]
    lambda_bar = {}
    n_active = np.array([len([ph for ph in scn.phases if ph.active(t)]) for t in range(scn.T)])
    for i, ph in enumerate(scn.phases):
        fr = np.zeros((scn.T, 3))
        for t in range(ph.sigma, ph.epsilon):
            fr[t] = -M * g / n_active[t]
        lambda_bar[i] = fr
    p0 = effector_positions(scn.model, scn.q0)
    c_bar = {name: _effector_path(scn, name, p0[name]) for name in scn.model.effectors}
    q = np.tile(scn.q0, (scn.T + 1, 1))
    return PlanState(h_bar, lambda_bar, c_bar, q)


def momentum_problem(scn, state, formulation):
    """The momentum sub-problem of ``scn`` at the references of ``state``,
    built in ``formulation`` ("sequential" | "simultaneous")."""
    ms = scn.momentum_scenario(state.h_bar, state.lambda_bar)
    build = build_sequential if formulation == "sequential" else build_simultaneous
    return build(ms)


def _check_dynamics_feasible(scn, sol, outer):
    """The momentum plan must be reproducible by integrating its forces."""
    wrenches = [
        [
            (ph, ContactWrenchCom(sol["forces"][i][t], sol["kappas"][i][t]))
            for i, ph in enumerate(scn.phases)
            if ph.active(t)
        ]
        for t in range(scn.T)
    ]
    h = rollout(
        MomentumState.from_vector(sol["h"][0]), wrenches, scn.delta, scn.T, scn.consts
    )
    err = max(np.abs(h[t].as_vector() - sol["h"][t]).max() for t in range(scn.T + 1))
    if err > 1e-8:
        raise PlannerError(outer, f"momentum plan violates its own dynamics by {err:.2e}")


def momentum_mismatch(h_kin, h_dyn, M):
    """Normalized mismatch: positions in meters, momenta divided by the
    total mass so every component reads as a CoM-velocity-like quantity."""
    d = np.abs(h_kin - h_dyn)
    d[:, 3:] /= M
    return float(d.max())


def plan(scn, opts=None):
    """Alternate the kinematic and momentum sub-problems (kinematics first)
    until the exchanged references settle. Returns (joint trajectory,
    momentum trajectory, force trajectory, report)."""
    # imported per call: perfbench/tracing.py patches this module attribute
    # (its kinematics.subproblem span), which a module-level import would miss
    from .kinematics import solve_kinematic_subproblem

    opts = opts or PlanOptions()
    state = initialize_references(scn)
    M = scn.consts.M
    report = {
        "passes": 0,
        "converged": False,
        "mismatch": [],
        "delta_h": [],
        "delta_c": [],
        "momentum_status": [],
        "momentum_iters": [],
        "kinematic_converged": [],
        "kinematic_trials": [],
        "com_y_range_init": float(np.ptp(forward_kinematics(scn.model, state.q)[3][:, 1])),
    }
    res = None
    # the momentum problem, retargeted at every pass, and its Newton
    # matrix, whose pattern retargeting leaves as it is
    p = momentum_problem(scn, state, opts.formulation)
    kkt = KKTSystem(p)
    for outer in range(1, opts.max_outer + 1):
        refs = KinematicRefs(
            h_ref=state.h_bar,
            effector_ref={k: v.copy() for k, v in state.c_bar.items()},
            posture_ref=scn.q0.copy(),
        )
        try:
            traj, _ = solve_kinematic_subproblem(
                scn.model, refs, scn.T, scn.delta, KINEMATIC_WEIGHTS,
                scn.q0, max_iter=opts.kinematic_max_iter,
            )
        except Exception as e:  # propagate with the pass index attached
            raise PlannerError(outer, f"kinematic sub-problem failed: {e}")
        report["kinematic_converged"].append(traj.converged)
        report["kinematic_trials"].append(traj.trials)
        h_kin = momentum_state(scn.model, traj.q, traj.qdot)
        c_new = effector_positions(scn.model, traj.q)

        p.retarget(h_kin, state.lambda_bar)
        # from pass 2 on, the last pass's solution starts the solve
        res = solve(p, scn.solver, res, kkt)
        report["momentum_iters"].append(len(res.stats))
        report["momentum_status"].append(res.status)
        if res.status in ("NumericFailure", "Infeasible"):
            raise PlannerError(outer, f"momentum sub-problem failed: {res.status}")
        sol = extract(p, res.x)
        if opts.formulation == "sequential":
            _check_dynamics_feasible(scn, sol, outer)
        h_dyn = sol["h"]

        delta_h = momentum_mismatch(state.h_bar, h_dyn, M)
        delta_c = max(
            float(np.abs(c_new[name] - state.c_bar[name]).max())
            for name in state.c_bar
        )
        mism = momentum_mismatch(h_kin, h_dyn, M)
        report["mismatch"].append(mism)
        report["delta_h"].append(delta_h)
        report["delta_c"].append(delta_c)
        state.h_bar = h_dyn
        state.c_bar = c_new
        state.q = traj.q
        state.forces = sol["forces"]
        state.kappas = sol["kappas"]
        report["passes"] = outer
        if max(delta_h, delta_c) <= REFERENCE_TOL:
            report["converged"] = True
            break

    report["com_y_range_final"] = float(np.ptp(h_dyn[:, 1]))
    report["state"] = state
    return traj, h_dyn, state.forces, report
