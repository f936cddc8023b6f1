"""Output checks made apart from kinomo's transcription and solver.

Every check here is the benchmark's own numpy arithmetic on the solution a
workload returns: an explicit-Euler rollout of the momentum trajectory from
the contact wrenches, the ten contact rows per sample (normal force,
friction pyramid, CoP rectangle, normal torque), the tracking objective,
agreement with the other formulation's solution, and the planner's pass
history. A check is a ``Check(name, ok, value, limit)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Row tolerance in each row's own unit (N, m, N*m): ten times the solver's
# default KKT tolerance of 1e-6.
ROW_TOL = 1e-5
# The simultaneous dynamics hold to the KKT tolerance per step, so a
# rollout from h0 drifts by up to T times that.
ROLLOUT_TOL = 1e-4
OBJECTIVE_RTOL = 1e-6
# Cross-formulation agreement (acceptance criterion 8).
AGREE_TOL = 1e-3
PLAN_MISMATCH_TOL = 1e-2


@dataclass
class Check:
    name: str
    ok: bool
    value: float
    limit: float


@dataclass
class Sample:
    """One active contact (phase i, step t) in both representations."""

    i: int
    t: int
    f: np.ndarray  # world force
    kappa: np.ndarray  # world torque about the solution's CoM at step t
    f_hat: np.ndarray  # force in surface coordinates
    p_hat: np.ndarray  # CoP in surface coordinates (nan if f_hat[2] <= 0)
    tau_hat: float  # torque about the surface normal (nan if f_hat[2] <= 0)


def contact_samples(phases, T, sol):
    """Samples from a sequential solution (world forces and torques about
    the CoM) or a simultaneous one (surface-frame CoP wrenches)."""
    out = []
    for t in range(T):
        r = sol["h"][t, :3]
        for i, ph in enumerate(phases):
            if not ph.sigma <= t < ph.epsilon:
                continue
            s = ph.surface
            if "wrenches" in sol:
                w = sol["wrenches"][(i, t)]
                f_hat, p_hat, tau_hat = w.f_hat, np.asarray(w.p_hat), float(w.tau_hat)
                f = s.R @ f_hat
                p = s.R[:, :2] @ p_hat + s.t
                kappa = s.R[:, 2] * tau_hat + np.cross(p - r, f)
            else:
                f = sol["forces"][i][t]
                kappa = sol["kappas"][i][t]
                f_hat = s.R.T @ f
                # moment about the surface origin, in surface coordinates:
                # m = tau_hat e_z + (p_hat, 0) x f_hat
                m = s.R.T @ (kappa + np.cross(r - s.t, f))
                if f_hat[2] > 0:
                    p_hat = np.array([-m[1], m[0]]) / f_hat[2]
                    tau_hat = float(m[2] - (p_hat[0] * f_hat[1] - p_hat[1] * f_hat[0]))
                else:
                    p_hat, tau_hat = np.full(2, np.nan), float("nan")
            out.append(Sample(i, t, f, kappa, f_hat, p_hat, tau_hat))
    return out


def rollout_error(h, h0, samples, T, delta, M, g):
    """Largest deviation of h from the Euler rollout of its own wrenches.
    Torques are moved from the solution's CoM to the rolled-out one."""
    by_t = [[] for _ in range(T)]
    for s in samples:
        by_t[s.t].append(s)
    h_roll = np.empty((T + 1, 9))
    h_roll[0] = h0
    for t in range(T):
        f_sum = M * np.asarray(g, dtype=float)
        k_sum = np.zeros(3)
        for s in by_t[t]:
            f_sum = f_sum + s.f
            k_sum = k_sum + s.kappa + np.cross(h[t, :3] - h_roll[t, :3], s.f)
        h_roll[t + 1, :3] = h_roll[t, :3] + delta * h_roll[t, 3:6] / M
        h_roll[t + 1, 3:6] = h_roll[t, 3:6] + delta * f_sum
        h_roll[t + 1, 6:] = h_roll[t, 6:] + delta * k_sum
    return float(np.abs(h_roll - h).max())


def row_violations(phases, samples):
    """Largest violation per contact-row family (<= 0 means satisfied)."""
    worst = {"normal": -np.inf, "friction": -np.inf, "cop": -np.inf, "torque": -np.inf}
    for s in samples:
        sf = phases[s.i].surface
        c_hat = phases[s.i].c_hat
        fx, fy, fz = s.f_hat
        worst["normal"] = max(worst["normal"], -fz)
        worst["friction"] = max(worst["friction"], abs(fx) - sf.mu * fz, abs(fy) - sf.mu * fz)
        if fz > 0:
            worst["cop"] = max(worst["cop"], float(np.max(np.abs(s.p_hat - c_hat) - sf.p_max)))
            worst["torque"] = max(worst["torque"], abs(s.tau_hat) - sf.tau_max)
    return {k: float(v) for k, v in worst.items()}


def tracking_objective(ms, sol):
    """sum_{t>=1} sum_k w_k (h_t,k - h_ref_t,k)^2
    + w_f sum_{t<T} sum_active |f - f_ref|^2, forces in world frame."""
    w = ms.weights
    J = float(np.sum(w.momentum * (sol["h"][1:] - ms.h_ref[1:]) ** 2))
    for i, ph in enumerate(ms.phases):
        d = sol["forces"][i][ph.sigma:ph.epsilon] - ms.force_ref[i][ph.sigma:ph.epsilon]
        J += w.force * float(np.sum(d * d))
    return J


def check_momentum_solution(ms, sol, objective, torque_row, reference=None):
    """Checks of one momentum solution of MomentumScenario ``ms``.

    ``objective`` is the value the solver reported; ``torque_row`` says
    whether the formulation bounds the normal torque (the sequential one
    cannot, so its torque gap is reported, not checked); ``reference`` is
    the other formulation's (objective, h) for the same instance.
    Returns (checks, torque gap in N*m).
    """
    samples = contact_samples(ms.phases, ms.T, sol)
    h0 = ms.h0.as_vector()
    checks = [
        Check("initial_state", bool(np.abs(sol["h"][0] - h0).max() <= 1e-12),
              float(np.abs(sol["h"][0] - h0).max()), 1e-12),
    ]
    err = rollout_error(sol["h"], h0, samples, ms.T, ms.delta, ms.consts.M, ms.consts.g)
    checks.append(Check("euler_rollout", err <= ROLLOUT_TOL, err, ROLLOUT_TOL))
    viol = row_violations(ms.phases, samples)
    families = ("normal", "friction", "cop") + (("torque",) if torque_row else ())
    for fam in families:
        checks.append(Check(f"contact_{fam}", viol[fam] <= ROW_TOL, viol[fam], ROW_TOL))
    J = tracking_objective(ms, sol)
    rel = abs(J - objective) / (1.0 + abs(J))
    checks.append(Check("objective", rel <= OBJECTIVE_RTOL, rel, OBJECTIVE_RTOL))
    if reference is not None:
        J_ref, h_ref = reference
        rel = abs(J - J_ref) / (1.0 + abs(J_ref))
        checks.append(Check("agree_objective", rel <= AGREE_TOL, rel, AGREE_TOL))
        dh = float(np.abs(sol["h"] - h_ref).max())
        checks.append(Check("agree_momentum", dh <= AGREE_TOL, dh, AGREE_TOL))
    return checks, max(viol["torque"], 0.0)


def normalized_mismatch(h_kin, h_dyn, M):
    """max |h_kin - h_dyn| with momenta divided by the total mass."""
    d = np.abs(np.asarray(h_kin) - np.asarray(h_dyn))
    d[:, 3:] /= M
    return float(d.max())


def momentum_converged(report):
    """Whether every momentum solve of a planner run converged. plan()
    raises only when a solve ends NumericFailure or Infeasible, so a pass
    that stopped at MaxIter shows only in ``report["momentum_status"]``."""
    status = report["momentum_status"]
    return bool(status) and all(s == "Converged" for s in status)


def check_plan(scn, q, h, forces, kappas, report, momentum_state, effector_positions):
    """Checks of one planner run and its quality figures.

    ``momentum_state`` and ``effector_positions`` are kinomo's kinematics
    functions; the mismatch and stance drift are recomputed from the
    returned joint trajectory with them. Returns (checks, quality) where
    quality holds the torque gap and the stance drift.
    """
    model, T, delta = scn.model, scn.T, scn.delta
    M = model.total_mass
    d0 = float(np.abs(q[0] - scn.q0).max())
    checks = [Check("starts_at_q0", d0 == 0.0, d0, 0.0)]
    mism = list(report["mismatch"])
    falls = all(b < a for a, b in zip(mism, mism[1:]))
    rise = max((b - a for a, b in zip(mism, mism[1:])), default=0.0)
    checks.append(Check("mismatch_falls", falls and len(mism) >= 2, rise, 0.0))
    checks.append(Check("final_mismatch", mism[-1] <= PLAN_MISMATCH_TOL, mism[-1],
                        PLAN_MISMATCH_TOL))
    qd = np.diff(q, axis=0) / delta
    qd = np.vstack([qd, qd[-1]])
    h_kin = np.array([momentum_state(model, q[t], qd[t]) for t in range(T + 1)])
    again = normalized_mismatch(h_kin, h, M)
    checks.append(Check("mismatch_recomputed", abs(again - mism[-1]) <= 1e-9,
                        abs(again - mism[-1]), 1e-9))
    sol = {"h": h, "forces": forces, "kappas": kappas}
    samples = contact_samples(scn.phases, T, sol)
    h0 = scn.initial_momentum().as_vector()
    err = rollout_error(h, h0, samples, T, delta, M, scn.gravity)
    checks.append(Check("euler_rollout", err <= ROLLOUT_TOL, err, ROLLOUT_TOL))
    viol = row_violations(scn.phases, samples)
    for fam in ("normal", "friction", "cop"):
        checks.append(Check(f"contact_{fam}", viol[fam] <= ROW_TOL, viol[fam], ROW_TOL))
    drift = 0.0
    for t in range(T + 1):
        pos = effector_positions(model, q[t])
        for ph in scn.phases:
            if ph.sigma <= min(t, T - 1) < ph.epsilon:
                drift = max(drift, float(np.linalg.norm(pos[ph.effector_id]
                                                        - ph.location_world)))
    return checks, {"torque_gap": max(viol["torque"], 0.0), "stance_drift": drift}
