"""Centroidal momentum dynamics and the twice-integrated force variables.

The discrete dynamics are a plain explicit Euler step

    h_{t+1} = h_t + delta * rate(h_t, wrenches_t),

and the sequential formulation replaces per-step forces by variables
phi, psi whose second differences are the contact force and CoM torque.
Telescoping those sums gives closed-form state maps whose value at step t
depends only on (phi, psi) at steps {t-2, t-1} plus the frozen boundary
values of phases that have already ended. The rollout here is the ground
truth oracle that pins down every delta-scaling convention:

    l_t   = l_0 + delta*t*M*g + delta   * sum_e (phi_{m1} - phi_{m2})
    M r_t = M r_0 + delta*t*l_0 + delta^2*t(t-1)/2*M*g
                                + delta^2 * sum_e phi-contribution
    k_t   = k_0 + delta * sum_e (psi_{m1} - psi_{m2})
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contact import ContactWrenchCom, ContactWrenchCop, cop_to_com


@dataclass(frozen=True)
class MomentumState:
    """CoM position, linear momentum and angular momentum about the CoM."""

    r: np.ndarray
    l: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        for name in ("r", "l", "k"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be a finite 3-vector")
            object.__setattr__(self, name, v)

    def as_vector(self):
        return np.concatenate([self.r, self.l, self.k])

    @staticmethod
    def from_vector(h):
        h = np.asarray(h, dtype=float)
        return MomentumState(h[0:3], h[3:6], h[6:9])


@dataclass(frozen=True)
class RobotConstants:
    M: float
    g: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -9.81]))

    def __post_init__(self):
        if not self.M > 0:
            raise ValueError("total mass must be positive")
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))


def momentum_rate(h: MomentumState, wrenches, t, consts: RobotConstants):
    """hdot = (l/M, Mg + sum f, sum kappa); inactive phases are ignored.

    Wrenches may be given in either representation; CoP wrenches are
    converted about the current CoM, so both give identical rates.
    """
    f_sum = np.zeros(3)
    k_sum = np.zeros(3)
    for phase, w in wrenches:
        if not phase.active(t):
            continue
        if isinstance(w, ContactWrenchCop):
            w = cop_to_com(w, phase.surface, h.r)
        f_sum += w.f
        k_sum += w.kappa
    return np.concatenate([h.l / consts.M, consts.M * consts.g + f_sum, k_sum])


def integrate_step(h: MomentumState, rate, delta):
    if not delta > 0:
        raise ValueError("step size must be positive")
    return MomentumState.from_vector(h.as_vector() + delta * np.asarray(rate))


def rollout(h0: MomentumState, wrench_trajectory, delta, T, consts: RobotConstants):
    """Explicit-Euler rollout; wrench_trajectory[t] lists (phase, wrench)."""
    states = [h0]
    h = h0
    for t in range(T):
        wt = wrench_trajectory[t] if t < len(wrench_trajectory) else []
        h = integrate_step(h, momentum_rate(h, wt, t, consts), delta)
        states.append(h)
    return states


class ForceIntegralVars:
    """Twice-integrated force (phi) and CoM torque (psi) per contact phase.

    Values are stored for steps sigma_e <= t < epsilon_e; indices below
    sigma_e read as exact zeros, matching the boundary condition of the
    change of variables.
    """

    def __init__(self, phases, phi=None, psi=None):
        self.phases = list(phases)
        self.phi = {}
        self.psi = {}
        for i, ph in enumerate(self.phases):
            n = ph.epsilon - ph.sigma
            self.phi[i] = np.zeros((n, 3)) if phi is None else np.asarray(phi[i], dtype=float)
            self.psi[i] = np.zeros((n, 3)) if psi is None else np.asarray(psi[i], dtype=float)
            if self.phi[i].shape != (n, 3) or self.psi[i].shape != (n, 3):
                raise ValueError(f"phase {i}: expected {n}x3 phi/psi arrays")

    def get_phi(self, i, t):
        ph = self.phases[i]
        if t < ph.sigma:
            return np.zeros(3)
        if t >= ph.epsilon:
            raise IndexError(f"phi index {t} beyond phase end {ph.epsilon}")
        return self.phi[i][t - ph.sigma]

    def get_psi(self, i, t):
        ph = self.phases[i]
        if t < ph.sigma:
            return np.zeros(3)
        if t >= ph.epsilon:
            raise IndexError(f"psi index {t} beyond phase end {ph.epsilon}")
        return self.psi[i][t - ph.sigma]


def forces_from_integrals(v: ForceIntegralVars, phase_index, t):
    """(f, kappa) at step t as second differences of (phi, psi)."""
    ph = v.phases[phase_index]
    if not ph.active(t):
        raise IndexError(f"step {t} outside active window [{ph.sigma}, {ph.epsilon})")
    f = (
        v.get_phi(phase_index, t)
        - 2.0 * v.get_phi(phase_index, t - 1)
        + v.get_phi(phase_index, t - 2)
    )
    kappa = (
        v.get_psi(phase_index, t)
        - 2.0 * v.get_psi(phase_index, t - 1)
        + v.get_psi(phase_index, t - 2)
    )
    return f, kappa


def _phase_terms(v, i, t):
    """Telescoped per-phase sums: (sum of forces, sum of those sums)."""
    ph = v.phases[i]
    if t < ph.epsilon:
        m1, m2 = t - 1, t - 2
        lin = v.get_phi(i, m1) - v.get_phi(i, m2)
        pos = v.get_phi(i, m2)
        ang = v.get_psi(i, m1) - v.get_psi(i, m2)
    else:
        e1 = v.get_phi(i, ph.epsilon - 1)
        e2 = v.get_phi(i, ph.epsilon - 2)
        lin = e1 - e2
        pos = e2 + (t - ph.epsilon) * (e1 - e2)
        p1 = v.get_psi(i, ph.epsilon - 1)
        p2 = v.get_psi(i, ph.epsilon - 2)
        ang = p1 - p2
    return lin, pos, ang


def sequential_state_map(v: ForceIntegralVars, h0: MomentumState, consts: RobotConstants, delta, t):
    """Closed-form h_t over the force-integral variables; equals rollout."""
    if t < 0:
        raise ValueError("step must be non-negative")
    M, g = consts.M, consts.g
    l = h0.l + delta * t * M * g
    Mr = M * h0.r + delta * t * h0.l + delta**2 * (t * (t - 1) / 2.0) * M * g
    k = h0.k.copy()
    for i in range(len(v.phases)):
        lin, pos, ang = _phase_terms(v, i, t)
        l = l + delta * lin
        Mr = Mr + delta**2 * pos
        k = k + delta * ang
    return MomentumState(Mr / M, l, k)


def rollout_from_integrals(v: ForceIntegralVars, h0, consts, delta, T):
    """Oracle rollout applying the second-difference forces step by step."""
    traj = []
    for t in range(T):
        wt = []
        for i, ph in enumerate(v.phases):
            if ph.active(t):
                f, kappa = forces_from_integrals(v, i, t)
                wt.append((ph, ContactWrenchCom(f, kappa)))
        traj.append(wt)
    return rollout(h0, traj, delta, T, consts)
