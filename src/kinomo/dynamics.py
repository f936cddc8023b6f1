"""Centroidal momentum dynamics.

The discrete dynamics are a plain explicit Euler step

    h_{t+1} = h_t + delta * rate(h_t, wrenches_t).

The rollout here is the ground-truth oracle that pins down every
delta-scaling convention: the sequential transcription's closed-form
state maps over the force integrals are tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contact import ContactWrenchCop, cop_to_com


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
