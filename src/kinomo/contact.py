"""Contact surfaces, phases, wrench representations and contact constraints.

A contact wrench can be written in local surface coordinates as a force,
a center of pressure and a normal torque (the representation in which
friction/support constraints are affine), or as a force and torque about
the robot's center of mass (the representation in which the momentum
dynamics are affine but the support constraints become Q+/- quadratics).
Both directions of the conversion and both constraint families live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import qpm

# Smallest normal force (N) for which the CoP representation is defined;
# below this the 2x2 projector inverse blows up.
NORMAL_FORCE_EPS = 1e-9

# 2x2 rotation by +90 degrees; inverse of the premultiplied CoP projector
# up to the 1/(R_z^T f) scale.
_J90 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class NormalForceNonPositive(ValueError):
    """Raised when converting to CoP coordinates without positive normal force."""


@dataclass(frozen=True)
class ContactSurface:
    """Planar contact surface with friction and support limits.

    R columns are the surface tangent (x, y) and normal (z) axes in world
    frame; t is the surface origin. p_max holds the rectangular support
    half-extents and tau_max bounds the torque about the surface normal.
    """

    R: np.ndarray
    t: np.ndarray
    mu: float
    p_max: np.ndarray
    tau_max: float

    def __post_init__(self):
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "p_max", np.asarray(self.p_max, dtype=float))
        if np.abs(self.R.T @ self.R - np.eye(3)).max() > 1e-8:
            raise ValueError("R is not orthonormal")
        if abs(np.linalg.det(self.R) - 1.0) > 1e-8:
            raise ValueError("R is not a proper rotation")
        if not self.mu > 0:
            raise ValueError("friction coefficient must be positive")
        if np.any(self.p_max < 0) or self.tau_max < 0:
            raise ValueError("support limits must be non-negative")

    @property
    def R_xy(self):
        return self.R[:, :2]

    @property
    def R_z(self):
        return self.R[:, 2]


@dataclass(frozen=True)
class ContactPhase:
    """Timed contact of one effector on a surface over steps [sigma, epsilon)."""

    effector_id: str
    sigma: int
    epsilon: int
    surface: ContactSurface
    c_hat: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        object.__setattr__(self, "c_hat", np.asarray(self.c_hat, dtype=float))
        if not 0 <= self.sigma < self.epsilon:
            raise ValueError("phase must satisfy 0 <= sigma < epsilon")

    def active(self, t):
        return self.sigma <= t < self.epsilon

    @property
    def location_world(self):
        s = self.surface
        return s.R_xy @ self.c_hat + s.t


@dataclass(frozen=True)
class ContactWrenchCop:
    """Wrench in surface coordinates: force, center of pressure, normal torque."""

    f_hat: np.ndarray
    p_hat: np.ndarray
    tau_hat: float

    def __post_init__(self):
        object.__setattr__(self, "f_hat", np.asarray(self.f_hat, dtype=float))
        object.__setattr__(self, "p_hat", np.asarray(self.p_hat, dtype=float))


@dataclass(frozen=True)
class ContactWrenchCom:
    """World-frame force and torque taken about the center of mass."""

    f: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))
        object.__setattr__(self, "kappa", np.asarray(self.kappa, dtype=float))


def local_to_world(w: ContactWrenchCop, s: ContactSurface):
    """World force, torque and point of action of a local wrench."""
    f = s.R @ w.f_hat
    tau = s.R_z * w.tau_hat
    p = s.R_xy @ w.p_hat + s.t
    return f, tau, p


def cop_to_com(w: ContactWrenchCop, s: ContactSurface, r):
    """Re-express a CoP wrench as force/torque about the CoM at r."""
    f, tau, p = local_to_world(w, s)
    kappa = tau + np.cross(p - np.asarray(r, dtype=float), f)
    return ContactWrenchCom(f, kappa)


def com_to_cop(w: ContactWrenchCom, s: ContactSurface, r):
    """Invert cop_to_com; requires strictly positive normal force.

    The tangential torque at the CoP vanishes, so the 2d CoP solves
    0 = R_xy^T kappa + R_xy^T((r - t) x f) + (R_z^T f) [[0,-1],[1,0]] p_hat,
    inverted analytically via the 2x2 projector.
    """
    r = np.asarray(r, dtype=float)
    fz = float(s.R_z @ w.f)
    if not fz > NORMAL_FORCE_EPS:
        raise NormalForceNonPositive(f"normal force {fz} <= {NORMAL_FORCE_EPS}")
    m = s.R_xy.T @ (w.kappa + np.cross(r - s.t, w.f))
    p_hat = -(_J90 @ m) / fz
    # remaining torque is purely along the surface normal
    f_local = s.R.T @ w.f
    tau_full = s.R.T @ w.kappa + np.cross(
        s.R.T @ (r - s.t) - np.array([p_hat[0], p_hat[1], 0.0]), f_local
    )
    return ContactWrenchCop(f_local, p_hat, float(tau_full[2]))


def friction_pyramid(mu):
    """The friction pyramid mu f_z -/+ f_x >= 0, mu f_z -/+ f_y >= 0 as
    four rows over a local force (f_x, f_y, f_z)."""
    return np.array([[-1.0, 0.0, mu], [1.0, 0.0, mu], [0.0, -1.0, mu], [0.0, 1.0, mu]])


def build_affine_contact_constraints(phase: ContactPhase):
    """Affine inequality rows g(x) >= 0 over x = (f_hat, p_hat, tau_hat).

    Encodes the normal-torque bound, the rectangular support bound on the
    CoP and the friction pyramid; ten scalar rows in total.
    """
    s = phase.surface
    cx, cy = phase.c_hat
    pmx, pmy = s.p_max
    # x = (f_hat_x, f_hat_y, f_hat_z, p_hat_x, p_hat_y, tau_hat)
    A = np.zeros((10, 6))
    A[0:2, 5] = [-1.0, 1.0]  # tau_max -/+ tau >= 0
    A[2:4, 3] = [-1.0, 1.0]  # pm_x -/+ (p_x - c_x) >= 0
    A[4:6, 4] = [-1.0, 1.0]
    A[6:, :3] = friction_pyramid(s.mu)
    a = np.array([s.tau_max, s.tau_max, pmx + cx, pmx - cx, pmy + cy, pmy - cy, 0, 0, 0, 0])
    return qpm.make_affine(A, a)


def build_cop_qpm_constraints(phases, r_map, f_map, kappa_map):
    """Support-rectangle constraints as Q+/- rows over the CoM representation.

    phases lists the phase of each contact sample; r_map, f_map and
    kappa_map are affine functions of a shared decision vector with three
    rows per sample, giving the CoM position, the world contact force and
    the torque about the CoM. The four rows of a sample, multiplied
    through by the (positive) normal force, are

        (p_max +/- c_hat) R_z^T f +/- [[0,1],[-1,0]] m >= 0,
        m = R_xy^T kappa + R_xy^T ((r - t) x f),

    one affine map of (f, kappa, (r - t) x f) for every sample at once; the
    cross product's Q/P entries are quarter squares of sums and differences
    of rows of r - t and f (qpm.cross), so no eigendecomposition is needed
    at build time.
    """
    for name, fn in (("r_map", r_map), ("f_map", f_map), ("kappa_map", kappa_map)):
        if not fn.is_affine():
            raise ValueError(f"{name} must be affine")
    R = np.array([ph.surface.R for ph in phases])
    t = np.array([ph.surface.t for ph in phases])
    pmx, pmy = np.array([ph.surface.p_max for ph in phases]).T
    cx, cy = np.array([ph.c_hat for ph in phases]).T
    rt = qpm.affine_after(sp.identity(t.size), -t.ravel(), r_map)
    cross = qpm.cross(rt, f_map)
    rx, ry, rz = R[:, :, 0], R[:, :, 1], R[:, :, 2]
    # rows: upper x, upper y, lower x, lower y
    normal = np.stack([(pmx + cx)[:, None] * rz, (pmy + cy)[:, None] * rz,
                       (pmx - cx)[:, None] * rz, (pmy - cy)[:, None] * rz], axis=1)
    moment = qpm.block_diag(np.stack([ry, -rx, -ry, rx], axis=1))
    C = sp.hstack([qpm.block_diag(normal), moment, moment])
    return qpm.affine_after(C, 0.0, qpm.stack([f_map, kappa_map, cross]))


def cop_wrench_feasibility(phase: ContactPhase, w: ContactWrenchCop, tol=0.0):
    """Per-family slack values (>= -tol means satisfied) for a CoP wrench."""
    g = build_affine_contact_constraints(phase)
    x = np.concatenate([w.f_hat, w.p_hat, [w.tau_hat]])
    vals = g(x)
    return {
        "torque": float(vals[:2].min()),
        "cop": float(vals[2:6].min()),
        "friction": float(vals[6:].min()),
        "feasible": bool(vals.min() >= -tol),
    }
