"""Simplified rigid-body kinematics and the Gauss-Newton motion subproblem.

The model is a tree of single-DoF joints (prismatic or revolute); the
floating base is modelled as three prismatic joints along x, y, z
followed by three revolute joints (intrinsic x-y-z angles). Each joint
carries one link with a point mass / rotational inertia, so the total
centroidal momentum is a plain sum over links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import BlockTridiagCholesky, NotPositiveDefinite

# Central finite-difference step of momentum_jacobian's configuration
# block, and the Gauss-Newton stopping rule of the kinematic sub-problem:
# a step that moves no joint by more than STEP_TOL, or lowers the cost by
# no more than COST_TOL.
FD_STEP = 1e-6
STEP_TOL = 1e-6
COST_TOL = 1e-9


@dataclass(frozen=True)
class Link:
    """One joint plus its attached body."""

    name: str
    parent: int  # index of parent link, -1 for world
    kind: str  # "revolute" | "prismatic"
    axis: np.ndarray
    offset: np.ndarray  # joint origin in the parent frame
    mass: float
    com: np.ndarray  # body CoM in the link frame
    inertia: np.ndarray  # 3x3 rotational inertia about the body CoM

    def __post_init__(self):
        object.__setattr__(self, "axis", np.asarray(self.axis, dtype=float))
        object.__setattr__(self, "offset", np.asarray(self.offset, dtype=float))
        object.__setattr__(self, "com", np.asarray(self.com, dtype=float))
        object.__setattr__(self, "inertia", np.asarray(self.inertia, dtype=float))
        if self.kind not in ("revolute", "prismatic"):
            raise ValueError(f"unknown joint kind {self.kind!r}")
        if self.mass < 0:
            raise ValueError("link mass must be non-negative")


@dataclass(frozen=True)
class KinematicModel:
    links: tuple
    effectors: dict  # name -> (link index, local offset)
    lower: np.ndarray = None  # soft joint limits, NaN where unbounded
    upper: np.ndarray = None
    # per-link constants stacked once for the batched functions
    masses: np.ndarray = field(init=False, repr=False, compare=False)  # (n,)
    link_coms: np.ndarray = field(init=False, repr=False, compare=False)  # (n, 3)
    inertias: np.ndarray = field(init=False, repr=False, compare=False)  # (n, 3, 3)
    axes: np.ndarray = field(init=False, repr=False, compare=False)  # (n, 3)
    # revolute joints: cross-product matrix K of the axis and K @ K
    skews: np.ndarray = field(init=False, repr=False, compare=False)  # (n, 2, 3, 3)

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        for i, ln in enumerate(self.links):
            if ln.parent >= i:
                raise ValueError("links must be topologically ordered (tree)")
        n = len(self.links)
        if self.lower is None:
            object.__setattr__(self, "lower", np.full(n, np.nan))
        if self.upper is None:
            object.__setattr__(self, "upper", np.full(n, np.nan))
        axes = np.array([ln.axis for ln in self.links]).reshape(n, 3)
        K = np.swapaxes(np.cross(axes[:, None, :], np.eye(3)), 1, 2)  # K e_j = a x e_j
        for name, value in (
            ("masses", np.array([ln.mass for ln in self.links], dtype=float)),
            ("link_coms", np.array([ln.com for ln in self.links]).reshape(n, 3)),
            ("inertias", np.array([ln.inertia for ln in self.links]).reshape(n, 3, 3)),
            ("axes", axes),
            ("skews", np.stack([K, K @ K], axis=1)),
        ):
            object.__setattr__(self, name, value)

    @property
    def dof(self):
        return len(self.links)

    @property
    def total_mass(self):
        return float(sum(ln.mass for ln in self.links))


@dataclass
class JointTrajectory:
    q: np.ndarray  # (T+1, n)
    delta: float
    converged: bool = True

    @property
    def qdot(self):
        qd = np.diff(self.q, axis=0) / self.delta
        return np.vstack([qd, qd[-1]])  # last step reuses the previous velocity


# Every function below takes joint values of shape (..., n) and works on
# the leading axes in one numpy pass; the Python loops run over the links.
# A 1-D input gives unbatched results.


def _apply(R, v):
    """Matrix-vector product over leading axes: R (..., 3, 3), v (..., 3)."""
    return (R @ v[..., None])[..., 0]


def forward_kinematics(model: KinematicModel, q):
    """World rotation/origin per link, link CoM positions and the total CoM:
    R (..., n, 3, 3), p (..., n, 3), CoMs (..., n, 3), x_com (..., 3)."""
    q = np.asarray(q, dtype=float)
    n = model.dof
    if q.shape[-1:] != (n,):
        raise ValueError(f"expected {n} joint values")
    R = np.empty(q.shape[:-1] + (n, 3, 3))
    p = np.empty(q.shape[:-1] + (n, 3))
    eye = np.eye(3)
    for i, ln in enumerate(model.links):
        Rp = eye if ln.parent < 0 else R[..., ln.parent, :, :]
        pp = 0.0 if ln.parent < 0 else p[..., ln.parent, :]
        if ln.kind == "revolute":
            # Rodrigues' formula about the joint axis
            qi = q[..., i, None, None]
            K, K2 = model.skews[i]
            R[..., i, :, :] = Rp @ (eye + np.sin(qi) * K + (1 - np.cos(qi)) * K2)
            p[..., i, :] = pp + Rp @ ln.offset
        else:
            R[..., i, :, :] = Rp
            p[..., i, :] = pp + _apply(Rp, ln.offset + ln.axis * q[..., i, None])
    coms = p + _apply(R, model.link_coms)
    x_com = (model.masses[:, None] * coms).sum(axis=-2) / model.masses.sum()
    return R, p, coms, x_com


def _point(fk, link_index, local_offset):
    R, p, _, _ = fk
    return p[..., link_index, :] + _apply(R[..., link_index, :, :], local_offset)


def effector_positions(model, q):
    fk = forward_kinematics(model, q)
    return {name: _point(fk, idx, off) for name, (idx, off) in model.effectors.items()}


def _joint_axes(model, R):
    """World joint axes (..., n, 3). A revolute joint's own rotation leaves
    its axis fixed, so the link frame gives the same axis as its parent's."""
    return _apply(R, model.axes)


def _link_velocities(model, R, p, qdot):
    """Angular velocity and origin velocity of every link, (..., n, 3) each."""
    a_w = _joint_axes(model, R)
    shape = np.broadcast_shapes(p.shape[:-2], qdot.shape[:-1]) + p.shape[-2:]
    omega = np.zeros(shape)
    v = np.zeros(shape)
    for i, ln in enumerate(model.links):
        j = ln.parent
        if j >= 0:
            omega[..., i, :] = omega[..., j, :]
            v[..., i, :] = v[..., j, :] + np.cross(
                omega[..., j, :], p[..., i, :] - p[..., j, :]
            )
        motion = a_w[..., i, :] * qdot[..., i, None]
        if ln.kind == "revolute":
            omega[..., i, :] += motion
        else:
            v[..., i, :] += motion
    return omega, v


def centroidal_momentum(model, q, qdot, fk=None):
    """(l, k): linear momentum and angular momentum about the total CoM,
    (..., 3) each."""
    qdot = np.asarray(qdot, dtype=float)
    R, p, coms, x_com = fk if fk is not None else forward_kinematics(model, q)
    omega, v = _link_velocities(model, R, p, qdot)
    v_c = v + np.cross(omega, coms - p)
    m = model.masses[:, None]
    l = (m * v_c).sum(axis=-2)
    spin = _apply(R, _apply(model.inertias, _apply(np.swapaxes(R, -1, -2), omega)))
    k = (spin + m * np.cross(coms - x_com[..., None, :], v_c)).sum(axis=-2)
    return l, k


def centroidal_momentum_matrix(model, q):
    """H(q) (..., 6, n) with (l, k) = H qdot, assembled from one batch of
    unit-velocity probes."""
    R, p, coms, x_com = forward_kinematics(model, q)
    # a probe axis in front of the link axis
    fk = (R[..., None, :, :, :], p[..., None, :, :], coms[..., None, :, :],
          x_com[..., None, :])
    l, k = centroidal_momentum(model, q, np.eye(model.dof), fk=fk)
    return np.swapaxes(np.concatenate([l, k], axis=-1), -1, -2)


def momentum_state(model, q, qdot):
    """h = (x_com, l, k) (..., 9) matching the dynamics-side momentum state."""
    fk = forward_kinematics(model, q)
    l, k = centroidal_momentum(model, q, qdot, fk=fk)
    return np.concatenate([fk[3], l, k], axis=-1)


def momentum_jacobian(model, q, qdot):
    """(d h/d q, d h/d qdot), (..., 9, n) each; velocities enter linearly so
    that block is exact, the configuration block uses central finite
    differences with all 2n probes of every entry in one batch."""
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    n = model.dof
    H = centroidal_momentum_matrix(model, q)
    dq_dot = np.concatenate([np.zeros(H.shape[:-2] + (3, n)), H], axis=-2)
    step = FD_STEP * np.eye(n)
    probes = np.concatenate([q[..., None, :] + step, q[..., None, :] - step], axis=-2)
    h = momentum_state(model, probes, qdot[..., None, :])
    dq = np.swapaxes(h[..., :n, :] - h[..., n:, :], -1, -2) / (2 * FD_STEP)
    return dq, dq_dot


def point_jacobian(model, q, link_index, local_offset, fk=None):
    """Geometric Jacobian (..., 3, n) of a point attached to a link (exact)."""
    fk = fk if fk is not None else forward_kinematics(model, q)
    x = _point(fk, link_index, local_offset)
    R, p, _, _ = fk
    a_w = _joint_axes(model, R)
    J = np.zeros(p.shape[:-2] + (3, model.dof))
    i = link_index
    while i >= 0:
        ln = model.links[i]
        if ln.kind == "revolute":
            J[..., :, i] = np.cross(a_w[..., i, :], x - p[..., i, :])
        else:
            J[..., :, i] = a_w[..., i, :]
        i = ln.parent
    return J


# ---------------------------------------------------------------------------
# Default desk-scale biped


def default_biped(total_mass=30.0):
    """Small biped: floating base, 3-DoF legs (pitch-roll-knee) and 2-DoF
    arms (shoulder/elbow pitch). Feet are point effectors on the shanks."""
    X, Y, Z = np.eye(3)
    zero3 = np.zeros(3)

    def inert(m, r):
        return (2.0 / 5.0) * m * r * r * np.eye(3)

    links = []
    # floating base: 3 prismatic + 3 revolute virtual joints, massless
    # except the last which carries the torso body.
    for name, axis in (("base_x", X), ("base_y", Y), ("base_z", Z)):
        links.append(Link(name, len(links) - 1, "prismatic", axis, zero3, 0.0, zero3, np.zeros((3, 3))))
    for name, axis in (("base_rx", X), ("base_ry", Y)):
        links.append(Link(name, len(links) - 1, "revolute", axis, zero3, 0.0, zero3, np.zeros((3, 3))))
    torso_mass = 16.0
    links.append(
        Link("base_rz", len(links) - 1, "revolute", Z, zero3, torso_mass,
             np.array([0.0, 0.0, 0.1]), inert(torso_mass, 0.18))
    )
    base = len(links) - 1
    effectors = {}
    for side, sy in (("l", 1.0), ("r", -1.0)):
        hip = np.array([0.0, sy * 0.09, -0.05])
        links.append(Link(f"{side}_hip_pitch", base, "revolute", Y, hip, 0.0, zero3, np.zeros((3, 3))))
        links.append(
            Link(f"{side}_hip_roll", len(links) - 1, "revolute", X, zero3, 2.0,
                 np.array([0.0, 0.0, -0.125]), inert(2.0, 0.06))
        )
        links.append(
            Link(f"{side}_knee", len(links) - 1, "revolute", Y, np.array([0.0, 0.0, -0.25]), 1.5,
                 np.array([0.0, 0.0, -0.125]), inert(1.5, 0.05))
        )
        effectors[f"{side}_foot"] = (len(links) - 1, np.array([0.0, 0.0, -0.25]))
        shoulder = np.array([0.0, sy * 0.15, 0.15])
        links.append(
            Link(f"{side}_shoulder", base, "revolute", Y, shoulder, 1.0,
                 np.array([0.0, 0.0, -0.1]), inert(1.0, 0.04))
        )
        links.append(
            Link(f"{side}_elbow", len(links) - 1, "revolute", Y, np.array([0.0, 0.0, -0.2]), 0.75,
                 np.array([0.0, 0.0, -0.1]), inert(0.75, 0.035))
        )
    scale = total_mass / sum(ln.mass for ln in links)
    links = [
        Link(ln.name, ln.parent, ln.kind, ln.axis, ln.offset,
             ln.mass * scale, ln.com, ln.inertia * scale)
        for ln in links
    ]
    n = len(links)
    lower = np.full(n, np.nan)
    upper = np.full(n, np.nan)
    lower[6:] = -2.5
    upper[6:] = 2.5
    lower[3:5] = -1.3  # keep base roll/pitch in a sane range
    upper[3:5] = 1.3
    return KinematicModel(tuple(links), effectors, lower, upper)


def biped_standing_configuration(model=None, knee=0.3, base_height=None):
    """Configuration with both feet flat under the hips at z = 0."""
    model = model if model is not None else default_biped()
    q = np.zeros(model.dof)
    names = [ln.name for ln in model.links]
    if base_height is None:
        base_height = 0.05 + 0.5 * np.cos(knee)  # hip drop + two 0.25 segments
    q[names.index("base_z")] = base_height
    for side in ("l", "r"):
        q[names.index(f"{side}_hip_pitch")] = knee
        q[names.index(f"{side}_knee")] = -2 * knee
    return q


# ---------------------------------------------------------------------------
# Gauss-Newton kinematic subproblem


@dataclass
class KinematicWeights:
    posture: float = 0.05
    momentum: np.ndarray = field(default_factory=lambda: np.ones(9))
    effector: float = 10.0
    joint_limit: float = 10.0

    def __post_init__(self):
        self.momentum = np.broadcast_to(
            np.asarray(self.momentum, dtype=float), (9,)
        ).copy()


@dataclass
class KinematicRefs:
    h_ref: np.ndarray  # (T+1, 9)
    effector_ref: dict  # name -> (T+1, 3)
    posture_ref: np.ndarray  # (n,) or (T+1, n)


def _limit_residual(model, q, w):
    lo, hi = model.lower, model.upper
    r = np.zeros_like(q)
    with np.errstate(invalid="ignore"):
        below = q < lo
        above = q > hi
    r[below] = (q - lo)[below]
    r[above] = (q - hi)[above]
    return np.sqrt(w) * r


def _residuals(model, q, delta, refs, weights, with_jac=True):
    """Residuals (T+1, m) of all steps of the trajectory q (T+1, n) and
    their Jacobians (T+1, m, n) with respect to the step's own
    configuration q_t and to the next one. Step T reuses the last velocity:
    its next configuration is the extrapolated 2 q_T - q_{T-1}."""
    n = model.dof
    q_next = np.concatenate([q[1:], 2 * q[-1:] - q[-2:-1]])
    qdot = (q_next - q) / delta
    fk = forward_kinematics(model, q)
    l, k = centroidal_momentum(model, q, qdot, fk=fk)
    h = np.concatenate([fk[3], l, k], axis=-1)
    wm = np.sqrt(weights.momentum)
    we = np.sqrt(weights.effector)
    effs = [model.effectors[name] for name in refs.effector_ref]
    res = [wm * (h - refs.h_ref)]
    for (idx, off), target in zip(effs, refs.effector_ref.values()):
        res.append(we * (_point(fk, idx, off) - target))
    res.append(np.sqrt(weights.posture) * (q - refs.posture_ref))
    res.append(_limit_residual(model, q, weights.joint_limit))
    r = np.concatenate(res, axis=-1)
    if not with_jac:
        return r, None, None
    dq, dqd = momentum_jacobian(model, q, qdot)
    eye = np.eye(n)
    with np.errstate(invalid="ignore"):
        outside = (q < model.lower) | (q > model.upper)
    Jt = np.concatenate(
        [wm[:, None] * (dq - dqd / delta)]
        + [we * point_jacobian(model, q, idx, off, fk=fk) for idx, off in effs]
        + [np.broadcast_to(np.sqrt(weights.posture) * eye, q.shape + (n,)),
           np.sqrt(weights.joint_limit) * outside[..., None] * eye],
        axis=-2,
    )
    Jn = np.zeros_like(Jt)
    Jn[:, :9] = wm[:, None] * (dqd / delta)
    return r, Jt, Jn


def _trajectory_cost(model, q, delta, refs, weights):
    r, _, _ = _residuals(model, q, delta, refs, weights, with_jac=False)
    return 0.5 * float(np.sum(r * r))


def _normal_equations(r, Jt, Jn):
    """Gradient (T*n,) and the block tridiagonal Gauss-Newton matrix,
    diagonal blocks (T, n, n) and sub-diagonal blocks (T-1, n, n), over the
    decision variables q_1..q_T from the per-step residuals and Jacobians of
    ``_residuals``."""
    T = r.shape[0] - 1
    n = Jt.shape[-1]
    # Step t couples decision blocks lo_t and hi_t = lo_t + 1, where block b
    # holds q_{b+1}; block -1 is the fixed q_0. Step t < T pairs q_t with
    # q_{t+1}; step T pairs q_{T-1} and q_T through its extrapolation.
    lo = np.arange(-1, T)
    lo[T] = T - 2
    hi = lo + 1
    keep = lo >= 0
    J_lo = np.concatenate([Jt[:T], -Jn[T:]])
    J_hi = np.concatenate([Jn[:T], Jt[T:] + 2 * Jn[T:]])
    J_loT = np.swapaxes(J_lo, 1, 2)
    J_hiT = np.swapaxes(J_hi, 1, 2)
    grad = np.zeros((T, n))
    diag = np.zeros((T, n, n))
    off = np.zeros((T - 1, n, n))
    np.add.at(grad, hi, _apply(J_hiT, r))
    np.add.at(grad, lo[keep], _apply(J_loT[keep], r[keep]))
    np.add.at(diag, hi, J_hiT @ J_hi)
    np.add.at(diag, lo[keep], J_loT[keep] @ J_lo[keep])
    np.add.at(off, lo[keep], J_hiT[keep] @ J_lo[keep])
    return grad.ravel(), diag, off


def solve_kinematic_subproblem(
    model,
    refs: KinematicRefs,
    T,
    delta,
    weights: KinematicWeights,
    q0,
    max_iter=30,
):
    """Minimize posture/momentum/effector tracking over q_{1:T} by
    Gauss-Newton with a block tridiagonal normal-equation factorization.
    ``converged`` is True only when the STEP_TOL/COST_TOL rule fired."""
    n = model.dof
    q = np.tile(np.asarray(q0, dtype=float), (T + 1, 1))
    post = refs.posture_ref
    if post.ndim == 1:
        post = np.tile(post, (T + 1, 1))
    refs = KinematicRefs(refs.h_ref, refs.effector_ref, post)
    cost = _trajectory_cost(model, q, delta, refs, weights)
    converged = False
    damping = 0.0
    for _ in range(max_iter):
        grad, diag, off = _normal_equations(*_residuals(model, q, delta, refs, weights))
        step = None
        while step is None:
            try:
                fac = BlockTridiagCholesky(diag + (1e-10 + damping) * np.eye(n), off)
                step = -fac.solve(grad)
            except NotPositiveDefinite:
                damping = max(1e-6, damping * 10)
                if damping > 1e6:
                    raise
        alpha = 1.0
        improved = False
        gTs = float(grad @ step)
        for _ in range(25):
            q_new = q.copy()
            q_new[1:] = q[1:] + alpha * step.reshape(T, n)
            new_cost = _trajectory_cost(model, q_new, delta, refs, weights)
            if new_cost <= cost + 1e-4 * alpha * gTs or new_cost < cost:
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
        moved = alpha * np.abs(step).max()
        decreased = cost - new_cost
        q, cost = q_new, new_cost
        damping *= 0.25
        if moved <= STEP_TOL or decreased <= COST_TOL:
            converged = True
            break
    return JointTrajectory(q, delta, converged=converged), cost
