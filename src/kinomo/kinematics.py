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

from .linalg import BlockTridiagCholesky, block_tridiag_band

# Gauss-Newton stopping rule of the kinematic sub-problem: a step that
# moves no joint by more than STEP_TOL, or lowers the cost by no more than
# COST_TOL.
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
    offsets: np.ndarray = field(init=False, repr=False, compare=False)  # (n, 3)
    # revolute joints: cross-product matrix K of the axis and K @ K
    skews: np.ndarray = field(init=False, repr=False, compare=False)  # (n, 2, 3, 3)
    revolute: np.ndarray = field(init=False, repr=False, compare=False)  # (n,) bool
    # support[i, k] = 1 where joint k moves link i (k is i or an ancestor):
    # support @ x sums x down each chain, support.T @ x over each subtree
    support: np.ndarray = field(init=False, repr=False, compare=False)  # (n, n)

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
        K = np.swapaxes(_cross(axes[:, None, :], np.eye(3)), 1, 2)  # K e_j = a x e_j
        support = np.eye(n)
        for i, ln in enumerate(self.links):
            if ln.parent >= 0:
                support[i] += support[ln.parent]
        for name, value in (
            ("masses", np.array([ln.mass for ln in self.links], dtype=float)),
            ("link_coms", np.array([ln.com for ln in self.links]).reshape(n, 3)),
            ("inertias", np.array([ln.inertia for ln in self.links]).reshape(n, 3, 3)),
            ("axes", axes),
            ("offsets", np.array([ln.offset for ln in self.links]).reshape(n, 3)),
            ("skews", np.stack([K, K @ K], axis=1)),
            ("revolute", np.array([ln.kind == "revolute" for ln in self.links])),
            ("support", support),
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
    trials: int = 0  # line-search cost evaluations of the solve that made q

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


def _cross(a, b):
    """np.cross(a, b) of (..., 3) arrays, to the last bit, without its axis
    moves: on (22, 16, 3) inputs it takes half the time."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def forward_kinematics(model: KinematicModel, q):
    """World rotation/origin per link, link CoM positions and the total CoM:
    R (..., n, 3, 3), p (..., n, 3), CoMs (..., n, 3), x_com (..., 3)."""
    q = np.asarray(q, dtype=float)
    n = model.dof
    if q.shape[-1:] != (n,):
        raise ValueError(f"expected {n} joint values")
    # every joint's own motion in one pass: the rotation about a revolute
    # axis (Rodrigues' formula; the identity for a prismatic joint) and the
    # offset from the parent, moved along a prismatic axis
    rev = model.revolute
    angle = np.where(rev, q, 0.0)[..., None, None]
    K, K2 = model.skews[:, 0], model.skews[:, 1]
    local_R = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K2
    local_p = model.offsets + model.axes * np.where(rev, 0.0, q)[..., None]
    R = np.empty(q.shape[:-1] + (n, 3, 3))
    p = np.empty(q.shape[:-1] + (n, 3))
    for i, ln in enumerate(model.links):
        if ln.parent < 0:
            R[..., i, :, :] = local_R[..., i, :, :]
            p[..., i, :] = local_p[..., i, :]
        else:
            Rp = R[..., ln.parent, :, :]
            R[..., i, :, :] = Rp @ local_R[..., i, :, :]
            p[..., i, :] = p[..., ln.parent, :] + _apply(Rp, local_p[..., i, :])
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


def _twists(model, R, p, qdot):
    """World joint motion axes S and link twists V, (..., n, 6) each, as
    (angular, linear) with the linear part the velocity of the body point
    at the world origin: a revolute joint gives (a, p x a), a prismatic
    one (0, a), and V_i = V_parent + S_i qdot_i."""
    a = _joint_axes(model, R)
    rev = model.revolute[:, None]
    S = np.concatenate([a * rev, np.where(rev, _cross(p, a), a)], axis=-1)
    return S, model.support @ (S * qdot[..., None])


def centroidal_momentum(model, q, qdot, fk=None):
    """(l, k): linear momentum and angular momentum about the total CoM,
    (..., 3) each."""
    qdot = np.asarray(qdot, dtype=float)
    R, p, coms, x_com = fk if fk is not None else forward_kinematics(model, q)
    _, V = _twists(model, R, p, qdot)
    omega = V[..., :3]
    v_c = V[..., 3:] + _cross(omega, coms)
    m = model.masses[:, None]
    l = (m * v_c).sum(axis=-2)
    spin = _apply(R, _apply(model.inertias, _apply(np.swapaxes(R, -1, -2), omega)))
    k = (spin + m * _cross(coms - x_com[..., None, :], v_c)).sum(axis=-2)
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


def momentum_jacobian(model, q, qdot, fk=None):
    """(d h/d q, d h/d qdot), (..., 9, n) each, exact: one twist pass down
    the tree and one sum over each joint's subtree.

    With spatial vectors at the world origin, the momentum h_O = (k_O, l)
    of the subtree of joint j, moved rigidly with S_j, gives column j of
    the configuration block, S_j x* h_sub - I_sub (S_j x V_j), and of the
    velocity block, I_sub S_j. The CoM rows follow from l = M dx_com/dt,
    the angular rows from k = k_O - x_com x l."""
    qdot = np.asarray(qdot, dtype=float)
    R, p, coms, x_com = fk if fk is not None else forward_kinematics(model, q)
    S, V = _twists(model, R, p, qdot)
    w_S, v_S = S[..., :3], S[..., 3:]
    omega, v = V[..., :3], V[..., 3:]
    # each link's spatial inertia about the origin: mass m, first moment
    # s = m c, rotational inertia J = R I R^T + m (|c|^2 1 - c c^T)
    m = model.masses[:, None]
    s = m * coms
    cc = coms[..., :, None] * coms[..., None, :]
    J = (R @ model.inertias @ np.swapaxes(R, -1, -2)
         + m[..., None] * ((coms * coms).sum(axis=-1)[..., None, None] * np.eye(3) - cc))
    l_link = m * v + _cross(omega, s)
    k_link = _apply(J, omega) + _cross(s, v)
    # subtree sums
    sub = model.support.T
    m_sub = sub @ m
    s_sub = sub @ s
    J_sub = (sub @ J.reshape(J.shape[:-2] + (9,))).reshape(J.shape)
    l_sub = sub @ l_link
    k_sub = sub @ k_link
    # S_j x V_j as (angular, linear)
    X_w = _cross(w_S, omega)
    X_v = _cross(w_S, v) + _cross(v_S, omega)
    dl = _cross(w_S, l_sub) - m_sub * X_v - _cross(X_w, s_sub)
    dk = (_cross(w_S, k_sub) + _cross(v_S, l_sub)
          - _apply(J_sub, X_w) - _cross(s_sub, X_v))
    Hl = m_sub * v_S + _cross(w_S, s_sub)
    Hk = _apply(J_sub, w_S) + _cross(s_sub, v_S)
    # to the CoM
    x = x_com[..., None, :]
    dx = Hl / model.masses.sum()
    l = l_link.sum(axis=-2)[..., None, :]
    dq = np.concatenate([dx, dl, dk - _cross(dx, l) - _cross(x, dl)], axis=-1)
    dq_dot = np.concatenate([np.zeros_like(dx), Hl, Hk - _cross(x, Hl)], axis=-1)
    return np.swapaxes(dq, -1, -2), np.swapaxes(dq_dot, -1, -2)


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
            J[..., :, i] = _cross(a_w[..., i, :], x - p[..., i, :])
        else:
            J[..., :, i] = a_w[..., i, :]
        i = ln.parent
    return J


# ---------------------------------------------------------------------------
# Default desk-scale biped


def default_biped():
    """Small 30 kg biped: floating base, 3-DoF legs (pitch-roll-knee) and
    2-DoF arms (shoulder/elbow pitch). Feet are point effectors on the
    shanks."""
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
    scale = 30.0 / sum(ln.mass for ln in links)
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


def biped_standing_configuration(model):
    """Configuration of default_biped with both feet flat under the hips at
    z = 0, hips bent by 0.3 rad and knees by -0.6 rad."""
    knee = 0.3
    q = np.zeros(model.dof)
    names = [ln.name for ln in model.links]
    q[names.index("base_z")] = 0.05 + 0.5 * np.cos(knee)  # hip drop + two 0.25 segments
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
        # every step's residual holds sqrt(posture) (q_t - q_ref), so the
        # Gauss-Newton matrix is at least posture I: positive definite
        if not self.posture > 0:
            raise ValueError("the posture weight must be positive")
        if not (np.all(self.momentum >= 0) and self.effector >= 0 and self.joint_limit >= 0):
            raise ValueError("weights must be non-negative")


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


def _residuals(model, q, delta, refs, weights):
    """Residuals (T+1, m) of all steps of the trajectory q (T+1, n), and the
    velocities and forward kinematics they were computed from, which
    _jacobians reuses at the same q. Step T reuses the last velocity: its
    next configuration is the extrapolated 2 q_T - q_{T-1}."""
    q_next = np.concatenate([q[1:], 2 * q[-1:] - q[-2:-1]])
    qdot = (q_next - q) / delta
    fk = forward_kinematics(model, q)
    l, k = centroidal_momentum(model, q, qdot, fk=fk)
    h = np.concatenate([fk[3], l, k], axis=-1)
    wm = np.sqrt(weights.momentum)
    we = np.sqrt(weights.effector)
    res = [wm * (h - refs.h_ref)]
    for name, target in refs.effector_ref.items():
        res.append(we * (_point(fk, *model.effectors[name]) - target))
    res.append(np.sqrt(weights.posture) * (q - refs.posture_ref))
    res.append(_limit_residual(model, q, weights.joint_limit))
    return np.concatenate(res, axis=-1), (qdot, fk)


def _jacobians(model, q, qdot, fk, delta, refs, weights):
    """Jacobians (T+1, m, n) of the residuals of _residuals at q, given the
    qdot and fk it returned, with respect to the step's own configuration
    q_t and to the next one."""
    n = model.dof
    wm = np.sqrt(weights.momentum)
    we = np.sqrt(weights.effector)
    dq, dqd = momentum_jacobian(model, q, qdot, fk=fk)
    eye = np.eye(n)
    with np.errstate(invalid="ignore"):
        outside = (q < model.lower) | (q > model.upper)
    Jt = np.concatenate(
        [wm[:, None] * (dq - dqd / delta)]
        + [we * point_jacobian(model, q, *model.effectors[name], fk=fk)
           for name in refs.effector_ref]
        + [np.broadcast_to(np.sqrt(weights.posture) * eye, q.shape + (n,)),
           np.sqrt(weights.joint_limit) * outside[..., None] * eye],
        axis=-2,
    )
    Jn = np.zeros_like(Jt)
    Jn[:, :9] = wm[:, None] * (dqd / delta)
    return Jt, Jn


def _add_hi(blocks, per_step):
    """Add step t's term to block hi_t = t for t < T, and step T's to block
    T - 1, in step order."""
    T = per_step.shape[0] - 1
    blocks += per_step[:T]
    blocks[T - 1] += per_step[T]


def _add_lo(blocks, per_step):
    """Add step t's term to block lo_t = t - 1 for 0 < t < T, and step T's
    to block T - 2, in step order; step 0's block is the fixed q_0 and
    takes nothing, and so does step T's when T = 1."""
    T = per_step.shape[0] - 1
    blocks[: T - 1] += per_step[1:T]
    if T > 1:
        blocks[T - 2] += per_step[T]


def _normal_equations(r, Jt, Jn):
    """Gradient (T*n,) and the block tridiagonal Gauss-Newton matrix,
    diagonal blocks (T, n, n) and sub-diagonal blocks (T-1, n, n), over the
    decision variables q_1..q_T from the per-step residuals of _residuals
    and the Jacobians of _jacobians."""
    T = r.shape[0] - 1
    n = Jt.shape[-1]
    # Step t couples decision blocks lo_t and hi_t = lo_t + 1, where block b
    # holds q_{b+1}; block -1 is the fixed q_0. Step t < T pairs q_t with
    # q_{t+1}; step T pairs q_{T-1} and q_T through its extrapolation.
    J_lo = np.concatenate([Jt[:T], -Jn[T:]])
    J_hi = np.concatenate([Jn[:T], Jt[T:] + 2 * Jn[T:]])
    J_loT = np.swapaxes(J_lo, 1, 2)
    J_hiT = np.swapaxes(J_hi, 1, 2)
    grad = np.zeros((T, n))
    diag = np.zeros((T, n, n))
    off = np.zeros((T - 1, n, n))
    _add_hi(grad, _apply(J_hiT, r))
    _add_lo(grad, _apply(J_loT, r))
    _add_hi(diag, J_hiT @ J_hi)
    _add_lo(diag, J_loT @ J_lo)
    _add_lo(off, J_hiT @ J_lo)
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
    ``converged`` is True only when the STEP_TOL/COST_TOL rule fired;
    ``trials`` counts the line search's cost evaluations."""
    n = model.dof
    band = block_tridiag_band(T, n)

    def evaluate(q):
        r, kin = _residuals(model, q, delta, refs, weights)
        return 0.5 * float(np.sum(r * r)), r, kin

    q = np.tile(np.asarray(q0, dtype=float), (T + 1, 1))
    cost, r, kin = evaluate(q)
    converged = False
    trials = 0
    for _ in range(max_iter):
        # the accepted trial's residuals and kinematics serve the Jacobians
        grad, diag, off = _normal_equations(
            r, *_jacobians(model, q, *kin, delta, refs, weights))
        # diag + off is at least posture I (KinematicWeights), so the
        # Cholesky succeeds on finite input
        step = -BlockTridiagCholesky(diag + 1e-10 * np.eye(n), off, band).solve(grad)
        alpha = 1.0
        improved = False
        gTs = float(grad @ step)
        for _ in range(25):
            q_new = q.copy()
            q_new[1:] = q[1:] + alpha * step.reshape(T, n)
            new_cost, r_new, kin_new = evaluate(q_new)
            trials += 1
            if new_cost <= cost + 1e-4 * alpha * gTs or new_cost < cost:
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
        moved = alpha * np.abs(step).max()
        decreased = cost - new_cost
        q, cost, r, kin = q_new, new_cost, r_new, kin_new
        if moved <= STEP_TOL or decreased <= COST_TOL:
            converged = True
            break
    return JointTrajectory(q, delta, converged=converged, trials=trials), cost
