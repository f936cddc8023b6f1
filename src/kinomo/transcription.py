"""Block-structured transcriptions of the momentum sub-problem.

Two formulations of the same tracking problem over a fixed contact
schedule:

* simultaneous: decision variables are per-step contact wrenches in
  surface coordinates plus the momentum states, linked by momentum
  dynamics equality constraints (the (p - r) x f torque term makes those
  Q+/- rows); contact constraints are affine.
* sequential: states are eliminated through the closed-form affine maps
  of the twice-integrated force variables (phi, psi); there are no
  equality constraints, the friction pyramid stays affine in second
  differences and the support-rectangle constraint becomes Q+/- rows.

Each builder states each family once, as one qpm expression over all
steps and contact samples (no qpm call per step or sample): h_0..h_T as
one function of 9(T+1) rows, the world forces and CoM torques with three
rows per sample, and from them the constraint rows. The tracking
objective of both forms is one weighted least-squares over the rows of
h_1..h_T and the forces: sum_k w_k (r_k(x) - y_k)^2. The problem keeps
these three maps, and extract reads every solution through them.

Both builders emit an NlpProblem: one inequality and one equality Q+/-
function with a (step, phase, family) entry per row, and a DecisionLayout
with per-step variable blocks plus the "arrow" block of frozen
phase-boundary variables, by which its newton_key orders the Newton
system. A compiled form sharing the functions' Q/P arrays is attached
lazily for the solver: evaluating it is linear-time in the horizon, and
solver.KKTSystem assembles the Lagrangian curvature from its Q and P
entries. Only the tests read a row's step blocks (the var_block labels of
its columns) from the compiled patterns (test_transcription.row_blocks).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import contact, qpm
from .contact import ContactWrenchCop
from .dynamics import MomentumState, RobotConstants


@dataclass
class TrackingWeights:
    """Diagonal tracking weights: 9 momentum components and force."""

    momentum: np.ndarray = field(default_factory=lambda: np.ones(9))
    force: float = 1e-3

    def __post_init__(self):
        self.momentum = np.broadcast_to(
            np.asarray(self.momentum, dtype=float), (9,)
        ).copy()
        self.force = float(self.force)
        if not (np.all(self.momentum >= 0) and self.force >= 0):
            raise ValueError("weights must be non-negative")


@dataclass
class MomentumScenario:
    """Everything the momentum sub-problem needs: schedule, references,
    initial state, constants and tracking weights."""

    phases: tuple
    T: int
    delta: float
    h0: MomentumState
    consts: RobotConstants
    h_ref: np.ndarray  # (T+1, 9); row 0 unused
    force_ref: dict  # phase index -> (T, 3) world-frame force reference
    weights: TrackingWeights = field(default_factory=TrackingWeights)

    def __post_init__(self):
        self.phases = tuple(self.phases)
        self.h_ref = np.asarray(self.h_ref, dtype=float)
        if not (self.T >= 1 and self.delta > 0):
            raise ValueError("need T >= 1 and delta > 0")
        if self.h_ref.shape != (self.T + 1, 9):
            raise ValueError(f"h_ref must be ({self.T + 1}, 9)")
        for i, ph in enumerate(self.phases):
            if ph.epsilon > self.T:
                raise ValueError(f"phase {i} extends beyond the horizon")
            ref = np.asarray(self.force_ref.get(i, np.zeros((self.T, 3))), dtype=float)
            if ref.shape != (self.T, 3):
                raise ValueError(f"force_ref[{i}] must be ({self.T}, 3)")
            self.force_ref[i] = ref

    def active_at(self, t):
        return [i for i, ph in enumerate(self.phases) if ph.active(t)]


@dataclass(frozen=True)
class DecisionLayout:
    """Variable indexing: contiguous per-step blocks plus the arrow block.

    ``var_block[j]`` is the step-block label of variable j, or -1 when j
    belongs to the arrow block (frozen phase-boundary phi/psi shared by
    every later step). Arrow entries alias into x; they are not duplicated
    variables.

    ``newton_key`` orders the solver's Newton matrix: its indices, the
    variables and then the equality rows, sort stably by it (_layout
    states the order of each form).
    """

    kind: str  # "sequential" | "simultaneous"
    n_vars: int
    var_block: np.ndarray
    arrow_indices: np.ndarray
    newton_key: np.ndarray  # per variable, then per equality row
    active: tuple  # per step, tuple of active phase indices
    contact_base: dict  # (phase, t) -> first of 6 contiguous indices
    state_base: dict  # t -> first of 9 indices for h_t (simultaneous only)


# The simultaneous Newton matrix in time-step order: an index of step t
# sorts by 6 t + its group below, stably, so that each group keeps index
# order. Step t's variables are h_t and the wrenches (f, p, tau) of its
# samples; its equality rows are the nine dynamics rows h_{t+1} - h_t - ...
# in build_simultaneous, (r, l, k). In order:
#   0 k_t;  1 the (p, tau) half of every wrench;  2 r_t, l_t;
#   3 the k rows;  4 the f half of every wrench;  5 the r rows, the l rows.
# The k rows are coupled to nearly all of the step: to k_t and k_{t+1},
# to every wrench entry and, through (p - r_t) x f, to r_t. With them in
# the middle, p, tau and r_t above and f below, the widest coupling is a
# sample's p to its own f, across r_t, l_t and the k rows: the band is
# 3 S + 11 for at most S samples per step, 17 with two feet, at every T.
_WRENCH_GROUP = np.repeat([4, 1], 3)  # f | p, tau
_STATE_GROUP = np.repeat([2, 2, 0], 3)  # r, l | k
_ROW_GROUP = np.repeat([5, 5, 3], 3)  # r rows, l rows | k rows


def _layout(scn, kind):
    """Six contact indices per active (phase, step), in step order. The
    simultaneous form adds the nine indices of h_{t+1} after step t, and
    orders its Newton matrix by the groups above; the sequential form marks
    the last two steps of every phase that ends inside the horizon as the
    arrow, and orders by step block, in index order, the arrow last."""
    base = {}
    state = {}
    k = 0
    active = []
    group = []  # simultaneous: each variable's group within its step
    for t in range(scn.T):
        act = tuple(scn.active_at(t))
        active.append(act)
        for i in act:
            base[(i, t)] = k
            k += 6
        if kind == "simultaneous":
            state[t + 1] = k
            k += 9
            group += [_WRENCH_GROUP] * len(act) + [_STATE_GROUP]
    arrow = []
    if kind == "sequential":
        for i, ph in enumerate(scn.phases):
            if ph.epsilon < scn.T:
                for m in range(max(ph.sigma, ph.epsilon - 2), ph.epsilon):
                    arrow.extend(range(base[(i, m)], base[(i, m)] + 6))
    arrow = np.array(sorted(arrow), dtype=np.intp)
    var_block = np.empty(k, dtype=np.intp)
    for (i, t), b in base.items():
        var_block[b : b + 6] = t
    for t1, b in state.items():
        var_block[b : b + 9] = t1  # h_{t+1} belongs to block t+1
    var_block[arrow] = -1
    if kind == "sequential":
        key = var_block.copy()
        key[arrow] = scn.T
    else:
        rows = 6 * np.arange(scn.T)[:, None] + _ROW_GROUP
        key = np.concatenate([6 * var_block + np.concatenate(group), rows.ravel()])
    return DecisionLayout(kind, k, var_block, arrow, key, tuple(active), base, state)


# ---------------------------------------------------------------------------
# compiled evaluation (sparse, linear-time in T)


class CompiledVectorFunction:
    """A Q+/- function compiled for the solver.

    The Jacobian has one fixed CSR pattern (``indices``, ``indptr``): per
    row, the columns of A and the indices of the row's Q and P entries.
    jacobian(x) returns only its values on that pattern, J = base + M x,
    where M holds 2 (Q - P)_ij at (i, j) and, off the diagonal, at its
    mirror (j, i), and stores no entry where Q and P cancel. No sparse
    matrix is built per point: value(x, J), matvec(J, v) = A v and
    rmatvec(J, y) = A^T y take the value array, and to_csr(J) builds the
    matrix for the callers that want one (the dense SQP baseline and the
    tests). Both products sum each output entry in ascending row order,
    as scipy's CSR and CSC products do, so they equal to_csr(J) @ v and
    to_csr(J).T @ y to the last bit. The function's Q and P entry arrays
    are shared as they are, and Q - P is never merged: curvature_entries
    hands them to solver.KKTSystem, the one place that assembles the
    Lagrangian curvature.
    """

    def __init__(self, fn):
        m, n = self.m, self.n = fn.output_dim, fn.input_dim
        self.b = fn.b
        A = fn.A.tocoo()
        self._curv = (fn.Q, fn.P)
        (qr, qi, qj, _), (pr, pi, pj, _) = self._curv
        rows = np.concatenate([A.row, qr, qr, pr, pr]).astype(np.int64)
        # row-major keys of the CSR pattern, ascending: the entry (row, col)
        # sits where its key falls among them
        keys = qpm.sorted_unique(rows * n + np.concatenate([A.col, qi, qj, pi, pj]))
        self.indices = (keys % n).astype(np.intp)
        self.indptr = np.searchsorted(keys, np.arange(m + 1, dtype=np.int64) * n)
        nnz = keys.size

        def pos(row, col):
            return np.searchsorted(keys, row.astype(np.int64) * n + col)

        self.base = np.zeros(nnz)
        self.base[pos(A.row, A.col)] = A.data
        Mr, Mc, Mv = [], [], []
        for (rw, i, j, v), scale in zip(self._curv, (2.0, -2.0)):
            off = i != j
            Mr += [pos(rw, i), pos(rw[off], j[off])]
            Mc += [j, i[off]]
            Mv += [scale * v, scale * v[off]]
        self._M = sp.csr_matrix(
            (np.concatenate(Mv), (np.concatenate(Mr), np.concatenate(Mc))), shape=(nnz, n)
        )
        self._M.eliminate_zeros()
        # matvec lends J to this one matrix; rmatvec sums by column with the
        # row of every entry
        self._A = self.to_csr(self.base)
        self._row_len = np.diff(self.indptr)

    def value(self, x, J=None):
        """Row values at x. Given J = jacobian(x), it stands in for
        base + M x: s(x) = b + 0.5 (base + J) x, a product on the Jacobian's
        pattern."""
        data = self.base + self._M @ x if J is None else J
        return self.b + 0.5 * self.matvec(self.base + data, x)

    def jacobian(self, x):
        """The Jacobian at x: its values on the fixed CSR pattern."""
        return self.base + self._M @ x

    def matvec(self, J, v):
        """A v for the Jacobian values J."""
        self._A.data = J
        Av = self._A @ v
        self._A.data = self.base  # holds no caller's array past the call
        return Av

    def rmatvec(self, J, y):
        """A^T y for the Jacobian values J."""
        # bincount of empty weights (a family without rows) counts in int64
        Aty = np.bincount(self.indices, J * np.repeat(y, self._row_len), minlength=self.n)
        return Aty.astype(float, copy=False)

    def to_csr(self, J):
        """The Jacobian values J as a CSR matrix."""
        return sp.csr_matrix((J, self.indices, self.indptr), shape=(self.m, self.n))

    def curvature_entries(self):
        """The stored Q and P entries, each as (row, i, j, value) arrays
        with i >= j and value != 0: the fixed data that solver.KKTSystem
        scales by the row coefficients."""
        return self._curv


class CompiledObjective:
    """The tracking objective J(x) = sum_k w_k (r_k(x) - y_k)^2 over the
    stacked affine map r(x) = A x + a. value(x) evaluates it as that sum
    of squares, which stays exact near exact tracking, where the expanded
    quadratic 0.5 x'Hx + q'x + c cancels. Its derivatives are those of the
    quadratic: H = 2 A'WA and q = 2 A'W(a - y). A and W are fixed by the
    schedule and the weights; the references y enter q only, and
    ``retarget`` recomputes the targets and q."""

    def __init__(self, objective):
        fn, y, w = objective
        self._map, self._w = fn, w
        # H = 2 B'B with B = W^(1/2) A, symmetric to the last bit
        B = sp.diags(np.sqrt(w)) @ fn.A
        self.H = sp.csr_matrix(2.0 * (B.T @ B))
        self.H.eliminate_zeros()
        self.retarget(y)

    def retarget(self, y):
        """Track the targets y: y and q of the new targets, H kept."""
        self.y = y
        self.q = 2.0 * (self._map.A.T @ (self._w * (self._map.b - y)))

    def value(self, x):
        """J(x) as the sum of squares: e = r(x) - y, then w'(e e)."""
        e = (self._map.A @ x + self._map.b) - self.y
        return float(self._w @ (e * e))

    def gradient(self, x):
        return self.H @ x + self.q


@dataclass
class NlpProblem:
    """A built momentum sub-problem in either formulation.

    ``ineq`` rows are g(x) >= 0 and ``eq`` rows g(x) = 0, each one Q+/-
    function over every step (0 rows where the form has no such family);
    ineq_meta and eq_meta give each row's (step, phase index, family).
    ``h``, ``f`` and ``kappa`` are the maps the rows are built from: the
    momentum states h_0..h_T (nine rows each), and the world force and
    the torque about the CoM of each active contact sample (three rows
    each, samples in step order). ``x0`` is the builder's start for a
    solve: zero contact force, so that h reads the ballistic states.
    """

    layout: DecisionLayout
    objective: tuple  # (affine map r, targets y, weights w): sum w (r(x) - y)^2
    ineq: qpm.QpmFunction
    eq: qpm.QpmFunction
    h: qpm.QpmFunction
    f: qpm.QpmFunction
    kappa: qpm.QpmFunction
    x0: np.ndarray  # where a solve starts
    scenario: MomentumScenario
    ineq_meta: list
    eq_meta: list
    _compiled: dict = field(default_factory=dict, repr=False)

    @property
    def n(self):
        return self.layout.n_vars

    @property
    def n_eq(self):
        return self.eq.output_dim

    @property
    def n_ineq(self):
        return self.ineq.output_dim

    def retarget(self, h_ref, force_ref):
        """Track the references h_ref and force_ref on the same schedule,
        in place, as a fresh build at them would: the scenario takes them,
        and the objective's targets y and its compiled y and q follow.
        Nothing else a builder makes reads the references, so the
        constraints, their compiled forms and x0 stay."""
        self.scenario = replace(self.scenario, h_ref=h_ref, force_ref=force_ref)
        r, _, w = self.objective
        _, ph, st, _, _ = _samples(self.scenario, self.layout)
        y = _tracking_targets(self.scenario, ph, st)
        self.objective = (r, y, w)
        if "obj" in self._compiled:
            self._compiled["obj"].retarget(y)

    def compiled_objective(self):
        if "obj" not in self._compiled:
            self._compiled["obj"] = CompiledObjective(self.objective)
        return self._compiled["obj"]

    def compiled_ineq(self):
        if "ineq" not in self._compiled:
            self._compiled["ineq"] = CompiledVectorFunction(self.ineq)
        return self._compiled["ineq"]

    def compiled_eq(self):
        if "eq" not in self._compiled:
            self._compiled["eq"] = CompiledVectorFunction(self.eq)
        return self._compiled["eq"]


# ---------------------------------------------------------------------------
# builders


def _sparse(shape, entries):
    """CSR matrix from (rows, cols, vals) triples of broadcastable arrays."""
    rows, cols, vals = (
        np.concatenate(parts)
        for parts in zip(*([a.ravel() for a in np.broadcast_arrays(*e)] for e in entries))
    )
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def _affine(n, b, entries):
    """The affine function x -> A x + b, A = _sparse((b.size, n), entries)."""
    return qpm.QpmFunction(n, _sparse((b.size, n), entries), b)


def _samples(scn, layout):
    """The active contact samples (i, t) in step order, their phases, steps,
    first variable indices, and the rows of r_t among the rows of h."""
    samples = [(i, t) for t in range(scn.T) for i in layout.active[t]]
    ph, st = np.array(samples, dtype=np.intp).reshape(-1, 2).T
    cb = np.array([layout.contact_base[s] for s in samples], dtype=np.intp)
    return samples, ph, st, cb, (9 * st[:, None] + np.arange(3)).ravel()


def _tracking_objective(scn, ph, st, h, f):
    """(r, y, w) of the tracking objective sum_k w_k (r_k(x) - y_k)^2: the
    rows of h_1..h_T against h_ref weighted by w_m, then the world forces
    f of the samples against force_ref weighted by w_f."""
    r = qpm.stack([qpm.select_rows(h, np.arange(9, 9 * (scn.T + 1))), f])
    w = np.concatenate([
        np.tile(scn.weights.momentum, scn.T), np.full(f.output_dim, scn.weights.force)
    ])
    return r, _tracking_targets(scn, ph, st), w


def _tracking_targets(scn, ph, st):
    """The targets y of the tracking objective: h_ref at steps 1..T, then
    force_ref of each sample (phase ph, step st)."""
    force_ref = np.array([scn.force_ref[i] for i in range(len(scn.phases))]).reshape(-1, scn.T, 3)
    return np.concatenate([scn.h_ref[1:].ravel(), force_ref[ph, st].ravel()])


def _ballistic(scn):
    """The momentum states h_0..h_T (T+1, 9) under zero contact force: the
    constant term of the sequential state maps and the builders' start."""
    M, g, dt, h0 = scn.consts.M, scn.consts.g, scn.delta, scn.h0
    tt = np.arange(scn.T + 1)[:, None]
    r = M * h0.r + dt * tt * h0.l + dt**2 * (tt * (tt - 1) / 2.0) * M * g
    l = h0.l + dt * tt * M * g
    return np.hstack([r / M, l, np.tile(h0.k, (scn.T + 1, 1))])


def _sequential_h(scn, n, base):
    """The closed-form state maps h_0..h_T of the force integrals as one
    function of 9(T+1) rows; base[i, t] is the first phi index of phase i
    at step t, -1 while the phase is inactive.

    Telescoping the Euler rollout over the second differences of (phi,
    psi), which read zero before a phase starts, gives

        l_t   = l_0 + delta*t*M*g + delta   * sum_e (phi_{m1} - phi_{m2})
        M r_t = M r_0 + delta*t*l_0 + delta^2*t(t-1)/2*M*g
                                    + delta^2 * sum_e phi-contribution
        k_t   = k_0 + delta * sum_e (psi_{m1} - psi_{m2})

    with (m1, m2) = (t-1, t-2) while phase e lasts and its last two steps
    after it ends; the phi-contribution is phi_{m2} while the phase lasts
    and phi_{m2} + (t - epsilon_e)(phi_{m1} - phi_{m2}) after it. The
    terms free of (phi, psi) are the ballistic states of _ballistic."""
    M, dt = scn.consts.M, scn.delta
    t = np.arange(scn.T + 1)
    b = _ballistic(scn).ravel()
    k3 = np.arange(3)
    entries = []
    for i, ph in enumerate(scn.phases):
        # before the phase ends, h_t reads steps t-1 and t-2; after it, the
        # last two steps of the phase, the position extrapolated linearly
        inside = t < ph.epsilon
        m1 = np.where(inside, t - 1, ph.epsilon - 1)
        m2 = np.where(inside, t - 2, ph.epsilon - 2)
        after = t - ph.epsilon
        # (first row of the component, step, coefficient, phi (0) or psi (3))
        for c, step, coef, psi in (
            (0, m2, np.where(inside, dt**2, dt**2 * (1.0 - after)) / M, 0),
            (0, m1, np.where(inside, 0.0, dt**2 * after) / M, 0),
            (3, m1, dt, 0), (3, m2, -dt, 0), (6, m1, dt, 3), (6, m2, -dt, 3),
        ):
            coef = np.broadcast_to(coef, t.shape)
            use = (step >= ph.sigma) & (coef != 0.0)
            entries.append((
                9 * t[use, None] + c + k3, base[i, step[use], None] + psi + k3, coef[use, None]
            ))
    return _affine(n, b, entries)


def _second_difference(n, base, ph, st, psi):
    """The world forces f_{i,t} = phi_t - 2 phi_{t-1} + phi_{t-2} of the
    samples, or with psi=3 their torques about the CoM from psi, as three
    rows per sample."""
    tau = st[:, None] - np.arange(3)
    first = base[ph[:, None], tau.clip(0)]  # -1 before the phase starts
    s, d = np.nonzero((tau >= 0) & (first >= 0))
    k3 = np.arange(3)
    cols = first[s, d][:, None] + psi + k3
    coef = np.array([1.0, -2.0, 1.0])
    return _affine(n, np.zeros(3 * ph.size), [(3 * s[:, None] + k3, cols, coef[d, None])])


def build_sequential(scenario: MomentumScenario) -> NlpProblem:
    """Sparse sequential program over the force integrals (phi, psi)."""
    scn = scenario
    layout = _layout(scn, "sequential")
    n = layout.n_vars
    samples, ph, st, cb, com = _samples(scn, layout)
    base = np.full((len(scn.phases), scn.T), -1)
    base[ph, st] = cb
    h = _sequential_h(scn, n, base)
    f = _second_difference(n, base, ph, st, 0)
    kappa = _second_difference(n, base, ph, st, 3)
    # the pyramid acts on the local force R^T f
    pyramid = np.array([contact.friction_pyramid(p.surface.mu) @ p.surface.R.T for p in scn.phases])
    friction = qpm.affine_after(qpm.block_diag(pyramid[ph]), 0.0, f)
    cop = contact.build_cop_qpm_constraints(
        [scn.phases[i] for i in ph], qpm.select_rows(h, com), f, kappa
    )
    ineq_meta = [(t, i, fam) for fam in ("friction", "cop") for i, t in samples for _ in range(4)]
    return NlpProblem(
        layout, _tracking_objective(scn, ph, st, h, f), qpm.stack([friction, cop]),
        qpm.make_affine(np.zeros((0, n)), np.zeros(0)), h, f, kappa, np.zeros(n), scn,
        ineq_meta, [],
    )


def build_simultaneous(scenario: MomentumScenario) -> NlpProblem:
    """Simultaneous QCQP over per-step wrenches and momentum states."""
    scn = scenario
    layout = _layout(scn, "simultaneous")
    n = layout.n_vars
    T, M, g, dt = scn.T, scn.consts.M, scn.consts.g, scn.delta
    samples, ph, st, cb, com = _samples(scn, layout)
    S = ph.size
    k3, k9 = np.arange(3), np.arange(9)
    rows3 = 3 * np.arange(S)[:, None, None] + k3[:, None]  # (S, 3, 1): row 3s + k
    R = np.array([p.surface.R for p in scn.phases])[ph]
    origin = np.array([p.surface.t for p in scn.phases])[ph]

    sb = np.array([layout.state_base[t] for t in range(1, T + 1)])
    h = _affine(n, np.concatenate([scn.h0.as_vector(), np.zeros(9 * T)]),
                [(np.arange(9, 9 * (T + 1)), (sb[:, None] + k9).ravel(), 1.0)])
    f = _affine(n, np.zeros(3 * S), [(rows3, cb[:, None, None] + k3, R)])
    p = _affine(n, origin.ravel(), [(rows3, cb[:, None, None] + 3 + k3[:2], R[:, :, :2])])
    tau = _affine(n, np.zeros(3 * S), [(rows3, cb[:, None, None] + 5, R[:, :, 2:])])
    # the torque about the CoM, tau_hat R_z + (p - r_t) x f
    lever = qpm.linear_combine([(1.0, p), (-1.0, qpm.select_rows(h, com))])
    kappa = qpm.linear_combine([(1.0, tau), (1.0, qpm.cross(lever, f))])

    wrench = _affine(n, np.zeros(6 * S),
                     [(np.arange(6 * S), (cb[:, None] + np.arange(6)).ravel(), 1.0)])
    blocks = [contact.build_affine_contact_constraints(p) for p in scn.phases]
    C = qpm.block_diag(np.array([blk.A.toarray() for blk in blocks])[ph])
    contact_rows = qpm.affine_after(C, np.array([blk.b for blk in blocks])[ph].ravel(), wrench)

    # h_{t+1} - h_t - dt (l_t / M, M g + sum_i f_{i,t}, sum_i kappa_{i,t}) = 0
    # over y = (h, f, kappa)
    t9 = 9 * np.arange(T)[:, None] + k9
    s3 = 3 * np.arange(S)[:, None] + k3
    f0 = 9 * (T + 1)
    C = _sparse((9 * T, f0 + 6 * S), [
        (t9, t9 + 9, 1.0), (t9, t9, -1.0),
        (t9[:, :3], t9[:, 3:6], -dt / M),
        (9 * st[:, None] + 3 + k3, f0 + s3, -dt),
        (9 * st[:, None] + 6 + k3, f0 + 3 * S + s3, -dt),
    ])
    a = np.tile(np.concatenate([np.zeros(3), -dt * (M * g), np.zeros(3)]), T)
    dynamics = qpm.affine_after(C, a, qpm.stack([h, f, kappa]))

    # zero wrenches and the ballistic states h_1..h_T
    x0 = np.zeros(n)
    x0[sb[:, None] + k9] = _ballistic(scn)[1:]
    return NlpProblem(
        layout, _tracking_objective(scn, ph, st, h, f), contact_rows, dynamics, h, f, kappa,
        x0, scn, [(t, i, "contact") for i, t in samples for _ in range(10)],
        [(t, None, "dynamics") for t in range(T) for _ in range(9)],
    )


# ---------------------------------------------------------------------------
# solution extraction


def extract(p: NlpProblem, x):
    """The solution at x read through the builder's maps: the momentum
    states "h" (T+1, 9), and per phase index the world forces "forces" and
    the torques about the CoM "kappas" (T, 3; zero while the phase is
    inactive). The simultaneous form adds its CoP wrenches, read from x,
    as "wrenches" {(phase index, step): ContactWrenchCop}."""
    scn = p.scenario
    samples, ph, st, cb, _ = _samples(scn, p.layout)
    sol = {"h": qpm.evaluate(p.h, x).reshape(-1, 9)}
    for key, fn in (("forces", p.f), ("kappas", p.kappa)):
        per_phase = np.zeros((len(scn.phases), scn.T, 3))
        per_phase[ph, st] = qpm.evaluate(fn, x).reshape(-1, 3)
        sol[key] = dict(enumerate(per_phase))
    if p.layout.kind == "simultaneous":
        w = x[cb[:, None] + np.arange(6)]
        sol["wrenches"] = {
            s: ContactWrenchCop(v[:3], v[3:5], float(v[5])) for s, v in zip(samples, w)
        }
    return sol


# the benchmark in perfbench/ still calls extract by its former per-form names
extract_sequential = extract_simultaneous = extract
