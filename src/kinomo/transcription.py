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
phase-boundary variables. A compiled form sharing the functions' Q/P
arrays is attached lazily for the solver; its patterns carry the block
structure (a row's step blocks are the var_block labels of its columns),
and evaluating constraints, Jacobians and convexified Lagrangian Hessians
is linear-time in the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import contact, qpm
from .contact import ContactWrenchCop, com_to_cop
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
    every later step). Arrow entries alias into x; they are not
    duplicated variables.
    """

    kind: str  # "sequential" | "simultaneous"
    T: int
    n_vars: int
    var_block: np.ndarray
    arrow_indices: np.ndarray
    active: tuple  # per step, tuple of active phase indices
    contact_base: dict  # (phase, t) -> first of 6 contiguous indices
    state_base: dict  # t -> first of 9 indices for h_t (simultaneous only)

    def band_order(self):
        """Non-arrow variables in step order (already contiguous)."""
        mask = np.ones(self.n_vars, dtype=bool)
        mask[self.arrow_indices] = False
        return np.flatnonzero(mask)


def _layout(scn, kind):
    """Six contact indices per active (phase, step), in step order. The
    simultaneous form adds the nine indices of h_{t+1} after step t; the
    sequential form marks the last two steps of every phase that ends
    inside the horizon as the arrow."""
    base = {}
    state = {}
    k = 0
    active = []
    for t in range(scn.T):
        act = tuple(scn.active_at(t))
        active.append(act)
        for i in act:
            base[(i, t)] = k
            k += 6
        if kind == "simultaneous":
            state[t + 1] = k
            k += 9
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
    return DecisionLayout(kind, scn.T, k, var_block, arrow, tuple(active), base, state)


# ---------------------------------------------------------------------------
# compiled evaluation (sparse, linear-time in T)


class CompiledVectorFunction:
    """A Q+/- function compiled for the solver.

    value(x) and jacobian(x) reuse one fixed CSR pattern: per row, the
    columns of A and the indices of the row's Q and P entries. The
    Jacobian data is affine in x (J = A + reshape(M x)), where M holds
    2 (Q - P)_ij at (i, j) and, off the diagonal, at its mirror (j, i),
    and stores no entry where Q and P cancel. The function's Q and P
    entry arrays are shared as they are; hessian_combo assembles
    sum_i psd_part(c_i (Q_i - P_i)) from them without ever merging Q - P.
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
        keys = np.unique(rows * n + np.concatenate([A.col, qi, qj, pi, pj]))
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
        self._rowsum = sp.csr_matrix((np.ones(nnz), np.arange(nnz), self.indptr), shape=(m, nnz))

    def value(self, x, jac=None):
        """Row values at x. Given jac = jacobian(x), its data stands in for
        the product M x: s(x) = b + 0.5 rowsum(x[idx] (base + J.data))."""
        data = self.base + self._M @ x if jac is None else jac.data
        return self.b + 0.5 * (self._rowsum @ (x[self.indices] * (self.base + data)))

    def jacobian(self, x):
        data = self.base + self._M @ x
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.m, self.n))

    def curvature_entries(self):
        """The stored Q and P entries, each as (row, i, j, value) arrays
        with i >= j and value != 0: the fixed data that hessian_combo
        scales by the row coefficients."""
        return self._curv

    def hessian_combo(self, coeffs, convexify=True):
        """sum_i c_i * (Q_i - P_i), convexified to its PSD part per row:
        c >= 0 keeps c*Q, c < 0 keeps |c|*P."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.m,):
            raise qpm.DimensionMismatch(f"expected {self.m} coefficients")
        if convexify:
            cq, cp = np.maximum(coeffs, 0.0), np.maximum(-coeffs, 0.0)
        else:
            cq, cp = coeffs, -coeffs
        (qr, qi, qj, qv), (pr, pi, pj, pv) = self._curv
        i, j = np.concatenate([qi, pi]), np.concatenate([qj, pj])
        v = np.concatenate([cq[qr] * qv, cp[pr] * pv])
        off = i != j  # the lower triangle, mirrored
        return sp.coo_matrix(
            (
                np.concatenate([v, v[off]]),
                (np.concatenate([i, j[off]]), np.concatenate([j, i[off]])),
            ),
            shape=(self.n, self.n),
        ).tocsr()


class CompiledObjective:
    """The tracking objective J(x) = sum_k w_k (r_k(x) - y_k)^2 over the
    stacked affine map r(x) = A x + a, compiled to 0.5 x'Hx + q'x + c with
    H = 2 A'WA, q = 2 A'W(a - y) and c = (a - y)'W(a - y). A and W are
    fixed by the schedule and the weights; the references y enter q and c
    only."""

    def __init__(self, objective):
        fn, y, w = objective
        A = fn.A
        # H = 2 B'B with B = W^(1/2) A, symmetric to the last bit
        B = sp.diags(np.sqrt(w)) @ A
        self.H = sp.csr_matrix(2.0 * (B.T @ B))
        self.H.eliminate_zeros()
        e = fn.b - y
        self.q = 2.0 * (A.T @ (w * e))
        self.c = float(e @ (w * e))

    def value(self, x, grad=None):
        """J(x); given grad = gradient(x), J = c + 0.5 x'(grad + q)."""
        g = self.H @ x + self.q if grad is None else grad
        return float(self.c + 0.5 * x @ (g + self.q))

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
    each, samples in step order).
    """

    layout: DecisionLayout
    objective: tuple  # (affine map r, targets y, weights w): sum w (r(x) - y)^2
    ineq: qpm.QpmFunction
    eq: qpm.QpmFunction
    h: qpm.QpmFunction
    f: qpm.QpmFunction
    kappa: qpm.QpmFunction
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


def convexified_lagrangian_hessian(p: NlpProblem, x, duals):
    """Objective Hessian plus sum_i psd_part(dual_i (Q_i - P_i)).

    ``duals`` is (ineq_coeffs, eq_coeffs); a coefficient c >= 0
    contributes c*Q_i, c < 0 contributes |c|*P_i. The caller maps its
    Lagrangian sign convention onto these curvature coefficients.
    """
    c_ineq, c_eq = duals
    H = p.compiled_objective().H.copy()
    if p.n_ineq:
        H = H + p.compiled_ineq().hessian_combo(np.asarray(c_ineq))
    if p.n_eq:
        H = H + p.compiled_eq().hessian_combo(np.asarray(c_eq))
    return H


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
    force_ref = np.array([scn.force_ref[i] for i in range(len(scn.phases))]).reshape(-1, scn.T, 3)
    y = np.concatenate([scn.h_ref[1:].ravel(), force_ref[ph, st].ravel()])
    w = np.concatenate([
        np.tile(scn.weights.momentum, scn.T), np.full(f.output_dim, scn.weights.force)
    ])
    return r, y, w


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
    and phi_{m2} + (t - epsilon_e)(phi_{m1} - phi_{m2}) after it."""
    M, g, dt, h0 = scn.consts.M, scn.consts.g, scn.delta, scn.h0
    t = np.arange(scn.T + 1)
    tt = t[:, None]
    r_const = M * h0.r + dt * tt * h0.l + dt**2 * (tt * (tt - 1) / 2.0) * M * g
    l_const = h0.l + dt * tt * M * g
    b = np.hstack([r_const / M, l_const, np.tile(h0.k, (t.size, 1))]).ravel()
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
        qpm.make_affine(np.zeros((0, n)), np.zeros(0)), h, f, kappa, scn, ineq_meta, [],
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

    return NlpProblem(
        layout, _tracking_objective(scn, ph, st, h, f), contact_rows, dynamics, h, f, kappa, scn,
        [(t, i, "contact") for i, t in samples for _ in range(10)],
        [(t, None, "dynamics") for t in range(T) for _ in range(9)],
    )


# ---------------------------------------------------------------------------
# solution extraction and cross-formulation mapping


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


def map_sequential_point(p_seq: NlpProblem, p_sim: NlpProblem, x_seq):
    """Lift a sequential point into simultaneous variables with identical
    dynamics (zero equality residual) and identical wrenches."""
    scn = p_seq.scenario
    sol = extract(p_seq, x_seq)
    x = np.zeros(p_sim.n)
    for t in range(1, scn.T + 1):
        b = p_sim.layout.state_base[t]
        x[b : b + 9] = sol["h"][t]
    for i, ph in enumerate(scn.phases):
        for t in range(ph.sigma, ph.epsilon):
            b = p_sim.layout.contact_base[(i, t)]
            f = sol["forces"][i][t]
            kappa = sol["kappas"][i][t]
            r = sol["h"][t][:3]
            try:
                w = com_to_cop(contact.ContactWrenchCom(f, kappa), ph.surface, r)
            except contact.NormalForceNonPositive:
                # CoP undefined without normal force; keep the equivalent
                # local force and fold the torque into tau only if exact.
                w = ContactWrenchCop(ph.surface.R.T @ f, np.zeros(2), 0.0)
            x[b : b + 3] = w.f_hat
            x[b + 3 : b + 5] = w.p_hat
            x[b + 5] = w.tau_hat
    return x
