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

Each builder makes its per-step affine maps once: the momentum state h_t
as nine rows and the world force of every active contact sample (in the
simultaneous form also the torque about the CoM), and the constraints
reuse them. The tracking objective of both forms is one weighted
least-squares over those maps stacked: sum_k w_k (r_k(x) - y_k)^2.

Both builders emit an NlpProblem holding the symbolic Q+/- functions and
a DecisionLayout with per-step variable blocks plus the "arrow" block of
frozen phase-boundary variables. A compiled form (sparse matrices with
precomputed index structure) is attached lazily for the solver; its
patterns carry the block structure (a row's step blocks are the
var_block labels of its columns), and evaluating constraints, Jacobians
and convexified Lagrangian Hessians is linear-time in the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import contact, qpm
from .contact import ContactWrenchCop, com_to_cop, cop_to_com
from .dynamics import (
    ForceIntegralVars,
    MomentumState,
    RobotConstants,
    forces_from_integrals,
    sequential_state_map,
)


@dataclass
class TrackingWeights:
    """Diagonal tracking weights: 9 momentum components and force."""

    momentum: np.ndarray = field(default_factory=lambda: np.ones(9))
    force: float = 1e-3

    def __post_init__(self):
        self.momentum = np.broadcast_to(
            np.asarray(self.momentum, dtype=float), (9,)
        ).copy()
        if np.any(self.momentum < 0) or np.any(np.asarray(self.force) < 0):
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


def _cat(parts, dtype=float):
    return np.concatenate(parts).astype(dtype, copy=False) if parts else np.zeros(0, dtype)


class CompiledVectorFunction:
    """Stacked Q+/- rows compiled to sparse form.

    Each row's curvature is stored once: one set of (row, i, j, value)
    arrays for the Q parts and one for the P parts, each holding only the
    entries on and below the diagonal, exact zeros dropped. value(x) and
    jacobian(x) reuse one fixed CSR pattern; the Jacobian data is affine
    in x (J = A + reshape(M x)), where M, built from those sets, holds
    2 (Q - P)_ij at (i, j) and, off the diagonal, at its mirror (j, i),
    and stores no entry where Q and P cancel. hessian_combo assembles
    sum_i psd_part(c_i (Q_i - P_i)) from the same sets without ever
    merging Q - P.
    """

    def __init__(self, fns, n):
        rows = [r for fn in fns for r in fn.rows]
        m = len(rows)
        self.m, self.n = m, n
        self.b = np.array([r.const for r in rows])
        sups = [r.support() for r in rows]
        self.indptr = np.cumsum([0] + [s.size for s in sups], dtype=np.intp)
        self.indices = _cat(sups, np.intp)
        nnz = self.indices.size
        # row-major keys of the CSR pattern, ascending: the entry (row, col)
        # sits where its key falls among them
        keys = np.repeat(np.arange(m, dtype=np.int64), np.diff(self.indptr)) * n + self.indices

        def pos(row, col):
            return np.searchsorted(keys, row.astype(np.int64) * n + col)

        lin_rows = np.repeat(np.arange(m), [r.lin_idx.size for r in rows])
        lin_pos = pos(lin_rows, _cat([r.lin_idx for r in rows], np.intp))
        self.base = np.zeros(nnz)
        self.base[lin_pos] = _cat([r.lin_val for r in rows])

        curv = (([], [], [], []), ([], [], [], []))  # Q, P: row, i, j, value
        for k, r in enumerate(rows):
            for lists, term in zip(curv, (r.plus, r.minus)):
                if term is not None:
                    a, b = np.nonzero(np.tril(term.mat))
                    entries = (np.full(a.size, k), term.idx[a], term.idx[b], term.mat[a, b])
                    for lst, e in zip(lists, entries):
                        lst.append(e)
        # int32 indices: these arrays hold an entry per stored Q/P entry,
        # the bulk of a compiled problem's memory
        self._curv = [
            tuple(_cat(lst, dt) for lst, dt in zip(lists, (np.int32, np.int32, np.int32, float)))
            for lists in curv
        ]
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

    def __init__(self, objective, n):
        fn, y, w = objective
        r = CompiledVectorFunction([fn], n)
        A = sp.csr_matrix((r.base, r.indices, r.indptr), shape=(r.m, n))
        # H = 2 B'B with B = W^(1/2) A, symmetric to the last bit
        B = sp.diags(np.sqrt(w)) @ A
        self.H = sp.csr_matrix(2.0 * (B.T @ B))
        self.H.eliminate_zeros()
        e = r.b - y
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

    Constraint conventions: eq_constraints rows are g(x) = 0,
    ineq_affine and ineq_qpm rows are g(x) >= 0. Meta lists carry
    (step, phase index, family) per constraint function.
    """

    layout: DecisionLayout
    objective: tuple  # (affine map r, targets y, weights w): sum w (r(x) - y)^2
    eq_constraints: list
    ineq_affine: list
    ineq_qpm: list
    scenario: MomentumScenario
    eq_meta: list
    ineq_meta: list
    _compiled: dict = field(default_factory=dict, repr=False)

    @property
    def n(self):
        return self.layout.n_vars

    @property
    def n_eq(self):
        return sum(fn.output_dim for fn in self.eq_constraints)

    @property
    def n_ineq(self):
        return sum(fn.output_dim for fn in self.ineq_affine) + sum(
            fn.output_dim for fn in self.ineq_qpm
        )

    def compiled_objective(self):
        if "obj" not in self._compiled:
            self._compiled["obj"] = CompiledObjective(self.objective, self.n)
        return self._compiled["obj"]

    def compiled_ineq(self):
        if "ineq" not in self._compiled:
            self._compiled["ineq"] = CompiledVectorFunction(
                list(self.ineq_affine) + list(self.ineq_qpm), self.n
            )
        return self._compiled["ineq"]

    def compiled_eq(self):
        if "eq" not in self._compiled:
            self._compiled["eq"] = CompiledVectorFunction(self.eq_constraints, self.n)
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


def _tracking_objective(scn, layout, h_fns, f_fns):
    """(r, y, w) of the tracking objective sum_k w_k (r_k(x) - y_k)^2: the
    momentum maps h_fns[t] for t >= 1 against h_ref weighted by w_m, then
    the world-force maps f_fns[(i, t)] of the active samples in step order
    against force_ref weighted by w_f."""
    samples = [(i, t) for t in range(scn.T) for i in layout.active[t]]
    r = qpm.stack([h_fns[t] for t in range(1, scn.T + 1)] + [f_fns[s] for s in samples])
    y = np.concatenate([scn.h_ref[1:].ravel()] + [scn.force_ref[i][t] for i, t in samples])
    w = np.concatenate([
        np.tile(scn.weights.momentum, scn.T), np.full(3 * len(samples), scn.weights.force)
    ])
    return r, y, w


class _SeqMaps:
    """The sequential formulation's affine maps of the force integrals."""

    def __init__(self, scn, layout):
        self.scn = scn
        self.layout = layout

    def _add(self, dicts, i, t, coef, psi=False):
        """Add coef * (phi|psi)_{i,t} into three accumulator dicts."""
        ph = self.scn.phases[i]
        if t < ph.sigma or coef == 0.0:
            return
        if t >= ph.epsilon:
            raise IndexError("index beyond phase end")
        b = self.layout.contact_base[(i, t)] + (3 if psi else 0)
        for k in range(3):
            dicts[k][b + k] = dicts[k].get(b + k, 0.0) + coef

    def _fn(self, rows):
        return qpm.affine_from_rows(self.layout.n_vars, rows)

    def second_difference(self, i, t, psi=False):
        """World force f_{i,t} = phi_t - 2 phi_{t-1} + phi_{t-2}, or with
        psi=True the torque about the CoM kappa_{i,t} from psi."""
        d = [{}, {}, {}]
        for tau, c in ((t, 1.0), (t - 1, -2.0), (t - 2, 1.0)):
            self._add(d, i, tau, c, psi)
        return self._fn([(list(dk.keys()), list(dk.values()), 0.0) for dk in d])

    def h(self, t):
        """The closed-form state map h_t as nine sparse affine rows."""
        scn = self.scn
        M, g = scn.consts.M, scn.consts.g
        dt = scn.delta
        r_const = M * scn.h0.r + dt * t * scn.h0.l + dt**2 * (t * (t - 1) / 2.0) * M * g
        l_const = scn.h0.l + dt * t * M * g
        k_const = scn.h0.k
        dr = [{}, {}, {}]
        dl = [{}, {}, {}]
        dk = [{}, {}, {}]
        for i, ph in enumerate(scn.phases):
            if t < ph.epsilon:
                m1, m2 = t - 1, t - 2
                self._add(dl, i, m1, dt)
                self._add(dl, i, m2, -dt)
                self._add(dr, i, m2, dt**2)
                self._add(dk, i, m1, dt, psi=True)
                self._add(dk, i, m2, -dt, psi=True)
            else:
                e1, e2 = ph.epsilon - 1, ph.epsilon - 2
                self._add(dl, i, e1, dt)
                self._add(dl, i, e2, -dt)
                self._add(dr, i, e2, dt**2 * (1.0 - (t - ph.epsilon)))
                self._add(dr, i, e1, dt**2 * (t - ph.epsilon))
                self._add(dk, i, e1, dt, psi=True)
                self._add(dk, i, e2, -dt, psi=True)
        rows = [(list(d), [v / M for v in d.values()], c / M) for d, c in zip(dr, r_const)]
        rows += [(list(d), list(d.values()), c) for d, c in zip(dl, l_const)]
        rows += [(list(d), list(d.values()), c) for d, c in zip(dk, k_const)]
        return self._fn(rows)


def build_sequential(scenario: MomentumScenario) -> NlpProblem:
    """Sparse sequential program over the force integrals (phi, psi)."""
    scn = scenario
    layout = _layout(scn, "sequential")
    maps = _SeqMaps(scn, layout)
    h_fns = {t: maps.h(t) for t in range(scn.T + 1)}
    samples = [(i, t) for t in range(scn.T) for i in layout.active[t]]
    f_fns = {(i, t): maps.second_difference(i, t) for i, t in samples}
    ineq_affine = []
    for i, t in samples:
        s = scn.phases[i].surface
        # the pyramid acts on the local force R^T f
        C = contact.friction_pyramid(s.mu) @ s.R.T
        ineq_affine.append(qpm.affine_after(C, np.zeros(4), f_fns[(i, t)]))
    ineq_qpm = [
        contact.build_cop_qpm_constraints(
            scn.phases[i], qpm.select_rows(h_fns[t], range(3)), f_fns[(i, t)],
            maps.second_difference(i, t, psi=True),
        )
        for i, t in samples
    ]
    ineq_meta = [(t, i, "friction") for i, t in samples] + [(t, i, "cop") for i, t in samples]
    objective = _tracking_objective(scn, layout, h_fns, f_fns)
    return NlpProblem(layout, objective, [], ineq_affine, ineq_qpm, scn, [], ineq_meta)


def build_simultaneous(scenario: MomentumScenario) -> NlpProblem:
    """Simultaneous QCQP over per-step wrenches and momentum states."""
    scn = scenario
    layout = _layout(scn, "simultaneous")
    M, g, dt = scn.consts.M, scn.consts.g, scn.delta

    def aff(rows):
        return qpm.affine_from_rows(layout.n_vars, rows)

    def const(v):
        return aff([([], [], c) for c in v])

    h_fns = {0: const(scn.h0.as_vector())}
    for t1, b in layout.state_base.items():
        h_fns[t1] = aff([([b + k], [1.0], 0.0) for k in range(9)])

    def rlk(t):
        """(r_t, l_t, k_t), three rows each."""
        return [qpm.select_rows(h_fns[t], range(j, j + 3)) for j in (0, 3, 6)]

    cross = qpm.cross_product_qpm()
    f_fns = {}
    kappa_fns = {}  # tau_hat R_z + (p - r_t) x f, the torque about the CoM
    ineq_affine = []
    ineq_meta = []
    for t in range(scn.T):
        r_t = rlk(t)[0]
        for i in layout.active[t]:
            s = scn.phases[i].surface
            b = layout.contact_base[(i, t)]
            f = f_fns[(i, t)] = aff([(range(b, b + 3), s.R[k], 0.0) for k in range(3)])
            p = aff([([b + 3, b + 4], s.R[k, :2], s.t[k]) for k in range(3)])
            p_minus_r = qpm.linear_combine([(1.0, p), (-1.0, r_t)])
            kappa_fns[(i, t)] = qpm.linear_combine([
                (1.0, aff([([b + 5], [s.R[k, 2]], 0.0) for k in range(3)])),
                (1.0, qpm.compose_affine(cross, qpm.stack([p_minus_r, f]))),
            ])
            wrench = aff([([b + k], [1.0], 0.0) for k in range(6)])
            ineq_affine.append(
                qpm.compose_affine(contact.build_affine_contact_constraints(scn.phases[i]), wrench)
            )
            ineq_meta.append((t, i, "contact"))

    eq = []
    for t in range(scn.T):
        (r0, l0, k0), (r1, l1, k1) = rlk(t), rlk(t + 1)
        act = layout.active[t]
        eq.append(qpm.stack([
            qpm.linear_combine([(1.0, r1), (-1.0, r0), (-dt / M, l0)]),
            qpm.linear_combine(
                [(1.0, l1), (-1.0, l0), (-dt, const(M * g))]
                + [(-dt, f_fns[(i, t)]) for i in act]
            ),
            qpm.linear_combine([(1.0, k1), (-1.0, k0)] + [(-dt, kappa_fns[(i, t)]) for i in act]),
        ]))
    eq_meta = [(t, None, "dynamics") for t in range(scn.T)]
    objective = _tracking_objective(scn, layout, h_fns, f_fns)
    return NlpProblem(layout, objective, eq, ineq_affine, [], scn, eq_meta, ineq_meta)


# ---------------------------------------------------------------------------
# solution extraction and cross-formulation mapping


def extract_sequential(p: NlpProblem, x):
    """Momentum states, world forces and the force integrals at x."""
    scn = p.scenario
    layout = p.layout
    phi = {}
    psi = {}
    for i, ph in enumerate(scn.phases):
        phi[i] = np.array(
            [x[layout.contact_base[(i, t)] : layout.contact_base[(i, t)] + 3]
             for t in range(ph.sigma, ph.epsilon)]
        )
        psi[i] = np.array(
            [x[layout.contact_base[(i, t)] + 3 : layout.contact_base[(i, t)] + 6]
             for t in range(ph.sigma, ph.epsilon)]
        )
    v = ForceIntegralVars(scn.phases, phi=phi, psi=psi)
    h = np.array(
        [sequential_state_map(v, scn.h0, scn.consts, scn.delta, t).as_vector()
         for t in range(scn.T + 1)]
    )
    forces = {}
    kappas = {}
    for i, ph in enumerate(scn.phases):
        forces[i] = np.zeros((scn.T, 3))
        kappas[i] = np.zeros((scn.T, 3))
        for t in range(ph.sigma, ph.epsilon):
            forces[i][t], kappas[i][t] = forces_from_integrals(v, i, t)
    return {"h": h, "forces": forces, "kappas": kappas, "integrals": v}


def extract_simultaneous(p: NlpProblem, x):
    """Momentum states, world forces, torques about the CoM and the CoP
    wrenches at x."""
    scn = p.scenario
    layout = p.layout
    h = np.empty((scn.T + 1, 9))
    h[0] = scn.h0.as_vector()
    for t in range(1, scn.T + 1):
        b = layout.state_base[t]
        h[t] = x[b : b + 9]
    forces = {}
    kappas = {}
    wrenches = {}
    for i, ph in enumerate(scn.phases):
        forces[i] = np.zeros((scn.T, 3))
        kappas[i] = np.zeros((scn.T, 3))
        for t in range(ph.sigma, ph.epsilon):
            b = layout.contact_base[(i, t)]
            w = ContactWrenchCop(x[b : b + 3], x[b + 3 : b + 5], float(x[b + 5]))
            wrenches[(i, t)] = w
            com = cop_to_com(w, ph.surface, h[t, :3])
            forces[i][t], kappas[i][t] = com.f, com.kappa
    return {"h": h, "forces": forces, "kappas": kappas, "wrenches": wrenches}


def map_sequential_point(p_seq: NlpProblem, p_sim: NlpProblem, x_seq):
    """Lift a sequential point into simultaneous variables with identical
    dynamics (zero equality residual) and identical wrenches."""
    scn = p_seq.scenario
    sol = extract_sequential(p_seq, x_seq)
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
