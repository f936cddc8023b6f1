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

Both builders emit an NlpProblem holding the symbolic Q+/- functions, a
DecisionLayout with per-step variable blocks plus the "arrow" block of
frozen phase-boundary variables, and block sparsity patterns. A compiled
form (sparse matrices with precomputed index structure) is attached
lazily for the solver; evaluating constraints, Jacobians and convexified
Lagrangian Hessians is then linear-time in the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import contact, qpm
from .contact import ContactPhase, ContactWrenchCop, com_to_cop
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


def _sequential_layout(scn):
    base = {}
    k = 0
    active = []
    for t in range(scn.T):
        act = tuple(scn.active_at(t))
        active.append(act)
        for i in act:
            base[(i, t)] = k
            k += 6
    arrow = []
    for i, ph in enumerate(scn.phases):
        if ph.epsilon < scn.T:
            for m in range(max(ph.sigma, ph.epsilon - 2), ph.epsilon):
                arrow.extend(range(base[(i, m)], base[(i, m)] + 6))
    arrow = np.array(sorted(arrow), dtype=np.intp)
    var_block = np.empty(k, dtype=np.intp)
    for (i, t), b in base.items():
        var_block[b : b + 6] = t
    var_block[arrow] = -1
    return DecisionLayout("sequential", scn.T, k, var_block, arrow, tuple(active), base, {})


def _simultaneous_layout(scn):
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
        state[t + 1] = k
        k += 9
    var_block = np.empty(k, dtype=np.intp)
    for (i, t), b in base.items():
        var_block[b : b + 6] = t
    for t1, b in state.items():
        var_block[b : b + 9] = t1  # h_{t+1} belongs to block t+1
    arrow = np.zeros(0, dtype=np.intp)
    return DecisionLayout("simultaneous", scn.T, k, var_block, arrow, tuple(active), base, state)


# ---------------------------------------------------------------------------
# block sparsity patterns


@dataclass(frozen=True)
class BlockPattern:
    """Step-block structure: per constraint row (Jacobian) the touched
    step blocks plus an arrow flag, and for the Hessian the set of
    coupled block pairs plus blocks coupled to the arrow."""

    rows: tuple  # per row: (tuple of step blocks, arrow: bool)
    hessian_pairs: frozenset  # (t, t') with t <= t'
    hessian_arrow: frozenset  # step blocks coupled to the arrow block


def _row_blocks(row, var_block):
    sup = row.support()
    if sup.size == 0:
        return (), False
    blocks = var_block[sup]
    return tuple(sorted(set(int(b) for b in blocks if b >= 0))), bool(np.any(blocks < 0))


def _all_constraints(p):
    return list(p.eq_constraints) + list(p.ineq_affine) + list(p.ineq_qpm)


def jacobian_pattern(p):
    """Touched step blocks per constraint row, equalities first."""
    rows = []
    for fn in _all_constraints(p):
        for row in fn.rows:
            rows.append(_row_blocks(row, p.layout.var_block))
    return BlockPattern(tuple(rows), frozenset(), frozenset())


def hessian_pattern(p):
    """Block pairs that can appear in any (convexified) Lagrangian Hessian."""
    pairs = set()
    arrow = set()
    var_block = p.layout.var_block

    def add_support(sup):
        blocks = sorted(set(int(b) for b in var_block[sup]))
        steps = [b for b in blocks if b >= 0]
        for a in steps:
            for b in steps:
                if a <= b:
                    pairs.add((a, b))
            if -1 in blocks:
                arrow.add(a)

    for fn in list(p.objective) + _all_constraints(p):
        for row in fn.rows:
            for term in (row.plus, row.minus):
                if term is not None:
                    add_support(term.idx)
    return BlockPattern((), frozenset(pairs), frozenset(arrow))


# ---------------------------------------------------------------------------
# compiled evaluation (sparse, linear-time in T)


class CompiledVectorFunction:
    """Stacked Q+/- rows compiled to sparse form.

    value(x) and jacobian(x) reuse one fixed CSR pattern; the Jacobian
    data is affine in x (J = A + reshape(M x)). hessian_combo assembles
    sum_i psd_part(c_i (Q_i - P_i)) without ever merging Q - P.
    """

    def __init__(self, fns, n):
        rows = [r for fn in fns for r in fn.rows]
        m = len(rows)
        self.m, self.n = m, n
        indptr = np.zeros(m + 1, dtype=np.intp)
        indices = []
        base = []
        Mr, Mc, Mv = [], [], []
        qrow, qi, qj, qv = [], [], [], []
        prow, pi, pj, pv = [], [], [], []
        self.b = np.array([r.const for r in rows])
        for i, r in enumerate(rows):
            sup = r.support()
            indptr[i + 1] = indptr[i] + sup.size
            indices.append(sup)
            lin = np.zeros(sup.size)
            if r.lin_idx.size:
                lin[np.searchsorted(sup, r.lin_idx)] = r.lin_val
            base.append(lin)
            for term, sign, rws, ii, jj, vv in (
                (r.plus, 1.0, qrow, qi, qj, qv),
                (r.minus, -1.0, prow, pi, pj, pv),
            ):
                if term is None:
                    continue
                k = term.idx.size
                # int32 indices: these arrays hold an entry per (row, Q/P
                # entry), the bulk of a compiled problem's memory
                idx = term.idx.astype(np.int32)
                pos = (indptr[i] + np.searchsorted(sup, term.idx)).astype(np.int32)
                Mr.append(np.repeat(pos, k))
                Mc.append(np.tile(idx, k))
                Mv.append(2.0 * sign * term.mat.ravel())
                rws.append(np.full(k * k, i, dtype=np.int32))
                ii.append(np.repeat(idx, k))
                jj.append(np.tile(idx, k))
                vv.append(term.mat.ravel())
        self.indptr = indptr
        self.indices = np.concatenate(indices) if indices else np.zeros(0, dtype=np.intp)
        self.base = np.concatenate(base) if base else np.zeros(0)
        nnz = self.indices.size

        def cat(parts, dtype=float):
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        self._M = sp.csr_matrix(
            (cat(Mv), (cat(Mr, np.int32), cat(Mc, np.int32))), shape=(nnz, n)
        )
        self._qrow, self._qi, self._qj, self._qv = (
            cat(qrow, np.int32), cat(qi, np.int32), cat(qj, np.int32), cat(qv),
        )
        self._prow, self._pi, self._pj, self._pv = (
            cat(prow, np.int32), cat(pi, np.int32), cat(pj, np.int32), cat(pv),
        )
        self._rowsum = sp.csr_matrix(
            (np.ones(nnz), self.indices * 0 + np.arange(nnz), indptr), shape=(m, nnz)
        )

    def value(self, x):
        mx = self._M @ x
        quad = 0.5 * (self._rowsum @ (x[self.indices] * mx))
        lin = self._rowsum @ (self.base * x[self.indices])
        return self.b + lin + quad

    def jacobian(self, x):
        data = self.base + self._M @ x
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.m, self.n))

    def curvature_entries(self):
        """The stored Q and P entries on and below the diagonal, each as
        (row, i, j, value) arrays: the fixed data that hessian_combo
        scales by the row coefficients."""
        out = []
        for rows, ii, jj, vv in (
            (self._qrow, self._qi, self._qj, self._qv),
            (self._prow, self._pi, self._pj, self._pv),
        ):
            low = ii >= jj
            out.append((rows[low], ii[low], jj[low], vv[low]))
        return out

    def hessian_combo(self, coeffs, convexify=True):
        """sum_i c_i * (Q_i - P_i), convexified to its PSD part per row:
        c >= 0 keeps c*Q, c < 0 keeps |c|*P."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.m,):
            raise qpm.DimensionMismatch(f"expected {self.m} coefficients")
        if convexify:
            dq = np.maximum(coeffs, 0.0)[self._qrow] * self._qv
            dp = np.maximum(-coeffs, 0.0)[self._prow] * self._pv
        else:
            dq = coeffs[self._qrow] * self._qv
            dp = -coeffs[self._prow] * self._pv
        return sp.coo_matrix(
            (
                np.concatenate([dq, dp]),
                (
                    np.concatenate([self._qi, self._pi]),
                    np.concatenate([self._qj, self._pj]),
                ),
            ),
            shape=(self.n, self.n),
        ).tocsr()


class CompiledObjective:
    """Sum of convex scalar summands compiled to 0.5 x'Hx + q'x + c."""

    def __init__(self, fns, n):
        self.n = n
        Hi, Hj, Hv = [], [], []
        q = np.zeros(n)
        c = 0.0
        for fn in fns:
            for r in fn.rows:
                if r.minus is not None:
                    raise ValueError("objective summand is not certified convex")
                c += r.const
                q[r.lin_idx] += r.lin_val
                if r.plus is not None:
                    k = r.plus.idx.size
                    Hi.append(np.repeat(r.plus.idx, k))
                    Hj.append(np.tile(r.plus.idx, k))
                    Hv.append(2.0 * r.plus.mat.ravel())
        if Hi:
            self.H = sp.coo_matrix(
                (np.concatenate(Hv), (np.concatenate(Hi), np.concatenate(Hj))),
                shape=(n, n),
            ).tocsr()
        else:
            self.H = sp.csr_matrix((n, n))
        self.q = q
        self.c = c

    def value(self, x):
        return float(0.5 * x @ (self.H @ x) + self.q @ x + self.c)

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
    objective: list  # convex scalar summands, one per step
    eq_constraints: list
    ineq_affine: list
    ineq_qpm: list
    scenario: MomentumScenario
    eq_meta: list
    ineq_meta: list
    jacobian_pattern: BlockPattern = None
    hessian_pattern: BlockPattern = None
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
# sequential builder


class _SeqMaps:
    """Affine index bookkeeping for the sequential formulation."""

    def __init__(self, scn, layout):
        self.scn = scn
        self.layout = layout
        self.n = layout.n_vars

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

    def force_rows(self, i, t):
        """World force f_{i,t} = phi_t - 2 phi_{t-1} + phi_{t-2}."""
        d = [{}, {}, {}]
        for tau, c in ((t, 1.0), (t - 1, -2.0), (t - 2, 1.0)):
            self._add(d, i, tau, c)
        return [(list(dk.keys()), list(dk.values()), 0.0) for dk in d]

    def kappa_rows(self, i, t):
        d = [{}, {}, {}]
        for tau, c in ((t, 1.0), (t - 1, -2.0), (t - 2, 1.0)):
            self._add(d, i, tau, c, psi=True)
        return [(list(dk.keys()), list(dk.values()), 0.0) for dk in d]

    def h_rows(self, t):
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
        rows = []
        for k in range(3):
            rows.append((list(dr[k].keys()), [v / M for v in dr[k].values()], r_const[k] / M))
        for k in range(3):
            rows.append((list(dl[k].keys()), list(dl[k].values()), l_const[k]))
        for k in range(3):
            rows.append((list(dk[k].keys()), list(dk[k].values()), k_const[k]))
        return rows

    def fn(self, rows):
        return qpm.affine_from_rows(self.n, rows)


# friction pyramid over local forces: mu fz +/- fx >= 0, mu fz +/- fy >= 0
_PYRAMID = np.array(
    [
        [-1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0],
    ]
)


def _friction_matrix(surface):
    C = _PYRAMID.copy()
    C[:, 2] = surface.mu
    return C @ surface.R.T  # rows act on the world force


def build_sequential(scenario: MomentumScenario) -> NlpProblem:
    """Sparse sequential program over the force integrals (phi, psi)."""
    scn = scenario
    layout = _sequential_layout(scn)
    maps = _SeqMaps(scn, layout)
    h_fns = {t: maps.fn(maps.h_rows(t)) for t in range(scn.T + 1)}
    objective = []
    ineq_affine = []
    ineq_qpm = []
    ineq_meta = []
    w = scn.weights
    for t in range(scn.T + 1):
        parts = []
        if t >= 1:
            parts.append(qpm.weighted_sum_squares(h_fns[t], scn.h_ref[t], w.momentum))
        if t < scn.T:
            for i in layout.active[t]:
                f_fn = maps.fn(maps.force_rows(i, t))
                parts.append(
                    qpm.weighted_sum_squares(f_fn, scn.force_ref[i][t], w.force)
                )
        if parts:
            objective.append(qpm.linear_combine([(1.0, p) for p in parts]))
    for t in range(scn.T):
        for i in layout.active[t]:
            ph = scn.phases[i]
            f_fn = maps.fn(maps.force_rows(i, t))
            ineq_affine.append(
                qpm.affine_after(_friction_matrix(ph.surface), np.zeros(4), f_fn)
            )
            ineq_meta.append((t, i, "friction"))
    for t in range(scn.T):
        r_map = qpm.select_rows(h_fns[t], [0, 1, 2])
        for i in layout.active[t]:
            ph = scn.phases[i]
            f_fn = maps.fn(maps.force_rows(i, t))
            k_fn = maps.fn(maps.kappa_rows(i, t))
            ineq_qpm.append(contact.build_cop_qpm_constraints(ph, r_map, f_fn, k_fn))
            ineq_meta.append((t, i, "cop"))
    p = NlpProblem(
        layout, objective, [], ineq_affine, ineq_qpm, scn, [], ineq_meta
    )
    p.jacobian_pattern = jacobian_pattern(p)
    p.hessian_pattern = hessian_pattern(p)
    return p


# ---------------------------------------------------------------------------
# simultaneous builder


def _sim_h_rows(scn, layout, t, comps):
    """h_t components as sparse affine rows (constants at t = 0)."""
    rows = []
    h0 = scn.h0.as_vector()
    for k in comps:
        if t == 0:
            rows.append(([], [], h0[k]))
        else:
            rows.append(([layout.state_base[t] + k], [1.0], 0.0))
    return rows


def build_simultaneous(scenario: MomentumScenario) -> NlpProblem:
    """Simultaneous QCQP over per-step wrenches and momentum states."""
    scn = scenario
    layout = _simultaneous_layout(scn)
    n = layout.n_vars
    M, g, dt = scn.consts.M, scn.consts.g, scn.delta

    def aff(rows):
        return qpm.affine_from_rows(n, rows)

    eq = []
    eq_meta = []
    for t in range(scn.T):
        # r and l rows are affine
        rl_rows = []
        h_t = _sim_h_rows(scn, layout, t, range(9))
        h_t1 = _sim_h_rows(scn, layout, t + 1, range(9))

        def minus(row_a, row_b, extra=None, const=0.0):
            d = {}
            for idx, val, c in (row_a,):
                for j, v in zip(idx, val):
                    d[j] = d.get(j, 0.0) + v
                const += c
            for j, v in zip(row_b[0], row_b[1]):
                d[j] = d.get(j, 0.0) - v
            const -= row_b[2]
            if extra is not None:
                for j, v, c in extra:
                    d[j] = d.get(j, 0.0) + v
                    const += c
            return (list(d.keys()), list(d.values()), const)

        for k in range(3):
            # r_{t+1} - r_t - dt/M l_t = 0
            lrow = h_t[3 + k]
            extra = [(j, -dt / M * v, 0.0) for j, v in zip(lrow[0], lrow[1])]
            rl_rows.append(minus(h_t1[k], h_t[k], extra, const=-dt / M * lrow[2]))
        force_terms = []
        kappa_terms = []
        for i in layout.active[t]:
            ph = scn.phases[i]
            b = layout.contact_base[(i, t)]
            R = ph.surface.R
            f_world = aff(
                [(list(range(b, b + 3)), list(R[k]), 0.0) for k in range(3)]
            )
            force_terms.append((i, f_world))
            p_minus_r = []
            for k in range(3):
                d = {b + 3: R[k, 0], b + 4: R[k, 1]}
                const = ph.surface.t[k]
                rrow = h_t[k]
                for j, v in zip(rrow[0], rrow[1]):
                    d[j] = d.get(j, 0.0) - v
                const -= rrow[2]
                p_minus_r.append((list(d.keys()), list(d.values()), const))
            cross = qpm.compose_affine(
                qpm.cross_product_qpm(), qpm.stack([aff(p_minus_r), f_world])
            )
            tau_rows = aff([([b + 5], [R[k, 2]], 0.0) for k in range(3)])
            kappa_terms.append(
                qpm.linear_combine([(1.0, tau_rows), (1.0, cross)])
            )
        l_rows = []
        for k in range(3):
            d = {}
            const = -dt * M * g[k]
            for j, v in zip(h_t1[3 + k][0], h_t1[3 + k][1]):
                d[j] = d.get(j, 0.0) + v
            const += h_t1[3 + k][2]
            for j, v in zip(h_t[3 + k][0], h_t[3 + k][1]):
                d[j] = d.get(j, 0.0) - v
            const -= h_t[3 + k][2]
            for i, f_world in force_terms:
                row = f_world.rows[k]
                for j, v in zip(row.lin_idx, row.lin_val):
                    d[int(j)] = d.get(int(j), 0.0) - dt * v
            l_rows.append((list(d.keys()), list(d.values()), const))
        k_affine = qpm.linear_combine(
            [(1.0, aff(_sim_h_rows(scn, layout, t + 1, [6, 7, 8]))),
             (-1.0, aff(_sim_h_rows(scn, layout, t, [6, 7, 8])))]
        )
        if kappa_terms:
            k_fn = qpm.linear_combine(
                [(1.0, k_affine)] + [(-dt, kt) for kt in kappa_terms]
            )
        else:
            k_fn = k_affine
        eq.append(qpm.stack([aff(rl_rows), aff(l_rows), k_fn]))
        eq_meta.append((t, None, "dynamics"))

    ineq_affine = []
    ineq_meta = []
    for t in range(scn.T):
        for i in layout.active[t]:
            ph = scn.phases[i]
            b = layout.contact_base[(i, t)]
            selector = aff([([b + k], [1.0], 0.0) for k in range(6)])
            ineq_affine.append(
                qpm.compose_affine(contact.build_affine_contact_constraints(ph), selector)
            )
            ineq_meta.append((t, i, "contact"))

    objective = []
    w = scn.weights
    for t in range(scn.T + 1):
        parts = []
        if t >= 1:
            h_fn = aff(_sim_h_rows(scn, layout, t, range(9)))
            parts.append(qpm.weighted_sum_squares(h_fn, scn.h_ref[t], w.momentum))
        if t < scn.T:
            for i in layout.active[t]:
                ph = scn.phases[i]
                b = layout.contact_base[(i, t)]
                R = ph.surface.R
                f_world = aff(
                    [(list(range(b, b + 3)), list(R[k]), 0.0) for k in range(3)]
                )
                parts.append(
                    qpm.weighted_sum_squares(f_world, scn.force_ref[i][t], w.force)
                )
        if parts:
            objective.append(qpm.linear_combine([(1.0, p) for p in parts]))

    p = NlpProblem(
        layout, objective, eq, ineq_affine, [], scn, eq_meta, ineq_meta
    )
    p.jacobian_pattern = jacobian_pattern(p)
    p.hessian_pattern = hessian_pattern(p)
    return p


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
            f, kappa = forces_from_integrals(v, i, t)
            forces[i][t] = f
            kappas[i][t] = kappa
    return {"h": h, "forces": forces, "kappas": kappas, "integrals": v}


def extract_simultaneous(p: NlpProblem, x):
    scn = p.scenario
    layout = p.layout
    h = np.empty((scn.T + 1, 9))
    h[0] = scn.h0.as_vector()
    for t in range(1, scn.T + 1):
        b = layout.state_base[t]
        h[t] = x[b : b + 9]
    forces = {}
    wrenches = {}
    for i, ph in enumerate(scn.phases):
        forces[i] = np.zeros((scn.T, 3))
        for t in range(ph.sigma, ph.epsilon):
            b = layout.contact_base[(i, t)]
            w = ContactWrenchCop(x[b : b + 3], x[b + 3 : b + 5], float(x[b + 5]))
            wrenches[(i, t)] = w
            forces[i][t] = ph.surface.R @ w.f_hat
    return {"h": h, "forces": forces, "wrenches": wrenches}


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
