"""Primal-dual interior-point solver for the transcribed problems.

The Lagrangian convention throughout is

    L(x, z, y) = J(x) - z^T g_I(x) - y^T g_E(x),   g_I >= 0, z >= 0,

so the curvature contribution of constraint i is -2 dual_i (Q_i - P_i)
with coefficients -2z (inequalities) and -2y (equalities). The Newton
system eliminates slacks and inequality duals into the diagonal
Sigma = Z S^-1 and factorizes

    K = H + A_I^T Sigma A_I + delta I

by the banded-plus-arrow Cholesky (sequential formulation, no equality
rows) or, with the dynamics equalities appended, as a quasi-definite
banded KKT system (simultaneous formulation). Both are ordered by time
step, as Rao, Wright and Rawlings (J. Optim. Theory Appl. 99, 1998) order
the MPC KKT system: step t's variables and equality rows before step
t + 1's, and the arrow last. Within a step the simultaneous form orders
them by their couplings (transcription._layout). KKTSystem assembles that
matrix: the sparsity pattern and the slot of every entry are worked out
once per problem pattern, and each iteration only computes the slot
values. A linalg.BandStorage made from the same pattern packs them into
LAPACK band storage and factorizes it. Both factorizations cost O(T) per
iteration for a fixed effector count. The constraint Jacobians keep a
fixed pattern too: an evaluation gives their values on it
(transcription.CompiledVectorFunction), the products A v and A^T y take
those values, and KKTSystem reads them as they are, so no sparse matrix
is built per iteration or trial point.

H is first the exact Lagrangian Hessian, which makes each step a Newton
step. The exact matrix is rejected when the Cholesky of K + REG_FLOOR I
fails (sequential form), or, since the banded LU shows no inertia, when
the step dx fails the curvature test dx^T K dx > kappa |dx|^2
(simultaneous form; Chiang and Zavala, Comput. Optim. Appl. 64, 2016).
On the first rejection the solve switches for good to the convexified
Hessian, which keeps only the PSD part of each row's curvature: the
objective Hessian plus c Q_i for c >= 0 and |c| P_i for c < 0. That
matrix is positive semidefinite, so K is positive definite for a small
delta and every step is a descent direction of the barrier merit
function; from the switch on, the solve is the globally convergent
convexified method, with delta raised tenfold while the factorization
fails. The rule costs at most one extra assembly and factorization.
Trying the exact Hessian again after
a convexified step does not converge reliably: on step_stones rescaled
to T=400 (sequential form) such a per-iteration fallback stalls at the
iteration limit. Nor can the exact Hessian alone, regularized by a delta
raised tenfold from REG_FLOOR until K + delta I factorizes, replace the
fallback: on the same instance it ended at MaxIter after 800 iterations
(KKT 2.0e-6; 1.1e-5 when each delta restarts at a third of the last one,
as in IPOPT), where the one-way fallback converged in 173 (both
measured with one step length for x, s, z and y); with the step lengths
below it converges in 127.

The primal variables (x, s) and the duals (z, y) move by separate step
lengths (Nocedal and Wright, Numerical Optimization, 2nd ed., eq. 19.9):
the fraction-to-boundary rule gives alpha from s alone and alpha_z from
z alone, the line search backtracks alpha only, and every trial point
takes z + alpha_z dz and y + alpha_z dy. At a cold start z = mu / s
allows the duals only a small step (alpha_z = 0.007 on step_stones),
which with one length for all four would hold x back as well: the
shipped step_stones solve takes 17 (sequential) and 19 (simultaneous)
iterations, against 35 and 31. The equality duals y follow alpha_z;
IPOPT moves them by alpha, which here switched 8 of the 16 instances of
the benchmark's step-sim pool to the convexified Hessian (430 to 543
iterations).

A dense line-search SQP with the convexified Hessian serves as the
baseline solver for cross-checking on small instances. It reads that
Hessian from a KKTSystem too (convexified_lagrangian_hessian), so
KKTSystem is the only code that assembles Lagrangian curvature. Both
solvers read the tracking objective from CompiledObjective.value, a sum of
squares.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import linalg, qpm
# The IPM packs and factorizes through linalg.BandStorage; the two
# factorization names stay importable from here, where perfbench/tracing.py
# wraps them.
from .linalg import BandedLU, NotPositiveDefinite, factorize_banded_arrow  # noqa: F401
from .transcription import NlpProblem


class QPSubproblemInfeasible(RuntimeError):
    pass


# Interior-point constants: initial barrier parameter, its reduction
# factor, the fraction-to-boundary factor, the smallest regularization
# delta (also the dense SQP's Hessian shift) and the least curvature
# kappa an exact simultaneous step must show per unit of |dx|^2.
MU0 = 1.0
# The barrier parameter a warm-started solve begins with: its slacks are
# pushed to at least sqrt(MU0_WARM) and its inequality duals to at least
# MU0_WARM / s (Yildirim and Wright, SIAM J. Optim. 12, 2002).
MU0_WARM = 1e-3
MU_REDUCTION = 0.2
FRACTION_TO_BOUNDARY = 0.995
REG_FLOOR = 1e-8
CURVATURE_MIN = REG_FLOOR


@dataclass
class SolverOptions:
    max_iter: int = 200
    kkt_tol: float = 1e-6
    backend: str = "ipm"  # "ipm" | "sqp_dense"

    def __post_init__(self):
        if type(self.max_iter) is not int or self.max_iter < 0:  # isinstance would take True
            raise ValueError("max_iter must be a non-negative integer")
        if isinstance(self.kkt_tol, bool) or not self.kkt_tol > 0:
            raise ValueError("kkt_tol must be a positive number")
        if self.backend not in ("ipm", "sqp_dense"):
            raise ValueError(f"unknown backend {self.backend!r}")


# slots: a solve keeps one record per iteration, and without a per-record
# dict each takes a fifth less memory (208 against 258 bytes, floats included)
@dataclass(slots=True)
class IterationStat:
    iter: int
    kkt: float
    mu: float
    alpha: float  # primal step length: x and s
    alpha_dual: float  # dual step length: z and y
    time_ms: float
    hessian: str  # "exact" | "convexified": the Hessian of this iteration's step


@dataclass
class SolveResult:
    x: np.ndarray
    z: np.ndarray  # inequality duals (>= 0)
    y: np.ndarray  # equality duals
    status: str  # Converged | MaxIter | Infeasible | NumericFailure
    stats: list
    objective: float  # sum w (r(x) - y)^2 at x
    kkt: tuple  # (stationarity, primal, dual, complementarity)

    @property
    def converged(self):
        return self.status == "Converged"


def _kkt_norms(r_d, g_i, z, g_e):
    """Infinity norms of the four KKT blocks from the stationarity residual
    r_d = grad J - A_I^T z - A_E^T y and the constraint values."""
    primal = max(
        float(np.maximum(-g_i, 0.0).max(initial=0.0)),
        float(np.abs(g_e).max(initial=0.0)),
    )
    return (
        float(np.abs(r_d).max(initial=0.0)),
        primal,
        float(np.maximum(-z, 0.0).max(initial=0.0)),
        float(np.abs(z * g_i).max(initial=0.0)),
    )


def _compiled_parts(p: NlpProblem):
    """The compiled objective, inequalities and equalities of p."""
    return p.compiled_objective(), p.compiled_ineq(), p.compiled_eq()


def _evaluate(obj, ineq, eq, x, z, y):
    """(f, grad f, r_d, g_I, J_I, g_E, J_E) at x, with the stationarity
    residual r_d = grad f - A_I^T z - A_E^T y; J_I and J_E are the
    Jacobians' values on their fixed patterns."""
    grad = obj.gradient(x)
    f = obj.value(x)
    r_d, parts = grad, []
    for fn, dual in ((ineq, z), (eq, y)):
        J = fn.jacobian(x)
        parts += [fn.value(x, J), J]
        r_d = r_d - fn.rmatvec(J, dual)
    return (f, grad, r_d, *parts)


def kkt_residual(p: NlpProblem, x, z, y):
    """Infinity norms of the four KKT blocks under the sign convention
    L = J - z g_I - y g_E: (stationarity, primal, dual, complementarity)."""
    z, y = np.asarray(z), np.asarray(y)
    _, _, r_d, g_i, _, g_e, _ = _evaluate(*_compiled_parts(p), x, z, y)
    return _kkt_norms(r_d, g_i, z, g_e)


class KKTSystem:
    """The IPM's Newton matrix, assembled on a fixed pattern; the one code
    that assembles Lagrangian curvature, for the dense SQP as well.

    The constructor does the symbolic work, once for every problem of one
    pattern (a plan's retargeted problem keeps its pattern): it takes the
    union pattern of every entry the matrix can hold (objective Hessian,
    each stored Q and P entry, A_I^T A_I from the Jacobian's fixed CSR
    pattern, the diagonal and, in the simultaneous form, A_E and the
    -gamma I block), numbers its lower-triangle entries ("slots") and
    hands the pattern to a linalg.BandStorage (``band``) in the time-step
    order of p.layout.newton_key. In the sequential form that is the
    variables by step block, in index order, the arrow last. In the
    simultaneous form, step t holds k_t, the (p, tau) half of every
    wrench, r_t and l_t; then its k dynamics rows and the f half of every
    wrench; then its r rows and l rows. The k rows couple k_t, k_{t+1},
    r_t and every wrench entry, so they sit in the middle, and the widest
    coupling left, a sample's p to its own f across r_t, l_t and the k
    rows, gives kl = ku = 3 S + 11 for at most S samples per step: 17 with
    two feet, at every horizon (29 in plain index order).
    ``assemble`` then only computes the slot values, for the stacked
    curvature coefficients c either exactly,

        K = H_obj + G_Q c - G_P c + A_I^T Sigma A_I,

    or convexified, keeping the PSD part of each row's c (Q - P),

        K = H_obj + G_Q max(c, 0) + G_P max(-c, 0) + A_I^T Sigma A_I,

    on the same slots. ``hessian`` reads K out as a CSR matrix; with
    Sigma = 0 that is the dense SQP's convexified Hessian. ``factor``
    packs the slots into the band storage with delta added to the
    diagonal of K and factorizes it in place: banded-plus-arrow Cholesky
    of K + delta I (sequential), or banded LU of
    [[K + delta I, A_E^T], [A_E, -gamma I]] (simultaneous).
    The Cholesky fails unless K + delta I is positive definite;
    ``curvature`` gives dx^T K dx, the test that stands in for inertia
    where the LU shows none. The constraint functions are p's compiled
    ones; a family the form lacks, as the sequential form's equalities,
    has zero rows and adds no entry.
    """

    gamma = 1e-8

    def __init__(self, p: NlpProblem):
        n = p.n
        ineq, eq = p.compiled_ineq(), p.compiled_eq()
        N = n + eq.m

        # (i, j) keys, i >= j, of every contribution, source by source
        H = p.compiled_objective().H.tocoo()
        low = H.row >= H.col
        keys = {"obj": H.row[low].astype(np.int64) * N + H.col[low]}
        const_val = H.data[low]
        # the Q and P entries: keys, columns and values of G_Q and G_P,
        # whose column r scales by row r of the stacked coefficients c
        curv = {
            part: ([np.zeros(0, np.int64)], [np.zeros(0, np.intp)], [np.zeros(0)])
            for part in "QP"
        }
        col0 = 0
        for fn in (ineq, eq):
            for part, (rows, ii, jj, vv) in zip("QP", fn.curvature_entries()):
                key = ii.astype(np.int64) * N + jj
                for lst, a in zip(curv[part], (key, rows + col0, vv)):
                    lst.append(a)
            col0 += fn.m
        for part, (k, c, v) in curv.items():
            keys[part] = np.concatenate(k)
            curv[part] = np.concatenate(c), np.concatenate(v)
        p1, p2 = qpm.row_pairs(ineq.indptr)  # the terms of A_I^T Sigma A_I
        keys["pairs"] = ineq.indices[p1] * N + ineq.indices[p2]
        self._row_len = np.diff(ineq.indptr)
        keys["diag"] = np.arange(n, dtype=np.int64) * (N + 1)
        eq_rows = n + np.repeat(np.arange(eq.m, dtype=np.int64), np.diff(eq.indptr))
        keys["ae"] = eq_rows * N + eq.indices
        keys["eq_diag"] = np.arange(n, N, dtype=np.int64) * (N + 1)
        pattern = qpm.sorted_unique(np.concatenate([qpm.sorted_unique(k) for k in keys.values()]))
        slot = {k: np.searchsorted(pattern, v).astype(np.int32) for k, v in keys.items()}
        del keys  # before the matrices below are built
        S = pattern.size
        row, col = np.divmod(pattern, N)
        self._n = n
        # the slots of K, the primal block, come first: their keys are below n N
        n_k = int(np.searchsorted(pattern, n * N))
        self._k_row, self._k_col = row[:n_k].astype(np.int32), col[:n_k].astype(np.int32)
        self._k_weight = np.where(self._k_row == self._k_col, 1.0, 2.0)

        self._const = np.bincount(slot["obj"], const_val, minlength=S)
        self._const[slot["eq_diag"]] -= self.gamma
        self._ae_slot = slot["ae"]
        self._G = {
            part: sp.csr_matrix((v, (slot[part], c)), shape=(S, col0))
            for part, (c, v) in curv.items()
        }
        # A_I^T Sigma A_I as a matrix-vector product: row `slot` of _AtA
        # holds J[k2] at column k1 for each pair of that slot, so that
        # _AtA @ (sigma J) sums sigma_r J[k1] J[k2]; only the data J[k2]
        # changes between iterations
        order = np.argsort(slot["pairs"], kind="stable")
        indptr = np.zeros(S + 1, dtype=np.int32)
        np.cumsum(np.bincount(slot["pairs"], minlength=S), out=indptr[1:])
        self._p2 = p2[order].astype(np.intp)
        self._AtA = sp.csr_matrix(
            (np.zeros(order.size), p1[order], indptr), shape=(S, ineq.indices.size)
        )

        order = np.argsort(p.layout.newton_key, kind="stable")
        n_arrow = None if p.n_eq else p.layout.arrow_indices.size
        self.band = linalg.BandStorage(row, col, order, n_arrow)
        self._diag = slot["diag"]

    def assemble(self, c_i, sigma, J_i, c_e, J_e, *, exact):
        """Compute this iteration's slot values.

        ``c_i``, ``c_e`` are the curvature coefficients of the inequality
        and equality rows, ``exact`` selects the exact or the convexified
        curvature (c >= 0 keeps c Q, c < 0 keeps |c| P), ``sigma`` is the
        diagonal Z S^-1 and ``J_i``, ``J_e`` the Jacobians' value arrays on
        their fixed CSR patterns, as CompiledVectorFunction.jacobian returns
        them. A family without rows takes empty arrays."""
        c = np.concatenate([c_i, c_e])
        cq, cp = (c, -c) if exact else (np.maximum(c, 0.0), np.maximum(-c, 0.0))
        v = self._const.copy()
        # a part whose coefficients are all zero is skipped: convexified,
        # the inequality duals of the IPM make every c_i negative
        for part, coeffs in (("Q", cq), ("P", cp)):
            if coeffs.any():
                v += self._G[part] @ coeffs
        np.take(J_i, self._p2, out=self._AtA.data)
        v += self._AtA @ (J_i * np.repeat(sigma, self._row_len))
        v[self._ae_slot] = J_e
        self._v = v

    def curvature(self, dx):
        """dx^T K dx for the assembled K, without delta: one sum over the
        slots of the primal block."""
        terms = dx[self._k_row] * dx[self._k_col]
        terms *= self._k_weight
        return float(terms @ self._v[: terms.size])

    def hessian(self):
        """The assembled K, without delta, as a symmetric CSR matrix: the
        slots of the primal block and their mirrors."""
        r, c = self._k_row, self._k_col
        v = self._v[: r.size]
        off = r != c
        rows, cols = np.concatenate([r, c[off]]), np.concatenate([c, r[off]])
        return sp.csr_matrix((np.concatenate([v, v[off]]), (rows, cols)), shape=(self._n,) * 2)

    def factor(self, delta):
        """Pack with delta and factorize the storage in place; the
        factorization lives there until the next factor call. Raises
        NotPositiveDefinite."""
        return self.band.factor(self._v, delta, self._diag)


def _fraction_to_boundary(v, dv):
    neg = dv < 0
    if not np.any(neg):
        return 1.0
    return float(min(1.0, FRACTION_TO_BOUNDARY * np.min(-v[neg] / dv[neg])))


def _barrier_merit(f, s, g_i, g_e, mu, nu):
    """The barrier l1 merit function f - mu sum log s + nu |(g_I - s, g_E)|_1."""
    return f - mu * np.log(s).sum() + nu * (np.abs(g_i - s).sum() + np.abs(g_e).sum())


def _perturbed_residual(r_d, s, z, g_i, g_e, mu):
    """2-norm of the barrier-perturbed KKT residual (r_d, g_I - s, s z - mu, g_E)."""
    return float(np.linalg.norm(np.concatenate([r_d, g_i - s, s * z - mu, g_e])))


def solve_ipm(
    p: NlpProblem, opts: SolverOptions = None, start: SolveResult = None,
    kkt: KKTSystem = None,
) -> SolveResult:
    """Structure-exploiting primal-dual interior-point method.

    x and s move by the primal step length alpha, z and y by the dual
    one alpha_z (Nocedal and Wright, eq. 19.9; module docstring). Each is
    first the fraction-to-boundary length of s and of z respectively.
    The step is globalized by one backtracking line search on alpha
    alone; every trial point takes the duals at alpha_z, and
    IterationStat records both. A trial point is accepted when it
    meets Armijo on the barrier l1 merit function or shrinks the 2-norm of
    the barrier-perturbed KKT residual: the filter idea of Waechter and
    Biegler (Math. Prog. 106, 2006) with the current iterate as the only
    filter entry. Each trial point is evaluated once, and the accepted
    one's evaluations serve the next iteration. When no trial is accepted
    the solve ends: Infeasible above a primal residual of 1e-4, else MaxIter.
    A non-finite objective or KKT norm ends it as NumericFailure.

    The solve starts at (x, z, y) with slacks max(g_I, sqrt(mu)) and z
    raised to at least mu / s. Given ``start``, the result of a solve of a
    problem with the same variables and rows (as a retargeted one), that is
    its (x, z, y) with mu = MU0_WARM. A cold solve is the same start from
    the builder's (p.x0, 0, 0) with mu = MU0: since sqrt(MU0) = 1, its
    slacks are max(g_I, 1) and z = mu / s.

    ``kkt`` is a KKTSystem of p, or of a problem with the same variables,
    rows and objective Hessian (as a retargeted one); a caller that solves
    such problems in turn builds it once and passes it to each solve.
    Without it, the solve builds its own.
    """
    opts = opts or SolverOptions()
    n = p.n
    obj, ineq, eq = _compiled_parts(p)
    if start is None:  # a cold start is a warm start from (x0, 0, 0) at MU0
        x, z, y, mu = p.x0.copy(), np.zeros(p.n_ineq), np.zeros(p.n_eq), MU0
    else:
        x, z, y, mu = start.x.copy(), start.z, start.y.copy(), MU0_WARM
    s = np.maximum(ineq.value(x), np.sqrt(mu))
    z = np.maximum(z, mu / s)
    ev = _evaluate(obj, ineq, eq, x, z, y)
    kkt = kkt or KKTSystem(p)
    hessian = "exact"  # until the first rejected exact matrix (module docstring)

    stats = []
    status = "MaxIter"
    for it in range(opts.max_iter + 1):
        it_t0 = time.perf_counter()
        f, grad, r_d, g_i, J_i, g_e, J_e = ev
        res = _kkt_norms(r_d, g_i, z, g_e)
        # all four norms: max(res) hides a NaN that is not in first place
        if not np.isfinite([f, *res]).all():
            status = "NumericFailure"
            break
        kkt_norm = max(res)
        if kkt_norm <= opts.kkt_tol:
            status = "Converged"
            stats.append(IterationStat(it, kkt_norm, mu, 0.0, 0.0,
                                       (time.perf_counter() - it_t0) * 1e3, hessian))
            break
        if it == opts.max_iter:
            break

        # barrier-perturbed residual controls the mu schedule
        if max(res[0], res[1], np.abs(s * z - mu).max(initial=0.0)) <= 10.0 * mu:
            mu = max(mu * MU_REDUCTION, 1e-14)

        # reduced system: K = H + A_I^T Sigma A_I (+ delta I)
        sigma = z / s
        r_i = g_i - s
        terms = (-2.0 * z, sigma, J_i, -2.0 * y, J_e)
        kkt.assemble(*terms, exact=hessian == "exact")
        rhs = np.concatenate([-r_d + ineq.rmatvec(J_i, mu / s - z - sigma * r_i), -g_e])

        sol = None
        if hessian == "exact":
            try:
                sol = kkt.factor(REG_FLOOR).solve(rhs)
                # the simultaneous form's LU shows no inertia: the step's
                # curvature stands in
                dx = sol[:n]
                if p.n_eq and not kkt.curvature(dx) > CURVATURE_MIN * float(dx @ dx):
                    sol = None
            except NotPositiveDefinite:
                pass
            if sol is None:  # rejected: convexified for the rest of the solve
                hessian = "convexified"
                kkt.assemble(*terms, exact=False)
        delta = REG_FLOOR
        while sol is None:
            try:
                sol = kkt.factor(delta).solve(rhs)
            except NotPositiveDefinite:
                delta *= 10.0
                if delta > 1e-2:
                    return SolveResult(x, z, y, "NumericFailure", stats, f, res)
        # row 1 of the simultaneous system reads K dx + A_e^T w = rhs while
        # the Newton system wants K dx - A_e^T dy = rhs, hence dy = -w
        dx, dy = sol[:n], -sol[n:]
        ds = ineq.matvec(J_i, dx) + r_i
        dz = mu / s - z - sigma * ds

        nu = 1.0 + 2.0 * max(np.abs(z).max(initial=0.0), np.abs(y).max(initial=0.0))
        phi0 = _barrier_merit(f, s, g_i, g_e, mu, nu)
        dphi = float(grad @ dx) - mu * float((ds / s).sum())
        dphi -= nu * float(np.abs(r_i).sum() + np.abs(g_e).sum())
        theta0 = _perturbed_residual(r_d, s, z, g_i, g_e, mu)
        # x and s move by alpha, which the line search backtracks; z and y
        # by alpha_z (module docstring)
        alpha, alpha_z = _fraction_to_boundary(s, ds), _fraction_to_boundary(z, dz)
        z_t, y_t = np.maximum(z + alpha_z * dz, 1e-16), y + alpha_z * dy
        for _ in range(40):
            x_t, s_t = x + alpha * dx, s + alpha * ds
            ev = _evaluate(obj, ineq, eq, x_t, z_t, y_t)
            f_t, _, r_dt, g_it, _, g_et, _ = ev
            if (
                _barrier_merit(f_t, s_t, g_it, g_et, mu, nu)
                <= phi0 + 1e-4 * alpha * min(dphi, 0.0)
                or _perturbed_residual(r_dt, s_t, z_t, g_it, g_et, mu)
                <= (1.0 - 1e-4 * alpha) * theta0
            ):
                break
            alpha *= 0.5
        else:
            alpha = alpha_z = 0.0
        stats.append(
            IterationStat(it, kkt_norm, mu, alpha, alpha_z, (time.perf_counter() - it_t0) * 1e3,
                          hessian)
        )
        if not alpha:  # no trial point reduced either measure
            status = "Infeasible" if res[1] > 1e-4 else "MaxIter"
            break
        x, s, z, y = x_t, s_t, z_t, y_t
    # every way out of the loop leaves f, res and the iterate at one point
    return SolveResult(x, z, y, status, stats, f, res)


# ---------------------------------------------------------------------------
# dense QP inner solver and the SQP baseline


def _solve_dense_qp(H, c, A_i, b_i, A_e, b_e, tol=1e-10, max_iter=100):
    """min 0.5 d'Hd + c'd  s.t.  A_i d + b_i >= 0, A_e d + b_e = 0.

    Small dense primal-dual IPM; returns (d, z, y). Every step solves the
    bordered system [[K, A_e^T], [A_e, -eps I]], which is K itself when
    there are no equality rows."""
    n, m_e = c.size, b_e.size
    d = np.zeros(n)
    s = np.maximum(A_i @ d + b_i, 1.0)
    z = np.ones(b_i.size)
    y = np.zeros(m_e)
    mu = 1.0
    for _ in range(max_iter):
        g_i = A_i @ d + b_i
        g_e = A_e @ d + b_e
        r_d = H @ d + c - A_i.T @ z - A_e.T @ y
        err = max(
            np.abs(r_d).max(initial=0.0),
            np.abs(g_e).max(initial=0.0),
            np.abs(g_i - s).max(initial=0.0),
            np.abs(s * z).max(initial=0.0),
        )
        if err <= tol:
            break
        if err <= 10 * mu:
            mu = max(0.1 * mu, 1e-14)
        sigma = z / s
        K = H + 1e-12 * np.eye(n) + A_i.T @ (sigma[:, None] * A_i)
        rhs = -r_d + A_i.T @ (mu / s - z - sigma * (g_i - s))
        kkt = np.block([[K, A_e.T], [A_e, -1e-12 * np.eye(m_e)]])
        try:
            sol = np.linalg.solve(kkt, np.concatenate([rhs, -g_e]))
        except np.linalg.LinAlgError as exc:
            raise QPSubproblemInfeasible("singular QP KKT system") from exc
        dd, dy = sol[:n], -sol[n:]
        ds = A_i @ dd + (g_i - s)
        dz = mu / s - z - sigma * ds
        alpha = min(_fraction_to_boundary(s, ds), _fraction_to_boundary(z, dz))
        d = d + alpha * dd
        s = s + alpha * ds
        z = np.maximum(z + alpha * dz, 1e-16)
        y = y + alpha * dy
    return d, z, y


def convexified_lagrangian_hessian(kkt: KKTSystem, c_i, J_i, c_e, J_e):
    """The objective Hessian plus sum_i psd_part(c_i (Q_i - P_i)) over the
    inequality and equality rows, as a CSR matrix: the convexified
    assembly of ``kkt`` with Sigma = 0, so that A_I^T Sigma A_I adds
    nothing. ``J_i``, ``J_e`` are Jacobian values as KKTSystem.assemble
    takes them; they do not enter K."""
    kkt.assemble(c_i, np.zeros(c_i.size), J_i, c_e, J_e, exact=False)
    return kkt.hessian()


def solve_sqp_dense(p: NlpProblem, opts: SolverOptions = None) -> SolveResult:
    """Line-search SQP with convexified-Hessian QP subproblems, all dense."""
    opts = opts or SolverOptions()
    n = p.n
    obj, ineq, eq = _compiled_parts(p)
    kkt = KKTSystem(p)
    x = p.x0.copy()
    z = np.zeros(p.n_ineq)
    y = np.zeros(p.n_eq)
    stats = []
    status = "MaxIter"
    for it in range(opts.max_iter):
        t0 = time.perf_counter()
        res = kkt_residual(p, x, z, y)
        if not np.isfinite([obj.value(x), *res]).all():
            break  # reported below
        kkt_norm = max(res)
        if kkt_norm <= opts.kkt_tol:
            status = "Converged"
            stats.append(IterationStat(it, kkt_norm, 0.0, 0.0, 0.0,
                                       (time.perf_counter() - t0) * 1e3, "convexified"))
            break
        J_i, J_e = ineq.jacobian(x), eq.jacobian(x)
        H = convexified_lagrangian_hessian(kkt, -2.0 * z, J_i, -2.0 * y, J_e).toarray()
        H = H + REG_FLOOR * np.eye(n)
        c = obj.gradient(x)
        A_i, A_e = ineq.to_csr(J_i).toarray(), eq.to_csr(J_e).toarray()
        # the subproblem must be solved a couple of orders tighter than the
        # outer tolerance or its dual noise caps the achievable accuracy
        qp_tol = min(1e-10, 1e-2 * opts.kkt_tol)
        d, z_qp, y_qp = _solve_dense_qp(H, c, A_i, ineq.value(x), A_e, eq.value(x), tol=qp_tol)

        nu = 1.0 + 2.0 * max(
            np.abs(z_qp).max(initial=0.0), np.abs(y_qp).max(initial=0.0)
        )

        def penalty(xv):
            return nu * (np.maximum(-ineq.value(xv), 0.0).sum() + np.abs(eq.value(xv)).sum())

        # the merit change along d, with the quadratic objective's part in
        # closed form: a difference of objective values would cancel down
        # to their rounding error, which decides the test near a solution
        gd, dHd = float(c @ d), float(d @ (obj.H @ d))
        pen0 = penalty(x)
        alpha = 1.0
        accepted = False
        for _ in range(30):
            change = alpha * gd + 0.5 * alpha**2 * dHd + penalty(x + alpha * d) - pen0
            if change <= -1e-6 * alpha * float(d @ d):
                accepted = True
                break
            alpha *= 0.5
        if not accepted or alpha < 1e-4:
            # merit progress below evaluation noise: accept the full step
            # with the QP multipliers whenever it shrinks the KKT residual
            if max(kkt_residual(p, x + d, z_qp, y_qp)) < kkt_norm:
                x = x + d
                z = z_qp.copy()
                y = y_qp.copy()
                stats.append(
                    IterationStat(it, kkt_norm, 0.0, 1.0, 1.0, (time.perf_counter() - t0) * 1e3,
                                  "convexified")
                )
                continue
        x = x + alpha * d
        z = z + alpha * (z_qp - z)
        y = y + alpha * (y_qp - y)
        stats.append(
            IterationStat(it, kkt_norm, 0.0, alpha, alpha, (time.perf_counter() - t0) * 1e3,
                          "convexified")
        )
    res = kkt_residual(p, x, z, y)
    f = obj.value(x)
    if not np.isfinite([f, *res]).all():
        status = "NumericFailure"
    elif max(res) <= opts.kkt_tol:
        status = "Converged"
    return SolveResult(x, z, y, status, stats, f, res)


def solve(
    p: NlpProblem, opts: SolverOptions = None, start: SolveResult = None,
    kkt: KKTSystem = None,
) -> SolveResult:
    """Solve p with the backend of opts. ``start`` warm-starts the IPM and
    ``kkt`` gives it its Newton matrix (see solve_ipm); the dense SQP
    baseline always starts at p.x0 and builds its matrices itself."""
    opts = opts or SolverOptions()
    if opts.backend == "sqp_dense":
        return solve_sqp_dense(p, opts)
    return solve_ipm(p, opts, start, kkt)
