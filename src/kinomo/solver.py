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
banded KKT system in step-interleaved order (simultaneous formulation).
KKTSystem assembles that matrix: the sparsity pattern and the slot of
every entry are worked out once per solve, and each iteration only
computes the slot values. A linalg.BandStorage made from the same pattern
packs them into LAPACK band storage and factorizes it. Both
factorizations cost O(T) per iteration for a fixed effector count.

H is first the exact Lagrangian Hessian, which makes each step a Newton
step. The exact matrix is rejected when the Cholesky of K + REG_FLOOR I
fails (sequential form), or, since the banded LU shows no inertia, when
the step dx fails the curvature test dx^T K dx > kappa |dx|^2
(simultaneous form; Chiang and Zavala, Comput. Optim. Appl. 64, 2016).
On the first rejection the solve switches for good to the convexified
Hessian, which keeps only the PSD part of each row's curvature: the
objective Hessian plus c Q_i for c >= 0 and |c| P_i for c < 0, as
convexified_lagrangian_hessian assembles it. That matrix is positive
semidefinite, so K is positive definite for a small delta and every step
is a descent direction of the barrier merit function; from the switch on,
the solve is the globally convergent convexified method, with delta
raised tenfold while the factorization fails. The rule costs at most one
extra assembly and factorization. Trying the exact Hessian again after
a convexified step does not converge reliably: on step_stones rescaled
to T=400 (sequential form) such a per-iteration fallback stalls at the
iteration limit.

A dense line-search SQP with the convexified Hessian serves as the
baseline solver for cross-checking on small instances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import linalg
# The IPM packs and factorizes through linalg.BandStorage; the two
# factorization names stay importable from here, where perfbench/tracing.py
# wraps them.
from .linalg import BandedLU, NotPositiveDefinite, factorize_banded_arrow  # noqa: F401
from .transcription import NlpProblem, convexified_lagrangian_hessian


class QPSubproblemInfeasible(RuntimeError):
    pass


# Interior-point constants: initial barrier parameter, its reduction
# factor, the fraction-to-boundary factor, the smallest regularization
# delta (also the dense SQP's Hessian shift) and the least curvature
# kappa an exact simultaneous step must show per unit of |dx|^2.
MU0 = 1.0
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
        if not self.kkt_tol > 0:
            raise ValueError("kkt_tol must be positive")
        if self.backend not in ("ipm", "sqp_dense"):
            raise ValueError(f"unknown backend {self.backend!r}")


# slots: a solve keeps one record per iteration, and without a per-record
# dict each takes a fifth less memory (208 against 258 bytes, floats included)
@dataclass(slots=True)
class IterationStat:
    iter: int
    kkt: float
    mu: float
    alpha: float
    time_ms: float
    hessian: str  # "exact" | "convexified": the Hessian of this iteration's step


@dataclass
class SolveResult:
    x: np.ndarray
    z: np.ndarray  # inequality duals (>= 0)
    y: np.ndarray  # equality duals
    status: str  # Converged | MaxIter | Infeasible | NumericFailure
    stats: list
    objective: float
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
    """The compiled objective, inequalities and equalities of p, None for
    an absent constraint family."""
    ineq = p.compiled_ineq() if p.n_ineq else None
    eq = p.compiled_eq() if p.n_eq else None
    return p.compiled_objective(), ineq, eq


def _evaluate(obj, ineq, eq, x, z, y):
    """(f, grad f, r_d, g_I, A_I, g_E, A_E) at x, with the stationarity
    residual r_d = grad f - A_I^T z - A_E^T y; an absent family (None)
    gives empty values and no Jacobian."""
    grad = obj.gradient(x)
    f = obj.value(x, grad)
    r_d, g_i, A_i, g_e, A_e = grad, np.zeros(0), None, np.zeros(0), None
    if ineq is not None:
        A_i = ineq.jacobian(x)
        g_i = ineq.value(x, A_i)
        r_d = r_d - A_i.T @ z
    if eq is not None:
        A_e = eq.jacobian(x)
        g_e = eq.value(x, A_e)
        r_d = r_d - A_e.T @ y
    return f, grad, r_d, g_i, A_i, g_e, A_e


def kkt_residual(p: NlpProblem, x, z, y):
    """Infinity norms of the four KKT blocks under the sign convention
    L = J - z g_I - y g_E: (stationarity, primal, dual, complementarity)."""
    z, y = np.asarray(z), np.asarray(y)
    _, _, r_d, g_i, _, g_e, _ = _evaluate(*_compiled_parts(p), x, z, y)
    return _kkt_norms(r_d, g_i, z, g_e)


def _ballistic_initial_point(p: NlpProblem):
    scn = p.scenario
    x = np.zeros(p.n)
    if p.layout.kind != "simultaneous":
        return x
    M, g, dt = scn.consts.M, scn.consts.g, scn.delta
    h0 = scn.h0
    for t in range(1, scn.T + 1):
        b = p.layout.state_base[t]
        l = h0.l + dt * t * M * g
        r = h0.r + (dt * t * h0.l + dt**2 * (t * (t - 1) / 2.0) * M * g) / M
        x[b : b + 3] = r
        x[b + 3 : b + 6] = l
        x[b + 6 : b + 9] = h0.k
    return x


def _simultaneous_kkt_order(p: NlpProblem):
    """Interleave each step's variables with that step's equality duals."""
    layout = p.layout
    n = p.n
    order = []
    prev_end = 0
    for t in range(layout.T):
        end = layout.state_base[t + 1] + 9
        order.extend(range(prev_end, end))
        order.extend(range(n + 9 * t, n + 9 * t + 9))
        prev_end = end
    return np.array(order, dtype=np.intp)


def _sorted_unique(a):
    """np.unique by one sort: numpy's hash-based unique is several times
    slower on these key arrays."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _row_pairs(indptr):
    """Every pair (k1, k2), k1 >= k2, of entry positions within one row of
    a CSR pattern: the terms of A^T diag(sigma) A."""
    lengths = np.diff(indptr)
    p1, p2 = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int32)]
    for L in np.unique(lengths):
        a, b = np.tril_indices(L)
        start = indptr[:-1][lengths == L][:, None]
        p1.append((start + a).ravel().astype(np.int32))
        p2.append((start + b).ravel().astype(np.int32))
    return np.concatenate(p1), np.concatenate(p2)


class KKTSystem:
    """The IPM's Newton matrix, assembled on a fixed pattern.

    The constructor does the symbolic work, once per solve: it takes the
    union pattern of every entry the matrix can hold (objective Hessian,
    each stored Q and P entry, A_I^T A_I from the Jacobian's fixed CSR
    pattern, the diagonal and, in the simultaneous form, A_E and the
    -gamma I block), numbers its lower-triangle entries ("slots") and
    hands the pattern to a linalg.BandStorage (``band``). ``assemble`` then
    only computes the slot values, for the stacked curvature
    coefficients c either exactly,

        K = H_obj + G_Q c - G_P c + A_I^T Sigma A_I,

    or convexified, keeping the PSD part of each row's c (Q - P),

        K = H_obj + G_Q max(c, 0) + G_P max(-c, 0) + A_I^T Sigma A_I,

    on the same slots. ``pack`` writes them into the band storage with
    delta added to the diagonal of K, and ``factor`` factorizes the storage
    in place: banded-plus-arrow Cholesky of K + delta I (sequential), or
    banded LU of [[K + delta I, A_E^T], [A_E, -gamma I]] in
    step-interleaved order (simultaneous). The Cholesky fails unless
    K + delta I is positive definite; ``curvature`` gives dx^T K dx, the
    test that stands in for inertia where the LU shows none. ``ineq`` and
    ``eq`` are the problem's compiled constraint functions, None where it
    has none.
    """

    gamma = 1e-8

    def __init__(self, p: NlpProblem, ineq, eq):
        n = p.n
        m_i = ineq.m if ineq is not None else 0
        m_e = eq.m if eq is not None else 0
        N = n + m_e
        self.m_i, self.m_e = m_i, m_e

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
            if fn is not None:
                for part, (rows, ii, jj, vv) in zip("QP", fn.curvature_entries()):
                    key = ii.astype(np.int64) * N + jj
                    for lst, a in zip(curv[part], (key, rows + col0, vv)):
                        lst.append(a)
                col0 += fn.m
        for part, (k, c, v) in curv.items():
            keys[part] = np.concatenate(k)
            curv[part] = np.concatenate(c), np.concatenate(v)
        if m_i:
            p1, p2 = _row_pairs(ineq.indptr)
            keys["pairs"] = ineq.indices[p1] * N + ineq.indices[p2]
            self._row_len = np.diff(ineq.indptr)
        keys["diag"] = np.arange(n, dtype=np.int64) * (N + 1)
        if m_e:
            eq_rows = n + np.repeat(np.arange(m_e, dtype=np.int64), np.diff(eq.indptr))
            keys["ae"] = eq_rows * N + eq.indices
            keys["eq_diag"] = np.arange(n, N, dtype=np.int64) * (N + 1)
        pattern = _sorted_unique(np.concatenate([_sorted_unique(k) for k in keys.values()]))
        slot = {k: np.searchsorted(pattern, v).astype(np.int32) for k, v in keys.items()}
        del keys  # before the matrices below are built
        S = pattern.size
        row, col = np.divmod(pattern, N)
        # the slots of K, the primal block, come first: their keys are below n N
        n_k = int(np.searchsorted(pattern, n * N))
        self._k_row, self._k_col = row[:n_k].astype(np.int32), col[:n_k].astype(np.int32)
        self._k_weight = np.where(self._k_row == self._k_col, 1.0, 2.0)

        self._const = np.bincount(slot["obj"], const_val, minlength=S)
        if m_e:
            self._const[slot["eq_diag"]] -= self.gamma
            self._ae_slot = slot["ae"]
        self._G = {
            part: sp.csr_matrix((v, (slot[part], c)), shape=(S, m_i + m_e))
            for part, (c, v) in curv.items()
        }
        if m_i:
            # A_I^T Sigma A_I as a matrix-vector product: row `slot` of
            # _AtA holds J[k2] at column k1 for each pair of that slot, so
            # that _AtA @ (sigma J) sums sigma_r J[k1] J[k2]; only the data
            # J[k2] changes between iterations
            order = np.argsort(slot["pairs"], kind="stable")
            indptr = np.zeros(S + 1, dtype=np.int32)
            np.cumsum(np.bincount(slot["pairs"], minlength=S), out=indptr[1:])
            self._p2 = p2[order].astype(np.intp)
            self._AtA = sp.csr_matrix(
                (np.zeros(order.size), p1[order], indptr), shape=(S, ineq.indices.size)
            )

        # the band storage, in step-interleaved order (simultaneous) or with
        # the arrow last (sequential)
        if m_e:
            self.band = linalg.BandStorage(row, col, _simultaneous_kkt_order(p))
        else:
            arrow = p.layout.arrow_indices
            order = np.concatenate([p.layout.band_order(), arrow])
            self.band = linalg.BandStorage(row, col, order, arrow.size)
        self._diag = slot["diag"]

    def assemble(self, c_i, sigma, J_i, c_e, J_e, *, exact):
        """Compute this iteration's slot values.

        ``c_i``, ``c_e`` are the curvature coefficients of the inequality
        and equality rows, ``exact`` selects the exact or the convexified
        curvature (c >= 0 keeps c Q, c < 0 keeps |c| P, as in
        convexified_lagrangian_hessian), ``sigma`` is the diagonal Z S^-1
        and ``J_i``, ``J_e`` the data arrays of the Jacobians in their fixed
        CSR patterns. An absent family takes empty arrays and None."""
        c = np.concatenate([c_i, c_e])
        cq, cp = (c, -c) if exact else (np.maximum(c, 0.0), np.maximum(-c, 0.0))
        v = self._const.copy()
        # a part whose coefficients are all zero is skipped: convexified,
        # the inequality duals of the IPM make every c_i negative
        for part, coeffs in (("Q", cq), ("P", cp)):
            if coeffs.any():
                v += self._G[part] @ coeffs
        if self.m_i:
            np.take(J_i, self._p2, out=self._AtA.data)
            v += self._AtA @ (J_i * np.repeat(sigma, self._row_len))
        if self.m_e:
            v[self._ae_slot] = J_e
        self._v = v

    def curvature(self, dx):
        """dx^T K dx for the assembled K, without delta: one sum over the
        slots of the primal block."""
        terms = dx[self._k_row] * dx[self._k_col]
        terms *= self._k_weight
        return float(terms @ self._v[: terms.size])

    def pack(self, delta):
        """Write the assembled matrix, with delta added to the diagonal of
        K, into the band storage and return its blocks (BandStorage)."""
        return self.band.pack(self._v, delta, self._diag)

    def factor(self, delta):
        """Pack with delta and factorize the storage in place; the
        factorization lives there until the next pack. Raises
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


def solve_ipm(p: NlpProblem, opts: SolverOptions = None) -> SolveResult:
    """Structure-exploiting primal-dual interior-point method.

    The step is globalized by one backtracking line search from the
    fraction-to-boundary step length. A trial point is accepted when it
    meets Armijo on the barrier l1 merit function or shrinks the 2-norm of
    the barrier-perturbed KKT residual: the filter idea of Waechter and
    Biegler (Math. Prog. 106, 2006) with the current iterate as the only
    filter entry. Each trial point is evaluated once, and the accepted
    one's evaluations serve the next iteration. When no trial is accepted
    the solve ends: Infeasible above a primal residual of 1e-4, else MaxIter.
    A non-finite objective or KKT norm ends it as NumericFailure.
    """
    opts = opts or SolverOptions()
    n = p.n
    m_i = p.n_ineq
    m_e = p.n_eq
    obj, ineq, eq = _compiled_parts(p)
    empty = np.zeros(0)
    x = _ballistic_initial_point(p)
    mu = MU0
    s = np.maximum(ineq.value(x), 1.0) if m_i else empty
    z = mu / s
    y = np.zeros(m_e)
    ev = _evaluate(obj, ineq, eq, x, z, y)
    kkt = KKTSystem(p, ineq, eq)
    hessian = "exact"  # until the first rejected exact matrix (module docstring)

    stats = []
    status = "MaxIter"
    for it in range(opts.max_iter + 1):
        it_t0 = time.perf_counter()
        f, grad, r_d, g_i, A_i, g_e, A_e = ev
        res = _kkt_norms(r_d, g_i, z, g_e)
        # all four norms: max(res) hides a NaN that is not in first place
        if not np.isfinite([f, *res]).all():
            status = "NumericFailure"
            break
        kkt_norm = max(res)
        if kkt_norm <= opts.kkt_tol:
            status = "Converged"
            stats.append(IterationStat(it, kkt_norm, mu, 0.0,
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
        terms = (-2.0 * z, sigma, A_i.data if m_i else None,
                 -2.0 * y, A_e.data if m_e else None)
        kkt.assemble(*terms, exact=hessian == "exact")
        rhs = -r_d
        if m_i:
            rhs = rhs + A_i.T @ (mu / s - z - sigma * r_i)
        if m_e:
            rhs = np.concatenate([rhs, -g_e])

        sol = None
        if hessian == "exact":
            try:
                sol = kkt.factor(REG_FLOOR).solve(rhs)
                # the LU shows no inertia: the step's curvature stands in
                dx = sol[:n]
                if m_e and not kkt.curvature(dx) > CURVATURE_MIN * float(dx @ dx):
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
        ds = A_i @ dx + r_i if m_i else empty
        dz = mu / s - z - sigma * ds
        alpha_max = min(_fraction_to_boundary(s, ds), _fraction_to_boundary(z, dz))

        nu = 1.0 + 2.0 * max(np.abs(z).max(initial=0.0), np.abs(y).max(initial=0.0))
        phi0 = _barrier_merit(f, s, g_i, g_e, mu, nu)
        dphi = float(grad @ dx) - mu * float((ds / s).sum())
        dphi -= nu * float(np.abs(r_i).sum() + np.abs(g_e).sum())
        theta0 = _perturbed_residual(r_d, s, z, g_i, g_e, mu)
        alpha = alpha_max
        for _ in range(40):
            x_t, s_t = x + alpha * dx, s + alpha * ds
            z_t, y_t = np.maximum(z + alpha * dz, 1e-16), y + alpha * dy
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
            alpha = 0.0
        stats.append(
            IterationStat(it, kkt_norm, mu, alpha, (time.perf_counter() - it_t0) * 1e3, hessian)
        )
        if not alpha:  # no trial point reduced either measure
            status = "Infeasible" if res[1] > 1e-4 else "MaxIter"
            break
        x, s, z, y = x_t, s_t, z_t, y_t
    return SolveResult(x, z, y, status, stats, f, res)


# ---------------------------------------------------------------------------
# dense QP inner solver and the SQP baseline


def _solve_dense_qp(H, c, A_i, b_i, A_e, b_e, tol=1e-10, max_iter=100):
    """min 0.5 d'Hd + c'd  s.t.  A_i d + b_i >= 0, A_e d + b_e = 0.

    Small dense primal-dual IPM; returns (d, z, y)."""
    n = c.size
    m_i = b_i.size
    m_e = b_e.size
    d = np.zeros(n)
    s = np.maximum(A_i @ d + b_i, 1.0) if m_i else np.zeros(0)
    z = np.ones(m_i)
    y = np.zeros(m_e)
    mu = 1.0
    for _ in range(max_iter):
        g_i = A_i @ d + b_i if m_i else np.zeros(0)
        g_e = A_e @ d + b_e if m_e else np.zeros(0)
        r_d = H @ d + c
        if m_i:
            r_d = r_d - A_i.T @ z
        if m_e:
            r_d = r_d - A_e.T @ y
        comp = np.abs(s * z).max(initial=0.0) if m_i else 0.0
        err = max(
            np.abs(r_d).max(initial=0.0),
            np.abs(g_e).max(initial=0.0),
            np.abs(g_i - s).max(initial=0.0) if m_i else 0.0,
            comp,
        )
        if err <= tol:
            break
        if err <= 10 * mu:
            mu = max(0.1 * mu, 1e-14)
        rhs = -r_d
        K = H + 1e-12 * np.eye(n)
        if m_i:
            sigma = z / s
            K = K + A_i.T @ (sigma[:, None] * A_i)
            rhs = rhs + A_i.T @ (mu / s - z - sigma * (g_i - s))
        if m_e:
            kkt = np.block([[K, A_e.T], [A_e, -1e-12 * np.eye(m_e)]])
            try:
                sol = np.linalg.solve(kkt, np.concatenate([rhs, -g_e]))
            except np.linalg.LinAlgError as exc:
                raise QPSubproblemInfeasible("singular QP KKT system") from exc
            dd, lam = sol[:n], sol[n:]
            dy = -lam
        else:
            try:
                dd = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError as exc:
                raise QPSubproblemInfeasible("singular QP system") from exc
            dy = np.zeros(0)
        if m_i:
            ds = A_i @ dd + (g_i - s)
            dz = mu / s - z - sigma * ds
            alpha = min(_fraction_to_boundary(s, ds), _fraction_to_boundary(z, dz))
        else:
            ds = dz = np.zeros(0)
            alpha = 1.0
        d = d + alpha * dd
        if m_i:
            s = s + alpha * ds
            z = np.maximum(z + alpha * dz, 1e-16)
        if m_e:
            y = y + alpha * dy
    return d, z, y


def solve_sqp_dense(p: NlpProblem, opts: SolverOptions = None) -> SolveResult:
    """Line-search SQP with convexified-Hessian QP subproblems, all dense."""
    opts = opts or SolverOptions()
    n = p.n
    obj, ineq, eq = _compiled_parts(p)
    x = _ballistic_initial_point(p)
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
            stats.append(IterationStat(it, kkt_norm, 0.0, 0.0,
                                       (time.perf_counter() - t0) * 1e3, "convexified"))
            break
        H = convexified_lagrangian_hessian(
            p, x, (-2.0 * z, -2.0 * y)
        ).toarray()
        H = H + REG_FLOOR * np.eye(n)
        c = obj.gradient(x)
        if p.n_ineq:
            A_i = ineq.jacobian(x).toarray()
            b_i = ineq.value(x)
        else:
            A_i = np.zeros((0, n))
            b_i = np.zeros(0)
        if p.n_eq:
            A_e = eq.jacobian(x).toarray()
            b_e = eq.value(x)
        else:
            A_e = np.zeros((0, n))
            b_e = np.zeros(0)
        # the subproblem must be solved a couple of orders tighter than the
        # outer tolerance or its dual noise caps the achievable accuracy
        qp_tol = min(1e-10, 1e-2 * opts.kkt_tol)
        d, z_qp, y_qp = _solve_dense_qp(H, c, A_i, b_i, A_e, b_e, tol=qp_tol)

        nu = 1.0 + 2.0 * max(
            np.abs(z_qp).max(initial=0.0), np.abs(y_qp).max(initial=0.0)
        )

        def penalty(xv):
            g_i = ineq.value(xv) if p.n_ineq else np.zeros(0)
            g_e = eq.value(xv) if p.n_eq else np.zeros(0)
            return nu * (np.maximum(-g_i, 0.0).sum() + np.abs(g_e).sum())

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
                    IterationStat(it, kkt_norm, 0.0, 1.0, (time.perf_counter() - t0) * 1e3,
                                  "convexified")
                )
                continue
        x = x + alpha * d
        z = z + alpha * (z_qp - z)
        y = y + alpha * (y_qp - y)
        stats.append(
            IterationStat(it, kkt_norm, 0.0, alpha, (time.perf_counter() - t0) * 1e3,
                          "convexified")
        )
    res = kkt_residual(p, x, z, y)
    f = obj.value(x)
    if not np.isfinite([f, *res]).all():
        status = "NumericFailure"
    elif max(res) <= opts.kkt_tol:
        status = "Converged"
    return SolveResult(x, z, y, status, stats, f, res)


def solve(p: NlpProblem, opts: SolverOptions = None) -> SolveResult:
    opts = opts or SolverOptions()
    if opts.backend == "sqp_dense":
        return solve_sqp_dense(p, opts)
    return solve_ipm(p, opts)
