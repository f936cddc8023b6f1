"""Primal-dual interior-point solver for the transcribed problems.

The Lagrangian convention throughout is

    L(x, z, y) = J(x) - z^T g_I(x) - y^T g_E(x),   g_I >= 0, z >= 0,

so the curvature contribution of constraint i is -2 dual_i (Q_i - P_i);
its PSD part is what convexified_lagrangian_hessian assembles from the
coefficients -2z (inequalities) and -2y (equalities). The Newton system
eliminates slacks and inequality duals into the diagonal Sigma = Z S^-1
and factorizes

    K = H_tilde + A_I^T Sigma A_I + delta I

by the banded-plus-arrow Cholesky (sequential formulation, no equality
rows) or, with the dynamics equalities appended, as a quasi-definite
banded KKT system in step-interleaved order (simultaneous formulation).
Both factorizations cost O(T) per iteration for a fixed effector count.

A dense line-search SQP with the same convexified Hessian serves as the
baseline solver for cross-checking on small instances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .linalg import BandedLU, NotPositiveDefinite, factorize_banded_arrow
from .transcription import NlpProblem, convexified_lagrangian_hessian


def solve_with(factorization, rhs):
    """Apply a factorization produced by factorize_banded_arrow."""
    return factorization.solve(rhs)


class QPSubproblemInfeasible(RuntimeError):
    pass


@dataclass
class SolverOptions:
    max_iter: int = 200
    kkt_tol: float = 1e-6
    mu0: float = 1.0
    mu_reduction: float = 0.2
    fraction_to_boundary: float = 0.995
    reg_floor: float = 1e-8
    backend: str = "ipm"  # "ipm" | "sqp_dense"

    def __post_init__(self):
        if not (self.kkt_tol > 0 and self.mu0 > 0 and self.reg_floor > 0):
            raise ValueError("tolerances must be positive")
        for f in (self.mu_reduction, self.fraction_to_boundary):
            if not 0.0 < f < 1.0:
                raise ValueError("factors must lie in (0, 1)")
        if self.backend not in ("ipm", "sqp_dense"):
            raise ValueError(f"unknown backend {self.backend!r}")


@dataclass
class IterationStat:
    iter: int
    kkt: float
    mu: float
    alpha: float
    time_ms: float


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


def kkt_residual(p: NlpProblem, x, z, y):
    """Infinity norms of the four KKT blocks under the sign convention
    L = J - z g_I - y g_E: (stationarity, primal, dual, complementarity)."""
    obj = p.compiled_objective()
    r_d = obj.gradient(x)
    primal = 0.0
    comp = 0.0
    if p.n_ineq:
        ineq = p.compiled_ineq()
        g = ineq.value(x)
        r_d = r_d - ineq.jacobian(x).T @ np.asarray(z)
        primal = max(primal, float(np.maximum(-g, 0.0).max(initial=0.0)))
        comp = float(np.abs(np.asarray(z) * g).max(initial=0.0))
    if p.n_eq:
        eq = p.compiled_eq()
        r_d = r_d - eq.jacobian(x).T @ np.asarray(y)
        primal = max(primal, float(np.abs(eq.value(x)).max(initial=0.0)))
    dual = float(np.maximum(-np.asarray(z), 0.0).max(initial=0.0)) if p.n_ineq else 0.0
    return (float(np.abs(r_d).max(initial=0.0)), primal, dual, comp)


def estimate_factorization_flops(p: NlpProblem):
    """Analytic per-iteration factorization cost from block sizes:
    O(T b^3) for the band plus the arrow Schur complement terms."""
    layout = p.layout
    n_band = layout.n_vars - layout.arrow_indices.size
    per_step = max(1, n_band // max(1, layout.T))
    bw = 3 * per_step if layout.kind == "sequential" else 2 * (per_step + 9)
    na = int(layout.arrow_indices.size)
    return n_band * bw * bw + na * na * n_band + na**3


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


def _fraction_to_boundary(v, dv, tau):
    neg = dv < 0
    if not np.any(neg):
        return 1.0
    return float(min(1.0, tau * np.min(-v[neg] / dv[neg])))


def solve_ipm(p: NlpProblem, opts: SolverOptions = None) -> SolveResult:
    """Structure-exploiting primal-dual interior-point method."""
    opts = opts or SolverOptions()
    n = p.n
    obj = p.compiled_objective()
    ineq = p.compiled_ineq() if p.n_ineq else None
    eq = p.compiled_eq() if p.n_eq else None
    m_i = p.n_ineq
    m_e = p.n_eq

    x = _ballistic_initial_point(p)
    mu = opts.mu0
    if m_i:
        g0 = ineq.value(x)
        s = np.maximum(g0, 1.0)
        z = mu / s
    else:
        s = np.zeros(0)
        z = np.zeros(0)
    y = np.zeros(m_e)

    band = p.layout.band_order()
    arrow = p.layout.arrow_indices
    kkt_order = _simultaneous_kkt_order(p) if m_e else None
    gamma = 1e-8

    stats = []
    status = "MaxIter"
    t_start = time.perf_counter()
    stall = 0
    for it in range(opts.max_iter):
        it_t0 = time.perf_counter()
        grad = obj.gradient(x)
        if m_i:
            g_i = ineq.value(x)
            A_i = ineq.jacobian(x)
            r_i = g_i - s
        if m_e:
            g_e = eq.value(x)
            A_e = eq.jacobian(x)

        res = kkt_residual(p, x, z, y)
        kkt_norm = max(res)
        if kkt_norm <= opts.kkt_tol:
            status = "Converged"
            stats.append(IterationStat(it, kkt_norm, mu, 0.0,
                                       (time.perf_counter() - it_t0) * 1e3))
            break

        # barrier-perturbed residual controls the mu schedule
        pert = [res[0], res[1]]
        if m_i:
            pert.append(float(np.abs(s * z - mu).max(initial=0.0)))
        if max(pert) <= 10.0 * mu:
            mu = max(mu * opts.mu_reduction, 1e-14)

        duals_coeff_i = -2.0 * z if m_i else np.zeros(0)
        duals_coeff_e = -2.0 * y if m_e else np.zeros(0)
        H = convexified_lagrangian_hessian(p, x, (duals_coeff_i, duals_coeff_e))

        # reduced system matrix and right-hand side
        r_d = grad.copy()
        if m_i:
            r_d -= A_i.T @ z
        if m_e:
            r_d -= A_e.T @ y
        rhs = -r_d
        if m_i:
            sigma = z / s
            K = H + A_i.T @ sp.diags(sigma) @ A_i
            rhs = rhs + A_i.T @ (mu / s - z - sigma * r_i)
        else:
            K = H

        delta = opts.reg_floor
        dx = None
        while dx is None:
            try:
                Kr = (K + delta * sp.eye(n)).tocsr()
                if m_e:
                    kkt_mat = sp.bmat(
                        [[Kr, A_e.T], [A_e, -gamma * sp.eye(m_e)]], format="csr"
                    )
                    sol = BandedLU(kkt_mat, kkt_order).solve(
                        np.concatenate([rhs, -g_e])
                    )
                    # row 1 reads K dx + A_e^T w = rhs while the Newton
                    # system wants K dx - A_e^T dy = rhs, hence dy = -w
                    dx, w = sol[:n], sol[n:]
                    dy = -w
                else:
                    fac = factorize_banded_arrow(Kr, band, arrow)
                    dx = fac.solve(rhs)
                    dy = np.zeros(0)
            except NotPositiveDefinite:
                delta *= 10.0
                if delta > 1e-2:
                    return SolveResult(
                        x, z, y, "NumericFailure", stats, obj.value(x), res
                    )

        if m_i:
            ds = A_i @ dx + r_i
            dz = mu / s - z - sigma * ds
            tau = opts.fraction_to_boundary
            alpha_max = min(
                _fraction_to_boundary(s, ds, tau), _fraction_to_boundary(z, dz, tau)
            )
        else:
            ds = np.zeros(0)
            dz = np.zeros(0)
            alpha_max = 1.0

        # Armijo backtracking on the barrier merit function
        nu = 1.0 + 2.0 * max(
            np.abs(z).max(initial=0.0), np.abs(y).max(initial=0.0)
        )

        def merit(xv, sv):
            val = obj.value(xv)
            if m_i:
                val -= mu * np.log(sv).sum()
                val += nu * np.abs(ineq.value(xv) - sv).sum()
            if m_e:
                val += nu * np.abs(eq.value(xv)).sum()
            return val

        phi0 = merit(x, s)
        dphi = float(grad @ dx)
        if m_i:
            dphi -= mu * float((ds / s).sum())
            dphi -= nu * float(np.abs(r_i).sum())
        if m_e:
            dphi -= nu * float(np.abs(g_e).sum())
        alpha = alpha_max
        accepted = False
        # the merit cannot be evaluated more accurately than the rounding
        # noise of its large summands; below that, backtracking only sees
        # noise and the full fraction-to-boundary step is the right move
        noise = 1e-13 * (
            1.0 + abs(phi0) + (nu * np.abs(g_i).sum() if m_i else 0.0)
        )
        if dphi >= -max(1e-9 * (1.0 + abs(phi0)), noise):
            accepted = True
        else:
            for _ in range(40):
                if merit(x + alpha * dx, s + alpha * ds) <= phi0 + 1e-4 * alpha * dphi + noise:
                    accepted = True
                    break
                alpha *= 0.5
        if (not accepted or alpha < 1e-4 * alpha_max) and alpha_max > 1e-8:
            # merit progress smaller than its evaluation noise cannot be
            # certified by backtracking; fall back to accepting the full
            # fraction-to-boundary step whenever it shrinks the perturbed
            # KKT residual, which is what the Newton step targets
            def pert_norm(xv, sv, zv, yv):
                gr = obj.gradient(xv)
                vals = []
                if m_i:
                    gr = gr - ineq.jacobian(xv).T @ zv
                    vals.append(np.abs(ineq.value(xv) - sv).max(initial=0.0))
                    vals.append(np.abs(sv * zv - mu).max(initial=0.0))
                if m_e:
                    gr = gr - eq.jacobian(xv).T @ yv
                    vals.append(np.abs(eq.value(xv)).max(initial=0.0))
                vals.append(np.abs(gr).max(initial=0.0))
                return max(vals)

            z_t = np.maximum(z + alpha_max * dz, 1e-16) if m_i else z
            y_t = y + alpha_max * dy if m_e else y
            trial = pert_norm(x + alpha_max * dx, s + alpha_max * ds, z_t, y_t)
            if trial <= pert_norm(x, s, z, y) * (1.0 - 1e-4 * alpha_max):
                alpha = alpha_max
                accepted = True
        if not accepted:
            stall += 1
        else:
            stall = 0
        x = x + alpha * dx
        if m_i:
            s = s + alpha * ds
            z = np.maximum(z + alpha * dz, 1e-16)
        if m_e:
            y = y + alpha * dy
        stats.append(
            IterationStat(it, kkt_norm, mu, alpha, (time.perf_counter() - it_t0) * 1e3)
        )
        if stall >= 8:
            break

    res = kkt_residual(p, x, z, y)
    if max(res) <= opts.kkt_tol:
        status = "Converged"
    elif stall >= 8 and res[1] > 1e-4:
        status = "Infeasible"  # stalled short of primal feasibility
    return SolveResult(x, z, y, status, stats, obj.value(x), res)


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
            alpha = min(
                _fraction_to_boundary(s, ds, 0.995),
                _fraction_to_boundary(z, dz, 0.995),
            )
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
    obj = p.compiled_objective()
    ineq = p.compiled_ineq() if p.n_ineq else None
    eq = p.compiled_eq() if p.n_eq else None
    x = _ballistic_initial_point(p)
    z = np.zeros(p.n_ineq)
    y = np.zeros(p.n_eq)
    stats = []
    status = "MaxIter"
    for it in range(opts.max_iter):
        t0 = time.perf_counter()
        res = kkt_residual(p, x, z, y)
        kkt_norm = max(res)
        if kkt_norm <= opts.kkt_tol:
            status = "Converged"
            stats.append(IterationStat(it, kkt_norm, 0.0, 0.0,
                                       (time.perf_counter() - t0) * 1e3))
            break
        H = convexified_lagrangian_hessian(
            p, x, (-2.0 * z, -2.0 * y)
        ).toarray()
        H = H + opts.reg_floor * np.eye(n)
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

        def merit(xv):
            val = obj.value(xv)
            if p.n_ineq:
                val += nu * np.maximum(-ineq.value(xv), 0.0).sum()
            if p.n_eq:
                val += nu * np.abs(eq.value(xv)).sum()
            return val

        phi0 = merit(x)
        alpha = 1.0
        accepted = False
        for _ in range(30):
            if merit(x + alpha * d) <= phi0 - 1e-6 * alpha * float(d @ d):
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
                    IterationStat(it, kkt_norm, 0.0, 1.0, (time.perf_counter() - t0) * 1e3)
                )
                continue
        x = x + alpha * d
        z = z + alpha * (z_qp - z)
        y = y + alpha * (y_qp - y)
        stats.append(
            IterationStat(it, kkt_norm, 0.0, alpha, (time.perf_counter() - t0) * 1e3)
        )
    res = kkt_residual(p, x, z, y)
    if max(res) <= opts.kkt_tol:
        status = "Converged"
    return SolveResult(x, z, y, status, stats, obj.value(x), res)


def solve(p: NlpProblem, opts: SolverOptions = None) -> SolveResult:
    opts = opts or SolverOptions()
    if opts.backend == "sqp_dense":
        return solve_sqp_dense(p, opts)
    return solve_ipm(p, opts)
