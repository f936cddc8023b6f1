"""Structured factorizations: block tridiagonal Cholesky and banded + arrow.

Both factorizations run in time linear in the number of diagonal blocks,
which is what keeps the per-iteration cost of the trajectory solvers
linear in the horizon length.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack


class NotPositiveDefinite(Exception):
    pass


class BlockTridiagCholesky:
    """Cholesky factorization of a symmetric positive definite block
    tridiagonal matrix given as diagonal blocks D_0..D_{N-1} and lower
    off-diagonal blocks B_0..B_{N-2} (B_i couples block i+1 with block i)."""

    def __init__(self, diag, off):
        if len(off) != len(diag) - 1:
            raise ValueError("need one off-diagonal block per adjacent pair")
        self.sizes = [d.shape[0] for d in diag]
        self.L = []       # lower-triangular diagonal factors
        self.M = []       # dense sub-diagonal factors
        prev_L = None
        for i, D in enumerate(diag):
            S = np.array(D, dtype=float)
            if i > 0:
                # M_i = B_{i-1} L_{i-1}^{-T}
                Mi = sla.solve_triangular(prev_L, off[i - 1].T, lower=True).T
                self.M.append(Mi)
                S = S - Mi @ Mi.T
            try:
                Li = sla.cholesky(S, lower=True)
            except sla.LinAlgError as exc:
                raise NotPositiveDefinite(f"block {i} is not positive definite") from exc
            self.L.append(Li)
            prev_L = Li

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        splits = np.cumsum(self.sizes)[:-1]
        b = np.split(rhs, splits)
        y = []
        for i, Li in enumerate(self.L):
            r = b[i] if i == 0 else b[i] - self.M[i - 1] @ y[i - 1]
            y.append(sla.solve_triangular(Li, r, lower=True))
        x = [None] * len(y)
        for i in range(len(y) - 1, -1, -1):
            r = y[i]
            if i < len(y) - 1:
                r = r - self.M[i].T @ x[i + 1]
            x[i] = sla.solve_triangular(self.L[i].T, r, lower=False)
        return np.concatenate(x)


def _to_lower_banded(K, bw):
    """Convert a sparse symmetric matrix to LAPACK lower banded storage."""
    n = K.shape[0]
    coo = K.tocoo()
    ab = np.zeros((bw + 1, n))
    mask = coo.row >= coo.col
    r, c, v = coo.row[mask], coo.col[mask], coo.data[mask]
    ab[r - c, c] = 0.0
    np.add.at(ab, (r - c, c), v)
    return ab


class BandedArrowFactorization:
    """Cholesky of a SPD matrix that is banded after moving a small set of
    dense ("arrow") rows/columns to the end, solved via a Schur complement
    on the arrow block."""

    def __init__(self, K, band_order, arrow_order):
        n = K.shape[0]
        K = sp.csc_matrix(K)
        self.band_order = np.asarray(band_order, dtype=np.intp)
        self.arrow_order = np.asarray(arrow_order, dtype=np.intp)
        if self.band_order.size + self.arrow_order.size != n:
            raise ValueError("band and arrow orders must partition all indices")
        perm = np.concatenate([self.band_order, self.arrow_order])
        self.inv_perm = np.empty(n, dtype=np.intp)
        self.inv_perm[perm] = np.arange(n)
        Kp = K[perm][:, perm].tocsr()
        nb = self.band_order.size
        na = self.arrow_order.size
        B = Kp[:nb, :nb]
        coo = B.tocoo()
        self.bw = int(np.abs(coo.row - coo.col).max(initial=0))
        ab = _to_lower_banded(B, self.bw)
        cb, info = lapack.dpbtrf(ab, lower=1)
        if info != 0:
            raise NotPositiveDefinite(f"banded Cholesky failed (info={info})")
        self._cb = cb
        self.nb, self.na = nb, na
        if na:
            W = np.asarray(Kp[:nb, nb:].todense())
            C = np.asarray(Kp[nb:, nb:].todense())
            X = self._band_solve(W)
            S = C - W.T @ X
            S = 0.5 * (S + S.T)
            try:
                self._schur = sla.cho_factor(S, lower=True)
            except sla.LinAlgError as exc:
                raise NotPositiveDefinite("arrow Schur complement not PD") from exc
            self._W = W
        else:
            self._W = None

    def _band_solve(self, rhs):
        x, info = lapack.dpbtrs(self._cb, rhs, lower=1)
        if info != 0:
            raise NotPositiveDefinite(f"banded solve failed (info={info})")
        return x

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        r1 = rhs[self.band_order]
        if self.na:
            r2 = rhs[self.arrow_order]
            u1 = self._band_solve(r1)
            x2 = sla.cho_solve(self._schur, r2 - self._W.T @ u1)
            x1 = self._band_solve(r1 - self._W @ x2)
            out = np.concatenate([x1, x2])
        else:
            out = self._band_solve(r1)
        return out[self.inv_perm]


def factorize_banded_arrow(K, band_order, arrow_order=()):
    """Factorize a SPD matrix with banded-plus-arrow structure.

    ``band_order`` lists the indices of the banded part in an order that
    makes it narrow-banded (e.g. grouped by time step); ``arrow_order``
    lists the dense coupling indices. Raises NotPositiveDefinite.
    """
    return BandedArrowFactorization(K, band_order, np.asarray(arrow_order, dtype=np.intp))


class BandedLU:
    """LU factorization (partial pivoting) of a general banded matrix,
    used for the symmetric quasi-definite KKT systems of the simultaneous
    formulation. Linear time in the matrix dimension for fixed bandwidth."""

    def __init__(self, K, order):
        n = K.shape[0]
        self.order = np.asarray(order, dtype=np.intp)
        self.inv_order = np.empty(n, dtype=np.intp)
        self.inv_order[self.order] = np.arange(n)
        Kp = sp.csc_matrix(K)[self.order][:, self.order].tocoo()
        kl = int((Kp.row - Kp.col).max(initial=0))
        ku = int((Kp.col - Kp.row).max(initial=0))
        ab = np.zeros((2 * kl + ku + 1, n))
        np.add.at(ab, (kl + ku + Kp.row - Kp.col, Kp.col), Kp.data)
        lu, piv, info = lapack.dgbtrf(ab, kl, ku)
        if info != 0:
            raise NotPositiveDefinite(f"banded LU failed (info={info})")
        self._lu, self._piv, self._kl, self._ku = lu, piv, kl, ku

    def solve(self, rhs):
        r = np.asarray(rhs, dtype=float)[self.order]
        x, info = lapack.dgbtrs(self._lu, self._kl, self._ku, r, self._piv)
        if info != 0:
            raise NotPositiveDefinite(f"banded back-substitution failed (info={info})")
        return x[self.inv_order]
