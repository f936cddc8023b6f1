"""Structured factorizations: block tridiagonal Cholesky, banded + arrow
Cholesky and banded LU.

All three run in time linear in the number of diagonal blocks, which is
what keeps the per-iteration cost of the trajectory solvers linear in the
horizon length. BandStorage is the one place that knows the LAPACK band
layouts: it maps a symmetric sparsity pattern onto them once, packs values
and hands the storage to the banded factorization of its layout.
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


class BandStorage:
    """A symmetric sparsity pattern's places in LAPACK band storage.

    ``row`` and ``col`` list the pattern, each entry of one triangle once
    (the diagonal included); ``order`` is the permutation that makes the
    matrix banded: storage position k holds index ``order[k]``. With
    ``n_arrow`` given, the last ``n_arrow`` positions are a dense arrow,
    and the storage is (ab, W, C): the band block in LAPACK lower band
    storage, the band-arrow coupling W and the arrow block C, stored in
    full. With ``n_arrow`` None, it is (ab,), the whole matrix in LAPACK
    general band storage with ``kl = ku = bw``, both triangles stored.

    The constructor computes every entry's place, and its mirror place
    where the layout stores both, and allocates one Fortran-ordered buffer.
    ``pack`` writes values into it; ``factor`` factorizes it in place.
    """

    def __init__(self, row, col, order, n_arrow=None):
        self.order = np.asarray(order, dtype=np.intp)
        self.n_arrow = n_arrow
        N = self.order.size
        pos = np.empty(N, dtype=np.intp)
        pos[self.order] = np.arange(N)
        hi = np.maximum(pos[row], pos[col])
        lo = np.minimum(pos[row], pos[col])
        off = hi != lo
        if n_arrow is None:
            self.bw = int((hi - lo).max(initial=0))
            ld, mid = 3 * self.bw + 1, 2 * self.bw  # the first bw rows are workspace
            dst = mid + hi - lo + lo * ld
            mirror = off
            mirror_dst = mid + lo - hi + hi * ld
            shapes = [(ld, N)]
        else:
            nb, na = N - n_arrow, n_arrow
            in_band = hi < nb
            self.bw = int((hi - lo)[in_band].max(initial=0))
            n_ab, n_w = (self.bw + 1) * nb, nb * na
            a_hi, a_lo = hi - nb, lo - nb
            dst = np.where(
                in_band,
                hi - lo + lo * (self.bw + 1),
                np.where(lo < nb, n_ab + lo + a_hi * nb, n_ab + n_w + a_hi + a_lo * na),
            )
            mirror = off & (lo >= nb)
            mirror_dst = n_ab + n_w + a_lo + a_hi * na
            shapes = [(self.bw + 1, nb), (nb, na), (na, na)]
        self._dst = np.concatenate([dst, mirror_dst[mirror]])
        self._src = np.concatenate([np.arange(dst.size), np.flatnonzero(mirror)])
        self._flat = np.zeros(sum(r * c for r, c in shapes))
        self.blocks, start = [], 0
        for r, c in shapes:
            self.blocks.append(self._flat[start : start + r * c].reshape((r, c), order="F"))
            start += r * c

    def pack(self, values, shift=0.0, at=None):
        """Write ``values``, one per pattern entry, into the storage, with
        ``shift`` added to the entries ``at``, and return its blocks."""
        self._flat.fill(0.0)
        self._flat[self._dst] = values[self._src]
        if at is not None:
            self._flat[self._dst[at]] += shift
        return self.blocks

    def factor(self, values, shift=0.0, at=None):
        """Pack and factorize the storage in place; the factorization lives
        there until the next pack. Raises NotPositiveDefinite."""
        blocks = self.pack(values, shift, at)
        if self.n_arrow is None:
            return BandedLU(*blocks, self.bw, self.bw, self.order)
        return BandedArrowFactorization(*blocks, self.order)


class BandedArrowFactorization:
    """Cholesky of a SPD matrix that is banded after moving a small set of
    dense ("arrow") rows/columns to the end, solved via a Schur complement
    on the arrow block.

    Takes the matrix permuted by ``order``, arrow last, as BandStorage
    packs it: ``ab`` holds the band block in LAPACK lower band storage
    (Fortran order, overwritten by its factor), ``W`` the band-arrow
    coupling and ``C`` the arrow block, both dense.
    """

    def __init__(self, ab, W, C, order):
        self.order = np.asarray(order, dtype=np.intp)
        n = self.order.size
        self.inv_order = np.empty(n, dtype=np.intp)
        self.inv_order[self.order] = np.arange(n)
        self.nb, self.na = W.shape
        cb, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
        if info != 0:
            raise NotPositiveDefinite(f"banded Cholesky failed (info={info})")
        self._cb = cb
        if self.na:
            # S = C - W^T B^-1 W = C - Y^T Y with Y = L^-1 W, B = L L^T
            Y, info = lapack.dtbtrs(cb, W, uplo="L")
            if info != 0:
                raise NotPositiveDefinite(f"banded triangular solve failed (info={info})")
            S = C - Y.T @ Y
            S = 0.5 * (S + S.T)
            try:
                self._schur = sla.cho_factor(S, lower=True)
            except sla.LinAlgError as exc:
                raise NotPositiveDefinite("arrow Schur complement not PD") from exc
            self._W = W

    def _band_solve(self, rhs):
        x, info = lapack.dpbtrs(self._cb, rhs, lower=1)
        if info != 0:
            raise NotPositiveDefinite(f"banded solve failed (info={info})")
        return x

    def solve(self, rhs):
        r = np.asarray(rhs, dtype=float)[self.order]
        if self.na:
            r1 = r[: self.nb]
            u1 = self._band_solve(r1)
            x2 = sla.cho_solve(self._schur, r[self.nb :] - self._W.T @ u1)
            x1 = self._band_solve(r1 - self._W @ x2)
            r = np.concatenate([x1, x2])
        else:
            r = self._band_solve(r)
        return r[self.inv_order]


def factorize_banded_arrow(K, band_order, arrow_order=()):
    """Factorize a SPD matrix with banded-plus-arrow structure.

    ``band_order`` lists the indices of the banded part in an order that
    makes it narrow-banded (e.g. grouped by time step); ``arrow_order``
    lists the dense coupling indices. K may be sparse or dense; its lower
    triangle is packed through BandStorage. Raises NotPositiveDefinite.
    """
    arrow_order = np.asarray(arrow_order, dtype=np.intp)
    order = np.concatenate([np.asarray(band_order, dtype=np.intp), arrow_order])
    if order.size != K.shape[0]:
        raise ValueError("band and arrow orders must partition all indices")
    L = sp.tril(sp.csc_matrix(K)).tocoo()
    return BandStorage(L.row, L.col, order, arrow_order.size).factor(L.data)


class BandedLU:
    """LU factorization (partial pivoting) of a general banded matrix,
    used for the symmetric quasi-definite KKT systems of the simultaneous
    formulation. Linear time in the matrix dimension for fixed bandwidth.

    Takes ``ab``, the matrix permuted by ``order`` in LAPACK general band
    storage (``2 kl + ku + 1`` rows, Fortran order, the first ``kl`` rows
    workspace), as BandStorage packs it, and factorizes it in place."""

    def __init__(self, ab, kl, ku, order):
        self.order = np.asarray(order, dtype=np.intp)
        n = self.order.size
        self.inv_order = np.empty(n, dtype=np.intp)
        self.inv_order[self.order] = np.arange(n)
        lu, piv, info = lapack.dgbtrf(ab, kl, ku, overwrite_ab=1)
        if info != 0:
            raise NotPositiveDefinite(f"banded LU failed (info={info})")
        self._lu, self._piv, self._kl, self._ku = lu, piv, kl, ku

    def solve(self, rhs):
        r = np.asarray(rhs, dtype=float)[self.order]
        x, info = lapack.dgbtrs(self._lu, self._kl, self._ku, r, self._piv)
        if info != 0:
            raise NotPositiveDefinite(f"banded back-substitution failed (info={info})")
        return x[self.inv_order]
