"""Banded factorizations: banded + arrow Cholesky and banded LU.

Both run in time linear in the matrix dimension for a fixed bandwidth,
which is what keeps the per-iteration cost of the trajectory solvers
linear in the horizon length. BandStorage is the one place that knows the
LAPACK band layouts: it maps a symmetric sparsity pattern onto them once,
then packs values and hands the storage to the banded factorization of
its layout. Every banded system goes through it: the IPM's Newton matrix,
factorize_banded_arrow's sparse input and BlockTridiagCholesky's blocks.
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
    tridiagonal matrix given as equal-size diagonal blocks D_0..D_{N-1}
    and lower off-diagonal blocks B_0..B_{N-2} (B_i couples block i+1 with
    block i). The blocks are packed in their own order, bandwidth 2b - 1
    for blocks of size b, through ``band``, the BandStorage of
    block_tridiag_band(N, b), into the banded Cholesky; a caller that
    factorizes many matrices of one shape builds that storage once and
    passes it to each. Raises NotPositiveDefinite."""

    def __init__(self, diag, off, band=None):
        if len(off) != len(diag) - 1:
            raise ValueError("need one off-diagonal block per adjacent pair")
        diag = np.asarray(diag, dtype=float)
        N, b = diag.shape[:2]
        band = band if band is not None else block_tridiag_band(N, b)
        i, j = np.tril_indices(b)
        values = np.concatenate([diag[:, i, j].ravel(), np.asarray(off, dtype=float).ravel()])
        self._fac = band.factor(values)

    def solve(self, rhs):
        return self._fac.solve(rhs)


def block_tridiag_band(N, b):
    """The BandStorage of N diagonal blocks of size b and the N - 1 blocks
    below them, in BlockTridiagCholesky's value order: the lower triangle
    of each diagonal block, then every entry of each off-diagonal block."""
    first = b * np.arange(N)[:, None]
    i, j = np.tril_indices(b)  # the lower triangle of each diagonal block
    oi, oj = np.divmod(np.arange(b * b), b)  # every entry of each B
    row = np.concatenate([(first + i).ravel(), (first[1:] + oi).ravel()])
    col = np.concatenate([(first + j).ravel(), (first[:-1] + oj).ravel()])
    return BandStorage(row, col, np.arange(N * b), 0)


class BandStorage:
    """A symmetric sparsity pattern's places in LAPACK band storage.

    ``row`` and ``col`` list the pattern, each entry of one triangle once
    (the diagonal included); ``order`` is the permutation that makes the
    matrix banded: storage position k holds index ``order[k]``, and index i
    is at position ``inverse[i]``. An order that is not a permutation raises
    ValueError. With ``n_arrow`` given, the last
    ``n_arrow`` positions are a dense arrow, and the storage is (ab, W, C):
    the band block in LAPACK lower band storage, the band-arrow coupling W
    and the arrow block C, stored in full. With ``n_arrow`` None, it is
    (ab,), the whole matrix in LAPACK general band storage with
    ``kl = ku = bw``, both triangles stored.

    The constructor computes every entry's place, and its mirror place
    where the layout stores both, and allocates one Fortran-ordered buffer.
    ``factor`` writes values into it and factorizes it in place.
    """

    def __init__(self, row, col, order, n_arrow=None):
        self.order = np.asarray(order, dtype=np.intp)
        self.n_arrow = n_arrow
        N = self.order.size
        if not np.array_equal(np.sort(self.order), np.arange(N)):
            raise ValueError("order must hold each index exactly once")
        self.inverse = pos = np.empty(N, dtype=np.intp)
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

    def factor(self, values):
        """Write ``values``, one per pattern entry, and factorize the storage
        in place; the factor lives there until the next call. Raises
        NotPositiveDefinite."""
        self._flat.fill(0.0)
        self._flat[self._dst] = values[self._src]
        if self.n_arrow is None:
            return BandedLU(*self.blocks, self.bw, self.bw, self.order, self.inverse)
        return BandedArrowFactorization(*self.blocks, self.order, self.inverse)


class BandedArrowFactorization:
    """Cholesky of a SPD matrix that is banded after moving a small set of
    dense ("arrow") rows/columns to the end, solved via a Schur complement
    on the arrow block.

    Takes the matrix permuted by ``order``, arrow last, as BandStorage
    packs it: ``ab`` holds the band block in LAPACK lower band storage
    (Fortran order, overwritten by its factor), ``W`` the band-arrow
    coupling and ``C`` the arrow block, both dense; ``inverse`` inverts
    ``order``."""

    def __init__(self, ab, W, C, order, inverse):
        self.order, self.inverse = order, inverse
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
        return r[self.inverse]


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
    workspace), as BandStorage packs it with ``inverse`` inverting
    ``order``, and factorizes it in place."""

    def __init__(self, ab, kl, ku, order, inverse):
        self.order, self.inverse = order, inverse
        lu, piv, info = lapack.dgbtrf(ab, kl, ku, overwrite_ab=1)
        if info != 0:
            raise NotPositiveDefinite(f"banded LU failed (info={info})")
        self._lu, self._piv, self._kl, self._ku = lu, piv, kl, ku

    def solve(self, rhs):
        r = np.asarray(rhs, dtype=float)[self.order]
        x, info = lapack.dgbtrs(self._lu, self._kl, self._ku, r, self._piv)
        if info != 0:
            raise NotPositiveDefinite(f"banded back-substitution failed (info={info})")
        return x[self.inverse]
