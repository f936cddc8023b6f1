"""Calculus of affine and difference-of-PSD quadratic vector functions.

Every function handled here maps R^n -> R^m where row r evaluates to

    s_r(x) = x^T Q_r x - x^T P_r x + A_r x + b_r

with Q_r, P_r positive semidefinite and stored separately (the indefinite
difference Q_r - P_r is never stored). A function holds all its rows in
one set of arrays: the linear part as a CSR matrix A and a vector b, and
each of the Q and P parts as (row, i, j, value) arrays of the nonzero
entries on and below the diagonal, sorted by (row, i, j), with int32
indices. Affine functions are the special case of empty Q and P.

The class is closed under stacking and affine maps of the output
(affine_after, linear_combine, select_rows). Its one quadratic source is
the cross product of two affine functions (cross), a sum of rank-1
squares of their rows. Each operation acts on all rows at once and keeps
the two PSD parts apart, so a constraint family over every step and
contact sample is one expression.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# Tolerance for PSD validity checks (round-off in summed rank-1 squares
# leaves slightly negative eigenvalues).
PSD_TOL = 1e-10

_NO_ENTRIES = (np.zeros(0, np.int32),) * 3 + (np.zeros(0),)


class DimensionMismatch(ValueError):
    pass


def _summed(part, n):
    """Sorted (row, i, j) keys of a quadratic part and their values:
    duplicates summed in the order given, exact zeros dropped."""
    row, i, j, v = part
    key = (np.asarray(row, np.int64) * n + i) * n + j
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    seg = np.empty(key.size, dtype=np.intp)
    seg[order] = np.cumsum(first) - 1
    # bincount adds in index order, so each sum runs in the order given
    val = np.bincount(seg, weights=v, minlength=int(first.sum())).astype(float, copy=False)
    keep = val != 0.0
    return key[first][keep], val[keep]


def _equal_rows(kq, vq, kp, vp, n, m):
    """Rows whose Q and P entries are exactly equal: the row is affine in
    disguise (e.g. a cross product with a constant factor)."""
    same = np.zeros(m, dtype=bool)
    if kq.size and kp.size:
        pos = np.searchsorted(kp, kq).clip(max=kp.size - 1)
        hit = (kp[pos] == kq) & (vp[pos] == vq)
        rq, rp = kq // (n * n), kp // (n * n)
        nq = np.bincount(rq, minlength=m)
        same = (nq == np.bincount(rp, minlength=m)) & (np.bincount(rq[hit], minlength=m) == nq)
    return same


def _ranges(start, count):
    """The concatenated index ranges [start_k, start_k + count_k)."""
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())


class QpmFunction:
    """Vector function x -> A x + b + (x'Q_r x - x'P_r x)_r on R^n.

    A is made CSR (m x n) with duplicates summed and zeros dropped; Q and
    P are (row, i, j, value) entry arrays with i >= j, duplicates summed
    in the order given. Both parts of a row whose Q and P entries are
    exactly equal are dropped.
    """

    def __init__(self, input_dim, A, b, Q=_NO_ENTRIES, P=_NO_ENTRIES):
        n = self.input_dim = int(input_dim)
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        m = self.b.size
        self.A = A = sp.csr_matrix(A, dtype=float)
        if A.shape != (m, n):
            raise DimensionMismatch(f"A is {A.shape}, expected ({m}, {n})")
        A.sum_duplicates()
        A.eliminate_zeros()
        (kq, vq), (kp, vp) = _summed(Q, n), _summed(P, n)
        same = _equal_rows(kq, vq, kp, vp, n, m)

        def entries(key, val):
            keep = ~same[key // (n * n)]
            r, ij = np.divmod(key[keep], n * n)
            return (r.astype(np.int32), *(a.astype(np.int32) for a in np.divmod(ij, n)), val[keep])

        self.Q, self.P = entries(kq, vq), entries(kp, vp)

    @property
    def output_dim(self):
        return self.b.size

    def __call__(self, x):
        return evaluate(self, x)

    def is_affine(self):
        return not (self.Q[0].size or self.P[0].size)


# ---------------------------------------------------------------------------
# constructors


def make_affine(A, a):
    """Affine function x -> A x + a with zero quadratic parts."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if A.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"A has {A.shape[0]} rows but a has {a.shape[0]}")
    return QpmFunction(A.shape[1], A, a)


def block_diag(blocks):
    """CSR block-diagonal matrix of a (k, r, c) stack of dense blocks."""
    k, r, c = blocks.shape
    s, i, j = np.indices(blocks.shape)
    return sp.csr_matrix(
        (blocks.ravel(), ((s * r + i).ravel(), (s * c + j).ravel())), shape=(k * r, k * c)
    )


# ---------------------------------------------------------------------------
# closure operations


def _carry(part, other, m, o, r, scale, keep):
    """Entries for output rows o: input row r's entries of ``part`` where
    ``keep``, else of ``other``, scaled by ``scale``, in the order given;
    m is the number of input rows."""
    both = [np.concatenate([a, b]) for a, b in zip(part, other)]
    ptr_a = np.searchsorted(part[0], np.arange(m + 1))
    ptr_b = np.searchsorted(other[0], np.arange(m + 1)) + part[0].size
    start = np.where(keep, ptr_a[r], ptr_b[r])
    count = np.where(keep, ptr_a[r + 1], ptr_b[r + 1]) - start
    idx = _ranges(start, count)
    return np.repeat(o, count), both[1][idx], both[2][idx], np.repeat(scale, count) * both[3][idx]


def affine_after(C, a, v):
    """u(v(x)) for an affine outer map u(y) = C y + a: A' = C A and
    b' = C b + a. Each entry (o, r, beta) of C carries row r's Q into row
    o's Q and its P into P, scaled by |beta|; a negative beta swaps them."""
    C = sp.csr_matrix(C, dtype=float)
    C.sum_duplicates()
    C.eliminate_zeros()
    if C.shape[1] != v.output_dim:
        raise DimensionMismatch("outer map width must match v output dim")
    o = np.repeat(np.arange(C.shape[0]), np.diff(C.indptr))
    r, beta = C.indices, C.data
    pos = beta > 0
    m = v.output_dim
    Q = _carry(v.Q, v.P, m, o, r, np.abs(beta), pos)
    P = _carry(v.P, v.Q, m, o, r, np.abs(beta), pos)
    return QpmFunction(v.input_dim, C @ v.A, C @ v.b + a, Q, P)


def linear_combine(terms):
    """Sum beta_k * v_k over functions sharing input and output dims."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty combination")
    m = terms[0][1].output_dim
    if any(v.output_dim != m for _, v in terms):
        raise DimensionMismatch("all terms must share input/output dims")
    C = sp.hstack([beta * sp.identity(m) for beta, _ in terms])
    return affine_after(C, 0.0, stack([v for _, v in terms]))


def select_rows(v, rows):
    """The rows of v in the order given; a row may repeat."""
    select = sp.identity(v.output_dim, format="csr")[np.asarray(rows, dtype=np.intp)]
    return affine_after(select, 0.0, v)


def stack(fns):
    """Concatenate the rows of functions sharing an input dimension."""
    fns = list(fns)
    n = fns[0].input_dim
    if any(f.input_dim != n for f in fns):
        raise DimensionMismatch("stacked functions must share input dim")
    off = np.cumsum([0] + [f.output_dim for f in fns])

    def cat(part):
        entries = [getattr(f, part) for f in fns]
        rows = np.concatenate([e[0] + k for e, k in zip(entries, off)])
        return (rows,) + tuple(np.concatenate([e[c] for e in entries]) for c in (1, 2, 3))

    A = sp.vstack([f.A for f in fns], format="csr")
    return QpmFunction(n, A, np.concatenate([f.b for f in fns]), cat("Q"), cat("P"))


def sorted_unique(a):
    """np.unique by one sort: numpy's hash-based unique is several times
    slower on the index-key arrays of this package."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def row_pairs(indptr):
    """Every pair (k1, k2), k1 >= k2, of entry positions within one row of
    a CSR pattern: the lower-triangle terms of u'u for each row u. They
    come row by row, k1 ascending, and for each k1 the k2 ascending from
    the row's first entry."""
    start = np.repeat(indptr[:-1], np.diff(indptr))  # the row start of each k1
    k1 = np.arange(indptr[0], indptr[-1])
    count = k1 - start + 1
    return np.repeat(k1, count), _ranges(start, count)


def cross(a, b):
    """The cross products a_l x b_l of the consecutive 3-row blocks of two
    affine functions a = A x + a0 and b = B x + b0, as 3 rows each.

    Component c is a_s b_t - a_t b_s, (s, t) = (c+1, c+2) mod 3, and a
    product of affine rows splits as u v = 1/4 (u + v)^2 - 1/4 (u - v)^2:
    Q = 1/4 (A_s + B_t)'(A_s + B_t) + 1/4 (A_t - B_s)'(A_t - B_s), P the
    sign-swapped pair, the linear part a0_s B_t + b0_t A_s - a0_t B_s -
    b0_s A_t and the constant a0_s b0_t - a0_t b0_s."""
    if a.output_dim != b.output_dim or a.output_dim % 3 or a.input_dim != b.input_dim:
        raise DimensionMismatch("cross needs two functions of 3k rows on one input")
    if not (a.is_affine() and b.is_affine()):
        raise ValueError("cross needs two affine functions")
    m = a.output_dim
    row = np.arange(m)
    s, t = row - row % 3 + (row + 1) % 3, row - row % 3 + (row + 2) % 3
    src = np.stack([s, t + m, t, s + m])  # the rows A_s, B_t, A_t, B_s of (A; B)
    AB = sp.vstack([a.A, b.A], format="csr")
    a0s, b0t, a0t, b0s = np.concatenate([a.b, b.b])[src]

    def combine(coef):
        """Row g m + r: the sum over k of coef[g, k, r] AB[src[k, r]]."""
        coef = np.broadcast_to(coef, coef.shape[:2] + (m,))
        g, k, r = np.nonzero(coef)
        shape = (coef.shape[0] * m, 2 * m)
        return sp.csr_matrix((coef[g, k, r], (g * m + r, src[k, r])), shape=shape) @ AB

    # the rows u of the squares 1/4 u'u: two per component for Q, then two for P
    signs = np.array([[1.0, 1, 0, 0], [0, 0, 1, -1], [1, -1, 0, 0], [0, 0, 1, 1]])
    U = combine(signs[..., None])
    U.sort_indices()  # so that every pair k1 >= k2 lies on or below the diagonal
    p1, p2 = row_pairs(U.indptr)
    u = np.repeat(np.arange(4 * m), np.diff(U.indptr))[p1]
    entries = (u % m, U.indices[p1], U.indices[p2], 0.25 * U.data[p1] * U.data[p2])
    Q, P = ([e[part] for e in entries] for part in (u < 2 * m, u >= 2 * m))
    lin = combine(np.array([[b0t, a0s, -b0s, -a0t]]))
    return QpmFunction(a.input_dim, lin, a0s * b0t - a0t * b0s, Q, P)


# ---------------------------------------------------------------------------
# evaluation


def _check_input(v, x):
    x = np.asarray(x, dtype=float)
    if x.shape[0] != v.input_dim:
        raise DimensionMismatch(f"expected input of size {v.input_dim}")
    return x


def evaluate(v, x):
    x = _check_input(v, x)
    out = v.A @ x + v.b
    for (row, i, j, val), sign in ((v.Q, 1.0), (v.P, -1.0)):
        w = np.where(i == j, 1.0, 2.0) * val * x[i] * x[j]
        out += sign * np.bincount(row, weights=w, minlength=v.output_dim)
    return out


def gradient(v, x):
    """Dense m x n gradient; row r is 2(Q_r - P_r)x + A_r."""
    x = _check_input(v, x)
    G = v.A.toarray()
    for (row, i, j, val), sign in ((v.Q, 2.0), (v.P, -2.0)):
        np.add.at(G, (row, i), sign * val * x[j])
        off = i != j
        np.add.at(G, (row[off], j[off]), sign * val[off] * x[i[off]])
    return G


def _dense(part, r, n):
    row, i, j, val = part
    k = row == r
    D = np.zeros((n, n))
    D[i[k], j[k]] = val[k]
    D[j[k], i[k]] = val[k]
    return D


def hessian_parts(v, r):
    """Dense (Q_r, P_r) for row r; the merged difference is never formed."""
    if not 0 <= r < v.output_dim:
        raise IndexError(f"row {r} out of range for {v.output_dim} rows")
    return _dense(v.Q, r, v.input_dim), _dense(v.P, r, v.input_dim)


def min_quad_eigenvalue(v):
    """Smallest eigenvalue over all stored Q_r, P_r (inf if purely affine)."""
    worst = np.inf
    for row, i, j, val in (v.Q, v.P):
        for r in np.unique(row):
            k = row == r
            sup, loc = np.unique(np.concatenate([i[k], j[k]]), return_inverse=True)
            D = np.zeros((sup.size, sup.size))
            a, b = np.split(loc, 2)
            D[a, b] = D[b, a] = val[k]
            worst = min(worst, float(np.linalg.eigvalsh(D)[0]))
    return worst
