"""Calculus of affine and difference-of-PSD quadratic vector functions.

Every function handled here maps R^n -> R^m where row i evaluates to

    s_i(x) = x^T Q_i x - x^T P_i x + q_i^T x + c_i

with Q_i, P_i positive semidefinite and stored separately on small index
supports. Affine functions are the special case Q_i = P_i = 0. The class
is closed under addition, scalar multiplication and composition with
affine maps, and all constructors below preserve the separation of the
two PSD parts (the indefinite difference Q_i - P_i is never stored).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# Tolerance for PSD validity checks (round-off from repeated affine
# congruence transforms accumulates slightly negative eigenvalues).
PSD_TOL = 1e-10


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class QuadTerm:
    """PSD quadratic form ``x[idx]^T mat x[idx]`` on a small index support."""

    idx: np.ndarray  # sorted unique global indices, shape (k,)
    mat: np.ndarray  # (k, k) symmetric PSD

    def value(self, x):
        xs = x[self.idx]
        return float(xs @ self.mat @ xs)

    def add_gradient(self, x, out, scale=1.0):
        out[self.idx] += (2.0 * scale) * (self.mat @ x[self.idx])

    def dense(self, n):
        m = np.zeros((n, n))
        m[np.ix_(self.idx, self.idx)] = self.mat
        return m

    def scaled(self, beta):
        return QuadTerm(self.idx, beta * self.mat)


def _merge_terms(terms):
    """Sum a list of QuadTerms (PSD is preserved under addition)."""
    terms = [t for t in terms if t is not None]
    if not terms:
        return None
    if len(terms) == 1:
        return terms[0]
    idx = np.unique(np.concatenate([t.idx for t in terms]))
    pos = {int(g): i for i, g in enumerate(idx)}
    mat = np.zeros((idx.size, idx.size))
    for t in terms:
        loc = np.array([pos[int(g)] for g in t.idx], dtype=np.intp)
        mat[np.ix_(loc, loc)] += t.mat
    return QuadTerm(idx, mat)


def _simplify(plus, minus):
    """Drop an all-zero part, and a (Q, P) pair that is exactly equal (the
    row is affine in disguise, e.g. a cross product with a constant
    factor)."""
    if plus is not None and not plus.mat.any():
        plus = None
    if minus is not None and not minus.mat.any():
        minus = None
    if (
        plus is not None and minus is not None
        and np.array_equal(plus.idx, minus.idx) and np.array_equal(plus.mat, minus.mat)
    ):
        return None, None
    return plus, minus


@dataclass(frozen=True)
class QpmRow:
    lin_idx: np.ndarray
    lin_val: np.ndarray
    const: float
    plus: Optional[QuadTerm] = None
    minus: Optional[QuadTerm] = None

    def value(self, x):
        v = self.const + float(self.lin_val @ x[self.lin_idx])
        if self.plus is not None:
            v += self.plus.value(x)
        if self.minus is not None:
            v -= self.minus.value(x)
        return v

    def add_gradient(self, x, out, scale=1.0):
        out[self.lin_idx] += scale * self.lin_val
        if self.plus is not None:
            self.plus.add_gradient(x, out, scale)
        if self.minus is not None:
            self.minus.add_gradient(x, out, -scale)

    def support(self):
        parts = [self.lin_idx]
        if self.plus is not None:
            parts.append(self.plus.idx)
        if self.minus is not None:
            parts.append(self.minus.idx)
        return np.unique(np.concatenate(parts)) if parts else self.lin_idx

    def is_affine(self):
        return self.plus is None and self.minus is None


def _make_row(lin, const, plus=None, minus=None):
    if lin:
        items = sorted(lin.items())
        idx = np.array([k for k, _ in items], dtype=np.intp)
        val = np.array([v for _, v in items])
        keep = val != 0.0
        idx, val = idx[keep], val[keep]
    else:
        idx = np.zeros(0, dtype=np.intp)
        val = np.zeros(0)
    return QpmRow(idx, val, float(const), plus, minus)


class QpmFunction:
    """Vector-valued function with per-row separated PSD quadratic parts."""

    def __init__(self, input_dim, rows):
        self.input_dim = int(input_dim)
        self.rows = tuple(rows)

    @property
    def output_dim(self):
        return len(self.rows)

    def __call__(self, x):
        return evaluate(self, x)

    def is_affine(self):
        return all(r.is_affine() for r in self.rows)


# ---------------------------------------------------------------------------
# constructors


def make_affine(A, a):
    """Affine function x -> A x + a with zero quadratic parts."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if A.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"A has {A.shape[0]} rows but a has {a.shape[0]}")
    cols = np.arange(A.shape[1])
    return affine_from_rows(A.shape[1], [(cols, row, c) for row, c in zip(A, a)])


def affine_from_rows(input_dim, rows):
    """Sparse affine constructor; ``rows`` is a list of (idx, val, const).
    Zero coefficients are dropped."""
    out = []
    for idx, val, const in rows:
        val = np.asarray(val, dtype=float)
        keep = val != 0.0
        idx = np.asarray(idx, dtype=np.intp)[keep]
        order = np.argsort(idx)
        out.append(QpmRow(idx[order], val[keep][order], float(const)))
    return QpmFunction(input_dim, out)


# The cross product a x b on z = (a, b) in R^6: each row is z_p z_q - z_u z_v,
# a difference of rank-2 PSD forms with exact 1/4 outer-product entries.
_CROSS_PAIRS = (
    ((1, 5), (2, 4)),  # a2*b3 - a3*b2
    ((2, 3), (0, 5)),  # a3*b1 - a1*b3
    ((0, 4), (1, 3)),  # a1*b2 - a2*b1
)


def _pair_outer(p, q, sign, idx):
    # 1/4 (e_p + sign*e_q)(e_p + sign*e_q)^T restricted to the support idx
    pos = {int(g): i for i, g in enumerate(idx)}
    v = np.zeros(idx.size)
    v[pos[p]] = 1.0
    v[pos[q]] = sign
    return 0.25 * np.outer(v, v)


def cross_product_qpm():
    """s(a, b) = a x b as a Q+/- function on R^6, constants built offline."""
    rows = []
    for (p, q), (u, v) in _CROSS_PAIRS:
        idx = np.array(sorted((p, q, u, v)), dtype=np.intp)
        qmat = _pair_outer(p, q, 1.0, idx) + _pair_outer(u, v, -1.0, idx)
        pmat = _pair_outer(p, q, -1.0, idx) + _pair_outer(u, v, 1.0, idx)
        rows.append(
            QpmRow(
                np.zeros(0, dtype=np.intp),
                np.zeros(0),
                0.0,
                QuadTerm(idx, qmat),
                QuadTerm(idx, pmat),
            )
        )
    return QpmFunction(6, rows)


# ---------------------------------------------------------------------------
# closure operations


def _congruence(term, s):
    """Push a quadratic term through the affine inner map s.

    Returns (new_term_or_None, linear_dict, const) with
    (s(x))[idx]^T M (s(x))[idx] = x^T M' x + lin^T x + const.
    """
    inner = [s.rows[int(j)] for j in term.idx]
    b = np.array([r.const for r in inner])
    sup = [r.lin_idx for r in inner if r.lin_idx.size]
    if not sup:
        return None, {}, float(b @ term.mat @ b)
    J = np.unique(np.concatenate(sup))
    pos = {int(g): i for i, g in enumerate(J)}
    B = np.zeros((len(inner), J.size))
    for k, r in enumerate(inner):
        for j, v in zip(r.lin_idx, r.lin_val):
            B[k, pos[int(j)]] = v
    M2 = B.T @ term.mat @ B
    M2 = 0.5 * (M2 + M2.T)
    lin_vec = 2.0 * (B.T @ (term.mat @ b))
    lin = {int(g): lin_vec[i] for i, g in enumerate(J) if lin_vec[i] != 0.0}
    new_term = QuadTerm(J, M2) if np.abs(M2).max(initial=0.0) > 0.0 else None
    return new_term, lin, float(b @ term.mat @ b)


def compose_affine(v, s):
    """r(x) = v(s(x)) with s affine; PSD parts transform by congruence."""
    if not s.is_affine():
        raise ValueError("inner function must be affine")
    if v.input_dim != s.output_dim:
        raise DimensionMismatch(
            f"outer expects {v.input_dim} inputs, inner produces {s.output_dim}"
        )
    rows_out = []
    for row in v.rows:
        lin = {}
        const = row.const
        for j, w in zip(row.lin_idx, row.lin_val):
            sr = s.rows[int(j)]
            const += w * sr.const
            for g, val in zip(sr.lin_idx, sr.lin_val):
                g = int(g)
                lin[g] = lin.get(g, 0.0) + w * val
        plus = minus = None
        for term, sign in ((row.plus, 1.0), (row.minus, -1.0)):
            if term is None:
                continue
            new_term, lin_c, const_c = _congruence(term, s)
            const += sign * const_c
            for g, val in lin_c.items():
                lin[g] = lin.get(g, 0.0) + sign * val
            if sign > 0:
                plus = new_term
            else:
                minus = new_term
        plus, minus = _simplify(plus, minus)
        rows_out.append(_make_row(lin, const, plus, minus))
    return QpmFunction(s.input_dim, rows_out)


def _combine_rows(weighted_rows, extra_const=0.0):
    lin = {}
    const = extra_const
    plus_terms = []
    minus_terms = []
    for beta, row in weighted_rows:
        if beta == 0.0:
            continue
        const += beta * row.const
        for g, val in zip(row.lin_idx, row.lin_val):
            g = int(g)
            lin[g] = lin.get(g, 0.0) + beta * val
        # a negative coefficient swaps the roles of the two PSD parts
        p, m = (row.plus, row.minus) if beta > 0 else (row.minus, row.plus)
        ab = abs(beta)
        if p is not None:
            plus_terms.append(p.scaled(ab))
        if m is not None:
            minus_terms.append(m.scaled(ab))
    plus, minus = _simplify(_merge_terms(plus_terms), _merge_terms(minus_terms))
    return _make_row(lin, const, plus, minus)


def linear_combine(terms):
    """Sum beta_k * v_k over functions sharing input and output dims."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty combination")
    n = terms[0][1].input_dim
    m = terms[0][1].output_dim
    for _, v in terms:
        if v.input_dim != n or v.output_dim != m:
            raise DimensionMismatch("all terms must share input/output dims")
    rows = [
        _combine_rows([(beta, v.rows[i]) for beta, v in terms]) for i in range(m)
    ]
    return QpmFunction(n, rows)


def affine_after(A, a, v):
    """u(v(x)) for an affine outer map u(y) = A y + a."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if A.shape[1] != v.output_dim:
        raise DimensionMismatch("outer map width must match v output dim")
    rows = []
    for i in range(A.shape[0]):
        weighted = [(A[i, j], v.rows[j]) for j in range(v.output_dim) if A[i, j]]
        rows.append(_combine_rows(weighted, extra_const=float(a[i])))
    return QpmFunction(v.input_dim, rows)


def stack(fns):
    """Concatenate the rows of functions sharing an input dimension."""
    fns = list(fns)
    n = fns[0].input_dim
    rows = []
    for f in fns:
        if f.input_dim != n:
            raise DimensionMismatch("stacked functions must share input dim")
        rows.extend(f.rows)
    return QpmFunction(n, rows)


def select_rows(v, indices):
    return QpmFunction(v.input_dim, [v.rows[i] for i in indices])


# ---------------------------------------------------------------------------
# evaluation


def evaluate(v, x):
    x = np.asarray(x, dtype=float)
    if x.shape[0] != v.input_dim:
        raise DimensionMismatch(f"expected input of size {v.input_dim}")
    return np.array([r.value(x) for r in v.rows])


def gradient(v, x):
    """Dense m x n gradient; row i is 2(Q_i - P_i)x + q_i."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != v.input_dim:
        raise DimensionMismatch(f"expected input of size {v.input_dim}")
    G = np.zeros((v.output_dim, v.input_dim))
    for i, r in enumerate(v.rows):
        r.add_gradient(x, G[i])
    return G


def hessian_parts(v, i):
    """Dense (Q_i, P_i) for row i; the merged difference is never formed."""
    if not 0 <= i < v.output_dim:
        raise IndexError(f"row {i} out of range for {v.output_dim} rows")
    r = v.rows[i]
    n = v.input_dim
    Q = r.plus.dense(n) if r.plus is not None else np.zeros((n, n))
    P = r.minus.dense(n) if r.minus is not None else np.zeros((n, n))
    return Q, P


def min_quad_eigenvalue(v):
    """Smallest eigenvalue over all stored Q_i, P_i (inf if purely affine)."""
    worst = np.inf
    for r in v.rows:
        for term in (r.plus, r.minus):
            if term is not None and term.idx.size:
                worst = min(worst, float(np.linalg.eigvalsh(term.mat)[0]))
    return worst

