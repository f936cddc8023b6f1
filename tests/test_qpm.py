import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinomo import qpm

rng = np.random.default_rng(0)


def fd_gradient(fn, x, h=1e-5):
    m = fn.output_dim
    n = fn.input_dim
    G = np.zeros((m, n))
    for j in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        G[:, j] = (qpm.evaluate(fn, xp) - qpm.evaluate(fn, xm)) / (2 * h)
    return G


def cross6():
    """s(a, b) = a x b as a Q+/- function on z = (a, b) in R^6: qpm.cross
    of the two 3-row halves of the identity."""
    I = np.eye(6)
    return qpm.cross(qpm.make_affine(I[:3], np.zeros(3)), qpm.make_affine(I[3:], np.zeros(3)))


def cross_of(A, a):
    """qpm.cross of the two 3-row halves of the affine map x -> A x + a:
    x -> (A x + a)[:3] x (A x + a)[3:]."""
    A, a = np.asarray(A, dtype=float), np.asarray(a, dtype=float)
    return qpm.cross(qpm.make_affine(A[:3], a[:3]), qpm.make_affine(A[3:], a[3:]))


def scalar_square():
    """y -> y^2: one row, Q = [[1]] and no linear part."""
    return qpm.QpmFunction(1, np.zeros((1, 1)), [0.0], ([0], [0], [0], [1.0], [0.0]))


def quadratic(n, quad):
    """x -> (x'Q_r x - x'P_r x)_r for the given (row, i, j, q, p) terms,
    with no linear part."""
    m = max(quad[0]) + 1
    return qpm.QpmFunction(n, np.zeros((m, n)), np.zeros(m), quad)


def dense_parts(n, quad):
    """Dense (Q_r, P_r) per row, each term added at (i, j) and (j, i)."""
    m = max(quad[0]) + 1
    D = np.zeros((2, m, n, n))
    for r, i, j, q, p in zip(*quad):
        for k, v in enumerate((q, p)):
            D[k, r, i, j] += v
            if i != j:
                D[k, r, j, i] += v
    return D


class TestMakeAffine:
    def test_identity(self):
        f = qpm.make_affine(np.eye(3), np.zeros(3))
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(f(x), x)

    def test_constant(self):
        f = qpm.make_affine(np.zeros((2, 3)), np.array([5.0, 5.0]))
        assert np.allclose(f(rng.normal(size=3)), [5.0, 5.0])

    def test_matrix_multiply_oracle(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        a = np.array([0.0, -1.0])
        f = qpm.make_affine(A, a)
        x = np.array([2.0, 3.0])
        assert np.allclose(f(x), A @ x + a)
        assert np.allclose(f(x), [5.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(qpm.DimensionMismatch):
            qpm.make_affine(np.eye(3), np.zeros(2))


class TestCrossProduct:
    def test_canonical_basis(self):
        s = cross6()
        z = np.array([1.0, 0, 0, 0, 1.0, 0])  # (e1, e2)
        assert np.allclose(s(z), [0, 0, 1.0])

    def test_self_cross_is_zero(self):
        s = cross6()
        for _ in range(20):
            v = rng.normal(size=3)
            assert np.allclose(s(np.concatenate([v, v])), 0.0, atol=1e-14)

    def test_matches_numpy_cross(self):
        s = cross6()
        for _ in range(1000):
            z = rng.uniform(-1, 1, size=6)
            assert np.allclose(s(z), np.cross(z[:3], z[3:]), atol=1e-12)

    def test_row3_decomposition(self):
        # Q3 = 1/4[(e1+e5)(e1+e5)^T + (e2-e4)(e2-e4)^T] (1-indexed), P3 the
        # sign-swapped pair; checked via z^T (Q3 - P3) z = a1 b2 - a2 b1.
        s = cross6()
        Q, P = qpm.hessian_parts(s, 2)
        e = np.eye(6)
        Qref = 0.25 * (
            np.outer(e[0] + e[4], e[0] + e[4]) + np.outer(e[1] - e[3], e[1] - e[3])
        )
        Pref = 0.25 * (
            np.outer(e[0] - e[4], e[0] - e[4]) + np.outer(e[1] + e[3], e[1] + e[3])
        )
        assert np.allclose(Q, Qref)
        assert np.allclose(P, Pref)
        for _ in range(1000):
            z = rng.normal(size=6)
            assert np.isclose(z @ (Q - P) @ z, z[0] * z[4] - z[1] * z[3], atol=1e-10)

    def test_rank_and_eigenvalues(self):
        s = cross6()
        for i in range(3):
            for mat in qpm.hessian_parts(s, i):
                lam = np.linalg.eigvalsh(mat)
                nz = lam[np.abs(lam) > 1e-12]
                assert nz.size == 2
                assert np.allclose(nz, 0.5)

    def test_psd_invariant(self):
        assert qpm.min_quad_eigenvalue(cross6()) >= -qpm.PSD_TOL


@pytest.mark.parametrize("lengths", [[], [0], [1], [3, 0, 1, 4, 0, 2], [0, 0, 5]])
def test_row_pairs_lists_each_row_pair_once_row_major(lengths):
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.intp)
    expected = [(k1, k2) for r in range(len(lengths))
                for k1 in range(indptr[r], indptr[r + 1]) for k2 in range(indptr[r], k1 + 1)]
    p1, p2 = qpm.row_pairs(indptr)
    assert list(zip(p1.tolist(), p2.tolist())) == expected


class TestComposeAffine:
    """The cross product composed with an affine map: qpm.cross of the two
    halves of x -> A x + a."""

    def test_cross_with_constant_is_affine(self):
        b0 = np.array([0.3, -1.2, 2.0])
        A = np.vstack([np.eye(3), np.zeros((3, 3))])
        a = np.concatenate([np.zeros(3), b0])
        r = cross_of(A, a)
        assert r.is_affine()
        for _ in range(100):
            x = rng.normal(size=3)
            assert np.allclose(r(x), np.cross(x, b0), atol=1e-12)

    def test_rejects_nonaffine_inner(self):
        v = cross_of(rng.normal(size=(6, 4)), rng.normal(size=6))
        u = qpm.make_affine(rng.normal(size=(3, 4)), np.zeros(3))
        with pytest.raises(ValueError):
            qpm.cross(v, u)
        with pytest.raises(ValueError):
            qpm.cross(u, v)

    def test_psd_preserved(self):
        A, a = rng.normal(size=(6, 4)), rng.normal(size=6)
        r = cross_of(A, a)
        assert qpm.min_quad_eigenvalue(r) >= -qpm.PSD_TOL
        for _ in range(200):
            x = rng.normal(size=4)
            z = A @ x + a
            assert np.allclose(r(x), np.cross(z[:3], z[3:]), atol=1e-10)


class TestLinearCombine:
    def test_cancellation(self):
        v = cross6()
        z = qpm.linear_combine([(1.0, v), (-1.0, v)])
        for _ in range(20):
            assert np.allclose(z(rng.normal(size=6)), 0.0, atol=1e-14)

    def test_negative_scale_swaps_parts(self):
        v = cross6()
        Q3, P3 = qpm.hessian_parts(v, 2)
        w = qpm.linear_combine([(-2.0, v)])
        Qn, Pn = qpm.hessian_parts(w, 2)
        assert np.allclose(Qn, 2 * P3)
        assert np.allclose(Pn, 2 * Q3)
        assert qpm.min_quad_eigenvalue(w) >= -qpm.PSD_TOL

    def test_pointwise_combination(self):
        v1 = cross6()
        v2 = cross_of(rng.normal(size=(6, 6)), rng.normal(size=6))
        comb = qpm.linear_combine([(0.5, v1), (0.25, v2)])
        for _ in range(50):
            x = rng.normal(size=6)
            assert np.allclose(comb(x), 0.5 * v1(x) + 0.25 * v2(x), atol=1e-12)


class TestEvaluationOps:
    def test_affine_gradient_constant(self):
        A = rng.normal(size=(3, 5))
        f = qpm.make_affine(A, rng.normal(size=3))
        for _ in range(5):
            assert np.allclose(qpm.gradient(f, rng.normal(size=5)), A)

    def test_cross_gradient_finite_differences(self):
        s = cross6()
        z = np.array([1.0, 0, 0, 0, 1.0, 0])
        assert np.allclose(qpm.gradient(s, z), fd_gradient(s, z), atol=1e-6)

    def test_scalar_square(self):
        f = scalar_square()
        x = np.array([3.0])
        assert np.isclose(f(x)[0], 9.0)
        assert np.isclose(qpm.gradient(f, x)[0, 0], 6.0)

    def test_hessian_row_out_of_range(self):
        with pytest.raises(IndexError):
            qpm.hessian_parts(cross6(), 3)

    def test_gradient_fd_on_composed(self):
        r = cross_of(rng.normal(size=(6, 4)), rng.normal(size=6))
        for _ in range(10):
            x = rng.uniform(-2, 2, size=4)
            assert np.allclose(qpm.gradient(r, x), fd_gradient(r, x), atol=1e-6)


class TestOneSupport:
    """Q and P share one support: each key holds its q and p side by side."""

    def test_entry_with_cancelled_q_keeps_zero_q(self):
        # key (0, 1, 0): q terms 1 - 1 = 0, p terms 0 + 0.5; key (1, 2, 2): q only
        quad = ([0, 0, 0, 1, 1], [1, 1, 0, 2, 2], [0, 0, 0, 2, 2],
                [1.0, -1.0, 2.0, 0.25, 0.5], [0.0, 0.5, 0.0, 0.0, 0.0])
        f = quadratic(3, quad)
        row, i, j, q, p = f.quad
        assert row.tolist() == [0, 0, 1] and i.tolist() == [0, 1, 2] and j.tolist() == [0, 0, 2]
        assert q.tolist() == [2.0, 0.0, 0.75] and p.tolist() == [0.0, 0.5, 0.0]
        D = dense_parts(3, quad)
        x = rng.normal(size=3)
        assert np.allclose(qpm.evaluate(f, x), np.einsum("i,rij,j->r", x, D[0] - D[1], x))
        assert np.allclose(qpm.gradient(f, x), 2.0 * (D[0] - D[1]) @ x)
        for r in range(2):
            Q, P = qpm.hessian_parts(f, r)
            assert np.array_equal(Q, D[0, r]) and np.array_equal(P, D[1, r])

    def test_entry_zero_in_both_parts_is_dropped(self):
        quad = ([0, 0, 0, 0], [1, 1, 0, 2], [1, 1, 0, 1],
                [0.5, -0.5, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0])
        f = quadratic(3, quad)
        assert [a.tolist() for a in f.quad] == [[0], [0], [0], [1.0], [0.0]]

    def test_row_with_equal_parts_is_dropped(self):
        """Rows 0-2, a cross product with a constant factor, are affine in
        disguise; rows 3-5 are not."""
        b0, B = np.array([0.3, -1.2, 2.0]), rng.normal(size=(3, 3))
        x3 = qpm.make_affine(np.eye(3), np.zeros(3))
        b = qpm.stack([qpm.make_affine(np.zeros((3, 3)), b0), qpm.make_affine(B, np.zeros(3))])
        f = qpm.cross(qpm.stack([x3, x3]), b)
        assert set(f.quad[0].tolist()) == {3, 4, 5}
        x = rng.normal(size=3)
        assert np.allclose(f(x), np.concatenate([np.cross(x, b0), np.cross(x, B @ x)]))

    def test_negative_coefficient_swaps_q_and_p(self):
        f = quadratic(2, ([0, 0], [0, 1], [0, 0], [2.0, 0.0], [0.5, 1.0]))
        u = qpm.affine_after(np.array([[2.0], [-3.0]]), 0.0, f)
        row, i, j, q, p = u.quad
        assert row.tolist() == [0, 0, 1, 1] and i.tolist() == [0, 1, 0, 1]
        assert q.tolist() == [4.0, 0.0, 1.5, 3.0] and p.tolist() == [1.0, 2.0, 6.0, 0.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=6, max_size=6))
def test_ops_commute_with_evaluation(vals):
    x = np.array(vals)
    v = cross6()
    A = np.arange(36, dtype=float).reshape(6, 6) / 10.0 - 1.0
    a = np.linspace(-1, 1, 6)
    r = qpm.linear_combine([(2.0, cross_of(A, a)), (-0.5, v)])
    direct = 2.0 * np.cross((A @ x + a)[:3], (A @ x + a)[3:]) - 0.5 * np.cross(
        x[:3], x[3:]
    )
    np.testing.assert_allclose(r(x), direct, rtol=1e-10, atol=1e-8)


def test_affine_after():
    v = cross6()
    A = rng.normal(size=(2, 3))
    a = rng.normal(size=2)
    u = qpm.affine_after(A, a, v)
    for _ in range(50):
        z = rng.normal(size=6)
        assert np.allclose(u(z), A @ np.cross(z[:3], z[3:]) + a, atol=1e-12)
    assert qpm.min_quad_eigenvalue(u) >= -qpm.PSD_TOL


def test_stack_and_select():
    f = qpm.make_affine(np.eye(2), np.zeros(2))
    g = qpm.make_affine(2 * np.eye(2), np.ones(2))
    h = qpm.stack([f, g])
    assert h.output_dim == 4
    x = rng.normal(size=2)
    assert np.allclose(h(x), np.concatenate([x, 2 * x + 1]))
    assert np.allclose(qpm.select_rows(h, [3])(x), 2 * x[1] + 1)
