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
        s = qpm.cross_product_qpm()
        z = np.array([1.0, 0, 0, 0, 1.0, 0])  # (e1, e2)
        assert np.allclose(s(z), [0, 0, 1.0])

    def test_self_cross_is_zero(self):
        s = qpm.cross_product_qpm()
        for _ in range(20):
            v = rng.normal(size=3)
            assert np.allclose(s(np.concatenate([v, v])), 0.0, atol=1e-14)

    def test_matches_numpy_cross(self):
        s = qpm.cross_product_qpm()
        for _ in range(1000):
            z = rng.uniform(-1, 1, size=6)
            assert np.allclose(s(z), np.cross(z[:3], z[3:]), atol=1e-12)

    def test_row3_decomposition(self):
        # Q3 = 1/4[(e1+e5)(e1+e5)^T + (e2-e4)(e2-e4)^T] (1-indexed), P3 the
        # sign-swapped pair; checked via z^T (Q3 - P3) z = a1 b2 - a2 b1.
        s = qpm.cross_product_qpm()
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
        s = qpm.cross_product_qpm()
        for i in range(3):
            for mat in qpm.hessian_parts(s, i):
                lam = np.linalg.eigvalsh(mat)
                nz = lam[np.abs(lam) > 1e-12]
                assert nz.size == 2
                assert np.allclose(nz, 0.5)

    def test_psd_invariant(self):
        assert qpm.min_quad_eigenvalue(qpm.cross_product_qpm()) >= -qpm.PSD_TOL


class TestComposeAffine:
    def test_identity_composition(self):
        v = qpm.cross_product_qpm()
        s = qpm.make_affine(np.eye(6), np.zeros(6))
        r = qpm.compose_affine(v, s)
        for _ in range(100):
            z = rng.normal(size=6)
            assert np.allclose(r(z), v(z))

    def test_scalar_square_through_affine(self):
        # v(y) = y^2, s(x) = 2x + 1, v(s(1)) = 9
        v = qpm.QpmFunction(
            1,
            [
                qpm.QpmRow(
                    np.zeros(0, dtype=np.intp),
                    np.zeros(0),
                    0.0,
                    qpm.QuadTerm(np.array([0], dtype=np.intp), np.array([[1.0]])),
                    None,
                )
            ],
        )
        s = qpm.make_affine(np.array([[2.0]]), np.array([1.0]))
        r = qpm.compose_affine(v, s)
        assert np.isclose(r(np.array([1.0]))[0], 9.0)
        for _ in range(50):
            x = rng.normal(size=1)
            assert np.isclose(r(x)[0], (2 * x[0] + 1) ** 2)

    def test_cross_with_constant_is_affine(self):
        v = qpm.cross_product_qpm()
        b0 = np.array([0.3, -1.2, 2.0])
        A = np.vstack([np.eye(3), np.zeros((3, 3))])
        a = np.concatenate([np.zeros(3), b0])
        r = qpm.compose_affine(v, qpm.make_affine(A, a))
        assert r.is_affine()
        for _ in range(100):
            x = rng.normal(size=3)
            assert np.allclose(r(x), np.cross(x, b0), atol=1e-12)

    def test_rejects_nonaffine_inner(self):
        v = qpm.cross_product_qpm()
        with pytest.raises(ValueError):
            qpm.compose_affine(qpm.make_affine(np.ones((1, 3)), [0.0]), v)

    def test_psd_preserved(self):
        v = qpm.cross_product_qpm()
        s = qpm.make_affine(rng.normal(size=(6, 4)), rng.normal(size=6))
        r = qpm.compose_affine(v, s)
        assert qpm.min_quad_eigenvalue(r) >= -qpm.PSD_TOL
        for _ in range(200):
            x = rng.normal(size=4)
            z = s(x)
            assert np.allclose(r(x), np.cross(z[:3], z[3:]), atol=1e-10)


class TestLinearCombine:
    def test_cancellation(self):
        v = qpm.cross_product_qpm()
        z = qpm.linear_combine([(1.0, v), (-1.0, v)])
        for _ in range(20):
            assert np.allclose(z(rng.normal(size=6)), 0.0, atol=1e-14)

    def test_negative_scale_swaps_parts(self):
        v = qpm.cross_product_qpm()
        Q3, P3 = qpm.hessian_parts(v, 2)
        w = qpm.linear_combine([(-2.0, v)])
        Qn, Pn = qpm.hessian_parts(w, 2)
        assert np.allclose(Qn, 2 * P3)
        assert np.allclose(Pn, 2 * Q3)
        assert qpm.min_quad_eigenvalue(w) >= -qpm.PSD_TOL

    def test_pointwise_combination(self):
        v1 = qpm.cross_product_qpm()
        v2 = qpm.compose_affine(v1, qpm.make_affine(rng.normal(size=(6, 6)), rng.normal(size=6)))
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
        s = qpm.cross_product_qpm()
        z = np.array([1.0, 0, 0, 0, 1.0, 0])
        assert np.allclose(qpm.gradient(s, z), fd_gradient(s, z), atol=1e-6)

    def test_scalar_square(self):
        f = qpm.QpmFunction(
            1,
            [
                qpm.QpmRow(
                    np.zeros(0, dtype=np.intp),
                    np.zeros(0),
                    0.0,
                    qpm.QuadTerm(np.array([0], dtype=np.intp), np.array([[1.0]])),
                    None,
                )
            ],
        )
        x = np.array([3.0])
        assert np.isclose(f(x)[0], 9.0)
        assert np.isclose(qpm.gradient(f, x)[0, 0], 6.0)

    def test_hessian_row_out_of_range(self):
        with pytest.raises(IndexError):
            qpm.hessian_parts(qpm.cross_product_qpm(), 3)

    def test_gradient_fd_on_composed(self):
        v = qpm.cross_product_qpm()
        s = qpm.make_affine(rng.normal(size=(6, 4)), rng.normal(size=6))
        r = qpm.compose_affine(v, s)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=4)
            assert np.allclose(qpm.gradient(r, x), fd_gradient(r, x), atol=1e-6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=6, max_size=6))
def test_ops_commute_with_evaluation(vals):
    x = np.array(vals)
    v = qpm.cross_product_qpm()
    A = np.arange(36, dtype=float).reshape(6, 6) / 10.0 - 1.0
    a = np.linspace(-1, 1, 6)
    s = qpm.make_affine(A, a)
    r = qpm.linear_combine([(2.0, qpm.compose_affine(v, s)), (-0.5, v)])
    direct = 2.0 * np.cross((A @ x + a)[:3], (A @ x + a)[3:]) - 0.5 * np.cross(
        x[:3], x[3:]
    )
    np.testing.assert_allclose(r(x), direct, rtol=1e-10, atol=1e-8)


def test_affine_after():
    v = qpm.cross_product_qpm()
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
