import time

import numpy as np
import pytest
import scipy.sparse as sp

from kinomo import linalg

rng = np.random.default_rng(42)


def random_block_tridiag(T, b, seed=0):
    r = np.random.default_rng(seed)
    diag = []
    off = []
    for i in range(T):
        A = r.normal(size=(b, b))
        diag.append(A @ A.T + b * np.eye(b))
    for i in range(T - 1):
        off.append(0.3 * r.normal(size=(b, b)))
    return diag, off


def assemble_dense(diag, off):
    T = len(diag)
    b = diag[0].shape[0]
    M = np.zeros((T * b, T * b))
    for i, D in enumerate(diag):
        M[i * b : (i + 1) * b, i * b : (i + 1) * b] = D
    for i, B in enumerate(off):
        M[(i + 1) * b : (i + 2) * b, i * b : (i + 1) * b] = B
        M[i * b : (i + 1) * b, (i + 1) * b : (i + 2) * b] = B.T
    return M


class TestBlockTridiagCholesky:
    def test_identity_blocks(self):
        diag = [np.eye(3) for _ in range(5)]
        off = [np.zeros((3, 3)) for _ in range(4)]
        f = linalg.BlockTridiagCholesky(diag, off)
        rhs = rng.normal(size=15)
        assert np.allclose(f.solve(rhs), rhs)

    def test_against_dense_oracle(self):
        diag, off = random_block_tridiag(40, 7, seed=3)
        M = assemble_dense(diag, off)
        rhs = rng.normal(size=M.shape[0])
        x = linalg.BlockTridiagCholesky(diag, off).solve(rhs)
        xd = np.linalg.solve(M, rhs)
        assert np.linalg.norm(x - xd) <= 1e-9 * max(1.0, np.linalg.norm(xd))

    def test_not_positive_definite(self):
        diag = [np.eye(2), -np.eye(2)]
        off = [np.zeros((2, 2))]
        with pytest.raises(linalg.NotPositiveDefinite):
            linalg.BlockTridiagCholesky(diag, off)

    def test_wrong_number_of_off_blocks(self):
        diag, off = random_block_tridiag(4, 3)
        for bad in (off[:-1], off + off[:1]):
            with pytest.raises(ValueError):
                linalg.BlockTridiagCholesky(diag, bad)

    def test_single_block(self):
        diag, _ = random_block_tridiag(1, 5, seed=2)
        rhs = rng.normal(size=5)
        x = linalg.BlockTridiagCholesky(diag, []).solve(rhs)
        assert np.allclose(diag[0] @ x, rhs, rtol=0, atol=1e-12 * np.abs(rhs).max())

    def test_timing_linear(self):
        b = 7

        def run(T):
            diag, off = random_block_tridiag(T, b, seed=1)
            t0 = time.perf_counter()
            for _ in range(3):
                linalg.BlockTridiagCholesky(diag, off).solve(np.ones(T * b))
            return time.perf_counter() - t0

        run(50)  # warm-up
        t1 = min(run(200) for _ in range(3))
        t2 = min(run(400) for _ in range(3))
        assert t2 / t1 <= 2.5 + 1.0  # generous slack for timer noise


def random_banded_arrow(n_band, n_arrow, block, seed=0):
    r = np.random.default_rng(seed)
    T = n_band // block
    diag, off = random_block_tridiag(T, block, seed=seed)
    M = assemble_dense(diag, off)
    W = 0.2 * r.normal(size=(n_band, n_arrow))
    C = np.eye(n_arrow) * (n_arrow + 2 + 0.05 * n_band) + 0.1 * r.normal(size=(n_arrow, n_arrow))
    C = 0.5 * (C + C.T)
    K = np.block([[M, W], [W.T, C]])
    return K


class TestBandedArrow:
    def test_identity(self):
        K = sp.identity(12, format="csr")
        f = linalg.factorize_banded_arrow(K, np.arange(10), np.arange(10, 12))
        e1 = np.zeros(12)
        e1[0] = 1.0
        assert np.allclose(f.solve(e1), e1)

    def test_against_dense_oracle(self):
        K = random_banded_arrow(180, 12, 6, seed=5)
        n = K.shape[0]
        rhs = rng.normal(size=n)
        f = linalg.factorize_banded_arrow(sp.csr_matrix(K), np.arange(180), np.arange(180, n))
        x = f.solve(rhs)
        xd = np.linalg.solve(K, rhs)
        assert np.linalg.norm(x - xd) <= 1e-9 * np.linalg.norm(xd)
        assert np.linalg.norm(K @ x - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_no_arrow(self):
        diag, off = random_block_tridiag(20, 5, seed=7)
        K = sp.csr_matrix(assemble_dense(diag, off))
        f = linalg.factorize_banded_arrow(K, np.arange(100))
        rhs = rng.normal(size=100)
        assert np.allclose(K @ f.solve(rhs), rhs, atol=1e-9)

    def test_permuted_input(self):
        # band/arrow indices scattered in the original ordering
        K = random_banded_arrow(60, 6, 6, seed=9)
        n = K.shape[0]
        perm = np.random.default_rng(1).permutation(n)
        Kp = K[np.ix_(perm, perm)]
        inv = np.empty(n, dtype=int)
        inv[perm] = np.arange(n)
        f = linalg.factorize_banded_arrow(sp.csr_matrix(Kp), inv[:60], inv[60:])
        rhs = rng.normal(size=n)
        assert np.allclose(Kp @ f.solve(rhs), rhs, atol=1e-8)

    def test_not_positive_definite(self):
        K = sp.diags([-1.0] * 10).tocsr()
        with pytest.raises(linalg.NotPositiveDefinite):
            linalg.factorize_banded_arrow(K, np.arange(10))

    def test_timing_linear(self):
        def run(T):
            K = sp.csr_matrix(random_banded_arrow(T * 6, 8, 6, seed=2))
            band = np.arange(T * 6)
            arrow = np.arange(T * 6, T * 6 + 8)
            t0 = time.perf_counter()
            for _ in range(3):
                linalg.factorize_banded_arrow(K, band, arrow).solve(np.ones(K.shape[0]))
            return time.perf_counter() - t0

        run(50)
        t1 = min(run(200) for _ in range(3))
        t2 = min(run(400) for _ in range(3))
        assert t2 / t1 <= 2.5 + 1.0


class TestBandedLU:
    def test_quasidefinite_kkt(self):
        r = np.random.default_rng(11)
        H = random_banded_arrow(60, 0, 6, seed=4)
        # constraint rows for step i touch variable blocks i and i+1
        A = np.zeros((20, 60))
        for i in range(10):
            lo = 6 * i
            hi = min(60, 6 * (i + 2))
            A[2 * i : 2 * i + 2, lo:hi] = r.normal(size=(2, hi - lo))
        K = np.block([[H, A.T], [A, -1e-8 * np.eye(20)]])
        order = np.argsort(
            np.concatenate([np.repeat(np.arange(10), 6), np.repeat(np.arange(10), 2)]),
            kind="stable",
        )
        L = sp.tril(sp.csr_matrix(K)).tocoo()
        f = linalg.BandStorage(L.row, L.col, order).factor(L.data)
        rhs = r.normal(size=80)
        x = f.solve(rhs)
        assert np.linalg.norm(K @ x - rhs) <= 1e-8 * np.linalg.norm(rhs)


def _lapack_returns_info(monkeypatch, name, info):
    """Make the LAPACK routine ``name`` that linalg calls return its usual
    outputs with ``info`` in place of its own."""
    real = getattr(linalg.lapack, name)

    def failing(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        return (*out, info)

    monkeypatch.setattr(linalg.lapack, name, failing)


class TestLapackFailures:
    """A nonzero LAPACK info, or a bad partition, raises before any result
    is returned."""

    def test_arrow_triangular_solve(self, monkeypatch):
        K = sp.csr_matrix(random_banded_arrow(60, 6, 6, seed=3))
        _lapack_returns_info(monkeypatch, "dtbtrs", 1)
        with pytest.raises(linalg.NotPositiveDefinite, match="triangular solve"):
            linalg.factorize_banded_arrow(K, np.arange(60), np.arange(60, 66))

    @pytest.mark.parametrize("n_arrow", [0, 6])
    def test_band_solve(self, n_arrow, monkeypatch):
        K = sp.csr_matrix(random_banded_arrow(60, n_arrow, 6, seed=3))
        f = linalg.factorize_banded_arrow(K, np.arange(60), np.arange(60, 60 + n_arrow))
        _lapack_returns_info(monkeypatch, "dpbtrs", 2)
        with pytest.raises(linalg.NotPositiveDefinite, match="banded solve"):
            f.solve(np.ones(60 + n_arrow))

    @staticmethod
    def _indefinite_storage():
        L = sp.tril(sp.csr_matrix(np.array([[2.0, 1.0], [1.0, -1.0]]))).tocoo()
        return L, linalg.BandStorage(L.row, L.col, np.arange(2))

    def test_banded_lu(self, monkeypatch):
        L, band = self._indefinite_storage()
        _lapack_returns_info(monkeypatch, "dgbtrf", 1)
        with pytest.raises(linalg.NotPositiveDefinite, match="banded LU"):
            band.factor(L.data)

    def test_banded_lu_solve(self, monkeypatch):
        L, band = self._indefinite_storage()
        f = band.factor(L.data)
        assert np.allclose(f.solve([3.0, 0.0]), [1.0, 1.0])
        _lapack_returns_info(monkeypatch, "dgbtrs", -4)
        with pytest.raises(linalg.NotPositiveDefinite, match="back-substitution"):
            f.solve([3.0, 0.0])

    @pytest.mark.parametrize("band, arrow", [(range(10), ()), (range(10), range(10, 13))])
    def test_orders_must_partition(self, band, arrow):
        with pytest.raises(ValueError, match="partition"):
            linalg.factorize_banded_arrow(sp.identity(12, format="csr"), band, arrow)

    @pytest.mark.parametrize("band, arrow", [(range(10), [9, 10]), ([-1, *range(1, 10)], [10, 11])])
    def test_orders_must_be_a_permutation(self, band, arrow):
        # a repeated index (9), or -1 where 0 belongs, would leave a place of
        # the inverse permutation unset
        with pytest.raises(ValueError, match="exactly once"):
            linalg.factorize_banded_arrow(np.diag(np.arange(1.0, 13)), band, arrow)
