import numpy as np
import numpy.testing as npt
import pytest

from opencavity import (
    ConvergenceFailure,
    InvalidMatrix,
    SingularMatrix,
    eig_general,
    minimize_simplex,
    solve_linear,
)


def rosenbrock(x):
    x = np.asarray(x, dtype=float)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


class TestEigGeneral:
    def test_quadratic_oracle_2x2(self):
        # Eigenvalues of [[1, 2i], [3, 4]] solve z^2 - 5 z + (4 - 6i) = 0.
        m = np.array([[1.0, 2.0j], [3.0, 4.0]])
        es = eig_general(m)
        disc = np.sqrt(25.0 - 4.0 * (4.0 - 6.0j))
        expected = sorted(
            [(5.0 - disc) / 2.0, (5.0 + disc) / 2.0],
            key=lambda z: (z.real, z.imag),
        )
        npt.assert_allclose(es.values, expected, rtol=0, atol=1e-12)

    def test_chain3_spectrum(self):
        m = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
        es = eig_general(m.astype(complex))
        npt.assert_allclose(
            es.values, [-np.sqrt(2.0), 0.0, np.sqrt(2.0)], rtol=0, atol=1e-14
        )

    def test_sorted_by_real_then_imag(self):
        rng = np.random.RandomState(7)
        m = rng.randn(6, 6) + 1j * rng.randn(6, 6)
        vals = eig_general(m).values
        order = np.lexsort((vals.imag, vals.real))
        npt.assert_array_equal(order, np.arange(6))

    def test_eigenpair_residuals(self):
        rng = np.random.RandomState(21)
        for _ in range(10):
            n = rng.randint(2, 9)
            m = rng.randn(n, n) + 1j * rng.randn(n, n)
            es = eig_general(m)
            scale = np.abs(m).max()
            # zgeev is backward stable, so every pair, near-defective ones
            # included, has a residual of order eps * ||m||.
            r = np.abs(m @ es.vectors - es.vectors * es.values)
            assert r.max() < 1e-12 * scale

    def test_hermitian_input_real_values(self):
        rng = np.random.RandomState(3)
        a = rng.randn(5, 5) + 1j * rng.randn(5, 5)
        m = a + a.conj().T
        es = eig_general(m)
        assert np.abs(es.values.imag).max() < 1e-10 * np.abs(m).max()

    def test_trace_matches_value_sum(self):
        rng = np.random.RandomState(11)
        m = rng.randn(7, 7) + 1j * rng.randn(7, 7)
        es = eig_general(m)
        assert abs(es.values.sum() - np.trace(m)) < 1e-10 * np.abs(m).max()

    def test_symmetric_reconstruction(self):
        # For diagonalizable complex symmetric M, sum z phi phi^T = M with
        # bilinear-normalized eigenvectors.
        rng = np.random.RandomState(5)
        a = rng.randn(4, 4) + 1j * rng.randn(4, 4)
        m = a + a.T
        es = eig_general(m)
        acc = np.zeros_like(m)
        for k in range(4):
            v = es.vectors[:, k]
            phi = v / np.sqrt(complex(v @ v))
            acc += es.values[k] * np.outer(phi, phi)
        npt.assert_allclose(acc, m, rtol=0, atol=1e-10 * np.abs(m).max())

    def test_exact_defective_2x2(self):
        # tr = -i, det = -1/4, so the discriminant vanishes exactly.
        m = np.array([[0.0, 0.5], [0.5, -1.0j]])
        es = eig_general(m)
        npt.assert_array_equal(es.values, [-0.5j, -0.5j])
        for k in range(2):
            v = es.vectors[:, k]
            assert abs(complex(v @ v)) == 0.0

    def test_condition_near_one_for_normal(self):
        # The unit right vectors of a real symmetric matrix are orthonormal,
        # so each is its own left vector and every pair has condition 1.
        rng = np.random.RandomState(13)
        a = rng.randn(5, 5)
        m = (a + a.T).astype(complex)
        v = eig_general(m).vectors
        npt.assert_allclose(v.conj().T @ v, np.eye(5), rtol=0, atol=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrix):
            eig_general(np.zeros((2, 3), dtype=complex))

    def test_rejects_nonfinite(self):
        m = np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex)
        with pytest.raises(InvalidMatrix):
            eig_general(m)


class TestSolveLinear:
    def test_residual_contract(self):
        rng = np.random.RandomState(17)
        for _ in range(12):
            n = rng.randint(1, 10)
            m = rng.randn(n, n) + 1j * rng.randn(n, n)
            rhs = rng.randn(n) + 1j * rng.randn(n)
            x = solve_linear(m, rhs)
            res = np.abs(m @ x - rhs).max()
            bound = 1e-10 * (
                np.abs(m).max() * np.abs(x).max() + np.abs(rhs).max()
            )
            assert res < bound

    def test_multiple_rhs(self):
        rng = np.random.RandomState(19)
        m = rng.randn(4, 4) + 1j * rng.randn(4, 4)
        rhs = rng.randn(4, 2) + 1j * rng.randn(4, 2)
        x = solve_linear(m, rhs)
        assert x.shape == (4, 2)
        npt.assert_allclose(m @ x, rhs, rtol=0, atol=1e-10)

    def test_singular_raises(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(SingularMatrix):
            solve_linear(m, np.ones(2, dtype=complex))

    def test_zero_matrix_raises(self):
        # The pivot threshold scales with ||m||, which is 0 here.
        for n in (1, 3):
            with pytest.raises(SingularMatrix):
                solve_linear(np.zeros((n, n)), np.ones(n))


class TestMinimizeSimplex:
    def test_rosenbrock_2d(self):
        x, f = minimize_simplex(rosenbrock, [-1.2, 1.0], tol=1e-9)
        npt.assert_allclose(x, [1.0, 1.0], rtol=0, atol=1e-6)
        assert f < 1e-12

    def test_deterministic(self):
        x1, f1 = minimize_simplex(rosenbrock, [-1.2, 1.0], tol=1e-9)
        x2, f2 = minimize_simplex(rosenbrock, [-1.2, 1.0], tol=1e-9)
        npt.assert_array_equal(x1, x2)
        assert f1 == f2

    def test_cap_carries_best_point(self):
        start = np.where(np.arange(10) % 2 == 0, -1.2, 1.0)
        with pytest.raises(ConvergenceFailure) as exc:
            minimize_simplex(rosenbrock, start, tol=1e-14)
        err = exc.value
        assert err.best_point is not None
        assert np.isfinite(err.best_value)
        assert err.best_value <= rosenbrock(start)
