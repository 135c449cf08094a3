import numpy as np
import numpy.testing as npt
import pytest

from opencavity import (
    CavityModel,
    ConvergenceFailure,
    InvalidMatrix,
    LatticeSpec,
    LeadSpec,
    SingularMatrix,
    assemble_heff,
    eig_general,
    minimize_simplex,
    solve_linear,
)
from opencavity.spectrum import _closest_pair

from conftest import NOTCH_MASK


def rosenbrock(x):
    x = np.asarray(x, dtype=float)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


class TestEigGeneral:
    def test_quadratic_oracle_2x2(self):
        # Eigenvalues of [[1, 2i], [3, 4]] solve z^2 - 5 z + (4 - 6i) = 0.
        m = np.array([[1.0, 2.0j], [3.0, 4.0]])
        values, vectors = eig_general(m)
        disc = np.sqrt(25.0 - 4.0 * (4.0 - 6.0j))
        expected = sorted(
            [(5.0 - disc) / 2.0, (5.0 + disc) / 2.0],
            key=lambda z: (z.real, z.imag),
        )
        npt.assert_allclose(values, expected, rtol=0, atol=1e-12)

    def test_chain3_spectrum(self):
        m = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
        values, vectors = eig_general(m.astype(complex))
        npt.assert_allclose(
            values, [-np.sqrt(2.0), 0.0, np.sqrt(2.0)], rtol=0, atol=1e-14
        )

    def test_sorted_by_real_then_imag(self):
        rng = np.random.RandomState(7)
        m = rng.randn(6, 6) + 1j * rng.randn(6, 6)
        vals, _ = eig_general(m)
        order = np.lexsort((vals.imag, vals.real))
        npt.assert_array_equal(order, np.arange(6))

    def test_eigenpair_residuals(self):
        rng = np.random.RandomState(21)
        for _ in range(10):
            n = rng.randint(2, 9)
            m = rng.randn(n, n) + 1j * rng.randn(n, n)
            values, vectors = eig_general(m)
            scale = np.abs(m).max()
            # zgeev is backward stable, so every pair, near-defective ones
            # included, has a residual of order eps * ||m||.
            r = np.abs(m @ vectors - vectors * values)
            assert r.max() < 1e-12 * scale

    def test_hermitian_input_real_values(self):
        rng = np.random.RandomState(3)
        a = rng.randn(5, 5) + 1j * rng.randn(5, 5)
        m = a + a.conj().T
        values, vectors = eig_general(m)
        assert np.abs(values.imag).max() < 1e-10 * np.abs(m).max()

    def test_trace_matches_value_sum(self):
        rng = np.random.RandomState(11)
        m = rng.randn(7, 7) + 1j * rng.randn(7, 7)
        values, vectors = eig_general(m)
        assert abs(values.sum() - np.trace(m)) < 1e-10 * np.abs(m).max()

    def test_symmetric_reconstruction(self):
        # For diagonalizable complex symmetric M, sum z phi phi^T = M with
        # bilinear-normalized eigenvectors.
        rng = np.random.RandomState(5)
        a = rng.randn(4, 4) + 1j * rng.randn(4, 4)
        m = a + a.T
        values, vectors = eig_general(m)
        acc = np.zeros_like(m)
        for k in range(4):
            v = vectors[:, k]
            phi = v / np.sqrt(complex(v @ v))
            acc += values[k] * np.outer(phi, phi)
        npt.assert_allclose(acc, m, rtol=0, atol=1e-10 * np.abs(m).max())

    def test_exact_defective_2x2(self):
        # tr = -i, det = -1/4, so the discriminant vanishes exactly.
        m = np.array([[0.0, 0.5], [0.5, -1.0j]])
        values, vectors = eig_general(m)
        npt.assert_array_equal(values, [-0.5j, -0.5j])
        for k in range(2):
            v = vectors[:, k]
            assert abs(complex(v @ v)) == 0.0

    def test_scalar_2x2(self):
        # Every vector is an eigenvector of a scalar matrix, and the closed
        # form picks the identity's columns.
        values, vectors = eig_general(2j * np.eye(2))
        npt.assert_array_equal(values, [2j, 2j])
        npt.assert_array_equal(vectors, np.eye(2))

    def test_condition_near_one_for_normal(self):
        # The unit right vectors of a real symmetric matrix are orthonormal,
        # so each is its own left vector and every pair has condition 1.
        rng = np.random.RandomState(13)
        a = rng.randn(5, 5)
        m = (a + a.T).astype(complex)
        _, v = eig_general(m)
        npt.assert_allclose(v.conj().T @ v, np.eye(5), rtol=0, atol=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrix):
            eig_general(np.zeros((2, 3), dtype=complex))

    def test_rejects_nonfinite(self):
        m = np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex)
        with pytest.raises(InvalidMatrix):
            eig_general(m)

    def test_rejects_empty(self):
        with pytest.raises(InvalidMatrix):
            eig_general(np.zeros((0, 0)))


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
        # The singularity threshold scales with ||m||, which is 0 here.
        for n in (1, 3):
            with pytest.raises(SingularMatrix):
                solve_linear(np.zeros((n, n)), np.ones(n))

    def test_singular_with_unit_pivots_raises(self):
        # Upper bidiagonal, 1 on the diagonal and -2 above it: every LU
        # pivot is 1, far above 1e-14 * ||m||_inf = 3e-14, yet the inverse
        # holds 2^59 and the smallest singular value is about 1.3e-18.
        n = 60
        m = np.eye(n) - 2.0 * np.eye(n, k=1)
        assert np.linalg.svd(m, compute_uv=False).min() < 1e-17
        with pytest.raises(SingularMatrix):
            solve_linear(m, np.ones(n))

    def test_rhs_length_mismatch_raises(self):
        with pytest.raises(InvalidMatrix):
            solve_linear(np.eye(3), np.ones(2))

    def test_solver_failure_raises_singular(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", fail)
        with pytest.raises(SingularMatrix, match="Singular matrix"):
            solve_linear(np.eye(3), np.ones(3))


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


def _counted(f):
    calls = []

    def wrapped(x):
        calls.append(np.array(x))
        return f(x)

    return wrapped, calls


def _ep_objective(lattice, contacts, alpha, energy):
    """The ep-find objective: closest eigenvalue pair over the couplings."""

    def objective(p):
        leads = tuple(
            LeadSpec(c, abs(float(w))) for c, w in zip(contacts, p)
        )
        h = assemble_heff(CavityModel(lattice, leads, alpha), energy)
        return _closest_pair(eig_general(h)[0])[1]

    return objective


def _nan_at_second_vertex(x):
    # The first non-start vertex of the initial simplex of (-1.2, 1).
    if x[0] == 1.05 * -1.2 and x[1] == 1.0:
        return float("nan")
    return rosenbrock(x)


def _nan_past_one(x):
    # Minimum on the edge of a NaN region: every shrink leaves the other
    # vertex NaN, so the simplex is tiny long before its values are finite.
    return float("nan") if x[0] > 1.0 else float((x[0] - 1.0) ** 2)


PARITY_CASES = {
    "rosenbrock": (rosenbrock, [-1.2, 1.0], 1e-9),
    "cap_10d": (rosenbrock, np.where(np.arange(10) % 2 == 0, -1.2, 1.0), 1e-14),
    "nan_vertex": (_nan_at_second_vertex, [-1.2, 1.0], 1e-9),
    "nan_edge": (_nan_past_one, [1.0], 1e-9),
    "ep_corner_4x4": (
        _ep_objective(LatticeSpec(4, 4), ((0, 0), (3, 3)), 1.0, 0.0),
        [1.2, 1.6],
        1e-10,
    ),
    "ep_notch_10x5": (
        _ep_objective(
            LatticeSpec(10, 5, mask=NOTCH_MASK), ((0, 2), (9, 2)), 0.6, 0.0
        ),
        [1.0, 1.0],
        1e-10,
    ),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_simplex_matches_scipy_nelder_mead(case):
    """The numpy port gives scipy's iterates, result and call count."""
    optimize = pytest.importorskip("scipy.optimize")
    f, start, tol = PARITY_CASES[case]
    ours, our_calls = _counted(f)
    try:
        x, fun = minimize_simplex(ours, start, tol=tol)
        success = True
    except ConvergenceFailure as err:
        x, fun, success = err.best_point, err.best_value, False
    ref, ref_calls = _counted(f)
    result = optimize.minimize(
        ref,
        np.asarray(start, dtype=float),
        method="Nelder-Mead",
        options={
            "maxiter": 2000,
            "maxfev": 10**9,
            "xatol": 0.5 * tol,
            "fatol": np.inf,
            "adaptive": False,
        },
    )
    assert success == result.success
    npt.assert_array_equal(x, result.x)
    npt.assert_array_equal(fun, result.fun)
    assert len(our_calls) == len(ref_calls) == result.nfev
    npt.assert_array_equal(np.array(our_calls), np.array(ref_calls))
