"""Dense complex linear algebra kernels.

Matrices handled here are small (cavity dimension, at most a few hundred) and
dense. Eigendecomposition and linear solves are delegated to LAPACK through
numpy, the package's only run-time dependency; what this module adds is the
contract layer used everywhere else:

* deterministic eigenvalue ordering (ascending real part, ties by imaginary
  part), with right eigenvectors only,
* an explicit singularity threshold: a matrix whose smallest singular value
  is at most 1e-14 times its infinity norm is refused,
* a fixed-coefficient Nelder-Mead simplex minimizer, iterate for iterate the
  method of ``scipy.optimize.minimize(method="Nelder-Mead")``. The package
  itself no longer uses it (the exceptional-point search takes Newton
  steps); it is kept because the span recorder of ``bench/spans.py`` wraps
  it by name.

2x2 matrices are diagonalized in closed form (stable quadratic formula plus
adjugate-row eigenvectors). The generic QR iteration perturbs a defective
eigenvalue pair by ~sqrt(eps)*||M||, which is too coarse at an exceptional
point; the closed form computes the discriminant, and with it the coalescence,
exactly when the entries permit.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .exceptions import ConvergenceFailure, InvalidMatrix, SingularMatrix

__all__ = ["eig_general", "solve_linear", "minimize_simplex"]


def _check_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise InvalidMatrix("matrix contains non-finite entries")
    return a


def _eig2(a: np.ndarray):
    """Closed-form eigendecomposition of a 2x2 complex matrix."""
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = tr * tr - 4.0 * det
    sq = np.sqrt(disc)
    # Pick the sign that avoids cancellation in tr + sq.
    if (np.conj(tr) * sq).real < 0.0:
        sq = -sq
    z1 = 0.5 * (tr + sq)
    z2 = det / z1 if z1 != 0.0 else 0.5 * (tr - sq)

    scale = np.abs(a).max()
    values = np.array([z1, z2], dtype=complex)
    vectors = np.empty((2, 2), dtype=complex)
    for i, z in enumerate(values):
        # Rows of adj(a - z) span the right null space of (a - z).
        cand = (
            np.array([a[0, 1], z - a[0, 0]]),
            np.array([z - a[1, 1], a[1, 0]]),
        )
        v = max(cand, key=lambda u: np.abs(u).max())
        if np.abs(v).max() <= 16 * np.finfo(float).eps * max(scale, abs(z)):
            # Numerically a scalar matrix: any basis diagonalizes it.
            v = np.eye(2, dtype=complex)[:, i]
        vectors[:, i] = v / np.linalg.norm(v)
    return values, vectors


def eig_general(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a general complex square matrix.

    Parameters
    ----------
    m : array_like, shape (n, n)
        Complex matrix. No structure is assumed.

    Returns
    -------
    (values, vectors)
        The (n,) eigenvalues, sorted ascending by real part (ties by
        imaginary part), and the (n, n) unit right eigenvectors as columns
        in the same order. No left eigenvectors are computed: for the
        complex symmetric H_eff they are the transposes of the right ones,
        and |v^T v| of a unit column is its eigenpair condition number.

    Raises
    ------
    InvalidMatrix
        Not square or contains NaN/inf.
    ConvergenceFailure
        The underlying QR iteration failed to converge.
    """
    a = _check_square(m)
    n = a.shape[0]
    if n == 0:
        raise InvalidMatrix("empty matrix")
    if n == 1:
        return a[0, :1].copy(), np.ones((1, 1), dtype=complex)
    if n == 2:
        values, vectors = _eig2(a)
    else:
        try:
            values, vectors = np.linalg.eig(a)
        except np.linalg.LinAlgError as err:
            raise ConvergenceFailure(f"eigensolver did not converge: {err}") from err
    order = np.lexsort((values.imag, values.real))
    return values[order], vectors[:, order]


def solve_linear(m, rhs) -> np.ndarray:
    """Solve m @ x = rhs by LU factorization with partial pivoting.

    Parameters
    ----------
    m : array_like, shape (n, n)
    rhs : array_like, shape (n,) or (n, k)

    Returns
    -------
    ndarray
        Solution with the same trailing shape as ``rhs``.

    Raises
    ------
    SingularMatrix
        The smallest singular value of m is at most 1e-14 * ||m||_inf (a
        zero matrix included). Unlike a test on the LU pivots, this also
        refuses matrices whose pivots are all large but whose inverse is
        huge, such as a long bidiagonal with growing off-diagonal entries.
    InvalidMatrix
        Shape mismatch or non-finite entries.
    """
    a = _check_square(m)
    b = np.asarray(rhs, dtype=complex)
    if b.shape[0] != a.shape[0]:
        raise InvalidMatrix(
            f"rhs length {b.shape[0]} does not match matrix dimension {a.shape[0]}"
        )
    threshold = _singular_bound(a)
    try:
        sigma_min = np.linalg.svd(a, compute_uv=False).min()
        if sigma_min <= threshold:
            raise SingularMatrix(
                f"smallest singular value {sigma_min:.3e} at most {threshold:.3e}"
            )
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as err:
        raise SingularMatrix(str(err)) from err


def _singular_bound(a):
    """1e-14 ||a||_inf: a smallest singular value at most this is singular."""
    return 1e-14 * (np.abs(a).sum(axis=1).max() if a.size else 0.0)


def _by_value(sim, fsim):
    """Simplex vertices and values, best (lowest, NaN last) first."""
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def minimize_simplex(
    f: Callable[[np.ndarray], float],
    start: Sequence[float],
    tol: float = 1e-8,
) -> tuple[np.ndarray, float]:
    """Minimize a scalar function with the Nelder-Mead simplex method.

    Fixed reflection/expansion/contraction/shrink coefficients (1, 2, 0.5,
    0.5) and an iteration cap of 2000; the run is deterministic given the
    start point. Termination is purely geometric: the simplex diameter in the
    infinity norm must fall below ``tol``, and a NaN function value on the
    simplex blocks it. The steps, the initial simplex and the vertex order
    are those of scipy's fixed-coefficient Nelder-Mead, so both give the same
    iterates and the same calls of ``f``.

    Parameters
    ----------
    f : callable
        Maps a parameter vector to a finite float. It receives a copy, which
        it may keep.
    start : sequence of float
        Initial point; sets the search dimension.
    tol : float
        Simplex diameter bound at termination. Must be positive.

    Returns
    -------
    (ndarray, float)
        Argmin estimate and the function value there.

    Raises
    ------
    ConvergenceFailure
        Iteration cap reached first; carries the best point and value found.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x0 = np.asarray(start, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError("start must be a non-empty 1-d sequence")
    n = x0.size
    # Vertex k + 1 moves coordinate k of the start by 5 %, or to 0.00025.
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(np.copy(x)) for x in sim], dtype=float)
    # Sorted twice, as scipy does, so that tied values end in the same order.
    sim, fsim = _by_value(*_by_value(sim, fsim))
    iterations = 1
    while iterations < 2000:
        # max_i ||x_i - x_best||_inf <= tol/2 bounds the diameter by tol. A
        # NaN value difference (a NaN, or a tied infinite best) blocks it.
        if (np.max(np.abs(sim[1:] - sim[0])) <= 0.5 * tol
                and not np.isnan(fsim[0] - fsim[1:]).any()):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2.0 * xbar - sim[-1]
        fxr = f(np.copy(xr))
        if fxr < fsim[0]:
            xe = 3.0 * xbar - 2.0 * sim[-1]
            fxe = f(np.copy(xe))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            # Contract outside if the reflection improved on the worst
            # vertex, inside otherwise; shrink toward the best if that fails.
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(np.copy(xc))
                shrink = not fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(np.copy(xc))
                shrink = not fxc < fsim[-1]
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(np.copy(sim[j]))
        iterations += 1
        sim, fsim = _by_value(sim, fsim)
    x, fun = sim[0], float(np.min(fsim))
    if iterations >= 2000:
        raise ConvergenceFailure(
            f"simplex did not contract below {tol:g} within 2000 iterations",
            best_point=x,
            best_value=fun,
        )
    return x, fun
