"""Biorthogonal spectrum of the energy-dependent effective Hamiltonian.

The open cavity is described by

    H_eff(E) = H_B + sum_C w_C^2 g_C(E) |c_C><c_C|,

with one rank-one, energy-dependent self-energy term per lead channel
(w_C the effective coupling, g_C the lead surface Green's function, c_C the
contact site). H_eff is complex symmetric, so its right eigenvectors come in
a biorthogonal set normalized by the bilinear form phi^T phi = 1 rather than
the Hermitian norm. The Hermitian norm of such a state,

    A = phi^dag phi >= 1,

measures how far the state is from an ordinary closed-cavity mode; its
reciprocal r = 1/A is the per-state phase rigidity, and |v^T v| of the unit
eigenvector doubles as the eigenpair condition number, so r -> 0 flags the
approach to an exceptional point where two eigenvectors coalesce.

Sign convention: the largest-magnitude component of each normalized state has
its argument in (-pi/2, pi/2], which makes the sign deterministic and lets
states be compared across parameter sweeps. Exactly defective states (bilinear
norm below 1e-12) are kept with a unit Hermitian norm, r = 0 and A = inf; they
are reported, never silently repaired.

H_eff(E) is H_B plus a rank-2 term, so from ``SECULAR_MIN_N`` sites up both
the eigenvalues (:func:`heff_eigenvalues`, the crossover study's widths) and
the biorthogonal set (:func:`heff_spectrum`, the spectrum and rigidity
studies) come from the secular equation of H_B plus the rank-2 self-energy,
after one ``eigh`` of H_B per geometry: the eigenvalues and the eigenvectors
in the eigenbasis of H_B in O(N^2) per energy, and the eigenvectors on the
sites with one real N x N matrix product more. The degenerate levels of H_B,
which lattice symmetries make common, are deflated in stacked LAPACK calls,
one per cluster size and bright count rather than one per level. Every root
and every eigenvector passes a backward-error check, and the route falls
back to ``zgeev`` of the assembled matrix when a check fails; smaller
cavities go to ``zgeev`` directly, which is faster there. Both routes
normalize through the same column operations, so they differ only in
rounding and in the basis of an exactly degenerate cluster: the secular
route gives the contact-free (dark) members of such a cluster as real
closed-cavity combinations, with r = 1, where ``zgeev`` returns an
arbitrary complex basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .exceptions import ExceptionalPointNotFound, InvalidMatrix
from .linalg import eig_general
from .model import CavityModel

__all__ = [
    "ResonanceState",
    "SpectralSet",
    "PoleResult",
    "EPReport",
    "assemble_heff",
    "heff_eigenvalues",
    "heff_spectrum",
    "biorthogonal_spectrum",
    "fixed_point_poles",
    "track_sweep",
    "find_exceptional_point",
]

# Bilinear norms below this are treated as exactly defective.
DEFECTIVE_TOL = 1e-12

# Sites from which heff_eigenvalues and heff_spectrum take the secular
# route. Measured for eigenvalues with BLAS at 1 thread over 10 couplings
# in 0.1..4: the secular route took 2.3 ms against zgeev's 1.9 ms at
# N = 53, 3.5 against 5.4 ms at N = 80, and 16 against 66 ms at N = 230.
# Eigenpairs cross over near N = 45 (full rectangles, E = 0.3, same BLAS):
# 1.8 against 1.6 ms at N = 40, 2.1 against 2.9 at 48, 2.8 against 8.4 at
# 80 and 19 against 69 at 225, secular set against zgeev with vectors.
SECULAR_MIN_N = 80
# Roots per block of the Aberth iteration; the block's temporaries are
# block x N, never N x N.
_BLOCK = 32
# The 290-site crossover cavities take 23 to 31 iterations at alpha = 4
# (127 to 135 block evaluations; direct-large seeds 1-5 and 21).
_ABERTH_MAX_ITER = 60
# Steps below this, times the scale, have converged.
_ABERTH_TOL = 1e-14
# Size of the move, times the scale, off a pole or a coincident root.
_NUDGE = 1e-8
# Relative distance below which two first-order starts count as one.
_COINCIDENT = 1e-8
# Accepted backward error of a root, times the scale.
_BACKWARD_TOL = 1e-12
# Accepted |sum z - trace|, times the scale and N; the measured worst was
# 1.6e-16 over 2,300 accepted spectra.
_TRACE_TOL = 1e-14
# Constants of find_exceptional_point; its docstring gives their roles.
# Steps of about sqrt(eps) balance the forward difference's truncation and
# rounding errors.
_EP_MAX_STEPS = 20
_EP_MAX_HALVINGS = 4
_EP_FD_STEP = 1.5e-8
_EP_RCOND = 1e-6
_EP_SEPARATION = 1e-8
_EP_RANK = 1e-6
_EP_ANGLE = 1e-2
_EP_FLOOR = 1e-7


@dataclass(frozen=True)
class ResonanceState:
    """One eigenstate of H_eff(E) at a fixed evaluation energy.

    Attributes
    ----------
    z : complex
        Eigenvalue; -2 Im z is the decay width when z sits at a fixed point.
    phi : ndarray
        Right eigenvector with phi^T phi = 1 (unit Hermitian norm instead if
        the state is defective).
    a_norm : float
        Hermitian norm phi^dag phi, at least 1; inf when defective.
    rigidity_r : float
        Per-state phase rigidity, stored as 1/a_norm so the pair is an exact
        reciprocal pair; in (0, 1], exactly 0 when defective.
    ep_proximity : float
        |v^T v| of the unit eigenvector, the eigenpair condition number.
        Equal to rigidity_r up to rounding, except for defective states,
        where it keeps the raw sub-threshold value, and inside a degenerate
        cluster, where phi is orthogonalized but this stays the value of
        the eigenvector the solver returned.
    track_id : int or None
        Continuity label assigned by :func:`track_sweep`; None until tracked.
    ambiguous : bool
        Tracking could not separate this state from another candidate.
    """

    z: complex
    phi: np.ndarray
    a_norm: float
    rigidity_r: float
    ep_proximity: float
    track_id: int | None = None
    ambiguous: bool = False

    @property
    def width(self):
        return -2.0 * self.z.imag


@dataclass(frozen=True)
class SpectralSet:
    """All eigenstates of H_eff at one evaluation energy, as arrays.

    State j is ``values[j]`` with ``vectors[:, j]`` as its phi, in the
    eigenvalue order of :func:`~opencavity.linalg.eig_general` (ascending
    real part, ties by imaginary part); ``a_norm``, ``rigidity_r`` and
    ``ep_proximity`` hold the per-state quantities of
    :class:`ResonanceState`. ``track_id`` and ``ambiguous`` are None until
    :func:`track_sweep` sets them. Every array is read-only. ``states``
    gives the same data as one :class:`ResonanceState` per state, built on
    first access.
    """

    energy: float
    values: np.ndarray
    vectors: np.ndarray
    a_norm: np.ndarray
    ep_proximity: np.ndarray
    track_id: np.ndarray | None = None
    ambiguous: np.ndarray | None = None

    def __post_init__(self):
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    @property
    def rigidity_r(self):
        return 1.0 / self.a_norm

    @cached_property
    def states(self):
        n = len(self)
        return tuple(map(
            ResonanceState,
            self.values.tolist(),
            self.vectors.T,
            self.a_norm.tolist(),
            self.rigidity_r.tolist(),
            self.ep_proximity.tolist(),
            [None] * n if self.track_id is None else self.track_id.tolist(),
            [False] * n if self.ambiguous is None else self.ambiguous.tolist(),
        ))

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class PoleResult:
    """Converged fixed point E = Re z(E) of one resonance."""

    e_pole: float
    gamma_pole: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class EPReport:
    """Outcome of an exceptional-point search in a two-parameter family.

    ``path`` records one (p1, p2, separation, a_norm_max) entry per accepted
    iterate: the start, every accepted Newton step, and every neighbour at
    the rounding floor that lowered the separation. a_norm_max is the larger
    Hermitian norm of the closest eigenvalue pair; its growth along the path
    is the standard signature of an approach to an exceptional point.
    ``params`` is one of the path's points. ``outcome`` is ``"ep"`` (then
    ``success`` is true), ``"degenerate"`` for a coalescence that is not
    defective, or ``"not_found"``.
    """

    params: tuple
    z_star: complex
    separation: float
    angle: float
    path: tuple
    success: bool
    outcome: str


def assemble_heff(model: CavityModel, energy) -> np.ndarray:
    """Effective Hamiltonian H_B + sum_C w_C^2 g_C(E) at a real energy."""
    h = model.h_b.astype(complex)
    for ch, sigma in zip(model.channels, model.self_energy_weights(energy)):
        h[ch.index, ch.index] += sigma
    return h


def heff_eigenvalues(model: CavityModel, energy) -> np.ndarray:
    """Eigenvalues of H_eff(E) at a real energy, in no particular order.

    From ``SECULAR_MIN_N`` sites up they are the roots of the secular
    equation of H_B plus the rank-2 self-energy, at O(N^2) cost; below it,
    or when that route's checks fail, they come from ``np.linalg.eigvals``
    of the assembled matrix.
    """
    if model.dimension >= SECULAR_MIN_N:
        z = _secular_eigenvalues(model, energy)
        if z is not None:
            return z
    return np.linalg.eigvals(assemble_heff(model, energy))


def heff_spectrum(model: CavityModel, energy) -> SpectralSet:
    """Biorthogonal spectrum of H_eff(E) at a real energy.

    From ``SECULAR_MIN_N`` sites up the eigenpairs come from the secular
    equation of H_B plus the rank-2 self-energy, at O(N^2) cost plus one
    real N x N matrix product; below it, or when any check of that route fails,
    from :func:`biorthogonal_spectrum` of the assembled matrix. Both are
    sorted and normalized alike; inside an exactly degenerate cluster the
    secular route gives the contact-free members as real closed-cavity
    combinations.
    """
    e = float(energy)
    if model.dimension >= SECULAR_MIN_N:
        pairs = _secular_eigenvalues(model, e, vectors=True)
        if pairs is not None:
            return _biorthogonal_set(*pairs, e)
    return biorthogonal_spectrum(assemble_heff(model, e), e)


def _pole_sums(z, p, wsq):
    """1 / (z - p) for a block of z, and G0(z) as (g_LL, g_LR, g_RR)."""
    r = np.subtract.outer(z, p)
    np.divide(1.0, r, out=r)
    return r, r @ wsq


def _secular_eigenvalues(model, energy, vectors=False):
    """Eigenvalues of H_eff(E) as roots of its secular equation, or None.

    In the eigenbasis of H_B = U diag(e) U^T, H_eff is diag(e) + W S W^T,
    with W = U_c^T the N x 2 contact rows and S = diag(sigma_L, sigma_R).
    After deflation (Bunch, Nielsen & Sorensen, Numer. Math. 31, 31 (1978))
    the combinations without contact weight keep their e_k exactly, and the
    other eigenvalues are the zeros of the monic polynomial

        P(z) = prod_k (z - p_k) f(z),   f = det(I - S G0(z)),
        G0(z) = sum_k w_k w_k^T / (z - p_k),

    over the poles p_k that keep weight. Aberth iteration (Math. Comp. 27,
    339 (1973)) finds all of them at once from first-order perturbation
    theory. Every root must then pass a backward-error check,
    ||(diag p + W S W^T - z) y|| / ||y|| <= 1e-12 scale with y its
    eigenvector, and all N must sum to tr H_B + sigma_L + sigma_R. The
    trace alone proves nothing: the starts already sum to it exactly, so
    iterates that never moved would pass. Returns None when a check fails.

    The deflation runs on stacked LAPACK calls, grouped, not per cluster:
    one SVD of the sigma-weighted contact rows per cluster size gives the
    rotations and the bright counts b <= 2, and one ``eigvals`` per size
    and b gives the first-order starts, the eigenvalues of W_c S W_c^T.

    With ``vectors`` it returns the eigenpairs instead: the eigenvalues
    sorted like :func:`~opencavity.linalg.eig_general`, and their unit
    eigenvectors as the columns of an N x N matrix in site coordinates.
    A combination without contact weight is its own eigenvector, a column
    of U rotated within its cluster; it must pass the same backward-error
    bound, since deflation only bounds its weight to second order. The
    others are the checked y. Both are rotated back within each cluster,
    by one stacked product per cluster size, and mapped to sites by one
    real matrix product with U.
    """
    e_k, u = model.closed_modes
    sigma = model.self_energy_weights(energy)
    trace = e_k.sum() + sigma.sum()
    w_all = u[list(model.contact_indices), :].T
    scale = max(1.0, float(np.abs(e_k).max() + np.abs(sigma).sum()))
    # A combination moves its pole by at most sum_C |sigma_C| w_C^2. Below
    # the rounding of the pole it is deflated: its start would sit on the
    # pole and the iteration would divide by zero.
    floor = np.finfo(float).eps * scale

    # 1-2. Deflation and first-order starts, batched over the clusters of
    # one size m, then of one bright count b. The first b combinations of
    # a cluster keep weight; ``lit`` marks them by index. By index too, z0
    # holds the starts and w_rot the contact weights after the rotation.
    n = len(e_k)
    clustered, lit = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    z0, w_rot = np.empty(n, dtype=complex), w_all.copy()
    rotations = []
    start, size = _degenerate_runs(e_k, scale)
    for m in np.flatnonzero(np.bincount(size)).tolist():
        c = start[size == m, None] + np.arange(m)
        clustered[c] = True
        w_c = w_all[c]
        # At most two combinations of a cluster keep weight. The SVD is of
        # the sigma-weighted rows, so a detached channel adds none.
        _, s, vt = np.linalg.svd(np.sqrt(np.abs(sigma))[:, None]
                                 * np.swapaxes(w_c, 1, 2))
        b_of = np.count_nonzero(s * s > floor, axis=1)
        if vectors:
            rotations.append((c, vt))
            dark = np.arange(m) >= b_of[:, None]
            w_rot[c[dark]] = (vt @ w_c)[dark]
        for b in (1, 2):
            g = b_of == b
            if not g.any():
                continue
            rows = c[g, :b]
            w = vt[g, :b] @ w_c[g]
            # Degenerate first order: the eigenvalues of W_c S W_c^T.
            shifts = np.linalg.eigvals((w * sigma) @ np.swapaxes(w, 1, 2))
            if b == 2:
                # A double shift (sigma_L = sigma_R on a symmetric pair)
                # gives coincident starts, which Aberth iteration never
                # separates. hypot rounds like the scalar abs(complex).
                d = shifts[:, 0] - shifts[:, 1]
                twin = (np.hypot(d.real, d.imag) <= _COINCIDENT
                        * np.hypot(shifts[:, 0].real, shifts[:, 0].imag))
                shifts[twin] = (shifts[twin, :1]
                                * np.array([1.0 + 0.1j, 1.0 - 0.1j]))
            lit[rows] = True
            z0[rows] = e_k[rows] + shifts
            w_rot[rows] = w
    # The Aberth sums and blocks run over the clusters' bright members in
    # index order, then over the single levels that keep weight.
    k = np.flatnonzero(~clustered)
    k_lit = (w_all[k] ** 2) @ np.abs(sigma) > floor
    z0[k[k_lit]] = e_k[k[k_lit]] + w_all[k[k_lit]] ** 2 @ sigma
    bright = np.concatenate([np.flatnonzero(lit), k[k_lit]])
    dark = np.concatenate([np.flatnonzero(clustered & ~lit), k[~k_lit]])
    p, w, z = e_k[bright], w_rot[bright], z0[bright]
    # The residual of a dark combination is S times its contact weights.
    if vectors and not (np.abs(w_rot[dark]) @ np.abs(sigma)
                        <= _BACKWARD_TOL * scale).all():
        return None

    # 3. Aberth iteration on P(z) in blocks of roots; P'/P is
    # f'/f + sum_k 1/(z - p_k), and G0' = -sum_k w_k w_k^T / (z - p_k)^2.
    wsq = np.stack([w[:, 0] ** 2, w[:, 0] * w[:, 1], w[:, 1] ** 2], axis=1)
    s_l, s_r = sigma
    active = np.arange(len(z))
    with np.errstate(all="ignore"):
        for _ in range(_ABERTH_MAX_ITER):
            if not active.size:
                break
            kept = []
            for i in range(0, active.size, _BLOCK):
                blk = active[i:i + _BLOCK]
                zb = z[blk]
                r, g = _pole_sums(zb, p, wsq)
                r_sum = r.sum(axis=1)
                dg = np.multiply(r, r, out=r) @ wsq
                a = 1.0 - s_l * g[:, 0]
                d = 1.0 - s_r * g[:, 2]
                f = a * d - s_l * s_r * g[:, 1] ** 2
                df = (s_l * dg[:, 0] * d + s_r * dg[:, 2] * a
                      + 2.0 * s_l * s_r * g[:, 1] * dg[:, 1])
                newton = f / (f * r_sum + df)
                q = np.subtract.outer(zb, z)
                q[np.arange(len(blk)), blk] = np.inf
                repel = np.divide(1.0, q, out=q).sum(axis=1)
                step = newton / (1.0 - newton * repel)
                bad = ~np.isfinite(step)
                # Off a pole or a coincident root, each by its own amount.
                step[bad] = _NUDGE * scale * np.exp(2.4j * blk[bad])
                z[blk] = zb - step
                kept.append(blk[bad | (np.abs(step) > _ABERTH_TOL * scale)])
            active = np.concatenate(kept)
        if active.size:
            return None

        roots = np.concatenate([z, e_k[dark]])
        if vectors:
            # First the coefficients in the cluster-rotated eigenbasis of
            # H_B, one column per root in sorted position; a dark root's is
            # a unit vector.
            order = np.lexsort((roots.imag, roots.real))
            col = np.empty_like(order)
            col[order] = np.arange(len(roots))
            phi = np.zeros((len(roots), len(roots)), dtype=complex)
            phi[dark, col[len(z):]] = 1.0

        # 4. Backward error: x spans the null space of M = I - S G0(z),
        # and y = (z - p)^-1 (W x) is the eigenvector of root z.
        for i in range(0, len(z), _BLOCK):
            zb = z[i:i + _BLOCK]
            y, g = _pole_sums(zb, p, wsq)
            m00, m01 = 1.0 - s_l * g[:, 0], -s_l * g[:, 1]
            m10, m11 = -s_r * g[:, 1], 1.0 - s_r * g[:, 2]
            top = np.abs(m00) + np.abs(m01) >= np.abs(m10) + np.abs(m11)
            x = np.where(top, [-m01, m00], [m11, -m10]).T
            x[~x.any(axis=1)] = (1.0, 0.0)
            y *= x @ w.T
            res = (y @ w * sigma) @ w.T - y * np.subtract.outer(zb, p)
            y_norm = np.linalg.norm(y, axis=1)
            if not (np.linalg.norm(res, axis=1) / y_norm
                    <= _BACKWARD_TOL * scale).all():
                return None
            if vectors:
                phi[np.ix_(bright, col[i:i + len(zb)])] = y.T / y_norm
    if not abs(roots.sum() - trace) <= _TRACE_TOL * scale * len(roots):
        return None
    if not vectors:
        return roots
    # Each size's clusters rotate in one stacked product, in chunks of
    # about 2 * _BLOCK rows, so the gathered rows stay small beside phi.
    for c, vt in rotations:
        step = -(-2 * _BLOCK // c.shape[1])
        for i in range(0, len(c), step):
            rows = c[i:i + step]
            phi[rows] = np.swapaxes(vt[i:i + step], 1, 2) @ phi[rows]
    # Then phi = u @ phi in place, by column blocks, as a real product: a
    # C-ordered complex matrix viewed as float interleaves the real and
    # imaginary part of every column.
    flat = phi.view(float)
    for i in range(0, flat.shape[1], 2 * _BLOCK):
        flat[:, i:i + 2 * _BLOCK] = u @ flat[:, i:i + 2 * _BLOCK]
    return roots[order], phi


def _canonical_sign(phis):
    """Negate in place each column whose largest-magnitude entry has Re < 0.

    An entry on the imaginary axis counts as negative when Im < 0, so the
    entry's argument ends up in (-pi/2, pi/2]. Returns ``phis``.
    """
    lead = phis[np.argmax(np.abs(phis), axis=0), np.arange(phis.shape[1])]
    flip = (lead.real < 0.0) | ((lead.real == 0.0) & (lead.imag < 0.0))
    phis[:, flip] = -phis[:, flip]
    return phis


def _degenerate_runs(values, scale):
    """Start and size of every multi-member run of sorted eigenvalues.

    A run splits wherever two consecutive values differ by more than
    1e-12 * max(scale, 1); a value on its own forms no run.
    """
    tol = 1e-12 * max(scale, 1.0)
    d = np.diff(values)
    # hypot rounds like the scalar abs(complex); see _closest_pair.
    tied = ~(np.hypot(d.real, d.imag) > tol)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], tied, [0]))))
    return edges[::2], edges[1::2] - edges[::2] + 1


def biorthogonal_spectrum(heff, energy) -> SpectralSet:
    """Diagonalize a complex symmetric H_eff and normalize biorthogonally.

    Eigenvectors of distinct eigenvalues of a complex symmetric matrix are
    bilinearly orthogonal on their own, so every state quantity is a column
    operation on the eigenvector matrix: the bilinear norms v^T v, the
    normalization phi = v / sqrt(v^T v), the canonical sign, A = phi^dag phi
    and r = 1/A. Exactly degenerate clusters (possible under lattice
    symmetries) are orthogonalized bilinearly within the cluster, the only
    per-state loop, but only when every member is comfortably
    non-defective; a coalescing pair at an exceptional point is left
    untouched and flagged through its norms instead.

    Parameters
    ----------
    heff : ndarray
        Square complex symmetric matrix, max |H - H^T| below 1e-12;
        typically from :func:`assemble_heff`.
    energy : float
        Real evaluation energy the matrix was assembled at (bookkeeping
        only; it is carried into the result).

    Returns
    -------
    SpectralSet

    Raises
    ------
    InvalidMatrix
        Input not square or not symmetric to tolerance.
    """
    h = np.asarray(heff, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvalidMatrix("heff must be a square matrix")
    asym = float(np.abs(h - h.T).max()) if h.size else 0.0
    if asym >= 1e-12:
        raise InvalidMatrix(
            f"heff must be complex symmetric (max |H - H^T| = {asym:.3e})"
        )
    es = eig_general(h)
    return _biorthogonal_set(es.values, es.vectors, energy)


def _biorthogonal_set(values, raw, energy):
    """SpectralSet of sorted eigenvalues and their unit eigenvectors.

    The normalization of :func:`biorthogonal_spectrum`, shared by
    :func:`heff_spectrum`'s secular route.
    """
    scale = float(np.abs(values).max())
    bilinear = np.einsum("ij,ij->j", raw, raw)
    # hypot rounds like the scalar abs(complex); see _closest_pair.
    prox = np.hypot(bilinear.real, bilinear.imag)
    defective = prox < DEFECTIVE_TOL
    # Defective states keep their unit Hermitian norm.
    phis = raw / np.sqrt(np.where(defective, 1.0, bilinear))
    for first, size in zip(*_degenerate_runs(values, scale)):
        members = slice(first, first + size)
        if (prox[members] > 1e-3).all():
            # Bilinear Gram-Schmidt; a member that collapses leaves the
            # whole cluster normalized as the solver returned it.
            done = []
            for u in np.ascontiguousarray(raw[:, members].T):
                for p in done:
                    u = u - (p @ u) * p
                uu = complex(u @ u)
                if abs(uu) <= DEFECTIVE_TOL:
                    break
                done.append(u / np.sqrt(uu))
            else:
                phis[:, members] = np.column_stack(done)

    _canonical_sign(phis)
    # phi^dag phi = 1/|v^T v| analytically; the clamp keeps the stored
    # pair inside a_norm >= 1, r in (0, 1] against rounding.
    a_norm = np.maximum(np.einsum("ij,ij->j", phis.conj(), phis).real, 1.0)
    a_norm[defective] = math.inf
    # C order, so every product over it rounds as over a column stack of
    # the states' phi.
    return SpectralSet(energy=float(energy), values=values,
                       vectors=np.ascontiguousarray(phis), a_norm=a_norm,
                       ep_proximity=prox)


def fixed_point_poles(model: CavityModel, damping=0.5, tol=1e-10, max_iter=200):
    """Locate the resonance poles by fixed-point iteration in the energy.

    Each pole solves E = Re z_k(E) for its own eigenvalue branch of
    H_eff(E); the width there is Gamma = -2 Im z_k(E). Iterations start from
    the closed-cavity eigenvalues, follow the branch by eigenvector overlap,
    and apply damped updates E <- (1 - d) E + d Re z. A run that fails to
    settle within ``max_iter`` steps is returned with ``converged=False``
    rather than raised, since neighboring poles usually still converge.

    Returns
    -------
    tuple of PoleResult
        One entry per closed-cavity mode, in ascending closed-cavity order.
    """
    e0, u0 = model.closed_modes
    results = []
    for k in range(model.dimension):
        e = float(e0[k])
        prev = u0[:, k].astype(complex)
        z = complex(e)
        converged = False
        it = 0
        for it in range(1, max_iter + 1):
            es = eig_general(assemble_heff(model, e))
            overlaps = np.abs(np.conj(prev) @ es.vectors)
            j = int(np.argmax(overlaps))
            z = complex(es.values[j])
            prev = es.vectors[:, j]
            e_next = (1.0 - damping) * e + damping * z.real
            if abs(e_next - e) < tol:
                e = e_next
                converged = True
                break
            e = e_next
        results.append(
            PoleResult(
                e_pole=e,
                gamma_pole=-2.0 * z.imag,
                iterations=it,
                converged=converged,
            )
        )
    return tuple(results)


def _greedy_match(ov, z_prev, z_next):
    """Row matched to each column by greedy assignment on ``ov``.

    The largest free entry pairs first; free entries within 1e-12 of it are
    near-ties, resolved by the smallest |z_prev - z_next| and then in
    row-major order. One sort serves every match, read from its largest
    entry down: the entries ahead of the first free one are all taken.
    """
    n = len(z_prev)
    flat = ov.ravel()
    order = np.argsort(flat)[::-1]
    row_free = [True] * n
    col_free = [True] * n
    row_of = [0] * n
    head = 0
    for _ in range(n):
        while not (row_free[order[head] // n] and col_free[order[head] % n]):
            head += 1
        floor = flat[order[head]] - 1e-12
        tied = []
        for f in order[head:]:
            if flat[f] < floor:
                break
            if row_free[f // n] and col_free[f % n]:
                tied.append(f)
        i, j = divmod(
            min(sorted(tied), key=lambda f: abs(z_prev[f // n] - z_next[f % n])),
            n,
        )
        row_free[i] = col_free[j] = False
        row_of[j] = i
    return np.array(row_of)


def _track_spectra(spectra, gap_tol=1e-6):
    """Label an ordered sequence of SpectralSets by best-overlap matching.

    Greedy matching between consecutive spectra on the overlap matrix
    |P_prev^dag P_next|, P holding the states as unit columns: the largest
    entry pairs first, and so on, with near-ties broken by eigenvalue
    proximity (see :func:`_greedy_match`). A match whose winning overlap
    exceeds the runner-up in its row of the full matrix by less than
    ``gap_tol`` is flagged ambiguous. The sign of each matched state is
    re-chosen so Re(phi_prev^T phi_next) >= 0, keeping tracked vectors
    continuous even when the canonical per-spectrum sign jumps.
    ``spectra`` is read one at a time, so :func:`track_sweep` streams it.
    """
    spectra = iter(spectra)
    first = next(spectra, None)
    if first is None:
        return ()
    n = len(first)
    labeled = [replace(first, track_id=np.arange(n),
                       ambiguous=np.zeros(n, dtype=bool))]
    # The unit columns of the previous spectrum before its sign step: a
    # flipped column only negates a row of the overlap product, exactly.
    p_prev = first.vectors / np.linalg.norm(first.vectors, axis=0)
    for current in spectra:
        prev = labeled[-1]
        if len(current) != n:
            raise InvalidMatrix("spectra in a sweep must share their dimension")
        # Kept, so allocated before the step's temporaries; allocated after
        # them, it raised peak RSS by 0.7 MB on the 15 x 15 lattice.
        vectors = current.vectors.copy()
        p_next = current.vectors / np.linalg.norm(current.vectors, axis=0)
        ov = np.abs(p_prev.conj().T @ p_next)
        p_prev = p_next
        row_of = _greedy_match(ov, prev.values.tolist(), current.values.tolist())
        cols = np.arange(n)
        others = ov[row_of]
        others[cols, cols] = -np.inf
        ambiguous = ov[row_of, cols] - others.max(axis=1) < gap_tol
        # Freed before the gather below; kept, they raised peak RSS by
        # 0.25 MB on the 15 x 15 lattice.
        del ov, others
        flip = np.einsum("ij,ij->j", prev.vectors[:, row_of],
                         current.vectors).real < 0.0
        np.negative(vectors, out=vectors, where=flip)
        labeled.append(replace(current, vectors=vectors,
                               track_id=prev.track_id[row_of],
                               ambiguous=ambiguous))
    return tuple(labeled)


def track_sweep(model_family, alphas, energy, gap_tol=1e-6):
    """Follow the resonance states of a model family along a coupling sweep.

    Takes the biorthogonal spectrum of H_eff at the fixed evaluation energy
    for each coupling value (:func:`heff_spectrum`), then assigns
    continuous ``track_id`` labels by greedy best-overlap matching between
    consecutive spectra (ties broken by eigenvalue proximity; see the
    returned sets' ``ambiguous`` flags for matches that were too close to
    call).

    Parameters
    ----------
    model_family : callable
        Maps a coupling value alpha to a CavityModel of fixed dimension.
    alphas : sequence of float
        Sweep order, typically increasing.
    energy : float
        Real evaluation energy, fixed along the sweep.
    gap_tol : float

    Returns
    -------
    tuple of SpectralSet
        One per alpha, with ``track_id``, ``ambiguous`` and the continuity
        sign set.
    """
    spectra = (heff_spectrum(model_family(a), energy) for a in alphas)
    return _track_spectra(spectra, gap_tol=gap_tol)


def _closest_pair(values):
    """Index pair (i < j) of the two closest values and their distance.

    Pairs are scanned in row-major order and ``argmin`` keeps the first
    minimum, so an exact tie goes to the pair with the smallest i, then j.
    """
    values = np.asarray(values, dtype=complex)
    i, j = np.triu_indices(len(values), 1)
    d = values[i] - values[j]
    # hypot rounds like the scalar abs(complex); the SIMD loop of np.abs on
    # a complex array can differ in the last bit.
    seps = np.hypot(d.real, d.imag)
    k = int(np.argmin(seps))
    return (int(i[k]), int(j[k])), float(seps[k])


def _pair_a_norm(vectors, i, j):
    """Larger Hermitian norm 1/|v^T v| of two unit-scaled eigenvectors."""
    worst = 1.0
    for k in (i, j):
        v = vectors[:, k]
        nrm2 = float(np.vdot(v, v).real)
        vv = abs(complex(v @ v)) / nrm2
        a = math.inf if vv < DEFECTIVE_TOL else max(1.0 / vv, 1.0)
        worst = max(worst, a)
    return worst


def _chirality_angle(family, p_star, p_start):
    """Distance of the coalescing pair from the phi_1 = +-i phi_2 relation.

    Evaluated at the optimum when the pair is still separable there,
    otherwise at points backed off toward the search start (along (1, 1)
    from a start at the optimum) until the bilinear norms allow
    normalization.
    """
    away = p_start - p_star if (p_start != p_star).any() else np.ones(2)
    for backoff in (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
        p = p_star + backoff * away
        es = eig_general(np.asarray(family(p), dtype=complex))
        (i, j), _ = _closest_pair(es.values)
        pair = es.vectors[:, [i, j]]
        vv = np.array([complex(v @ v) for v in pair.T])
        if (np.abs(vv) >= 1e-9).all():
            p1, p2 = _canonical_sign(pair / np.sqrt(vv)).T
            n1 = np.linalg.norm(p1)
            return min(
                np.linalg.norm(p1 - 1j * p2), np.linalg.norm(p1 + 1j * p2)
            ) / n1
    return math.nan


def _eigenvalues(h):
    """Eigenvalues without vectors: the closed form for 2x2, else zgeev."""
    return eig_general(h).values if len(h) == 2 else np.linalg.eigvals(h)


def _tracked_pair(values, pair):
    """The two distinct entries of ``values`` nearest the two of ``pair``.

    Each member of ``pair`` takes its nearest value; when both take the
    same one, one of them moves to its second choice, whichever assignment
    has the smaller summed distance.
    """
    d = np.abs(values[:, None] - np.asarray(pair)[None, :])
    a, b = np.argmin(d, axis=0)
    if a == b:
        both = d[a].copy()
        d[a] = np.inf
        a2, b2 = np.argmin(d, axis=0)
        if d[a2, 0] + both[1] < both[0] + d[b2, 1]:
            a = a2
        else:
            b = b2
    return values[[a, b]]


def _pair_moments(pairs):
    """Discriminant (z_a - z_b)^2 and mean of eigenvalue pairs (last axis).

    Both are symmetric in the pair, so both stay smooth through a
    coalescence, where z_a and z_b themselves have a square-root branch.
    """
    d = pairs[..., 0] - pairs[..., 1]
    return d * d, 0.5 * (pairs[..., 0] + pairs[..., 1])


def _newton_steps(g, jac):
    """Minimum-norm solutions dp of the real 2x2 systems g + jac @ dp = 0.

    ``g`` (m,) are complex discriminants and ``jac`` (m, 2) their
    derivatives in the two real parameters.
    """
    a = np.stack([jac.real, jac.imag], axis=1)
    rhs = np.stack([g.real, g.imag], axis=1)[:, :, None]
    return -(np.linalg.pinv(a, rcond=_EP_RCOND) @ rhs)[:, :, 0]


class _Iterate:
    """The family's matrix, eigenpairs and closest pair at one point p."""

    def __init__(self, family, p):
        self.p = p
        self.h = np.asarray(family(p), dtype=complex)
        self.es = eig_general(self.h)
        if len(self.es.values) < 2:
            raise InvalidMatrix("family matrices need dimension >= 2")
        self.closest, self.separation = _closest_pair(self.es.values)

    def row(self):
        """Path entry (p1, p2, separation, a_norm_max)."""
        return (float(self.p[0]), float(self.p[1]), self.separation,
                _pair_a_norm(self.es.vectors, *self.closest))


def find_exceptional_point(family, start, tol=1e-10):
    """Search a two-parameter matrix family for an exceptional point.

    Drives the discriminant g(p) = (z_a - z_b)^2 of one eigenvalue pair to
    zero by damped Newton steps in p. Unlike the separation |z_a - z_b|,
    which has a cusp at a coalescence, g is smooth there, so Newton
    converges onto it. The Jacobian of g is a forward difference of the
    eigenvalues (two eigensolves without vectors per step). Each step is
    the minimum-norm least-squares solution of the real 2x2 system for
    (Re g, Im g), with singular values below 1e-6 of the largest dropped:
    where Im g vanishes identically, as on a bipartite lattice at E = 0
    whose eigenvalues pair as z and -conj(z), coalescences form curves in
    the parameter plane and the step heads for the nearest one. The pair is
    the one whose first step is shortest among all pairs at the start; it
    is followed from step to step by the first-order prediction of its
    mean and discriminant, which are smooth through the coalescence too.
    A backtracking line search halves a step that does not reduce |g|, up
    to four times. The search stops when g is zero, after a step shorter
    than ``tol`` times max(1, |p|), when the line search fails, or after
    20 steps.

    The reported point is the iterate with the smallest separation of any
    pair. Rounding splits a coalesced pair by about sqrt(eps) ||H||, so a
    converged separation within 10x of the bound below is rounding noise:
    the floating-point neighbours of the point, up to three spacings away
    in each parameter, then draw it afresh until one meets the bound. The
    point is an exceptional point (``success``) only when it carries a
    defectiveness signature:

    * the separation is at most 1e-8 ||H*||_inf;
    * the second-smallest singular value of H* - z* I exceeds
      1e-6 ||H*||_inf, so the merged eigenvalue has one Jordan block;
    * the chirality angle of the pair, the distance from the relation
      phi_1 = +-i phi_2, is below 1e-2.

    The outcome is ``"ep"`` when all three hold, ``"degenerate"`` when the
    separation is below the bound but the point is not defective (such as a
    symmetry-protected crossing), and ``"not_found"`` otherwise.

    Parameters
    ----------
    family : callable
        Maps a length-2 parameter vector to a square complex matrix of
        fixed dimension >= 2. One-parameter families simply ignore the
        second entry.
    start : sequence of 2 floats
    tol : float
        Newton step length, relative to max(1, |p|), after which the
        search stops.

    Returns
    -------
    (float, float, complex, EPReport)
        Parameters of the exceptional point, the merged eigenvalue z* (the
        mean of the pair), and the full report.

    Raises
    ------
    ExceptionalPointNotFound
        The outcome is not ``"ep"``; the exception carries the report of
        the point with the smallest separation.
    """
    p_start = np.asarray(start, dtype=float)
    if p_start.shape != (2,):
        raise InvalidMatrix("start must hold exactly two parameters")
    it = best = _Iterate(family, p_start)
    path = [it.row()]
    z = it.es.values
    index = np.stack(np.triu_indices(len(z), 1), axis=1)
    pairs = z[index]
    for _ in range(_EP_MAX_STEPS):
        p = it.p
        step = _EP_FD_STEP * np.maximum(1.0, np.abs(p))
        shifted = [
            _eigenvalues(np.asarray(family(p + dp), dtype=complex))
            for dp in np.diag(step)
        ]
        if len(pairs) > 1:
            # The start: every pair, each value matched to its nearest.
            moved = [s[np.abs(s[None] - z[:, None]).argmin(1)][index]
                     for s in shifted]
        else:
            moved = [_tracked_pair(s, pairs[0])[None] for s in shifted]
        g, m = _pair_moments(pairs)
        g_k, m_k = _pair_moments(np.stack(moved, axis=1))
        dg = (g_k - g[:, None]) / step
        dm = (m_k - m[:, None]) / step
        dps = _newton_steps(g, dg)
        # The pair followed from now on is the one whose step is shortest.
        c = int(np.argmin(np.hypot(dps[:, 0], dps[:, 1])))
        g, m, dg, dm, dp = g[c], m[c], dg[c], dm[c], dps[c]
        if g == 0.0:
            break
        for _ in range(_EP_MAX_HALVINGS + 1):
            trial = _Iterate(family, p + dp)
            # The first-order prediction of the pair's mean and
            # discriminant, both smooth through a coalescence, picks the
            # pair out of the new values.
            m_dp = m + dm @ dp
            root = 0.5 * np.sqrt(g + dg @ dp)
            pair = _tracked_pair(trial.es.values, (m_dp + root, m_dp - root))
            if abs(_pair_moments(pair)[0]) < abs(g):
                break
            dp = 0.5 * dp
        else:
            break
        it, pairs = trial, pair[None]
        path.append(it.row())
        if it.separation < best.separation:
            best = it
        if np.abs(dp).max() <= tol * max(1.0, np.abs(it.p).max()):
            break

    scale = float(np.abs(best.h).sum(axis=1).max())
    threshold = _EP_SEPARATION * scale
    if threshold < best.separation <= _EP_FLOOR * scale:
        p = best.p
        ring = range(-3, 4)
        shifts = sorted(((a, b) for a in ring for b in ring),
                        key=lambda v: v[0] ** 2 + v[1] ** 2)
        for shift in shifts[1:]:
            trial = _Iterate(family, p + np.multiply(shift, np.spacing(p)))
            if trial.separation < best.separation:
                best = trial
                path.append(best.row())
                if best.separation <= threshold:
                    break
        scale = float(np.abs(best.h).sum(axis=1).max())
        threshold = _EP_SEPARATION * scale
    i, j = best.closest
    z_star = 0.5 * (best.es.values[i] + best.es.values[j])
    angle = float(_chirality_angle(family, best.p, p_start))
    if best.separation > threshold:
        outcome = "not_found"
        reason = (f"separation {best.separation:.3e} stayed above threshold "
                  f"{threshold:.3e}")
    else:
        sigma = np.linalg.svd(best.h - z_star * np.eye(len(best.h)),
                              compute_uv=False)[-2]
        defective = sigma > _EP_RANK * scale and angle < _EP_ANGLE
        outcome = "ep" if defective else "degenerate"
        reason = (f"degenerate, not defective: second-smallest singular "
                  f"value {sigma:.3e}, chirality angle {angle:.3e}")
    report = EPReport(
        params=tuple(float(x) for x in best.p),
        z_star=complex(z_star),
        separation=best.separation,
        angle=angle,
        path=tuple(path),
        success=outcome == "ep",
        outcome=outcome,
    )
    if not report.success:
        raise ExceptionalPointNotFound(reason, report=report)
    return report.params[0], report.params[1], report.z_star, report
