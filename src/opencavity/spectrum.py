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

H_eff(E) is H_B plus a rank-2 term, so the biorthogonal set
(:func:`heff_spectrum`, the package's one eigen-solve of H_eff, behind the
spectrum, rigidity and crossover studies) comes from the secular equation
of H_B plus the rank-2 self-energy, after one ``eigh`` of H_B per geometry,
in O(N^2) per energy. Every root and every eigenvector passes a
backward-error check, and the route falls back to ``zgeev`` of the
assembled matrix (:func:`biorthogonal_spectrum`) when a check fails.

The secular route keeps each state as the 2-vector x of its root in the
eigenbasis of H_B, and the per-state norms, the overlaps of two spectra and
the resonance expansion's rigidity are O(N^2) sums over them; phi on the
sites, an N x N matrix, is formed only on request. The contact-free (dark)
members of a degenerate level of H_B, which lattice symmetries make
common, are real closed-cavity combinations with r = 1, where ``zgeev``
returns an arbitrary complex basis; elsewhere the routes differ in
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .exceptions import (
    DefectiveSpectrum,
    ExceptionalPointNotFound,
    InvalidMatrix,
    OutsideBand,
    PoleOnAxis,
)
from .linalg import eig_general
from .model import CavityModel
from .rigidity import b_antisymmetry_residual, rho_direct

__all__ = [
    "SpectralSet",
    "PoleResult",
    "EPReport",
    "assemble_heff",
    "heff_spectrum",
    "biorthogonal_spectrum",
    "fixed_point_poles",
    "track_sweep",
    "find_exceptional_point",
]

# Bilinear norms below this are treated as exactly defective.
DEFECTIVE_TOL = 1e-12

# Roots per block of the Aberth iteration; the block's temporaries are
# block x N, never N x N.
_BLOCK = 32
# The 290-site crossover cavities take at most 29 iterations, at alpha = 4
# (direct-large seeds 1-5 and 21).
_ABERTH_MAX_ITER = 60
# Steps below this, times the scale, have converged.
_ABERTH_TOL = 1e-14
# Size of the move, times the scale, off a pole or a coincident root.
_NUDGE = 1e-8
# Relative distance below which two starts of a pair count as one.
_COINCIDENT = 1e-8
# Accepted backward error of a root, times max(1, max |lambda|); the
# deflation floor, times the scale.
_BACKWARD_TOL = 1e-12
# Accepted |sum z - trace|, times the scale and N; the measured worst was
# 1.6e-16 over 2,300 accepted spectra.
_TRACE_TOL = 1e-14
# Estimated rounding of a closed-form product of two bright states, relative
# to their Hermitian norms, above which the product is summed directly.
_CLOSED_FORM_TOL = 1e-13
# Real-axis pole rejection distance of the resonance expansion.
POLE_TOL = 1e-12
# |v^T v| above which a degenerate run's members are bilinearly
# Gram-Schmidt orthogonalized.
_GRAM_SCHMIDT_PROX = 1e-3
# Overlap margin below which a tracked match is flagged ambiguous.
_GAP_TOL = 1e-6
# Constants of find_exceptional_point; its docstring gives their roles.
# Steps of about sqrt(eps) balance the forward difference's truncation and
# rounding errors.
_EP_MAX_STEPS = 20
_EP_MAX_HALVINGS = 4
_EP_STEP_TOL = 1e-10
_EP_FD_STEP = 1.5e-8
_EP_RCOND = 1e-6
_EP_COALESCED = 1e-12
_EP_RANK = 1e-6
_EP_ANGLE = 1e-2
# Damping, step tolerance and step limit of fixed_point_poles.
_POLE_DAMPING = 0.5
_POLE_TOL = 1e-10
_POLE_MAX_ITER = 200


@dataclass(frozen=True)
class SpectralSet:
    """All eigenstates of H_eff at one evaluation energy, as arrays.

    State j is ``values[j]``, in the eigenvalue order of
    :func:`~opencavity.linalg.eig_general` (ascending real part, ties by
    imaginary part). Its Hermitian norm A = phi^dag phi >= 1 is
    ``a_norm[j]`` (inf when defective), its phase rigidity 1/A is
    ``rigidity_r[j]`` (0 when defective), its width -2 Im z is
    ``widths[j]`` (+0.0 for a real, dark state), and ``ep_proximity[j]``
    is |v^T v| of the unit eigenvector, the eigenpair condition number.
    Both routes normalize by one rule (:func:`_biorthonormalize`), so this
    equals the rigidity up to rounding, except for a defective state, where
    it keeps the raw sub-threshold value, and inside a degenerate cluster,
    where phi is orthogonalized but this stays the value of the
    eigenvector before it. ``track_id`` (continuity labels) and
    ``ambiguous`` (matches too close to call) are None until
    :func:`track_sweep` sets them. Every array is read-only.

    ``basis`` holds the states themselves: the secular route's (z, x) pairs
    in the eigenbasis of H_B (:class:`_SecularStates`), or the dense phi of
    its ``zgeev`` fallback (:class:`_DenseStates`). :meth:`overlaps` and
    :meth:`expansion_rigidity` work from either, and so does
    :func:`~opencavity.scattering.transmission_spectral`, so the spectrum,
    rigidity and crossover studies never form phi on the secular route.
    ``vectors``, phi with one state per column (phi^T phi = 1, or a unit
    Hermitian norm for a defective state), is formed there on first
    access; its readers are :func:`track_sweep`,
    :func:`~opencavity.scattering.coefficients_c` and
    :func:`~opencavity.scattering.solve_scattering`, whose interior state
    is phi c.
    """

    energy: float
    values: np.ndarray
    a_norm: np.ndarray
    ep_proximity: np.ndarray
    basis: _DenseStates | _SecularStates
    track_id: np.ndarray | None = None
    ambiguous: np.ndarray | None = None

    def __post_init__(self):
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    @property
    def rigidity_r(self):
        return 1.0 / self.a_norm

    @property
    def widths(self):
        # + 0.0 turns the -0.0 of a real (dark) state into 0.0.
        return -2.0 * self.values.imag + 0.0

    @property
    def vectors(self):
        return self.basis.vectors

    def overlaps(self, other):
        """|u_i^dag u'_j| of this set's unit states u and those of ``other``.

        An (N, N) float array. Between two secular sets of one H_B and one
        pair of contacts with the same bright/dark split it is the closed
        form of :class:`_SecularStates`; otherwise the dense product of
        both sets' ``vectors``.
        """
        return self.basis.overlaps(other.basis)

    def expansion_rigidity(self, model, incoming=0):
        """Spectral phase rigidity of the interior state, and the B residual.

        The interior state fed from channel ``incoming`` of ``model`` (the
        model this set was computed from) is the resonance expansion
        psi = sum_lam c_lam phi_lam with c_lam proportional to
        phi_lam[c_in] / (E - z_lam). Returns its complex rigidity
        sum psi_k^2 / sum |psi_k|^2 and the
        :func:`~opencavity.rigidity.b_antisymmetry_residual` of
        B = phi^dag phi. Both are free of the states' signs. The ``zgeev``
        route evaluates them by dense products, the secular route by its
        closed form in O(N^2).

        Raises
        ------
        DefectiveSpectrum, PoleOnAxis, OutsideBand, ValueError
            As :func:`~opencavity.scattering.coefficients_c`.
        """
        c = _expansion_coefficients(self, model, incoming,
                                    self.basis.contacts(model))
        return self.basis.expansion_rigidity(c)

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
    iterate: the start and every accepted Newton step. a_norm_max is the
    larger Hermitian norm of the closest eigenvalue pair; its growth along
    the path is the standard signature of an approach to an exceptional
    point.
    ``params`` is one of the path's points. ``outcome`` is ``"ep"`` (then
    ``success`` is true), ``"degenerate"`` for a coalescence that is not
    defective, or ``"not_found"``.
    """

    params: tuple
    z_star: complex
    separation: float
    angle: float
    path: tuple
    outcome: str

    @property
    def success(self):
        return self.outcome == "ep"


def assemble_heff(model: CavityModel, energy) -> np.ndarray:
    """Effective Hamiltonian H_B + sum_C w_C^2 g_C(E) at a real energy."""
    return _with_self_energies(model.h_b, model.contact_indices,
                               model.self_energy_weights(energy))


def _with_self_energies(h_b, contacts, sigma):
    """A complex copy of H_B with sigma_C added at each contact c_C."""
    h = h_b.astype(complex)
    # One at a time: both leads may sit on one site.
    for c, s in zip(contacts, sigma):
        h[c, c] += s
    return h


def heff_spectrum(model: CavityModel, energy) -> SpectralSet:
    """Biorthogonal spectrum of H_eff(E) at a real energy.

    The eigenpairs come from the secular equation of H_B plus the rank-2
    self-energy, at O(N^2) cost, and the set keeps each state as its root's
    2-vector x in the eigenbasis of H_B: phi on the sites is formed only
    when ``vectors`` is read. When a check of the secular route fails, the
    set is :func:`biorthogonal_spectrum` of the assembled matrix (``zgeev``),
    sorted and normalized alike.
    """
    e = float(energy)
    states = _secular_eigenvalues(model, e)
    if states is None:
        return biorthogonal_spectrum(assemble_heff(model, e), e)
    return SpectralSet(energy=e, values=states.values, a_norm=states.a_norm,
                       ep_proximity=states.ep_proximity, basis=states)


def _pole_sums(z, p, wsq):
    """1 / (z - p) for a block of z, and G0(z) as (g_LL, g_LR, g_RR)."""
    r = np.subtract.outer(z, p)
    np.divide(1.0, r, out=r)
    return r, r @ wsq


def _aberth(z, newton, scale):
    """All roots of a polynomial P at once by Aberth iteration, or None.

    Aberth, Math. Comp. 27, 339 (1973). Refines the starts ``z`` in place,
    ``_BLOCK`` roots at a time; ``newton(zb)`` gives P/P' at a block of
    iterates. A step that is not finite (a pole, a coincident root) becomes
    a nudge whose direction is set by the root's position. Returns ``z``
    once every step is below ``_ABERTH_TOL * scale``, None after
    ``_ABERTH_MAX_ITER`` sweeps. Run it under ``np.errstate(all="ignore")``.
    """
    active = np.arange(len(z))
    for _ in range(_ABERTH_MAX_ITER):
        if not active.size:
            break
        kept = []
        for i in range(0, active.size, _BLOCK):
            blk = active[i:i + _BLOCK]
            zb = z[blk]
            nt = newton(zb)
            q = np.subtract.outer(zb, z)
            q[np.arange(len(blk)), blk] = np.inf
            repel = np.divide(1.0, q, out=q).sum(axis=1)
            step = nt / (1.0 - nt * repel)
            bad = ~np.isfinite(step)
            step[bad] = _NUDGE * scale * np.exp(2.4j * blk[bad])
            z[blk] = zb - step
            kept.append(blk[bad | (np.abs(step) > _ABERTH_TOL * scale)])
        active = np.concatenate(kept)
    return None if active.size else z


def _secular_eigenvalues(model, energy):
    """Eigenpairs of H_eff(E) from the roots of its secular equation, or None.

    In the eigenbasis of H_B = U diag(e) U^T, H_eff is diag(e) + W S W^T,
    with W = U_c^T the N x 2 contact rows and S = diag(sigma_L, sigma_R).
    After deflation (Bunch, Nielsen & Sorensen, Numer. Math. 31, 31 (1978))
    the combinations whose first-order residual is within the backward-error
    bound keep their e_k, and the other eigenvalues are the zeros of the
    monic polynomial

        P(z) = prod_k (z - p_k) f(z),   f = det(I - S G0(z)),
        G0(z) = sum_k w_k w_k^T / (z - p_k),

    over the poles p_k that keep weight. :func:`_aberth` finds all of them
    at once. It starts from first-order perturbation theory in S, or past
    the trapping threshold from the trapped and superradiant levels of
    :func:`_trapping_starts`. Every root must then pass a backward-error
    check, ||(diag p + W S W^T - z) y|| / ||y|| <= 1e-12 max(1, max
    |lambda|) with y its eigenvector (max |lambda| is at most
    ||H_eff||_2), and all N must sum to the trace of H_eff less the
    deflated levels' first-order shifts. The trace alone proves nothing:
    the first-order starts already sum to it exactly, so iterates that
    never moved would pass. Returns None when a check fails.

    Otherwise it returns the states as a :class:`_SecularStates`, with the
    eigenvalues sorted like :func:`~opencavity.linalg.eig_general`: each
    bright root's x as step 4 forms it, over the rotated contact rows of
    the poles that keep weight, with the sums the closed forms read; the
    bright/dark split; and the cluster rotations. A deflated combination is
    its own eigenvector, a column of U rotated within its cluster. No N x N
    array is formed.
    """
    e_k, u = model.closed_modes
    sigma = model.self_energy_weights(energy)
    w_all = u[model.contact_indices, :].T
    scale = max(1.0, float(np.abs(e_k).max() + np.abs(sigma).sum()))
    # A combination of contact weights w has the first-order residual
    # ||S w|| <= sqrt(max |sigma| w^T |S| w). Within the backward-error
    # bound it is deflated (Dongarra & Sorensen, SIAM J. Sci. Stat.
    # Comput. 8, s139 (1987)): its unit vector is then an eigenvector.
    s_max, floor = np.abs(sigma).max(), (_BACKWARD_TOL * scale) ** 2

    # 1. Deflation and first-order starts in stacked LAPACK calls, over
    # the clusters of one size m, then of one bright count b <= 2: one SVD
    # per size, one eigvals per size and b. The first b combinations of
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
        b_of = np.count_nonzero(s_max * s * s > floor, axis=1)
        dark = np.arange(m) >= b_of[:, None]
        rotations.append((c, vt, dark))
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
                # A double shift (sigma_L = sigma_R on a symmetric pair).
                _separate_twins(shifts)
            lit[rows] = True
            z0[rows] = e_k[rows] + shifts
            w_rot[rows] = w
    # The Aberth sums and blocks run over the clusters' bright members in
    # index order, then over the single levels that keep weight.
    k = np.flatnonzero(~clustered)
    k_lit = s_max * ((w_all[k] ** 2) @ np.abs(sigma)) > floor
    z0[k[k_lit]] = e_k[k[k_lit]] + w_all[k[k_lit]] ** 2 @ sigma
    bright = np.concatenate([np.flatnonzero(lit), k[k_lit]])
    dark = np.concatenate([np.flatnonzero(clustered & ~lit), k[~k_lit]])
    p, w = e_k[bright], w_rot[bright]
    # 2. Past the trapping threshold, the trapping starts instead.
    z = _trapping_starts(model, sigma, e_k[dark], len(bright), scale)
    if z is None:
        z = z0[bright]
    # The trace of H_eff less the first-order shifts of the deflated levels.
    trace = e_k.sum() + np.sum(w ** 2 @ sigma)

    # 3. Aberth iteration on P(z); P'/P is f'/f + sum_k 1/(z - p_k), and
    # G0' = -sum_k w_k w_k^T / (z - p_k)^2.
    wsq = np.stack([w[:, 0] ** 2, w[:, 0] * w[:, 1], w[:, 1] ** 2], axis=1)
    s_l, s_r = sigma

    def secular(g, dg):
        """f = det(I - S G0) and minus its derivative along dG0 (as g, dg)."""
        a = 1.0 - s_l * g[:, 0]
        d = 1.0 - s_r * g[:, 2]
        f = a * d - s_l * s_r * g[:, 1] ** 2
        return f, (s_l * dg[:, 0] * d + s_r * dg[:, 2] * a
                   + 2.0 * s_l * s_r * g[:, 1] * dg[:, 1])

    def newton(zb):
        r, g = _pole_sums(zb, p, wsq)
        r_sum = r.sum(axis=1)
        f, df = secular(g, np.multiply(r, r, out=r) @ wsq)
        return f / (f * r_sum + df)

    with np.errstate(all="ignore"):
        if _aberth(z, newton, scale) is None:
            return None

        roots = np.concatenate([z, e_k[dark]])
        # Relative to max |lambda| <= ||H_eff||_2, not to ``scale``, an
        # upper bound of the norm: an accepted pair is then backward stable
        # relative to the matrix itself.
        backward_tol = _BACKWARD_TOL * max(1.0, float(np.abs(roots).max()))
        nb = len(z)
        xs, vs = np.empty((2, nb, 2), complex)
        y_norms, gammas = np.empty((2, nb))
        betas, near_r = np.empty((2, nb), complex)
        nears = np.empty(nb, dtype=int)
        # 4. Backward error: x spans the null space of M = I - S G0(z),
        # and y = r (W x) is the eigenvector of root z, r = 1 / (z - p).
        for i in range(0, nb, _BLOCK):
            blk = slice(i, i + _BLOCK)
            d = np.subtract.outer(z[blk], p)
            r, near = 1.0 / d, np.full(len(d), -1)
            while True:
                g = r @ wsq
                m00, m01 = 1.0 - s_l * g[:, 0], -s_l * g[:, 1]
                m10, m11 = -s_r * g[:, 1], 1.0 - s_r * g[:, 2]
                top = np.abs(m00) + np.abs(m01) >= np.abs(m10) + np.abs(m11)
                x = np.where(top, [-m01, m00], [m11, -m10]).T
                x[~x.any(axis=1)] = (1.0, 0.0)
                y = r * (x @ w.T)
                res = (y @ w * sigma) @ w.T - y * d
                y_norm = np.linalg.norm(y, axis=1)
                b = np.flatnonzero(~(np.linalg.norm(res, axis=1) / y_norm
                                     <= backward_tol))
                if not b.size:
                    break
                if (near >= 0).any():
                    return None
                # A root nearer a pole p_j than the rounding of z loses
                # z - p_j. With G0 = R + q / (z - p_j), f is linear in
                # 1 / (z - p_j) and vanishes at f / df of R along q; the
                # check runs again with r there, while the residual keeps
                # the float z - p_j.
                near[b] = np.abs(d[b]).argmin(axis=1)
                r[b, near[b]] = 0.0
                f, df = secular(r[b] @ wsq, wsq[near[b]])
                r[b, near[b]] = f / df
            # sum_k |w_k|^2 / |z - p_k|, which bounds the rounding of G0;
            # inf with a near pole, whose offset z lacks.
            gammas[blk] = np.abs(r) @ (wsq[:, 0] + wsq[:, 2])
            gammas[blk][near >= 0] = np.inf
            xs[blk], y_norms[blk] = x, y_norm
            vs[blk] = g[:, :2] * x[:, :1] + g[:, 1:] * x[:, 1:]
            betas[blk] = np.einsum("ij,ij->i", y, y)
            nears[blk], near_r[blk] = near, r[np.arange(len(r)), near]
    if not abs(roots.sum() - trace) <= _TRACE_TOL * scale * len(roots):
        return None
    order = np.lexsort((roots.imag, roots.real))
    pos = np.empty_like(order)
    pos[order] = np.arange(len(roots))
    lit = order[order < nb]
    return _SecularStates(
        values=roots[order], u=u, contacts_at=tuple(model.contact_indices),
        rotations=rotations, bright=bright, dark=dark, p=p, w=w, z=z[lit],
        x=xs[lit], v=vs[lit], y_norm=y_norms[lit], beta=betas[lit],
        gamma=gammas[lit], near=nears[lit], near_r=near_r[lit],
        w_dark=w_rot[dark], bright_pos=pos[lit], dark_pos=pos[nb:])


def _separate_twins(pairs):
    """Split in place each row of an (n, 2) array whose two values coincide.

    Coincident starts are never separated by Aberth iteration, so a pair
    within ``_COINCIDENT`` of each other, relative to the first, becomes the
    first times 1 +- 0.1i.
    """
    # hypot rounds like the scalar abs(complex).
    d = pairs[:, 0] - pairs[:, 1]
    twin = (np.hypot(d.real, d.imag)
            <= _COINCIDENT * np.hypot(pairs[:, 0].real, pairs[:, 0].imag))
    pairs[twin] = pairs[twin, :1] * np.array([1.0 + 0.1j, 1.0 - 0.1j])


def _trapping_starts(model, sigma, dark_levels, nb, scale):
    """Strong-coupling Aberth starts of the ``nb`` bright roots, or None.

    Past the trapping threshold (Sokolov & Zelevinsky, Nucl. Phys. A 504,
    562 (1989)) the n_c open contact sites c take the width: n_c
    superradiant roots lie near the eigenvalues of the contact block
    K = H_B[c, c] + Sigma, and the others are trapped near the levels of
    H_B with the contacts removed, whose first-order shifts in 1 / Sigma,
    -u^T H_B[int, c] K^-1 H_B[c, int] u, sum to -tr(K^-1 M) with
    M = H_B[c, int] H_B[int, c]. Every trapped start takes their mean,
    which moves it off the real axis and off any pole there; the starts
    of a run of tied levels (:func:`_degenerate_runs`) are spread by
    multiples of 0.1i times it, and coincident superradiant starts are
    split by :func:`_separate_twins`. The starts are taken when every open
    channel has |sigma_C| > ||H_B[c_C, int]||_2, the hopping of its
    contact to the sites kept; else None.

    A deflated (dark) level is an exact eigenvalue of the block without
    the contacts, so each drops one trapped level of its run of tied
    values. The trapped levels (``eigvalsh``, once per geometry and set of
    contacts) are computed only once the rule holds. None also when the
    starts do not number ``nb``.
    """
    open_ = np.flatnonzero(sigma != 0.0)
    if not open_.size:
        return None
    contacts = model.contact_indices[open_]
    hop = model.h_b[contacts]
    hop[:, contacts] = 0.0
    if not (np.abs(sigma[open_])
            > np.sqrt(np.einsum("ij,ij->i", hop, hop))).all():
        return None
    sites, rows, at = np.unique(contacts, return_index=True,
                                return_inverse=True)
    m = hop[rows] @ hop[rows].T
    k = _with_self_energies(model.h_b[np.ix_(sites, sites)], at,
                            sigma[open_])
    levels = model._interior_levels(sites)
    merged = np.concatenate([levels, dark_levels])
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    dark = order >= len(levels)
    drop = dark.copy()
    for first, size in zip(*_degenerate_runs(merged, scale)):
        run = np.arange(first, first + size)
        drop[run[~dark[run]][:np.count_nonzero(dark[run])]] = True
    trapped = merged[~drop]
    if len(trapped) + len(sites) != nb:
        return None
    try:
        shift = -np.trace(np.linalg.solve(k, m)) / max(len(trapped), 1)
    except np.linalg.LinAlgError:
        return None
    spread = np.zeros(len(trapped))
    for first, size in zip(*_degenerate_runs(trapped, scale)):
        spread[first:first + size] = np.arange(size) - 0.5 * (size - 1)
    radiant = np.linalg.eigvals(k)
    if len(radiant) == 2:
        _separate_twins(radiant[None])
    return np.concatenate([trapped + shift * (1.0 + 0.1j * spread), radiant])


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


def _degenerate_sets(values, scale):
    """Members, ascending, of every exactly degenerate set of sorted values.

    Values sort by real part, so a degenerate set lies inside one run of
    real parts (:func:`_degenerate_runs`), though other values of the run
    may sort between its members. Two values within 1e-12 * max(scale, 1)
    of each other are tied, ties chain, and a value tied to none forms no
    set.
    """
    tol = 1e-12 * max(scale, 1.0)
    sets = []
    for first, size in zip(*_degenerate_runs(values.real, scale)):
        run = values[first:first + size]
        d = np.subtract.outer(run, run)
        # Each member is labelled by the first member of its set.
        label = np.arange(size)
        for i, j in zip(*np.nonzero(np.triu(np.hypot(d.real, d.imag) <= tol,
                                            1))):
            lo, hi = sorted((label[i], label[j]))
            label[label == hi] = lo
        sets += [first + np.flatnonzero(label == k)
                 for k in np.flatnonzero(np.bincount(label) > 1)]
    return sets


def biorthogonal_spectrum(heff, energy) -> SpectralSet:
    """Diagonalize a complex symmetric H_eff and normalize biorthogonally.

    Eigenvectors of distinct eigenvalues of a complex symmetric matrix are
    bilinearly orthogonal on their own, so the unit columns v are
    normalized by their bilinear norms v^T v alone, phi = v / sqrt(v^T v)
    with A = phi^dag phi = 1/|v^T v| and r = 1/A, and take the canonical
    sign. Exactly degenerate clusters (possible under lattice symmetries)
    are orthogonalized bilinearly within the cluster, but only when every
    member is comfortably non-defective; a coalescing pair at an
    exceptional point is left untouched and flagged through its norms
    instead. The rule is the secular route's (:func:`_biorthonormalize`).

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
    return _biorthogonal_set(*eig_general(h), energy)


def _biorthonormalize(values, at, beta, y_norm, rows):
    """The biorthogonal normalization of eigenvectors y, for both routes.

    ``values`` are all N sorted eigenvalues, and the states given are at
    positions ``at`` of them, with bilinear norms ``beta`` (y^T y),
    Hermitian norms ``y_norm`` (||y||) and ``rows(i)``, the y of given
    states ``i`` as rows over a real orthonormal basis. Any other state is
    a real unit vector.

    A given state's |v^T v| of its unit vector, ``prox``, is
    |beta| / ||y||^2 (1 for the others); below ``DEFECTIVE_TOL`` the state
    is defective. State i is phi_i = y_i / s_i, s = ``scale``, with
    s_i = sqrt(beta_i), so phi^T phi = 1, or s_i = ||y_i|| when defective.
    Inside an exactly degenerate set whose members all have prox above
    ``_GRAM_SCHMIDT_PROX``, the given states instead become phi_run @ t,
    the bilinear Gram-Schmidt of their Gram matrix in ascending order, and
    ``runs`` holds each (run, t); a member that collapses leaves the whole
    run as it is. ``herm`` is phi^dag phi of the given states, and
    ``a_norm`` that of all N, clamped to >= 1 against rounding and inf
    when defective.

    Returns (prox, scale, herm, runs, a_norm).
    """
    n = len(values)
    prox = np.ones(n)
    # hypot rounds like the scalar abs(complex); see _closest_pair.
    prox[at] = np.hypot(beta.real, beta.imag) / y_norm ** 2
    defective = prox < DEFECTIVE_TOL
    scale = np.where(defective[at], y_norm, np.sqrt(beta))
    herm = (y_norm / np.abs(scale)) ** 2
    runs = []
    row = np.full(n, -1)
    row[at] = np.arange(len(at))
    for members in _degenerate_sets(values, float(np.abs(values).max())):
        run = row[members]
        run = run[run >= 0]
        if len(run) < 2 or not (prox[members] > _GRAM_SCHMIDT_PROX).all():
            continue
        phi = rows(run) / scale[run, None]
        gram = phi @ phi.T
        done = []
        for t in np.eye(len(run), dtype=complex):
            for q in done:
                t = t - (q @ gram @ t) * q
            tt = complex(t @ gram @ t)
            if abs(tt) <= DEFECTIVE_TOL:
                break
            done.append(t / np.sqrt(tt))
        else:
            t = np.column_stack(done)
            runs.append((run, t))
            herm[run] = np.einsum("ba,bc,ca->a", t.conj(),
                                  phi.conj() @ phi.T, t).real
    a_norm = np.ones(n)
    a_norm[at] = np.maximum(herm, 1.0)
    a_norm[defective] = math.inf
    return prox, scale, herm, runs, a_norm


def _biorthogonal_set(values, raw, energy):
    """SpectralSet of sorted eigenvalues, normalizing ``raw`` in place.

    The solver's columns are unit vectors, and the normalization reads
    them before they are divided in place.
    """
    n = len(values)
    prox, scale, _, runs, a_norm = _biorthonormalize(
        values, np.arange(n), np.einsum("ij,ij->j", raw, raw), np.ones(n),
        lambda i: raw[:, i].T)
    phis = np.divide(raw, scale, out=raw)
    for run, t in runs:
        phis[:, run] = phis[:, run] @ t
    _canonical_sign(phis)
    # C order, so every product over it rounds as over a column stack of
    # the states' phi.
    return SpectralSet(energy=float(energy), values=values, a_norm=a_norm,
                       ep_proximity=prox,
                       basis=_DenseStates(np.ascontiguousarray(phis)))


def _dense_overlaps(phi, other):
    """|u_i^dag u'_k| of the columns of two phi, each scaled to unit norm."""
    q = np.conjugate(phi / np.linalg.norm(phi, axis=0))
    return np.abs(q.T @ (other / np.linalg.norm(other, axis=0)))


class _DenseStates:
    """The ``zgeev`` route's states: phi on the sites, one per column.

    Every quantity of a :class:`SpectralSet` is a dense product over phi.
    """

    def __init__(self, vectors):
        vectors.flags.writeable = False
        self.vectors = vectors

    def overlaps(self, other):
        return _dense_overlaps(self.vectors, other.vectors)

    def contacts(self, model):
        """phi_lam[c_C] of the states, one row per channel."""
        return self.vectors[model.contact_indices]

    def expansion_rigidity(self, c):
        """Rigidity of sum c_lam phi_lam and the residual of phi^dag phi."""
        phis = self.vectors
        mod, theta = rho_direct(phis @ c)
        overlap_b = np.conj(phis.T) @ phis
        np.fill_diagonal(overlap_b, 0.0)
        return (complex(mod * np.exp(-2j * theta)),
                b_antisymmetry_residual(overlap_b))


@dataclass(eq=False)
class _SecularStates:
    """The secular route's states, in the cluster-rotated eigenbasis of H_B.

    The bright roots ``z`` are in sorted order, at ``bright_pos`` of
    ``values``. Root i has the eigenvector y_i = (z_i - p)^-1 (W x_i) over
    the poles p that keep contact weight, W (``w``) holding their rotated
    contact rows. x_i is the null vector of I - S G0(z_i) as the
    backward-error check forms it, v_i = G0(z_i) x_i are the contact
    amplitudes of y_i, and the check also leaves ||y_i|| (``y_norm``),
    y_i^T y_i (``beta``) and sum_k |w_k|^2 / |z_i - p_k| (``gamma``). A
    dark state is a real unit vector of the rotated basis, with contact
    amplitudes ``w_dark``, at ``dark_pos``; ``rotations`` holds, per
    cluster size, the clusters' level indices, rotations and dark members.
    A root nearer a pole p_j than the rounding of z keeps the check's
    1 / (z_i - p_j) apart: j is ``near[i]`` (else -1), the value
    ``near_r[i]``, and its ``gamma`` is inf.

    The bright states are normalized by :func:`_biorthonormalize`, the
    rule the ``zgeev`` route shares: state i is phi_i = y_i / s_i
    (``scale``), except in the bilinearly Gram-Schmidt-orthogonalized
    ``runs`` of exactly degenerate roots (ascending bright indices, which
    other roots may sort between), and ``herm`` holds phi_i^dag phi_i.

    The basis is real orthogonal, so every product of two states is that
    of their coefficient vectors, and partial fractions reduce the
    Hermitian product of two bright roots, of this set and of another of
    the same H_B and contacts, to O(1) (Gu & Eisenstat, SIAM J. Matrix Anal.
    Appl. 15, 1266 (1994)):

        y_i^dag y'_k = (conj(v_i) . x'_k - conj(x_i) . v'_k)
                       / (z'_k - conj(z_i)).

    Its rounding is about eps (gamma_i + gamma'_k) |x_i| |x'_k| over the
    denominator. Where that exceeds ``_CLOSED_FORM_TOL`` ||y_i|| ||y'_k||,
    as for two nearly real roots close together, the product is summed
    over the poles instead; the SVD orders equal singular values freely,
    so that sum first maps the other set's bright cluster rows onto this
    set's. phi on the sites, ``vectors``, is formed only on request, by
    :func:`_site_columns`.
    """

    values: np.ndarray
    u: np.ndarray
    contacts_at: tuple
    rotations: list
    bright: np.ndarray
    dark: np.ndarray
    p: np.ndarray
    w: np.ndarray
    z: np.ndarray
    x: np.ndarray
    v: np.ndarray
    y_norm: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    near: np.ndarray
    near_r: np.ndarray
    w_dark: np.ndarray
    bright_pos: np.ndarray
    dark_pos: np.ndarray

    def __post_init__(self):
        (self.ep_proximity, self.scale, self.herm, self.runs,
         self.a_norm) = _biorthonormalize(self.values, self.bright_pos,
                                          self.beta, self.y_norm, self.rows)
        edges = set(range(0, len(self.z), _BLOCK)) | {len(self.z)}
        for run, _ in self.runs:
            edges -= set(range(run[0] + 1, run[-1] + 1))
        edges = sorted(edges)
        # Blocks of bright roots that keep every run whole.
        self.blocks = [slice(a, b) for a, b in zip(edges, edges[1:])]

    @cached_property
    def vectors(self):
        phis = _site_columns(self)
        for run, t in self.runs:
            phis[:, self.bright_pos[run]] = phis[:, self.bright_pos[run]] @ t
        _canonical_sign(phis).flags.writeable = False
        return phis

    def rows(self, i):
        """y_i of the bright roots ``i``, one row each, over the poles."""
        y = 1.0 / np.subtract.outer(self.z[i], self.p)
        row = np.flatnonzero(self.near[i] >= 0)
        y[row, self.near[i][row]] = self.near_r[i][row]
        y *= self.x[i] @ self.w.T
        return y

    def _products(self, other, align=()):
        """phi_i^dag phi'_k of the bright states, as (slice of i, block).

        ``align`` maps the rotated rows of ``other``'s clusters onto this
        set's, for the products summed over the poles: (bright indices,
        rotations) per cluster size and bright count.
        """
        left = np.concatenate([self.v.conj(), -self.x.conj()], axis=1)
        right = np.concatenate([other.x, other.v], axis=1).T
        eps = np.finfo(float).eps
        b1 = np.linalg.norm(self.x, axis=1) / self.y_norm
        b2 = np.linalg.norm(other.x, axis=1) / other.y_norm
        a1, a2 = eps * self.gamma * b1, eps * other.gamma * b2
        inv = 1.0 / other.scale
        for blk in self.blocks:
            i = blk.start
            den = other.z - self.z[blk, None].conj()
            direct = (np.multiply.outer(a1[blk], b2)
                      + np.multiply.outer(b1[blk], a2)
                      > _CLOSED_FORM_TOL * np.abs(den))
            with np.errstate(divide="ignore", invalid="ignore"):
                prod = (left[blk] @ right) / den
            if other is self:
                r = np.arange(len(prod))
                prod[r, r + i] = self.y_norm[blk] ** 2
                direct[r, r + i] = False
            rr, kk = np.nonzero(direct)
            for j in range(0, len(rr), _BLOCK):
                r, k = rr[j:j + _BLOCK], kk[j:j + _BLOCK]
                y = other.rows(k)
                for at, m in align:
                    y[:, at] = np.einsum("pkb,kcb->pkc", y[:, at], m)
                prod[r, k] = np.einsum("ij,ij->i", self.rows(r + i).conj(), y)
            prod *= np.multiply.outer(1.0 / self.scale[blk].conj(), inv)
            for run, t in other.runs:
                prod[:, run] = prod[:, run] @ t
            for run, t in self.runs:
                if blk.start <= run[0] < blk.stop:
                    prod[run - i] = t.conj().T @ prod[run - i]
            yield blk, prod

    def overlaps(self, other):
        """|u_i^dag u'_k| of the unit states, by the closed form.

        Unless ``other`` is a secular basis of the same H_B and contacts
        with the same bright/dark split, the dense product of both phi.
        """
        if not (isinstance(other, _SecularStates)
                and other.contacts_at == self.contacts_at
                and (other.u is self.u or np.array_equal(other.u, self.u))
                and np.array_equal(other.bright, self.bright)
                and np.array_equal(other.dark, self.dark)):
            return _dense_overlaps(self.vectors, other.vectors)
        n = len(self.values)
        ov = np.zeros((n, n))
        # Two dark members of one cluster overlap by the product of their
        # rotation rows; a dark level outside a cluster is its own state.
        # The bright rows of a cluster span the same space in both sets,
        # but in a basis of their own: the SVD orders equal singular values
        # freely.
        at, at_other = np.empty(n, dtype=int), np.empty(n, dtype=int)
        at[self.dark], at_other[other.dark] = self.dark_pos, other.dark_pos
        row = np.empty(n, dtype=int)
        row[self.bright] = np.arange(len(self.bright))
        single = np.ones(n, dtype=bool)
        align = []
        for (c, vt, dark), (_, vt_other, _) in zip(self.rotations,
                                                   other.rotations):
            single[c] = False
            g = vt @ np.swapaxes(vt_other, 1, 2)
            q, a, b = np.nonzero(dark[:, :, None] & dark[:, None, :])
            ov[at[c[q, a]], at_other[c[q, b]]] = np.abs(g[q, a, b])
            for b in (1, 2):
                lit = np.count_nonzero(~dark, axis=1) == b
                if lit.any():
                    align.append((row[c[lit, :b]], g[lit, :b, :b]))
        k = self.dark[single[self.dark]]
        ov[at[k], at_other[k]] = 1.0
        for blk, prod in self._products(other, align):
            ov[np.ix_(self.bright_pos[blk], other.bright_pos)] = (
                np.abs(prod) / np.sqrt(np.multiply.outer(self.herm[blk],
                                                         other.herm)))
        return ov

    def contacts(self, model):
        """phi_lam[c_C] in this basis's own signs, one row per channel."""
        amp = self.v / self.scale[:, None]
        for run, t in self.runs:
            amp[run] = t.T @ amp[run]
        out = np.empty((2, len(self.values)), dtype=complex)
        out[:, self.bright_pos] = amp.T
        out[:, self.dark_pos] = self.w_dark.T
        return out

    def expansion_rigidity(self, c):
        """Rigidity of sum c_lam phi_lam and the residual of B, in O(N^2).

        ``c`` shares this basis's signs. The states are bilinearly
        orthonormal, so psi^T psi = sum c^2; psi^dag psi and the B of the
        bright states come from the closed form, and a dark state is
        orthogonal to every other state.
        """
        cb = c[self.bright_pos]
        hermitian = float(np.sum(np.abs(c[self.dark_pos]) ** 2))
        residual = 0.0
        for blk, b in self._products(self):
            hermitian += float((cb[blk].conj() @ (b @ cb)).real)
            r = np.arange(len(b))
            b[r, r + blk.start] = 0.0
            # B is Hermitian: |B_ij + B_ji| = 2 |Re B_ij|.
            residual = max(residual, float(
                (2.0 * np.abs(b.real) / (1.0 + np.abs(b))).max()))
        return complex(np.sum(c * c) / hermitian), residual


def _site_columns(states):
    """The secular states y_i / s_i on the sites, an N x N matrix.

    Its degenerate runs are not yet orthogonalized. First the coefficients
    in the cluster-rotated eigenbasis of H_B, one column per state in
    sorted position; a dark state's is a unit vector. Each size's clusters
    then rotate back in one stacked product, and one real matrix product
    with U maps the columns to the sites.
    """
    n = len(states.values)
    phi = np.zeros((n, n), dtype=complex)
    phi[states.dark, states.dark_pos] = 1.0
    for i in range(0, len(states.z), _BLOCK):
        blk = slice(i, i + _BLOCK)
        phi[np.ix_(states.bright, states.bright_pos[blk])] = (
            states.rows(blk).T / states.scale[blk])
    # Chunks of about 2 * _BLOCK rows keep the gathered rows small beside
    # phi.
    for c, vt, _ in states.rotations:
        step = -(-2 * _BLOCK // c.shape[1])
        for i in range(0, len(c), step):
            rows = c[i:i + step]
            phi[rows] = np.swapaxes(vt[i:i + step], 1, 2) @ phi[rows]
    # phi = u @ phi in place, by column blocks, as a real product: a
    # C-ordered complex matrix viewed as float interleaves the real and
    # imaginary part of every column.
    flat = phi.view(float)
    for i in range(0, flat.shape[1], 2 * _BLOCK):
        flat[:, i:i + 2 * _BLOCK] = states.u @ flat[:, i:i + 2 * _BLOCK]
    return phi


def _pole_distances(spectral, energy):
    """E - z_lam of each state, once the expansion is known to exist.

    Raises DefectiveSpectrum when some state is defective, else PoleOnAxis
    when E lies within POLE_TOL of an eigenvalue.
    """
    if not np.isfinite(spectral.a_norm).all():
        raise DefectiveSpectrum(
            "spectrum contains a defective state; the resonance "
            "expansion does not exist there"
        )
    d = energy - spectral.values
    on_pole = np.flatnonzero(np.hypot(d.real, d.imag) < POLE_TOL)
    if on_pole.size:
        z = complex(spectral.values[on_pole[0]])
        raise PoleOnAxis(
            f"evaluation energy {energy!r} sits on the pole z = {z!r}"
        )
    return d


def _expansion_coefficients(spectral, model, incoming, contacts):
    """c_lam = phi_lam[c_in] / (E - z_lam), normalized to sum |c|^2 = 1.

    ``contacts`` holds the states' phi_lam[c_C], one row per channel, in
    the signs the coefficients are to share; row ``incoming`` (0 for L, 1
    for R, anything else a ValueError) is c_in's. The channel amplitude
    a_in >= 0 is a common scale that the normalization cancels, so it is
    left out: the expansion is that of G(E) e_c_in, which exists on a
    detached lead (a_in = 0) too. The coefficients never all vanish, since
    sum_lam phi_lam[c_in]^2 = 1. Raises as
    :func:`~opencavity.scattering.coefficients_c`.
    """
    if not (isinstance(incoming, (int, np.integer)) and 0 <= incoming <= 1):
        raise ValueError(f"incoming must be 0 (lead L) or 1 (lead R), "
                         f"got {incoming!r}")
    e = spectral.energy
    d = _pole_distances(spectral, e)
    if math.isnan(model.channel_amplitudes([e])[0, incoming]):
        raise OutsideBand(f"energy {e} outside the incoming channel's band")
    c = contacts[incoming] / d
    return c / math.sqrt(float(np.sum(np.abs(c) ** 2)))


def fixed_point_poles(model: CavityModel):
    """Locate the resonance poles by fixed-point iteration in the energy.

    Each pole solves E = Re z_k(E) for its own eigenvalue branch of
    H_eff(E); the width there is Gamma = -2 Im z_k(E). Iterations start from
    the closed-cavity eigenvalues, follow the branch by eigenvector overlap,
    and apply damped updates E <- (1 - d) E + d Re z, d = 1/2. A run that
    fails to settle within 200 steps is returned with ``converged=False``
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
        for it in range(1, _POLE_MAX_ITER + 1):
            values, vectors = eig_general(assemble_heff(model, e))
            j = int(np.argmax(np.abs(np.conj(prev) @ vectors)))
            z = complex(values[j])
            prev = vectors[:, j]
            e_next = (1.0 - _POLE_DAMPING) * e + _POLE_DAMPING * z.real
            if abs(e_next - e) < _POLE_TOL:
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


def _ambiguous_matches(ov, row_of, gap_tol):
    """Matches whose overlap beats the runner-up in its row by < ``gap_tol``.

    ``row_of[j]`` is the row of ``ov`` matched to column j, a permutation.
    The runner-up is the row's maximum once its winning entry is masked,
    so every winning entry of ``ov`` is overwritten with -inf: one entry
    per row, with no copy of the matrix.
    """
    cols = np.arange(len(row_of))
    won = ov[row_of, cols]
    ov[row_of, cols] = -np.inf
    return won - ov.max(axis=1)[row_of] < gap_tol


def _track_steps(spectra):
    """Label a stream of SpectralSets by best-overlap matching, one at a time.

    Greedy matching between consecutive spectra on the overlap matrix
    |P_prev^dag P_next| of :meth:`SpectralSet.overlaps`, P holding the
    states as unit columns: the largest entry pairs first, and so on, with
    near-ties broken by eigenvalue proximity (see :func:`_greedy_match`). A
    match whose winning overlap exceeds the runner-up in its row of the
    full matrix by less than ``_GAP_TOL`` is flagged ambiguous.

    Yields ``(labeled, row_of)`` per spectrum: the spectrum with its
    ``track_id`` and ``ambiguous`` set, and the position in the previous
    spectrum matched to each state, None for the first. Between steps only
    the previous spectrum and the composed track ids are kept, so on the
    secular route no N x N complex array is formed at all.
    """
    spectra = iter(spectra)
    prev = next(spectra, None)
    if prev is None:
        return
    n = len(prev)
    track_id = np.arange(n)
    yield replace(prev, track_id=track_id,
                  ambiguous=np.zeros(n, dtype=bool)), None
    for current in spectra:
        if len(current) != n:
            raise InvalidMatrix("spectra in a sweep must share their dimension")
        ov = prev.overlaps(current)
        row_of = _greedy_match(ov, prev.values.tolist(),
                               current.values.tolist())
        ambiguous = _ambiguous_matches(ov, row_of, _GAP_TOL)
        # Released before the next spectrum is computed.
        del ov
        prev = current
        track_id = track_id[row_of]
        yield replace(current, track_id=track_id, ambiguous=ambiguous), row_of
        del current


def _track_spectra(spectra):
    """Label an ordered sequence of SpectralSets by best-overlap matching.

    The labels and flags of :func:`_track_steps`, plus the sign step: the
    sign of each matched state is re-chosen so Re(phi_prev^T phi_next) >= 0,
    keeping tracked vectors continuous even when the canonical per-spectrum
    sign jumps. The overlaps are taken before the sign step, since a flipped
    column only negates a row of the overlap product, exactly. ``spectra``
    is read one at a time, so :func:`track_sweep` streams it; the sign step
    reads every spectrum's ``vectors``.
    """
    labeled = []
    for current, row_of in _track_steps(spectra):
        if row_of is not None:
            flip = np.einsum("ij,ij->j", labeled[-1].vectors[:, row_of],
                             current.vectors).real < 0.0
            vectors = np.negative(current.vectors, where=flip,
                                  out=current.vectors.copy())
            current = replace(current, basis=_DenseStates(vectors))
        labeled.append(current)
    return tuple(labeled)


def track_sweep(model_family, alphas, energy):
    """Follow the resonance states of a model family along a coupling sweep.

    Takes the biorthogonal spectrum of H_eff at the fixed evaluation energy
    for each coupling value (:func:`heff_spectrum`), then assigns
    continuous ``track_id`` labels by greedy best-overlap matching between
    consecutive spectra (ties broken by eigenvalue proximity; see the
    returned sets' ``ambiguous`` flags for matches that were too close to
    call). The spectra stream through the matching, but every labeled set
    is kept, vectors included: the sign step that keeps matched vectors
    continuous belongs to this function and reads phi, so it forms phi on
    the secular route too. The spectrum study, which reads only widths and
    track ids, takes the same labels from the stream without it, and there
    the secular route forms no phi.

    Parameters
    ----------
    model_family : callable
        Maps a coupling value alpha to a CavityModel of fixed dimension.
    alphas : sequence of float
        Sweep order, typically increasing.
    energy : float
        Real evaluation energy, fixed along the sweep.

    Returns
    -------
    tuple of SpectralSet
        One per alpha, with ``track_id``, ``ambiguous`` and the continuity
        sign set.
    """
    spectra = (heff_spectrum(model_family(a), energy) for a in alphas)
    return _track_spectra(spectra)


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


def _chirality_angle(family, best, p_start):
    """Distance of the coalescing pair from the phi_1 = +-i phi_2 relation.

    Evaluated at the optimum ``best`` (an :class:`_Iterate`, whose
    eigenpairs are reused) when the pair is still separable there,
    otherwise at points backed off toward the search start (along (1, 1)
    from a start at the optimum) until the bilinear norms allow
    normalization.
    """
    away = p_start - best.p if (p_start != best.p).any() else np.ones(2)
    for backoff in (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
        at = _Iterate(family, best.p + backoff * away) if backoff else best
        pair = at.vectors[:, list(at.closest)]
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
    return eig_general(h)[0] if len(h) == 2 else np.linalg.eigvals(h)


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
        self.values, self.vectors = eig_general(self.h)
        if len(self.values) < 2:
            raise InvalidMatrix("family matrices need dimension >= 2")
        self.closest, self.separation = _closest_pair(self.values)

    def row(self):
        """Path entry (p1, p2, separation, a_norm_max)."""
        return (float(self.p[0]), float(self.p[1]), self.separation,
                _pair_a_norm(self.vectors, *self.closest))


def find_exceptional_point(family, start):
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
    than 1e-10 max(1, |p|), when the line search fails, or after 20 steps.

    The reported point is the iterate with the smallest separation of any
    pair, and z* is that pair's mean. Rounding splits a coalesced pair by
    about sqrt(eps) ||H||, so the separation cannot tell a converged search
    from one that stopped short; the mean, accurate to about eps ||H||, can:
    the smallest singular value of H* - z* I has a rounding floor of about
    eps ||H*||. One SVD of H* - z* I therefore decides the outcome:

    * ``"not_found"`` when its smallest singular value exceeds
      1e-12 ||H*||_inf, so no eigenvalue of H* sits at z*;
    * ``"ep"`` (``success``) when it is within that bound and the point
      is defective: the second-smallest singular value exceeds
      1e-6 ||H*||_inf, so the merged eigenvalue has one Jordan block, and
      the chirality angle of the pair, the distance from the relation
      phi_1 = +-i phi_2, is below 1e-2;
    * ``"degenerate"`` otherwise, a coalescence that is not defective
      (such as a symmetry-protected crossing).

    Parameters
    ----------
    family : callable
        Maps a length-2 parameter vector to a square complex matrix of
        fixed dimension >= 2. One-parameter families simply ignore the
        second entry.
    start : sequence of 2 floats

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
    z = it.values
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
            pair = _tracked_pair(trial.values, (m_dp + root, m_dp - root))
            if abs(_pair_moments(pair)[0]) < abs(g):
                break
            dp = 0.5 * dp
        else:
            break
        it, pairs = trial, pair[None]
        path.append(it.row())
        if it.separation < best.separation:
            best = it
        if np.abs(dp).max() <= _EP_STEP_TOL * max(1.0, np.abs(it.p).max()):
            break

    scale = float(np.abs(best.h).sum(axis=1).max())
    i, j = best.closest
    z_star = 0.5 * (best.values[i] + best.values[j])
    angle = float(_chirality_angle(family, best, p_start))
    sigma = np.linalg.svd(best.h - z_star * np.eye(len(best.h)),
                          compute_uv=False)
    if sigma[-1] > _EP_COALESCED * scale:
        outcome = "not_found"
        reason = (f"smallest singular value {sigma[-1]:.3e} of H* - z* I "
                  f"stayed above {_EP_COALESCED * scale:.3e}")
    else:
        defective = sigma[-2] > _EP_RANK * scale and angle < _EP_ANGLE
        outcome = "ep" if defective else "degenerate"
        reason = (f"degenerate, not defective: second-smallest singular "
                  f"value {sigma[-2]:.3e}, chirality angle {angle:.3e}")
    report = EPReport(
        params=tuple(float(x) for x in best.p),
        z_star=complex(z_star),
        separation=best.separation,
        angle=angle,
        path=tuple(path),
        outcome=outcome,
    )
    if not report.success:
        raise ExceptionalPointNotFound(reason, report=report)
    return report.params[0], report.params[1], report.z_star, report
