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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ExceptionalPointNotFound, ConvergenceFailure, InvalidMatrix
from .linalg import eig_general, minimize_simplex
from .model import CavityModel

__all__ = [
    "ResonanceState",
    "SpectralSet",
    "PoleResult",
    "EPReport",
    "assemble_heff",
    "biorthogonal_spectrum",
    "fixed_point_poles",
    "track_sweep",
    "find_exceptional_point",
]

# Bilinear norms below this are treated as exactly defective.
DEFECTIVE_TOL = 1e-12


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
        Close to rigidity_r except for defective states, where it keeps the
        raw sub-threshold value.
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
    """All eigenstates of H_eff at one evaluation energy.

    ``states`` holds one :class:`ResonanceState` per eigenvalue, in the
    eigenvalue order of :func:`~opencavity.linalg.eig_general` (ascending
    real part, ties by imaginary part).
    """

    energy: float
    states: tuple

    @property
    def values(self):
        return np.array([s.z for s in self.states])

    def __len__(self):
        return len(self.states)


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

    ``path`` records one (p1, p2, separation, a_norm_max) entry per objective
    evaluation, where a_norm_max is the larger Hermitian norm of the closest
    eigenvalue pair; its growth along the path is the standard signature of
    an approach to an exceptional point.
    """

    params: tuple
    z_star: complex
    separation: float
    angle: float
    path: tuple
    success: bool


def assemble_heff(model: CavityModel, energy) -> np.ndarray:
    """Effective Hamiltonian H_B + sum_C w_C^2 g_C(E) at a real energy."""
    h = model.h_b.astype(complex)
    for ch, sigma in zip(model.channels, model.self_energy_weights(energy)):
        h[ch.index, ch.index] += sigma
    return h


def _canonical_sign(phi):
    k = int(np.argmax(np.abs(phi)))
    c = phi[k]
    if c.real < 0.0 or (c.real == 0.0 and c.imag < 0.0):
        return -phi
    return phi


def _cluster_degenerate(values, scale):
    """Group indices whose eigenvalues agree to within 1e-12 * scale."""
    tol = 1e-12 * max(scale, 1.0)
    clusters = []
    current = [0]
    for i in range(1, len(values)):
        if abs(values[i] - values[current[-1]]) <= tol:
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    clusters.append(current)
    return clusters


def biorthogonal_spectrum(heff, energy) -> SpectralSet:
    """Diagonalize a complex symmetric H_eff and normalize biorthogonally.

    Eigenvectors of distinct eigenvalues of a complex symmetric matrix are
    bilinearly orthogonal on their own. Exactly degenerate clusters (possible
    under lattice symmetries) are orthogonalized bilinearly within the
    cluster, but only when every member is comfortably non-defective; a
    coalescing pair at an exceptional point is left untouched and flagged
    through its norms instead.

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
    n = len(es.values)
    scale = float(np.abs(es.values).max()) if n else 1.0

    raw = [es.vectors[:, i] for i in range(n)]
    bilinear = [complex(v @ v) for v in raw]

    phis = [None] * n
    for cluster in _cluster_degenerate(es.values, scale):
        members = list(cluster)
        if len(members) > 1 and all(abs(bilinear[i]) > 1e-3 for i in members):
            done = []
            for i in members:
                u = raw[i].copy()
                for p in done:
                    u = u - (p @ u) * p
                uu = complex(u @ u)
                if abs(uu) <= DEFECTIVE_TOL:
                    done = None
                    break
                done.append(u / np.sqrt(uu))
            if done is not None:
                for i, p in zip(members, done):
                    phis[i] = _canonical_sign(p)
                continue
        for i in members:
            if abs(bilinear[i]) < DEFECTIVE_TOL:
                phis[i] = _canonical_sign(raw[i])
            else:
                phis[i] = _canonical_sign(raw[i] / np.sqrt(bilinear[i]))

    states = []
    for i in range(n):
        vv = abs(bilinear[i])
        if vv < DEFECTIVE_TOL:
            a_norm = math.inf
            prox = vv
        else:
            # phi^dag phi = 1/|v^T v| analytically; the clamp keeps the
            # stored pair inside a_norm >= 1, r in (0, 1] against rounding.
            a_norm = max(float(np.vdot(phis[i], phis[i]).real), 1.0)
            prox = vv
        states.append(
            ResonanceState(
                z=complex(es.values[i]),
                phi=phis[i],
                a_norm=a_norm,
                rigidity_r=1.0 / a_norm,
                ep_proximity=prox,
            )
        )

    return SpectralSet(energy=float(energy), states=tuple(states))


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


def _track_spectra(spectra, gap_tol=1e-6):
    """Label an ordered sequence of SpectralSets by best-overlap matching.

    Greedy matching between consecutive spectra on the overlap matrix
    |P_prev^dag P_next|, P holding the states as unit columns: the largest
    entry pairs first, and so on, with near-ties broken by eigenvalue
    proximity. A match whose winning overlap exceeds the runner-up in its
    row by less than ``gap_tol`` is flagged ambiguous. The sign of each
    matched state is re-chosen so Re(phi_prev^T phi_next) >= 0, keeping
    tracked vectors continuous even when the canonical per-spectrum sign
    jumps.
    """
    spectra = list(spectra)
    if not spectra:
        return ()
    first = spectra[0]
    labeled = [
        replace(first, states=tuple(
            replace(s, track_id=i) for i, s in enumerate(first.states)
        ))
    ]
    for current in spectra[1:]:
        prev_states = labeled[-1].states
        n = len(prev_states)
        if len(current.states) != n:
            raise InvalidMatrix("spectra in a sweep must share their dimension")
        p_prev = np.column_stack([s.phi for s in prev_states])
        p_next = np.column_stack([s.phi for s in current.states])
        p_prev = p_prev / np.linalg.norm(p_prev, axis=0)
        p_next = p_next / np.linalg.norm(p_next, axis=0)
        ov = np.abs(p_prev.conj().T @ p_next)
        work = ov.copy()
        new_states = list(current.states)
        for _ in range(n):
            m = work.max()
            tied = np.argwhere(work >= m - 1e-12)
            if len(tied) > 1:
                i, j = min(
                    (tuple(t) for t in tied),
                    key=lambda ij: abs(
                        prev_states[ij[0]].z - current.states[ij[1]].z
                    ),
                )
            else:
                i, j = tied[0]
            row = ov[i].copy()
            row[j] = -np.inf
            gap = ov[i, j] - row.max() if n > 1 else np.inf
            s = new_states[j]
            phi = s.phi
            if (prev_states[i].phi @ phi).real < 0.0:
                phi = -phi
            new_states[j] = replace(
                s,
                phi=phi,
                track_id=prev_states[i].track_id,
                ambiguous=bool(gap < gap_tol),
            )
            work[i, :] = -np.inf
            work[:, j] = -np.inf
        labeled.append(replace(current, states=tuple(new_states)))
    return tuple(labeled)


def track_sweep(model_family, alphas, energy, gap_tol=1e-6):
    """Follow the resonance states of a model family along a coupling sweep.

    Assembles and diagonalizes H_eff at the fixed evaluation energy for each
    coupling value, then assigns continuous ``track_id`` labels by greedy
    best-overlap matching between consecutive spectra (ties broken by
    eigenvalue proximity; see the returned states' ``ambiguous`` flag for
    matches that were too close to call).

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
    spectra = [
        biorthogonal_spectrum(assemble_heff(model_family(a), energy), energy)
        for a in alphas
    ]
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
    otherwise at points backed off toward the search start until the
    bilinear norms allow normalization.
    """
    for backoff in (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
        p = p_star + backoff * (p_start - p_star)
        es = eig_general(np.asarray(family(p), dtype=complex))
        (i, j), _ = _closest_pair(es.values)
        pair = []
        usable = True
        for k in (i, j):
            v = es.vectors[:, k]
            vv = complex(v @ v)
            if abs(vv) < 1e-9:
                usable = False
                break
            pair.append(_canonical_sign(v / np.sqrt(vv)))
        if usable:
            p1, p2 = pair
            n1 = np.linalg.norm(p1)
            return min(
                np.linalg.norm(p1 - 1j * p2), np.linalg.norm(p1 + 1j * p2)
            ) / n1
    return math.nan


def find_exceptional_point(family, start, tol=1e-10):
    """Search a two-parameter matrix family for an eigenvalue coalescence.

    Minimizes the smallest pairwise eigenvalue separation with the simplex
    method. The search succeeds when the minimizer terminates on its own and
    the final separation falls below 1e-8 times the infinity norm of the
    matrix at the optimum; the report then also carries the chirality angle
    of the coalescing pair, which vanishes for a true exceptional point but
    not for an ordinary crossing.

    Parameters
    ----------
    family : callable
        Maps a length-2 parameter vector to a square complex matrix of
        fixed dimension >= 2. One-parameter families simply ignore the
        second entry.
    start : sequence of 2 floats
    tol : float
        Simplex termination diameter.

    Returns
    -------
    (float, float, complex, EPReport)
        Optimal parameters, the degenerate eigenvalue, and the full report.

    Raises
    ------
    ExceptionalPointNotFound
        Search hit the iteration cap or terminated above the separation
        threshold; the exception carries the report of the best point found.
    """
    p_start = np.asarray(start, dtype=float)
    if p_start.shape != (2,):
        raise InvalidMatrix("start must hold exactly two parameters")
    path = []

    def objective(p):
        es = eig_general(np.asarray(family(p), dtype=complex))
        if len(es.values) < 2:
            raise InvalidMatrix("family matrices need dimension >= 2")
        (i, j), sep = _closest_pair(es.values)
        path.append(
            (float(p[0]), float(p[1]), sep, _pair_a_norm(es.vectors, i, j))
        )
        return sep

    capped = False
    try:
        p_star, _ = minimize_simplex(objective, p_start, tol=tol)
    except ConvergenceFailure as err:
        p_star = np.asarray(err.best_point, dtype=float)
        capped = True

    h_star = np.asarray(family(p_star), dtype=complex)
    es = eig_general(h_star)
    (i, j), sep_star = _closest_pair(es.values)
    z_star = 0.5 * (es.values[i] + es.values[j])
    threshold = 1e-8 * float(np.abs(h_star).sum(axis=1).max())
    success = (not capped) and sep_star < threshold
    report = EPReport(
        params=tuple(float(x) for x in p_star),
        z_star=complex(z_star),
        separation=sep_star,
        angle=float(_chirality_angle(family, p_star, p_start)),
        path=tuple(path),
        success=success,
    )
    if not success:
        reason = (
            "iteration cap reached"
            if capped
            else f"separation {sep_star:.3e} stayed above threshold {threshold:.3e}"
        )
        raise ExceptionalPointNotFound(reason, report=report)
    return report.params[0], report.params[1], report.z_star, report
