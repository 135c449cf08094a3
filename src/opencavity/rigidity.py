"""Phase rigidity of interior scattering states.

A wavefunction psi inside the cavity can always be rotated by a global phase
so that its real and imaginary parts are orthogonal; the phase rigidity

    rho = (sum_k psi_k^2) / (sum_k |psi_k|^2)

measures what is left: |rho| = 1 for a standing wave (real up to a global
phase) and |rho| -> 0 for a fully open, traveling state. The rotation angle
theta that maximizes the real content is fixed by the same bilinear sum.

Two routes are provided. ``rho_direct`` evaluates the definition on a given
interior state and is the ground truth. ``rho_spectral`` evaluates the
expansion form sum c_lam^2 A_lam over the resonance decomposition
psi = sum c_lam phi_lam with sum |c|^2 = 1; it folds the biorthogonal norms
into the coefficients instead of the state, so it tracks the direct value in
the isolated regime and deviates once Hermitian cross terms between
overlapping resonances matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NotNormalized, UndefinedValue

__all__ = [
    "RigidityReport",
    "rho_direct",
    "rho_spectral",
    "b_antisymmetry_residual",
    "build_report",
]


@dataclass(frozen=True)
class RigidityReport:
    """Phase-rigidity measures of one solved scattering state.

    ``rho_direct_mod`` and ``rho_direct_theta`` come from the direct
    definition on the interior state; ``rho_spectral`` is the complex
    expansion form; ``b_antisymmetry_residual`` measures how far the real
    parts of distinct states at the same energy are from orthogonal (see
    :func:`b_antisymmetry_residual`); ``per_state_r`` collects (track_id,
    r_lam) pairs with r_lam = 1/A_lam, the state index standing in for
    untracked spectra.
    """

    energy: float
    rho_direct_mod: float
    rho_direct_theta: float
    rho_spectral: complex
    b_antisymmetry_residual: float
    per_state_r: tuple


def rho_direct(psi):
    """Phase rigidity of an interior state by its definition.

    Parameters
    ----------
    psi : array_like
        Complex interior amplitudes; any nonzero overall scale, down to the
        smallest and up to the largest finite magnitudes.

    Returns
    -------
    (float, float)
        |rho| in [0, 1] up to rounding, and the phase angle theta in
        (-pi/2, pi/2] that rotates psi to maximal real content. theta is 0
        when the bilinear sum vanishes, since no rotation is preferred.

    Raises
    ------
    UndefinedValue
        All components are zero.
    """
    v = np.asarray(psi, dtype=complex).ravel()
    with np.errstate(over="ignore"):
        denom = float(np.sum(np.abs(v) ** 2))
    if denom == 0.0 or not math.isfinite(denom):
        # The squares over- or underflowed; rho is scale-free, so divide by
        # the largest modulus when that is a positive finite number.
        scale = np.abs(v).max() if v.size else 0.0
        if 0.0 < scale < math.inf:
            v = v / scale
            denom = float(np.sum(np.abs(v) ** 2))
    if denom == 0.0:
        raise UndefinedValue("phase rigidity of the zero vector")
    s = complex(np.sum(v * v))
    mod = abs(s) / denom
    if s == 0.0:
        return 0.0, 0.0
    theta = -0.5 * float(np.angle(s))
    if theta <= -0.5 * math.pi:
        theta += math.pi
    return mod, theta


def rho_spectral(coeffs, a_norms):
    """Resonance-expansion form of the phase rigidity.

    Parameters
    ----------
    coeffs : array_like
        Expansion coefficients c_lam, normalized to sum |c|^2 = 1.
    a_norms : array_like
        Hermitian norms A_lam of the biorthogonal states.

    Returns
    -------
    complex
        sum(c_lam^2 A_lam). No modulus bound is asserted; far from any
        exceptional point it approaches the direct value.

    Raises
    ------
    NotNormalized
        sum |c|^2 deviates from 1 by more than 1e-8.
    UndefinedValue
        Some A_lam is not finite (defective state in the expansion).
    """
    c = np.asarray(coeffs, dtype=complex).ravel()
    a = np.asarray(a_norms, dtype=float).ravel()
    total = float(np.sum(np.abs(c) ** 2))
    if abs(total - 1.0) > 1e-8:
        raise NotNormalized(f"sum |c|^2 = {total!r}, expected 1")
    if not np.all(np.isfinite(a)):
        raise UndefinedValue("expansion contains a defective state")
    return complex(np.sum(c * c * a))


def b_antisymmetry_residual(overlap_b):
    """Largest symmetric part of the off-diagonal Hermitian overlap matrix.

    Returns the max over pairs of |B_ij + B_ji| / (1 + |B_ij|), with
    B_ij = phi_i^dag phi_j (i != j). Im B is antisymmetric by construction,
    so B + B^T = 2 Re B, and for a biorthogonal set of a complex symmetric
    H_eff (phi_i^T phi_j = 0) Re B_ij = 2 Re phi_i . Re phi_j. The number
    therefore measures how far the real parts of distinct states are from
    orthogonal. It is a property of the states, not a rounding defect, and
    B = -B^T does not hold in general: it is ~1e-16 on the dimer and
    three-site chain of the tests, but 0.26 on their 4x4 square at E = 0.3
    and 0.04-0.06 on their notched 10x5 cavity, whose states are
    bilinearly orthogonal to 2e-14. Inside an exactly degenerate cluster it
    depends on the basis chosen for the cluster.
    """
    b = np.asarray(overlap_b, dtype=complex)
    if b.size == 0 or b.shape[0] < 2:
        return 0.0
    defect = np.abs(b + b.T) / (1.0 + np.abs(b))
    return float(defect.max())


def build_report(spectral_set, coeffs, psi):
    """Bundle the rigidity measures of one solved scattering state.

    Forms the Hermitian cross overlaps B_ij = phi_i^dag phi_j (zeroed
    diagonal) of the spectral set's states for
    :func:`b_antisymmetry_residual`, the non-orthogonality of their real
    parts; flipping the sign of a state flips both B_ij and B_ji, so the
    residual is the same for tracked and untracked spectra.
    """
    mod, theta = rho_direct(psi)
    phis = spectral_set.vectors
    overlap_b = np.conj(phis.T) @ phis
    np.fill_diagonal(overlap_b, 0.0)
    ids = spectral_set.track_id
    ids = range(len(spectral_set)) if ids is None else ids.tolist()
    return RigidityReport(
        energy=spectral_set.energy,
        rho_direct_mod=mod,
        rho_direct_theta=theta,
        rho_spectral=rho_spectral(coeffs, spectral_set.a_norm),
        b_antisymmetry_residual=b_antisymmetry_residual(overlap_b),
        per_state_r=tuple(zip(ids, spectral_set.rigidity_r.tolist())),
    )
