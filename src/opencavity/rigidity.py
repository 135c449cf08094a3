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
    expansion form; ``b_antisymmetry_residual`` is the antisymmetry defect
    of the Hermitian overlap matrix at the same energy; ``per_state_r``
    collects (track_id, r_lam) pairs with r_lam = 1/A_lam, the state index
    standing in for untracked spectra.
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
        Complex interior amplitudes; any nonzero overall scale.

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
    """Antisymmetry defect of the off-diagonal Hermitian overlap matrix.

    For a complex symmetric effective Hamiltonian the matrix
    B_ij = phi_i^dag phi_j (i != j) obeys B = -B^T exactly in the absence of
    rounding; the returned max over pairs of |B_ij + B_ji| / (1 + |B_ij|) is
    a scale-free consistency diagnostic of the computed spectrum.
    """
    b = np.asarray(overlap_b, dtype=complex)
    if b.size == 0 or b.shape[0] < 2:
        return 0.0
    defect = np.abs(b + b.T) / (1.0 + np.abs(b))
    return float(defect.max())


def build_report(spectral_set, coeffs, psi):
    """Bundle the rigidity measures of one solved scattering state.

    Forms the Hermitian cross overlaps B_ij = phi_i^dag phi_j (zeroed
    diagonal) of the spectral set's states for the antisymmetry residual;
    flipping the sign of a state flips both B_ij and B_ji, so the residual
    is the same for tracked and untracked spectra.
    """
    mod, theta = rho_direct(psi)
    phis = spectral_set.vectors
    overlap_b = np.conj(phis.T) @ phis
    np.fill_diagonal(overlap_b, 0.0)
    per_state = tuple(
        (s.track_id if s.track_id is not None else i, s.rigidity_r)
        for i, s in enumerate(spectral_set.states)
    )
    return RigidityReport(
        energy=spectral_set.energy,
        rho_direct_mod=mod,
        rho_direct_theta=theta,
        rho_spectral=rho_spectral(
            coeffs, np.array([s.a_norm for s in spectral_set.states])
        ),
        b_antisymmetry_residual=b_antisymmetry_residual(overlap_b),
        per_state_r=per_state,
    )
