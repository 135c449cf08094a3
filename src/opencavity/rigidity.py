"""Phase rigidity of interior scattering states.

A wavefunction psi inside the cavity can always be rotated by a global phase
so that its real and imaginary parts are orthogonal; the phase rigidity

    rho = (sum_k psi_k^2) / (sum_k |psi_k|^2)

measures what is left: |rho| = 1 for a standing wave (real up to a global
phase) and |rho| -> 0 for a fully open, traveling state. The rotation angle
theta that maximizes the real content is fixed by the same bilinear sum.
Both sums are invariant under a real orthogonal change of basis, so a state
given in the eigenbasis of H_B has the rigidity of the state on the sites.

``rho_direct`` evaluates the definition on one state or on a stack of
states, and is the package's one rigidity formula. It is reached by two
independent routes. The direct route applies it to the interior state of
the contact-space resolvent (:func:`~opencavity.scattering.contact_green`).
The spectral route applies it to the resonance expansion
psi = sum c_lam phi_lam with sum |c|^2 = 1: on the ``zgeev`` route as the
sum over the sites of phi @ c, on the secular route in the closed form that
phi^T phi = 1 gives, rho = sum c_lam^2 / (c^dag B c) with B = phi^dag phi.
The two agree to rounding wherever the expansion exists; only the direct
route exists at a defective spectrum or a pole on the real axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import UndefinedValue

__all__ = [
    "RigidityReport",
    "rho_direct",
    "b_antisymmetry_residual",
    "build_report",
]


@dataclass(frozen=True)
class RigidityReport:
    """Phase-rigidity measures of one solved scattering state.

    ``rho_direct_mod`` and ``rho_direct_theta`` are the rigidity of the
    interior state the report was built from; ``rho_spectral`` is the
    complex rigidity of its resonance expansion, the same number by the
    spectral route; ``b_antisymmetry_residual`` measures how far the real
    parts of distinct states at the same energy are from orthogonal (see
    :func:`b_antisymmetry_residual`). The per-state rigidities 1/A_lam are
    the spectrum's own ``rigidity_r``.
    """

    energy: float
    rho_direct_mod: float
    rho_direct_theta: float
    rho_spectral: complex
    b_antisymmetry_residual: float


def rho_direct(psi):
    """Phase rigidity of an interior state, or of a stack of states.

    ``psi`` holds complex amplitudes along its last axis, at any nonzero
    overall scale, down to the smallest and up to the largest finite
    magnitudes. Returns |rho| in [0, 1] up to rounding and the angle theta
    in (-pi/2, pi/2] that rotates psi to maximal real content, so that
    rho = |rho| exp(-2i theta); theta is 0 when the bilinear sum vanishes,
    since no rotation is preferred. One state gives two floats and raises
    UndefinedValue if it is zero; a stack gives two arrays, NaN for a zero
    state or one with a NaN entry.
    """
    v = np.asarray(psi, dtype=complex)
    one = v.ndim <= 1
    v = v.reshape(1, -1) if one else v.reshape(-1, v.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.abs(v)
        denom, scale = np.sum(a**2, axis=1), a.max(axis=1, initial=0.0)
        # Where the squares over- or underflowed, divide the state by its
        # largest modulus if that is positive and finite: rho is scale-free.
        # A real division, since a complex one overflows at 1 / scale.
        redo = (((denom == 0.0) | ~np.isfinite(denom))
                & (scale > 0.0) & (scale < math.inf))
        if redo.any():
            v = v.copy()
            v[redo] = (v[redo].view(float) / scale[redo, None]).view(complex)
            denom[redo] = np.sum(np.abs(v[redo]) ** 2, axis=1)
        s = np.sum(v * v, axis=1)
        mod = np.abs(s) / denom
    # + 0.0 turns the -0.0 of a positive real sum into +0.0.
    theta = -0.5 * np.angle(s) + 0.0
    theta[theta <= -0.5 * math.pi] += math.pi
    theta[s == 0.0] = 0.0
    theta[denom == 0.0] = math.nan
    if one:
        if denom[0] == 0.0:
            raise UndefinedValue("phase rigidity of the zero vector")
        return float(mod[0]), float(theta[0])
    shape = np.shape(psi)[:-1]
    return mod.reshape(shape), theta.reshape(shape)


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


def build_report(spectral_set, psi, model, incoming=0):
    """Bundle the rigidity measures of one solved scattering state.

    The direct value is the rigidity of ``psi``, the interior state fed
    from channel ``incoming`` of ``model`` by the direct route, on the
    sites or in any real orthogonal basis. The spectral value is that of
    the resonance expansion of the same state over ``spectral_set``, and
    the residual is :func:`b_antisymmetry_residual` of the Hermitian cross
    overlaps B_ij = phi_i^dag phi_j of its states, the non-orthogonality of
    their real parts; both come from
    :meth:`~opencavity.spectrum.SpectralSet.expansion_rigidity`, so they do
    not depend on the states' signs, and on the secular route they are
    O(N^2) closed forms that form no phi. Raises UndefinedValue if ``psi``
    is zero, and whatever the expansion raises where it does not exist.
    In the package only :func:`~opencavity.scattering.solve_scattering`
    calls it.
    """
    mod, theta = rho_direct(psi)
    rho_spectral, residual = spectral_set.expansion_rigidity(model, incoming)
    return RigidityReport(
        energy=spectral_set.energy,
        rho_direct_mod=mod,
        rho_direct_theta=theta,
        rho_spectral=rho_spectral,
        b_antisymmetry_residual=residual,
    )
