"""Transmission through the cavity by two independent routes.

The scattering matrix of the two-lead cavity is

    S_ab(E) = delta_ab - 2 pi i a_a(E) G_ab(E) a_b(E),

with G(E) = (E - H_eff(E))^(-1) the interior Green's function projected onto
the contact sites and a_a(E) the channel amplitudes. The transmission
amplitude t(E) = S_RL can be evaluated either directly from G (the ground
truth) or from the biorthogonal resonance expansion

    t(E) = -2 pi i sum_lam a_R phi_lam[c_R] phi_lam[c_L] a_L / (E - z_lam),

which is exact when the spectrum at E is complete and non-defective. The two
routes agreeing to rounding is the central consistency check of the
spectral machinery; they separate only at a defective spectrum, where the
expansion does not exist and only the direct route remains.

The direct route is the contact-space resolvent of :func:`contact_green`.
H_eff(E) differs from the real symmetric H_B only in the two contact
diagonal entries, so one ``eigh`` of H_B per geometry turns G_cc(E) into a
2x2 problem and each energy costs O(N) instead of a dense O(N^3) LU. The LU
solve remains as the fallback within ``RESOLVENT_GAP`` of a closed-cavity
eigenvalue, where the resolvent loses accuracy and where a dark state can
make E - H_eff singular, and as the oracle of the tests. ``s_matrix`` and
``wigner_delay`` take one energy, which raises on failure, or an array of
energies, which gives NaN at a failed energy so a sweep does not abort.

Widths obey the sum rule Gamma_lam * A_lam = 2 pi sum_C a_C^2 |phi_lam[c_C]|^2
exactly at every energy, so Gamma_lam itself stays below the right-hand side
with equality only for rigid states (A = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DefectiveSpectrum,
    OutsideBand,
    PoleOnAxis,
    SingularMatrix,
    UndefinedValue,
)
from .linalg import solve_linear
from .model import CavityModel
from .rigidity import RigidityReport, build_report
from .spectrum import SpectralSet, assemble_heff, biorthogonal_spectrum

__all__ = [
    "TwoLevelProfile",
    "ScatteringSolution",
    "coefficients_c",
    "interior_wavefunction",
    "solve_scattering",
    "transmission_spectral",
    "contact_green",
    "transmission_direct",
    "s_matrix",
    "wigner_delay",
    "width_vs_coupling",
    "two_level_profile",
]

# Real-axis pole rejection distance for the spectral route.
POLE_TOL = 1e-12
# Relative distance to a closed-cavity eigenvalue, in units of
# max(1, ||H_B||), below which the contact-space resolvent hands an energy
# to the dense LU solve. Its rounding error grows like eps / |E - e_k|; at
# this distance it measures at most 2.4e-11 relative to LU on the five
# reference models of the tests.
RESOLVENT_GAP = 1e-6


@dataclass(frozen=True)
class TwoLevelProfile:
    """Closed-form transmission of two interfering resonances.

    The profile t(E) = -2i Gamma / D - (Gamma / D)^2 with
    D = E - e0 + i Gamma / 2 describes a pair of modes that share one decay
    channel pattern: a degenerate complex pole of second order. |t| vanishes
    exactly at E = e0 and peaks symmetrically at E = e0 +- Gamma / 2 with
    height 2.
    """

    e0: float
    gamma: float
    grid: np.ndarray
    t_values: np.ndarray


@dataclass(frozen=True)
class ScatteringSolution:
    """Fully solved scattering state at one energy.

    ``c`` holds the resonance-expansion coefficients of the interior state
    (normalized to sum |c|^2 = 1), ``psi_interior`` the state itself,
    ``t_spectral`` and ``t_direct`` the two transmission routes,
    ``s_matrix`` the 2x2 scattering matrix and ``rigidity`` the bundled
    phase-rigidity measures. ``spectral`` keeps the underlying spectrum for
    further inspection.
    """

    energy: float
    incoming: int
    c: np.ndarray
    psi_interior: np.ndarray
    t_spectral: complex
    t_direct: complex
    s_matrix: np.ndarray
    rigidity: RigidityReport
    spectral: SpectralSet


def _pole_distances(spectral, energy):
    """E - z_lam of each state, once the expansion is known to exist.

    Raises DefectiveSpectrum when some state is defective, else PoleOnAxis
    when E lies within POLE_TOL of an eigenvalue.
    """
    if not np.isfinite([s.a_norm for s in spectral.states]).all():
        raise DefectiveSpectrum(
            "spectrum contains a defective state; the resonance "
            "expansion does not exist there"
        )
    d = energy - spectral.values
    on_pole = np.flatnonzero(np.hypot(d.real, d.imag) < POLE_TOL)
    if on_pole.size:
        z = spectral.states[on_pole[0]].z
        raise PoleOnAxis(
            f"evaluation energy {energy!r} sits on the pole z = {z!r}"
        )
    return d


def coefficients_c(spectral, model, energy=None, incoming=0):
    """Resonance-expansion coefficients of the interior scattering state.

    The interior state excited through the incoming channel expands as
    psi = sum_lam c_lam phi_lam with c_lam proportional to
    a_in phi_lam[c_in] / (E - z_lam); the returned coefficients are
    normalized to sum |c|^2 = 1.

    Parameters
    ----------
    spectral : SpectralSet
    model : CavityModel
    energy : float or None
        Evaluation energy of the amplitudes and pole denominators; defaults
        to the energy the spectrum was assembled at. Passing a different
        value evaluates the frozen-spectrum approximation.
    incoming : int
        Channel index, 0 for L (default) and 1 for R.

    Raises
    ------
    PoleOnAxis
        E coincides with an eigenvalue to within 1e-12.
    DefectiveSpectrum
        The spectrum contains a defective state.
    UndefinedValue
        All coefficients vanish (the incoming contact is dark at E).
    """
    e = spectral.energy if energy is None else float(energy)
    d = _pole_distances(spectral, e)
    a_in = model.channels[incoming].contact_amplitude(e)
    c = a_in * spectral.vectors[model.contact_indices[incoming]] / d
    nrm = math.sqrt(float(np.sum(np.abs(c) ** 2)))
    if nrm == 0.0:
        raise UndefinedValue("interior state vanishes at this energy")
    return c / nrm


def interior_wavefunction(spectral, coeffs):
    """Interior state sum_lam c_lam phi_lam from expansion coefficients."""
    return spectral.vectors @ np.asarray(coeffs, dtype=complex).ravel()


def transmission_spectral(spectral, model, energy=None):
    """Transmission amplitude L -> R from the resonance expansion.

    Parameters
    ----------
    spectral : SpectralSet
    model : CavityModel
    energy : float or None
        Defaults to the spectrum's own energy; see :func:`coefficients_c`
        for the meaning of a mismatch.

    Returns
    -------
    complex

    Raises
    ------
    PoleOnAxis, DefectiveSpectrum
        Same conditions as :func:`coefficients_c`.
    """
    e = spectral.energy if energy is None else float(energy)
    d = _pole_distances(spectral, e)
    a = model.channel_amplitudes(e)
    phi_l, phi_r = spectral.vectors[list(model.contact_indices)]
    return -2j * math.pi * a[0] * a[1] * np.sum(phi_r * phi_l / d)


def _lu_contact(model, energy):
    """Contact block of (E - H_eff)^-1 and the state fed from L, by dense LU.

    The fallback of :func:`contact_green` next to closed-cavity eigenvalues.
    Raises SingularMatrix where E - H_eff(E) is singular.
    """
    idx = model.contact_indices
    m = np.eye(model.dimension, dtype=complex) * energy - assemble_heff(
        model, energy
    )
    rhs = np.zeros((model.dimension, 2), dtype=complex)
    for col, i in enumerate(idx):
        rhs[i, col] = 1.0
    x = solve_linear(m, rhs)
    return x[list(idx), :], x[:, 0]


def _resolvent(model, e, strict, interior):
    """G_cc at energies e, and with ``interior`` the L-fed state x = U^T psi."""
    e_k, u = model.closed_modes
    u_c = u[list(model.contact_indices), :]
    sigma = np.array([model.self_energy_weights(en) for en in e]).reshape(-1, 2)

    inv_gap = 1.0 / (RESOLVENT_GAP * max(1.0, float(np.abs(e_k).max())))
    # Rows next to an e_k may overflow here; the LU below replaces them.
    with np.errstate(all="ignore"):
        d = np.subtract.outer(e, e_k)
        np.divide(1.0, d, out=d)
        near = (d.max(axis=1) > inv_gap) | (d.min(axis=1) < -inv_gap)
        # G0 is real and symmetric: its entries (0,0), (0,1), (1,1).
        g0 = d @ np.stack([u_c[0] * u_c[0], u_c[0] * u_c[1], u_c[1] * u_c[1]],
                          axis=1)
        g0 = g0[:, [0, 1, 1, 2]].reshape(-1, 2, 2)
        m = np.eye(2) - g0 * sigma[:, None, :]
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        adj = np.stack([m[:, 1, 1], -m[:, 0, 1], -m[:, 1, 0], m[:, 0, 0]],
                       axis=1).reshape(-1, 2, 2)
        g = adj @ g0 / det[:, None, None]
        if interior:
            y = sigma * g[:, :, 0]
            y[:, 0] += 1.0
            x = d * (y @ u_c)

    for i in np.flatnonzero(near):
        try:
            g[i], psi = _lu_contact(model, float(e[i]))
        except SingularMatrix:
            if strict:
                raise
            g[i] = complex(math.nan, math.nan)
            psi = np.full(len(e_k), complex(math.nan, math.nan))
        if interior:
            x[i] = u.T @ psi
    return (g, x) if interior else g


def _energies(energy):
    """1-d float energies, and whether the input was a scalar."""
    return np.atleast_1d(np.asarray(energy, dtype=float)), np.ndim(energy) == 0


def contact_green(model, energies):
    """Contact-space Green's function G_cc(E) and the interior state.

    With the closed-cavity modes H_B = U diag(e_k) U^T and U_c the contact
    rows of U, the Dyson identity for the rank-2 self-energy gives

        G_cc(E) = (I - G0(E) Sigma(E))^-1 G0(E),
        G0(E) = U_c diag(1 / (E - e_k)) U_c^T,

    with Sigma(E) = diag(w_C^2 g_C(E)) over the channel order (L, R). The
    interior state fed from lead L, psi = (E - H_eff)^-1 e_{c_L}, is U x
    with x = diag(1 / (E - e_k)) U_c^T y and y = e_L + Sigma G_cc e_L. The
    modes come from :attr:`CavityModel.closed_modes`, so after one ``eigh``
    per geometry each energy costs O(N). Energies within
    ``RESOLVENT_GAP * max(1, ||H_B||)`` of some e_k, where the rounding
    error grows like eps / |E - e_k|, are solved by dense LU instead.

    Parameters
    ----------
    model : CavityModel
    energies : float or array_like of float
        Real energies, in or outside the band.

    Returns
    -------
    (ndarray, ndarray)
        G_cc[..., a, b] = <c_a| (E - H_eff(E))^-1 |c_b>, shape (2, 2) for a
        scalar energy and (n, 2, 2) for n energies; and x = U^T psi, shape
        (N,) or (n, N). For an array of energies, both are NaN at an energy
        where E - H_eff(E) is singular.

    Raises
    ------
    SingularMatrix
        A scalar energy where E - H_eff(E) is singular.
    """
    e, scalar = _energies(energies)
    g, x = _resolvent(model, e, strict=scalar, interior=True)
    return (g[0], x[0]) if scalar else (g, x)


def _s_matrices(model, e, strict):
    a = np.full((len(e), 2), math.nan)
    for i, energy in enumerate(e):
        try:
            a[i] = model.channel_amplitudes(energy)
        except OutsideBand:
            if strict:
                raise
    g = _resolvent(model, e, strict, interior=False)
    return np.eye(2) - 2j * math.pi * a[:, :, None] * a[:, None, :] * g


def s_matrix(model, energy):
    """Scattering matrix at a real in-band energy, or at each of several.

    S_ab = delta_ab - 2 pi i a_a G_ab a_b over the channel order (L, R),
    with G_cc from :func:`contact_green`. Unitary up to rounding for any
    alpha, by construction of the self-energies and amplitudes from the
    same surface Green's function.

    Returns
    -------
    ndarray
        Shape (2, 2) for a scalar energy, (n, 2, 2) for n energies. For an
        array, an energy outside the band or at a singular E - H_eff(E)
        gives a NaN matrix, so one hard point does not abort a sweep.

    Raises
    ------
    OutsideBand, SingularMatrix
        A scalar energy outside the band, or at a singular E - H_eff(E).
    """
    e, scalar = _energies(energy)
    s = _s_matrices(model, e, strict=scalar)
    return s[0] if scalar else s


def transmission_direct(model, energy):
    """Transmission amplitude L -> R at one energy, t = S_RL.

    Computed from the contact-space resolvent of :func:`contact_green`,
    which falls back to a dense LU solve next to a closed-cavity
    eigenvalue. Ground truth for the spectral route; works at defective
    spectra too.

    Raises
    ------
    SingularMatrix
        E - H_eff(E) is numerically singular (pole on the real axis).
    OutsideBand
        |E| is not inside every lead band.
    """
    return complex(s_matrix(model, float(energy))[1, 0])


def wigner_delay(model, energy, dE=1e-5):
    """Wigner-Smith delay from the total scattering phase.

    tau(E) = d/dE arg det S(E), evaluated by the centered difference
    arg[det S(E + dE) / det S(E - dE)] / (2 dE). With |det S| = 1 this is
    the sum of the eigenphase derivatives; at an isolated resonance it
    peaks at the resonance lifetime.

    Parameters
    ----------
    model : CavityModel
    energy : float or array_like of float
        A scalar needs E - dE and E + dE inside the band and returns a
        float. An array returns one delay per energy, NaN where either
        step leaves the band or meets a singular E - H_eff.
    dE : float

    Raises
    ------
    OutsideBand, SingularMatrix
        Only for a scalar energy.
    """
    e, scalar = _energies(energy)
    step = float(dE)
    s = _s_matrices(model, np.concatenate([e + step, e - step]), scalar)
    det = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
    with np.errstate(invalid="ignore"):
        tau = np.angle(det[: len(e)] / det[len(e):]) / (2.0 * step)
    return float(tau[0]) if scalar else tau


def solve_scattering(model, energy, incoming=0):
    """Solve one scattering energy end to end.

    Assembles and diagonalizes H_eff(E), expands the interior state,
    evaluates both transmission routes, the 2x2 S matrix and the rigidity
    report, and returns everything in one record.

    Raises
    ------
    PoleOnAxis, DefectiveSpectrum, UndefinedValue
        Propagated from the expansion; the direct-only quantities are not
        reported separately when the expansion fails.
    """
    e = float(energy)
    spectral = biorthogonal_spectrum(assemble_heff(model, e), e)
    c = coefficients_c(spectral, model, incoming=incoming)
    psi = interior_wavefunction(spectral, c)
    s = s_matrix(model, e)
    return ScatteringSolution(
        energy=e,
        incoming=incoming,
        c=c,
        psi_interior=psi,
        t_spectral=complex(transmission_spectral(spectral, model)),
        t_direct=complex(s[1, 0]),
        s_matrix=s,
        rigidity=build_report(spectral, c, psi),
        spectral=spectral,
    )


def width_vs_coupling(spectral, model, energy=None):
    """Per-state width against its channel-coupling bound.

    For each state the pair (gamma, product) holds the width
    gamma = -2 Im z and the right-hand side of the width sum rule,
    product = 2 pi sum_C a_C(E)^2 |phi[c_C]|^2 = gamma * A. The two agree
    in the isolated regime (A -> 1) and separate in the overlapping regime,
    where gamma stays strictly below the product.

    Returns
    -------
    tuple of (float, float)
        One pair per state, spectrum order. The product is nan for a
        defective state, whose biorthogonal norm does not exist.
    """
    e = spectral.energy if energy is None else float(energy)
    a = model.channel_amplitudes(e)
    contact = spectral.vectors[list(model.contact_indices)]
    product = 2.0 * math.pi * (a**2 @ np.abs(contact) ** 2)
    defective = ~np.isfinite([s.a_norm for s in spectral.states])
    product[defective] = math.nan
    return tuple(zip((-2.0 * spectral.values.imag).tolist(), product.tolist()))


def two_level_profile(e0, gamma, energies):
    """Closed-form transmission of two modes sharing one decay channel.

    t(E) = -2i Gamma / D - (Gamma / D)^2 with D = E - e0 + i Gamma / 2.
    |t| vanishes exactly at E = e0 (perfect antiresonance) and reaches 2 at
    E = e0 +- Gamma / 2.

    Returns
    -------
    TwoLevelProfile
    """
    e0 = float(e0)
    gamma = float(gamma)
    grid = np.asarray(energies, dtype=float)
    d = grid - e0 + 0.5j * gamma
    t = -2j * gamma / d - (gamma / d) ** 2
    return TwoLevelProfile(e0=e0, gamma=gamma, grid=grid, t_values=t)
