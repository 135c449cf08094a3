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

The direct route is the contact-space resolvent of :func:`contact_green`:
H_eff(E) differs from the real symmetric H_B only in two contact diagonal
entries, so after one ``eigh`` of H_B per geometry every energy, next to a
closed-cavity level too, costs O(N) instead of a dense O(N^3) LU, and its
contact columns give the exact Wigner delay d arg det S / dE. ``s_matrix``
and ``wigner_delay`` take one energy, which raises on failure, or an array
of energies, which gives NaN at a failed energy so a sweep does not abort.

Widths obey the sum rule Gamma_lam * A_lam = 2 pi sum_C a_C^2 |phi_lam[c_C]|^2
exactly at every energy, so Gamma_lam itself stays below the right-hand side
with equality only for rigid states (A = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SingularMatrix
from .linalg import _singular_bound
from .rigidity import RigidityReport, build_report
from .spectrum import (
    SpectralSet,
    _expansion_coefficients,
    _pole_distances,
    _pole_sums,
    assemble_heff,
    heff_spectrum,
)

__all__ = [
    "ScatteringSolution",
    "coefficients_c",
    "solve_scattering",
    "transmission_spectral",
    "contact_green",
    "transmission_direct",
    "s_matrix",
    "wigner_delay",
]

# Relative distance to a closed-cavity eigenvalue, in units of
# max(1, ||H_B||), within which the resolvent borders the level instead of
# summing it: the sums' rounding grows like eps / |E - e_k|, to at most
# 2.4e-11 relative to LU at this distance on the tests' reference models.
RESOLVENT_GAP = 1e-6
# Energies per pass of the resolvent and the delay, whose temporaries take
# about 20 KB per energy at N = 290: memory is O(_CHUNK N) at any grid
# size, and grids of up to 4,096 energies run in one pass.
_CHUNK = 4096


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


def coefficients_c(spectral, model, incoming=0):
    """Resonance-expansion coefficients of the interior scattering state.

    The interior state excited through the incoming channel expands as
    psi = sum_lam c_lam phi_lam with c_lam proportional to
    phi_lam[c_in] / (E - z_lam) at the spectrum's energy E; the
    returned coefficients are normalized to sum |c|^2 = 1, and the interior
    state is ``spectral.vectors @ c``. They share the signs of
    ``spectral.vectors``, so on the secular route this forms phi; the
    sign-free :meth:`~opencavity.spectrum.SpectralSet.expansion_rigidity`
    does not.

    Parameters
    ----------
    spectral : SpectralSet
    model : CavityModel
    incoming : int
        Channel index, 0 for L (default) and 1 for R.

    Raises
    ------
    PoleOnAxis
        E coincides with an eigenvalue to within 1e-12.
    DefectiveSpectrum
        The spectrum contains a defective state.
    OutsideBand
        E is past the incoming lead's band edge; the other band does not enter.
    ValueError
        ``incoming`` is neither 0 nor 1.
    """
    return _expansion_coefficients(spectral, model, incoming,
                                   spectral.vectors[model.contact_indices])


def transmission_spectral(spectral, model):
    """Transmission amplitude L -> R by the resonance expansion, at its E.

    Each state enters through phi_lam[c_R] phi_lam[c_L], which is free of
    its sign, so the contact rows come from the set's basis: on the secular
    route no phi on the sites is formed.

    Returns
    -------
    complex

    Raises
    ------
    PoleOnAxis, DefectiveSpectrum
        Same conditions as :func:`coefficients_c`.
    OutsideBand
        The energy is past either lead's band edge.
    """
    e = spectral.energy
    d = _pole_distances(spectral, e)
    a = model.channel_amplitudes(e)
    phi_l, phi_r = spectral.basis.contacts(model)
    return -2j * math.pi * a[0] * a[1] * np.sum(phi_r * phi_l / d)


def _chunked(f, e):
    """f over the energies e, ``_CHUNK`` at a time, joined along axis 0.

    A grid of one chunk gives f(e) itself; f may return a tuple of arrays.
    """
    parts = [f(e[i:i + _CHUNK]) for i in range(0, max(len(e), 1), _CHUNK)]
    if len(parts) == 1:
        return parts[0]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def _resolvent(model, e, strict, interior):
    """G_cc at energies e; with ``interior`` also x[:, b] = U^T psi_b."""
    return _chunked(lambda c: _resolvent_chunk(model, c, strict, interior), e)


def _resolvent_chunk(model, e, strict, interior):
    e_k, u = model.closed_modes
    u_c = u[model.contact_indices, :]
    sigma = model.self_energy_weights(e)
    wsq = np.stack([u_c[0] * u_c[0], u_c[0] * u_c[1], u_c[1] * u_c[1]], axis=1)
    inv_gap = 1.0 / (RESOLVENT_GAP * max(1.0, float(np.abs(e_k).max())))
    # An energy on an e_k divides by zero; its level leaves the sums below.
    with np.errstate(all="ignore"):
        d, g0 = _pole_sums(e, e_k, wsq)
        rows = np.flatnonzero((d.max(axis=1) > inv_gap)
                              | (d.min(axis=1) < -inv_gap))
        near = [np.flatnonzero(np.abs(d[i]) > inv_gap) for i in rows]
        for i, k in zip(rows, near):
            d[i, k] = 0.0
        g0[rows] = d[rows] @ wsq
        # G0 is real and symmetric: its entries (0,0), (0,1), (1,1).
        g0 = g0[:, [0, 1, 1, 2]].reshape(-1, 2, 2)
        m = np.eye(2) - g0 * sigma[:, None, :]
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        adj = np.stack([m[:, 1, 1], -m[:, 0, 1], -m[:, 1, 0], m[:, 0, 0]],
                       axis=1).reshape(-1, 2, 2)
        g = adj @ g0 / det[:, None, None]
        y = [_border(model, float(e[i]), sigma[i], g[i], e_k[k], u_c[:, k],
                     strict) for i, k in zip(rows, near)]
        if interior:
            x = np.stack([d * ((sigma * g[:, :, b] + np.eye(2)[b]) @ u_c)
                          for b in (0, 1)], axis=1)
            for i, k, y_k in zip(rows, near, y):
                x[i][:, k] = y_k.T
    return (g, x) if interior else g


def _border(model, e, sigma, g, e_k, w_k, strict):
    """Border the near levels e_k, contact rows w_k, into G = G_r in place,
    as :func:`contact_green` states; returns their interior columns. Both
    are NaN, or SingularMatrix is raised, where sigma_min(A) is within
    solve_linear's bound for E - H_eff(E)."""
    h = assemble_heff(model, e)
    tol = _singular_bound(e * np.eye(len(h)) - h)
    b = np.eye(2) + g * sigma
    a = np.diag(e - e_k) - w_k.T @ (np.diag(sigma) + sigma[:, None] * g
                                    * sigma) @ w_k
    try:
        if np.linalg.svd(a, compute_uv=False).min() > tol:
            y = np.linalg.solve(a, (b @ w_k).T)
            g += b @ w_k @ y
            return y
    except np.linalg.LinAlgError:
        pass
    if strict:
        raise SingularMatrix(f"E - H_eff(E) is singular at E = {e!r}")
    g[...] = complex(math.nan, math.nan)
    return np.full((len(e_k), 2), complex(math.nan, math.nan))


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
    per geometry each energy costs O(N).

    The levels K within ``RESOLVENT_GAP * max(1, ||H_B||)`` of E leave G0,
    which gives G_r, and are bordered back in through their block of
    E - H_eff with the other levels eliminated, A = diag(E - e_K) - W_K^T
    (Sigma + Sigma G_r Sigma) W_K, W_K their contact rows: with
    B = I + G_r Sigma, G_cc = G_r + B W_K A^-1 W_K^T B^T and x along K is
    A^-1 W_K^T B^T e_L. A is singular exactly when E - H_eff is; the test
    is sigma_min(A) <= 1e-14 ||E - H_eff||_inf, the bound of
    :func:`~opencavity.linalg.solve_linear` applied to E - H_eff(E) as
    :func:`~opencavity.spectrum.assemble_heff` builds it, which is done
    only at an energy that borders a level.

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
    return (g[0], x[0, 0]) if scalar else (g, x[:, 0])


def _s_matrices(model, e, strict, g=None):
    """S at energies e, from their G_cc if given; a strict energy outside
    the band raises OutsideBand before any resolvent work."""
    a = model.channel_amplitudes(e[0] if strict else e).reshape(-1, 2)
    if g is None:
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

    Computed from the contact-space resolvent of :func:`contact_green`, at
    O(N) per energy. Ground truth for the spectral route; works at
    defective spectra too.

    Raises
    ------
    SingularMatrix
        E - H_eff(E) is numerically singular (pole on the real axis).
    OutsideBand
        |E| is not inside every lead band.
    """
    return complex(s_matrix(model, float(energy))[1, 0])


def wigner_delay(model, energy):
    """Wigner-Smith delay tau(E) = d/dE arg det S(E), in closed form.

    S is unitary, so tau = Im tr(S^dag dS/dE), with

        dS_ab = -2 pi i a_a a_b [(kappa_a + kappa_b) G_ab + dG_ab],
        dG_cc = -X^T (I - Sigma') X,

    X the two contact columns of (E - H_eff)^-1, kappa_C = a_C'/a_C and
    Sigma' = diag(Sigma_C'), both from :mod:`~opencavity.model`. X comes
    from the resolvent of :func:`contact_green`, at O(N) per energy.

    Parameters
    ----------
    model : CavityModel
    energy : float or array_like of float
        A scalar returns a float. An array returns one delay per energy,
        NaN outside the band or at a singular E - H_eff.

    Raises
    ------
    OutsideBand, SingularMatrix
        Only for a scalar energy.
    """
    e, scalar = _energies(energy)
    tau = _chunked(lambda c: _delays(model, c, scalar), e)
    return float(tau[0]) if scalar else tau


def _delays(model, e, strict):
    """tau at energies e, one chunk, as :func:`wigner_delay` states."""
    a = model.channel_amplitudes(e[0] if strict else e).reshape(-1, 2)
    g, x = _resolvent_chunk(model, e, strict, interior=True)
    dsigma, kappa = model._lead_slopes(e)
    aa = -2j * math.pi * a[:, :, None] * a[:, None, :]
    with np.errstate(invalid="ignore"):
        # X^T X is taken in H_B's eigenbasis, X^T Sigma' X from G_cc.
        gs = np.swapaxes(g, 1, 2) * dsigma[:, None, :]
        dg = gs @ g - x @ np.swapaxes(x, 1, 2)
        ds = aa * ((kappa[:, :, None] + kappa[:, None, :]) * g + dg)
        return np.sum((np.eye(2) + aa * g).conj() * ds, axis=(1, 2)).imag


def solve_scattering(model, energy, incoming=0):
    """Solve one scattering energy end to end, by both routes.

    The spectrum of H_eff(E) (:func:`heff_spectrum`) gives the expansion
    coefficients, the interior state sum c_lam phi_lam and the spectral
    transmission; one contact-space resolvent (:func:`contact_green`) gives
    the 2x2 S matrix, the direct transmission and the interior state fed
    from the incoming channel, whose rigidity is the report's direct value.

    Raises
    ------
    PoleOnAxis, DefectiveSpectrum, ValueError
        Propagated from the expansion, before any direct-route work.
    OutsideBand, SingularMatrix
        As for a scalar :func:`s_matrix`.
    """
    e = float(energy)
    spectral = heff_spectrum(model, e)
    c = coefficients_c(spectral, model, incoming=incoming)
    e1 = np.array([e])
    g, x = _resolvent(model, e1, strict=True, interior=True)
    s = _s_matrices(model, e1, True, g)[0]
    return ScatteringSolution(
        energy=e,
        incoming=incoming,
        c=c,
        psi_interior=spectral.vectors @ c,
        t_spectral=complex(transmission_spectral(spectral, model)),
        t_direct=complex(s[1, 0]),
        s_matrix=s,
        rigidity=build_report(spectral, x[0, incoming], model, incoming),
        spectral=spectral,
    )

