"""Cavity geometry and lead-channel definitions.

A cavity is the set of sites retained from an ``nx`` by ``ny`` rectangular
tight-binding lattice: nearest-neighbor hopping -1 in units of the cavity
hopping, site-diagonal onsite energies, optional mask removing sites. Two
semi-infinite one-dimensional leads, L and R, attach at retained contact
sites (possibly the same site, as in a one-site cavity fed from both sides).
Each lead carries a single channel with dispersion E = -2 t cos k (t the
lead hopping), so its propagation band is |E| < 2 t.

The closed-cavity Hamiltonian H_B, the lead surface Green's function g(E),
the channel self-energy w^2 g(E) and the energy-dependent contact amplitudes
a(E) are defined here, and nowhere else: the effective Hamiltonian, the
resolvent, the S matrix and the Wigner delay all read them from this
module. A :class:`CavityModel` resolves its leads against the H_B basis
into read-only per-channel arrays in channel order (L, R):
``contact_indices``, ``w_eff`` (alpha times the bare coupling) and
``lead_hopping``. Its self-energies and amplitudes are one broadcast
expression over them, at a scalar energy or an array of energies. They obey
2 pi a(E)^2 = -2 Im[w^2 g(E)] exactly, which ties the resonance widths of
the effective Hamiltonian to the transmission normalization. The effective
Hamiltonian itself is assembled in :mod:`opencavity.spectrum`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidGeometry, OutsideBand

__all__ = [
    "LatticeSpec",
    "LeadSpec",
    "CavityModel",
    "build_hb",
    "surface_green",
]


def _as_grid(value, nx, ny, name):
    """Normalize a scalar or (nx, ny) nested sequence to a nested tuple."""
    if np.isscalar(value):
        value = [[value] * ny] * nx
    rows = tuple(tuple(float(x) for x in row) for row in value)
    if len(rows) != nx or any(len(r) != ny for r in rows):
        raise InvalidGeometry(f"{name} must be scalar or shape ({nx}, {ny})")
    if not np.isfinite(rows).all():
        raise InvalidGeometry(f"{name} must be finite")
    return rows


@dataclass(frozen=True)
class LatticeSpec:
    """Rectangular lattice with optional site mask.

    Parameters
    ----------
    nx, ny : int
        Grid extent, both at least 1.
    onsite : float or nested sequence
        Site energy in hopping units, scalar or per-site (nx, ny).
    mask : nested sequence or None
        Truthy entries mark retained sites, shape (nx, ny). None keeps all.
    hopping : float
        Magnitude of the nearest-neighbor matrix element; fixes the energy
        unit and defaults to 1. The bond value in H_B is ``-hopping``.
    """

    nx: int
    ny: int
    onsite: object = 0.0
    mask: object = None
    hopping: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(n) and int(n) == n for n in (self.nx, self.ny)):
            raise InvalidGeometry("nx and ny must be integers")
        object.__setattr__(self, "nx", int(self.nx))
        object.__setattr__(self, "ny", int(self.ny))
        if self.nx < 1 or self.ny < 1:
            raise InvalidGeometry("nx and ny must be at least 1")
        if not (0.0 < float(self.hopping) < math.inf):
            raise InvalidGeometry("hopping must be positive and finite")
        object.__setattr__(self, "hopping", float(self.hopping))
        object.__setattr__(
            self, "onsite", _as_grid(self.onsite, self.nx, self.ny, "onsite")
        )
        if self.mask is not None:
            rows = tuple(tuple(bool(x) for x in row) for row in self.mask)
            if len(rows) != self.nx or any(len(r) != self.ny for r in rows):
                raise InvalidGeometry(f"mask must have shape ({self.nx}, {self.ny})")
            object.__setattr__(self, "mask", rows)

    def sites(self):
        """Retained sites as (ix, iy) pairs, lexicographic order."""
        return tuple(
            (ix, iy)
            for ix in range(self.nx)
            for iy in range(self.ny)
            if self.mask is None or self.mask[ix][iy]
        )


@dataclass(frozen=True)
class LeadSpec:
    """One semi-infinite lead.

    Parameters
    ----------
    contact : (int, int)
        Lattice coordinates of the cavity site the lead attaches to.
    coupling_w : float
        Bare coupling matrix element w between lead and contact site,
        non-negative; the effective coupling is alpha * coupling_w. Zero
        detaches the channel while keeping it declared.
    lead_hopping : float
        Hopping inside the lead chain; fixes the band |E| < 2t and defaults
        to 1 like the cavity hopping.
    """

    contact: tuple
    coupling_w: float
    lead_hopping: float = 1.0

    def __post_init__(self):
        c = tuple(self.contact)
        if len(c) != 2 or not all(math.isfinite(v) and int(v) == v for v in c):
            raise InvalidGeometry("contact must be an (ix, iy) pair of integers")
        object.__setattr__(self, "contact", tuple(map(int, c)))
        if not (0.0 <= float(self.coupling_w) < math.inf):
            raise InvalidGeometry("coupling_w must be finite and non-negative")
        object.__setattr__(self, "coupling_w", float(self.coupling_w))
        if not (0.0 < float(self.lead_hopping) < math.inf):
            raise InvalidGeometry("lead_hopping must be positive and finite")
        object.__setattr__(self, "lead_hopping", float(self.lead_hopping))


def surface_green(energy, lead_hopping=1.0):
    """Surface Green's function of a semi-infinite chain at real energy.

    Inside the band |E| <= 2t this is (E - i sqrt(4 t^2 - E^2)) / (2 t^2);
    outside, the branch decaying into the lead,
    (E - sign(E) sqrt(E^2 - 4 t^2)) / (2 t^2). The two agree at the band
    edges, where g(+-2t) = +-1/t, and Im g <= 0 everywhere (retarded
    branch, so widths come out positive). Scalar arguments give a complex;
    arrays, broadcast against each other, give a complex array.
    """
    e = np.asarray(energy, dtype=float)
    t = np.asarray(lead_hopping, dtype=float)
    root = np.sqrt(np.abs(e * e - 4.0 * t * t))
    inside = np.abs(e) <= 2.0 * t
    re = np.where(inside, e, e - np.copysign(root, e))
    im = np.where(inside, -root, 0.0)
    # complex(re, im) / (2 t^2), dividing by the real as by a complex with
    # imaginary part +0.0: the zero products fix the signs of zero parts,
    # Im g(-2t) = +0.0 among them.
    g = np.empty(re.shape, dtype=complex)
    g.real = (re + im * 0.0) / (2.0 * t * t)
    g.imag = (im - re * 0.0) / (2.0 * t * t)
    return complex(g) if g.ndim == 0 else g


def _check_alpha(alpha):
    if not (float(alpha) >= 0.0) or not math.isfinite(float(alpha)):
        raise InvalidGeometry("alpha must be finite and non-negative")


def build_hb(lattice: LatticeSpec):
    """Assemble the closed-cavity Hamiltonian.

    Parameters
    ----------
    lattice : LatticeSpec

    Returns
    -------
    (ndarray, tuple)
        Real symmetric matrix over the retained sites, and the site order
        (tuple of (ix, iy)) indexing its basis.

    Raises
    ------
    InvalidGeometry
        No sites retained, or the retained sites are not edge-connected.
    """
    sites = lattice.sites()
    if not sites:
        raise InvalidGeometry("mask retains no sites")
    pos = {s: i for i, s in enumerate(sites)}
    n = len(sites)
    h = np.zeros((n, n))
    for (ix, iy), i in pos.items():
        h[i, i] = lattice.onsite[ix][iy]
        for jx, jy in ((ix + 1, iy), (ix, iy + 1)):
            j = pos.get((jx, jy))
            if j is not None:
                h[i, j] = h[j, i] = -lattice.hopping

    # Flood fill over bonds; every retained site must be reachable.
    seen = {sites[0]}
    queue = [sites[0]]
    while queue:
        ix, iy = queue.pop()
        for nb in ((ix + 1, iy), (ix - 1, iy), (ix, iy + 1), (ix, iy - 1)):
            if nb in pos and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    if len(seen) != n:
        raise InvalidGeometry(
            f"cavity splits into disconnected parts ({len(seen)} of {n} sites reached)"
        )
    return h, sites


class _ClosedCavity:
    """H_B of one geometry, with its eigendecompositions computed on demand.

    Models that differ only in the coupling strength share one instance,
    so the O(N^3) ``eigh`` runs once per geometry, and so does each
    ``eigvalsh`` of H_B with contact sites removed. The lock makes the lazy
    computations safe when models of one geometry run on several threads.
    """

    def __init__(self, lattice):
        h, sites = build_hb(lattice)
        h.flags.writeable = False
        self.h = h
        self.sites = sites
        self._modes = None
        self._interior = {}
        self._lock = threading.Lock()

    def modes(self):
        with self._lock:
            if self._modes is None:
                energies, vectors = np.linalg.eigh(self.h)
                energies.flags.writeable = False
                vectors.flags.writeable = False
                self._modes = (energies, vectors)
        return self._modes

    def interior_levels(self, removed):
        """Eigenvalues (ascending) of H_B without the sites ``removed``."""
        with self._lock:
            levels = self._interior.get(removed)
            if levels is None:
                keep = np.delete(np.arange(len(self.h)), removed)
                levels = np.linalg.eigvalsh(self.h[np.ix_(keep, keep)])
                levels.flags.writeable = False
                self._interior[removed] = levels
        return levels


class CavityModel:
    """Cavity plus two leads at a global coupling strength alpha.

    Parameters
    ----------
    lattice : LatticeSpec
    leads : sequence of exactly two LeadSpec
        Contacts must be retained sites; both leads may share one site.
    alpha : float
        Global coupling scale, non-negative. The channel self-energy uses
        w_eff = alpha * coupling_w.

    Attributes
    ----------
    contact_indices, w_eff, lead_hopping : ndarray, shape (2,)
        The resolved leads in channel order (L, R), read-only: each
        contact's index in the H_B basis, its coupling after the scale
        alpha, and its lead hopping.
    """

    def __init__(self, lattice, leads, alpha):
        leads = tuple(leads)
        if len(leads) != 2:
            raise InvalidGeometry("exactly two leads are required")
        _check_alpha(alpha)
        self._bind(lattice, leads, alpha, _ClosedCavity(lattice))

    def _bind(self, lattice, leads, alpha, closed):
        self.lattice = lattice
        self.leads = leads
        self.alpha = float(alpha)
        self._closed = closed
        self._h_b = closed.h
        pos = {s: i for i, s in enumerate(closed.sites)}
        for lead in leads:
            if lead.contact not in pos:
                raise InvalidGeometry(
                    f"lead contact {lead.contact} is not a retained site"
                )
        w = [self.alpha * lead.coupling_w for lead in leads]
        self.contact_indices = np.array([pos[lead.contact] for lead in leads])
        self.w_eff = np.array(w)
        self.lead_hopping = np.array([lead.lead_hopping for lead in leads])
        # Python's float power (C pow), not numpy's w * w: the two round
        # some couplings differently, and Sigma's last bits follow this one.
        self._w_sq = np.array([x**2 for x in w])
        for a in (self.contact_indices, self.w_eff, self.lead_hopping, self._w_sq):
            a.flags.writeable = False

    @property
    def dimension(self):
        return self._h_b.shape[0]

    @property
    def h_b(self):
        """Closed-cavity Hamiltonian (read-only view)."""
        return self._h_b

    @property
    def closed_modes(self):
        """Eigenvalues (ascending) and orthonormal eigenvectors of H_B.

        Computed on first use and shared by every model of the same
        geometry made through :meth:`with_alpha`; read-only arrays.
        """
        return self._closed.modes()

    def _interior_levels(self, sites):
        """Eigenvalues (ascending) of H_B with the rows and columns of the
        sorted contact indices ``sites`` removed; computed on first use and
        shared like :attr:`closed_modes`."""
        return self._closed.interior_levels(tuple(sites))

    def with_alpha(self, alpha):
        """Same geometry and leads at a different coupling strength.

        The new model shares H_B and its eigendecomposition with this one.
        """
        _check_alpha(alpha)
        model = object.__new__(CavityModel)
        model._bind(self.lattice, self.leads, alpha, self._closed)
        return model

    def self_energy_weights(self, energy):
        """Per-channel w_eff^2 g(E), the diagonal self-energy amplitudes.

        Shape (2,) at a scalar energy, (n, 2) at n energies. A total
        function of real energy: outside a band it continues onto the
        decaying branch, so bound-state poles stay on the physical sheet.
        """
        e = np.asarray(energy, dtype=float)[..., None]
        return self._w_sq * surface_green(e, self.lead_hopping)

    def channel_amplitudes(self, energy):
        """Per-channel contact amplitudes a_C(E) = w_eff sqrt(-Im g(E) / pi).

        This makes 2 pi a^2 = -2 Im[w_eff^2 g(E)] an identity; for unit lead
        hopping it is the familiar w sqrt(sin k / pi) with E = -2 cos k.
        Real and non-negative. Shape (2,) at a scalar energy, which raises
        OutsideBand past any band edge |E| >= 2t; (n, 2) at n energies, NaN
        past an edge.
        """
        e = np.asarray(energy, dtype=float)
        t = self.lead_hopping
        outside = np.abs(e[..., None]) >= 2.0 * t
        if e.ndim == 0 and outside.any():
            raise OutsideBand(
                f"energy {float(e)} outside the open channel band "
                f"(|E| < {2 * t[outside][0]})")
        im_g = np.where(outside, math.nan, -surface_green(e[..., None], t).imag)
        return self.w_eff * np.sqrt(im_g / math.pi)

    def _lead_slopes(self, energies):
        """Sigma_C' = w_eff^2 (1 + i E / sqrt(4 t^2 - E^2)) / (2 t^2) and
        kappa_C = a_C' / a_C = -E / (2 (4 t^2 - E^2)) at 1-d energies,
        shape (n, 2) each; not finite where |E| >= 2t."""
        t, w = self.lead_hopping, self.w_eff
        e = np.asarray(energies, dtype=float)[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            root = np.sqrt(4.0 * t * t - e * e)
            kappa = -e / (2.0 * root * root)
            dsigma = w * w * (1.0 + 1j * e / root) / (2.0 * t * t)
        return dsigma, kappa

    def __repr__(self):
        return (
            f"CavityModel(n={self.dimension}, "
            f"channels={len(self.w_eff)}, alpha={self.alpha:g})"
        )
