import numpy as np
import pytest
from hypothesis import strategies as st

from opencavity import CavityModel, LatticeSpec, LeadSpec, assemble_heff

# Notch mask: a 3x2 block removed from the bottom edge, 44 sites kept.
NOTCH_MASK = tuple(
    tuple(0 if (4 <= ix <= 6 and iy <= 1) else 1 for iy in range(5))
    for ix in range(10)
)


def single_site_model(alpha=1.0, w=0.5):
    lat = LatticeSpec(1, 1)
    leads = (LeadSpec((0, 0), w), LeadSpec((0, 0), w))
    return CavityModel(lat, leads, alpha)


def square4():
    """4x4 lattice with corner leads at alpha = 1; E = 0 is a dark level."""
    return CavityModel(
        LatticeSpec(4, 4),
        (LeadSpec((0, 0), 1.0), LeadSpec((3, 3), 1.0)),
        1.0,
    )


def two_level_t(e0, gamma, energies):
    """Closed-form transmission of two modes sharing one decay channel.

    t(E) = -2i Gamma / D - (Gamma / D)^2 with D = E - e0 + i Gamma / 2: a
    second-order pole that vanishes at E = e0 and peaks at 2 at
    E = e0 +- Gamma / 2.
    """
    d = np.asarray(energies, dtype=float) - e0 + 0.5j * gamma
    return -2j * gamma / d - (gamma / d) ** 2


def fano_family():
    """Three-site L-shaped chain whose lead couplings reach a true EP."""
    lat = LatticeSpec(2, 2, mask=((1, 0), (1, 1)))

    def family(p):
        model = CavityModel(
            lat,
            (
                LeadSpec((0, 0), abs(float(p[0]))),
                LeadSpec((1, 0), abs(float(p[1]))),
            ),
            1.0,
        )
        return assemble_heff(model, 0.0)

    return family


def reference_models():
    """The five transmission reference models with their energy grids.

    Grids with even point counts avoid the symmetry-protected real
    eigenvalues of the larger lattices (E = 0 among them), which would
    otherwise sit exactly on a grid point.
    """
    cases = [
        (
            "single_site",
            single_site_model(),
            np.linspace(-1.9, 1.9, 201),
        ),
        (
            "dimer",
            CavityModel(
                LatticeSpec(2, 1),
                (LeadSpec((0, 0), 1.0), LeadSpec((1, 0), 0.6)),
                0.8,
            ),
            np.linspace(-1.9, 1.9, 201),
        ),
        (
            "chain3",
            CavityModel(
                LatticeSpec(3, 1),
                (LeadSpec((0, 0), 1.0), LeadSpec((2, 0), 1.0)),
                0.3,
            ),
            np.linspace(-1.9, 1.9, 201),
        ),
        ("square4", square4(), np.linspace(-1.9, 1.9, 200)),
        (
            "notched10x5",
            CavityModel(
                LatticeSpec(10, 5, mask=NOTCH_MASK),
                (LeadSpec((0, 2), 1.0), LeadSpec((9, 2), 1.0)),
                0.6,
            ),
            np.linspace(-1.9, 1.9, 200),
        ),
    ]
    return cases


@pytest.fixture(scope="session")
def reference_cases():
    return reference_models()


def connected_part(mask, nx, ny):
    """The edge-connected component of the first retained site."""
    sites = [(ix, iy) for ix in range(nx) for iy in range(ny) if mask[ix][iy]]
    seen = {sites[0]}
    stack = [sites[0]]
    while stack:
        ix, iy = stack.pop()
        for nb in ((ix + 1, iy), (ix - 1, iy), (ix, iy + 1), (ix, iy - 1)):
            if nb in sites and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return [[(ix, iy) in seen for iy in range(ny)] for ix in range(nx)], sorted(seen)


@st.composite
def open_cavities(draw, full=None, open_leads=False):
    """Random connected masked lattice with two leads, for property tests.

    ``full``, a strategy of booleans, draws whether the whole rectangle is
    kept; full lattices keep the symmetry-protected degeneracies that a
    random mask breaks. Without it the mask is always drawn. With
    ``open_leads`` both couplings and alpha are drawn from [0.05, 2], so
    both channels are open; without it each may also be 0.
    """
    nx = draw(st.integers(1, 8))
    ny = draw(st.integers(1, 8))
    if full is not None and draw(full):
        bits = [True] * (nx * ny)
    else:
        bits = draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny))
        bits[draw(st.integers(0, nx * ny - 1))] = True
    mask, sites = connected_part(
        [bits[ix * ny:(ix + 1) * ny] for ix in range(nx)], nx, ny
    )
    disorder = draw(st.sampled_from([0.0, 0.3, 1.0]))
    seed = draw(st.integers(0, 2**16))
    onsite = disorder * np.random.default_rng(seed).uniform(-1, 1, (nx, ny))
    # Contacts may coincide: both leads on one site is a supported geometry.
    c_l = sites[draw(st.integers(0, len(sites) - 1))]
    c_r = sites[draw(st.integers(0, len(sites) - 1))]
    coupling = st.floats(0.05, 2.0)
    if not open_leads:
        coupling = st.one_of(st.just(0.0), coupling)
    leads = (LeadSpec(c_l, draw(coupling)), LeadSpec(c_r, draw(coupling)))
    alpha = draw(st.floats(0.05 if open_leads else 0.0, 2.0))
    lattice = LatticeSpec(nx, ny, onsite=onsite.tolist(), mask=mask)
    return CavityModel(lattice, leads, alpha)


energies = st.floats(-1.95, 1.95)
