"""Secular-equation eigenvalues of H_eff against LAPACK zgeev.

The kernel ``_secular_eigenvalues`` either returns all N eigenvalues or
None; these tests call it directly, below the size at which
``heff_eigenvalues`` selects it, and compare with ``np.linalg.eigvals`` of
the assembled matrix root for root.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opencavity import (
    CavityModel,
    LatticeSpec,
    LeadSpec,
    assemble_heff,
    contact_green,
    heff_eigenvalues,
    s_matrix,
)
from opencavity import spectrum
from opencavity.spectrum import _cluster_degenerate, _secular_eigenvalues
from opencavity.sweeps import (
    PEAK_FLOOR_ABS,
    AlphaGrid,
    EnergyGrid,
    RunConfig,
    count_peaks,
    run_crossover_study,
)

from conftest import energies, open_cavities


def root_distance(z, ref):
    """Largest distance from a root of either set to the nearest of the other."""
    d = np.abs(np.subtract.outer(z, ref))
    return max(d.min(axis=0).max(), d.min(axis=1).max())


def assert_matches_zgeev(model, energy):
    h = assemble_heff(model, energy)
    z = _secular_eigenvalues(model, energy)
    assert z is not None
    assert z.shape == (model.dimension,)
    tol = 1e-10 * max(1.0, np.linalg.norm(h, 2))
    assert root_distance(z, np.linalg.eigvals(h)) <= tol
    return z


def square(n, contacts, alpha, w=(1.0, 1.0)):
    leads = [LeadSpec(c, wc) for c, wc in zip(contacts, w)]
    return CavityModel(LatticeSpec(n, n), leads, alpha)


def test_secular_matches_zgeev_on_random_cavities():
    accepted = []

    @settings(derandomize=True, deadline=None, max_examples=150,
              database=None)
    @given(model=open_cavities(full=st.booleans()), e=energies)
    def check(model, e):
        h = assemble_heff(model, e)
        z = _secular_eigenvalues(model, e)
        accepted.append(z is not None)
        if z is not None:
            tol = 1e-10 * max(1.0, np.linalg.norm(h, 2))
            assert root_distance(z, np.linalg.eigvals(h)) <= tol

    check()
    assert len(accepted) >= 100
    # The kernel must not pass by always falling back.
    assert sum(accepted) >= 0.75 * len(accepted)


def test_coincident_first_order_starts_are_separated():
    # The zero-energy pair of the 2x2 square has equal contact weights on
    # both leads, so both first-order starts are the same number.
    model = square(2, ((0, 1), (1, 1)), 1.0)
    z = assert_matches_zgeev(model, 0.3)
    for root in (-0.051 - 0.537j, 0.201 - 0.452j):
        assert np.abs(z - root).min() < 1e-3


def test_backward_error_rejects_unmoved_iterates(monkeypatch):
    # Without the separation the two starts never move, and their sum is
    # still the trace; only the backward-error check can reject them.
    monkeypatch.setattr(spectrum, "_COINCIDENT", -1.0)
    assert _secular_eigenvalues(square(2, ((0, 1), (1, 1)), 1.0), 0.3) is None


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("energy", [0.0, 0.3])
def test_degenerate_cluster_full_square(alpha, energy):
    model = square(4, ((0, 2), (3, 2)), alpha)
    e_k = model.closed_modes[0]
    clusters = _cluster_degenerate(e_k, float(np.abs(e_k).max()))
    assert max(len(c) for c in clusters) == 4
    assert_matches_zgeev(model, energy)


@pytest.mark.parametrize("alpha,w", [(0.0, (1.0, 1.0)), (1.0, (0.0, 0.0))])
def test_uncoupled_cavity_gives_closed_modes_exactly(alpha, w):
    model = square(4, ((0, 2), (3, 2)), alpha, w)
    z = _secular_eigenvalues(model, 0.3)
    npt.assert_array_equal(np.sort(z.real), model.closed_modes[0])
    npt.assert_array_equal(z.imag, 0.0)


@pytest.mark.parametrize(
    "contacts,w",
    [
        (((1, 1), (1, 1)), (1.0, 0.7)),   # shared contact
        (((0, 0), (3, 3)), (1.0, 0.0)),   # one detached channel
        (((0, 2), (0, 2)), (1.3, 0.0)),
    ],
)
@pytest.mark.parametrize("alpha", [0.4, 1.5])
def test_rank_one_self_energy(contacts, w, alpha):
    for energy in (0.0, -0.7):
        assert_matches_zgeev(square(4, contacts, alpha, w), energy)


def irregular_cavity():
    """A 14 x 13 rectangle with a corner cut and two holes: 155 sites."""
    mask = np.ones((14, 13), dtype=int)
    for ix in range(14):
        for iy in range(13):
            if ix + iy < 4:
                mask[ix, iy] = 0
    mask[5:8, 4:9] = 0
    mask[10, 2:4] = 0
    return mask.tolist(), ((0, 8), (13, 3))


def test_size_selects_the_route(monkeypatch):
    small = square(6, ((0, 0), (5, 5)), 0.8)
    assert small.dimension < spectrum.SECULAR_MIN_N
    npt.assert_array_equal(heff_eigenvalues(small, 0.2),
                           np.linalg.eigvals(assemble_heff(small, 0.2)))

    mask, (c_l, c_r) = irregular_cavity()
    large = CavityModel(LatticeSpec(14, 13, mask=mask),
                        (LeadSpec(c_l, 1.0), LeadSpec(c_r, 1.0)), 0.8)
    assert large.dimension >= spectrum.SECULAR_MIN_N
    reference = np.linalg.eigvals(assemble_heff(large, 0.2))

    def refuse(*args):
        raise AssertionError("the secular route assembles no H_eff")

    monkeypatch.setattr(spectrum, "assemble_heff", refuse)
    z = heff_eigenvalues(large, 0.2)
    assert root_distance(z, reference) <= 1e-12 * np.abs(reference).max()

    # A failed check falls back to zgeev, bit for bit.
    monkeypatch.undo()
    monkeypatch.setattr(spectrum, "_secular_eigenvalues", lambda m, e: None)
    npt.assert_array_equal(heff_eigenvalues(large, 0.2), reference)


def test_crossover_matches_eigvals_reference(monkeypatch):
    mask, (c_l, c_r) = irregular_cavity()
    config = RunConfig(
        study="crossover",
        lattice=LatticeSpec(14, 13, mask=mask),
        leads=(LeadSpec(c_l, 1.0), LeadSpec(c_r, 1.0)),
        alpha=0.8,
        e_grid=EnergyGrid(-1.85, 1.87, 20),
        alpha_grid=AlphaGrid(0.1, 4.0, 10, "log"),
    )
    base = config.build_model()
    assert base.dimension >= max(140, spectrum.SECULAR_MIN_N)
    energies = config.e_grid.values()
    e_c = config.e_grid.center
    reference = []
    for a in config.alpha_grid.values():
        model = base.with_alpha(a)
        abs_t = np.abs(s_matrix(model, energies)[:, 1, 0])
        _, x = contact_green(model, energies)
        rho = np.abs(np.sum(x * x, axis=1)) / np.sum(np.abs(x) ** 2, axis=1)
        widths = -2.0 * np.linalg.eigvals(assemble_heff(model, e_c)).imag
        reference.append((a, np.nanmean(abs_t**2), np.nanmin(rho),
                          widths.max(), np.median(widths),
                          count_peaks(abs_t, PEAK_FLOOR_ABS)))
    reference = np.array(reference)

    def refuse(*args):
        raise AssertionError("every coupling takes the secular route")

    monkeypatch.setattr(spectrum, "assemble_heff", refuse)
    rows = run_crossover_study(config).rows
    for col in (0, 1, 2, 5):
        npt.assert_array_equal(rows[:, col], reference[:, col])
    npt.assert_allclose(rows[:, 3:5], reference[:, 3:5], rtol=0, atol=1e-12)
