"""Secular-equation eigenpairs of H_eff against LAPACK zgeev.

The route ``_secular_eigenvalues`` either returns all N eigenpairs, as a
``_SecularStates``, or None; these tests call it directly and compare with
``zgeev`` of the assembled matrix root for root and state for state.
Its root finder, the Aberth kernel ``_aberth``, is also tested on its own,
on polynomials with known roots.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from opencavity import (
    CavityModel,
    DefectiveSpectrum,
    LatticeSpec,
    LeadSpec,
    PoleOnAxis,
    SingularMatrix,
    assemble_heff,
    b_antisymmetry_residual,
    biorthogonal_spectrum,
    contact_green,
    heff_spectrum,
    s_matrix,
    track_sweep,
    transmission_direct,
    transmission_spectral,
)
from opencavity import spectrum
from opencavity.spectrum import (
    _biorthogonal_set,
    _degenerate_runs,
    _degenerate_sets,
    _secular_eigenvalues,
    _SecularStates,
    _site_columns,
)
from opencavity.sweeps import (
    PEAK_FLOOR_ABS,
    AlphaGrid,
    EnergyGrid,
    RunConfig,
    _median,
    count_peaks,
    run_crossover_study,
    run_trapping_study,
)

from conftest import connected_part, energies, open_cavities


def root_distance(z, ref):
    """Largest distance from a root of either set to the nearest of the other."""
    d = np.abs(np.subtract.outer(z, ref))
    return max(d.min(axis=0).max(), d.min(axis=1).max())


def secular_pairs(model, energy):
    """The secular route's sorted roots and unit eigenvectors on the sites."""
    states = _secular_eigenvalues(model, energy)
    if states is None:
        return None
    phi = _site_columns(states)
    return states.values, phi / np.linalg.norm(phi, axis=0)


def assert_eigenpairs(h, pairs):
    """Sorted like eig_general, unit columns, small residual per state."""
    assert pairs is not None
    z, phi = pairs
    assert phi.shape == h.shape
    npt.assert_array_equal(np.lexsort((z.imag, z.real)), np.arange(len(z)))
    npt.assert_allclose(np.linalg.norm(phi, axis=0), 1.0, rtol=0, atol=1e-13)
    res = np.linalg.norm(h @ phi - phi * z, axis=0)
    assert res.max() <= 1e-12 * max(1.0, np.linalg.norm(h, 2))


def assert_matches_zgeev(model, energy):
    h = assemble_heff(model, energy)
    pairs = secular_pairs(model, energy)
    assert_eigenpairs(h, pairs)
    z = pairs[0]
    assert z.shape == (model.dimension,)
    tol = 1e-10 * max(1.0, np.linalg.norm(h, 2))
    assert root_distance(z, np.linalg.eigvals(h)) <= tol
    return z


def assert_same_set(got, want):
    """Two SpectralSets equal bit for bit."""
    npt.assert_array_equal(got.values, want.values)
    npt.assert_array_equal(got.vectors, want.vectors)
    assert got.a_norm.tolist() == want.a_norm.tolist()
    assert got.ep_proximity.tolist() == want.ep_proximity.tolist()


def single_states(values):
    """Mask of the states outside exactly degenerate clusters."""
    single = np.ones(len(values), dtype=bool)
    for members in _degenerate_sets(values, float(np.abs(values).max())):
        single[members] = False
    return single


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
        states = _secular_eigenvalues(model, e)
        accepted.append(states is not None)
        if states is not None:
            tol = 1e-10 * max(1.0, np.linalg.norm(h, 2))
            assert root_distance(states.values, np.linalg.eigvals(h)) <= tol

    check()
    assert len(accepted) >= 100
    # The kernel must not pass by always falling back.
    assert sum(accepted) >= 0.75 * len(accepted)


def test_eigenpairs_match_zgeev_on_random_cavities():
    # Worst over these draws: residual 2.2e-15 relative to ||H||, off-diagonal
    # |phi_i^T phi_j| 7.5e-14, a_norm 4.8e-14 relative; all 150 accepted.
    accepted = []

    @settings(derandomize=True, deadline=None, max_examples=150,
              database=None)
    @given(model=open_cavities(full=st.booleans()), e=energies)
    def check(model, e):
        h = assemble_heff(model, e)
        pairs = secular_pairs(model, e)
        accepted.append(pairs is not None)
        if pairs is None:
            return
        assert_eigenpairs(h, pairs)
        sp = _biorthogonal_set(*pairs, e)
        a_norm = sp.a_norm
        ok = np.isfinite(a_norm)
        gram = (sp.vectors.T @ sp.vectors)[np.ix_(ok, ok)]
        assert np.abs(np.diag(gram) - 1.0).max(initial=0.0) <= 1e-12
        assert np.abs(gram - np.diag(np.diag(gram))).max(initial=0.0) <= 1e-10
        # Inside an exactly degenerate cluster the two routes choose
        # different bases; outside it each state is the same.
        ref = biorthogonal_spectrum(h, e)
        nearest = np.abs(np.subtract.outer(sp.values, ref.values)).argmin(1)
        ref_norm = ref.a_norm[nearest]
        keep = ok & single_states(sp.values)
        npt.assert_allclose(a_norm[keep], ref_norm[keep], rtol=1e-10)
        # The resonance expansion agrees with the direct route.
        try:
            t_direct = transmission_direct(model, e)
            t_spec = transmission_spectral(sp, model)
        except (SingularMatrix, DefectiveSpectrum, PoleOnAxis):
            return
        if np.abs(e - sp.values).min() > 1e-6:
            assert abs(t_spec - t_direct) <= 1e-11

    check()
    assert len(accepted) >= 100
    assert sum(accepted) >= 0.75 * len(accepted)


@st.composite
def symmetric_lattices(draw):
    """A full rectangle, or a square with the square's symmetry, 4-79 sites.

    The symmetric masks remove whole orbits of the square's eight
    symmetries, so H_B keeps degenerate levels. Two leads on drawn sites,
    both open.
    """
    if draw(st.booleans()):
        nx = draw(st.integers(1, 9))
        ny = draw(st.integers(-(-4 // nx), 79 // nx))
        bits = [[True] * ny for _ in range(nx)]
    else:
        nx = ny = draw(st.integers(3, 9))
        bits = [[True] * ny for _ in range(nx)]
        for a, b in draw(st.lists(st.tuples(st.integers(0, nx - 1),
                                            st.integers(0, nx - 1)),
                                  max_size=4)):
            for i, j in ((a, b), (b, a)):
                for ix, iy in ((i, j), (nx - 1 - i, j), (i, nx - 1 - j),
                               (nx - 1 - i, nx - 1 - j)):
                    bits[ix][iy] = False
        assume(any(map(any, bits)))
    mask, sites = connected_part(bits, nx, ny)
    assume(mask == bits and 4 <= len(sites) <= 79)
    couplings = st.floats(0.05, 2.0)
    leads = tuple(LeadSpec(sites[draw(st.integers(0, len(sites) - 1))],
                           draw(couplings)) for _ in range(2))
    return CavityModel(LatticeSpec(nx, ny, mask=mask), leads,
                       draw(st.floats(0.05, 4.0)))


def real_basis_r_min(h):
    """Smallest r of zgeev's states with a real basis for every real span.

    States whose eigenvalues lie within 1e-12 of each other (relative)
    and whose span is real get r = 1, the value of every state of a real
    orthonormal basis; the span is real when [Re V, Im V] of their vectors
    V has rank m, its singular value m + 1 at rounding. Returns r_min and
    its tolerance: 1e-12, or eps ||H|| over the smallest gap between two
    eigenvalues that are not tied, the rounding of a state that close to
    another. r_min is None when some tied states' span is not real.
    """
    ref = biorthogonal_spectrum(h, 0.0)
    z, r = ref.values, ref.rigidity_r.copy()
    scale = max(1.0, np.abs(z).max())
    d = np.abs(np.subtract.outer(z, z))
    tied = d <= 1e-12 * scale
    for members in {tuple(np.flatnonzero(row)) for row in tied}:
        if len(members) > 1:
            v = ref.vectors[:, members]
            s = np.linalg.svd(np.hstack([v.real, v.imag]), compute_uv=False)
            if s[len(members)] > 1e-8 * s[0]:
                return None, None
            r[list(members)] = 1.0
    gap = d[~tied].min(initial=np.inf)
    return r.min(), max(1e-12, np.finfo(float).eps * scale / gap)


def test_minimum_rigidity_is_that_of_a_real_basis():
    # On small lattices too, heff_spectrum gives the dark members of a
    # degenerate level as real states with r = 1, where zgeev's complex
    # basis of the same level reads r down to 0.08 on the 6 x 6 lattice.
    seen, complex_basis = [], []

    @settings(derandomize=True, deadline=None, max_examples=200,
              database=None)
    @given(model=symmetric_lattices(), e=energies)
    def check(model, e):
        h = assemble_heff(model, e)
        want, tol = real_basis_r_min(h)
        assume(want is not None)
        sp = heff_spectrum(model, e)
        seen.append(isinstance(sp.basis, _SecularStates))
        complex_basis.append(abs(biorthogonal_spectrum(h, e).rigidity_r.min()
                                 - want) > tol)
        assert abs(sp.rigidity_r.min() - want) <= tol

    check()
    assert len(seen) >= 150
    # No draw falls back to zgeev.
    assert all(seen)
    # The draws must hold levels where zgeev's basis misreads r_min: 48 of
    # the 200 do.
    assert sum(complex_basis) >= 30


# Where the benchmark's ep-2x2 search converges: the three-site L of a 2 x 2
# square, leads on (0, 0) and (1, 0), alpha = 1, E = 0.
EP_2X2 = (1.7538270359705528, 1.2553525663825442)


@pytest.mark.parametrize("offset", [0.0, 1e-9, 1e-7])
def test_exceptional_point_falls_back_to_zgeev(offset):
    w_l, w_r = (w * (1.0 + offset) for w in EP_2X2)
    model = CavityModel(LatticeSpec(2, 2, mask=[[1, 0], [1, 1]]),
                        (LeadSpec((0, 0), w_l), LeadSpec((1, 0), w_r)), 1.0)
    h = assemble_heff(model, 0.0)
    # The pair separates like the square root of the offset.
    assert spectrum._closest_pair(np.linalg.eigvals(h))[1] < 1e-2
    assert _secular_eigenvalues(model, 0.0) is None
    assert_same_set(heff_spectrum(model, 0.0), biorthogonal_spectrum(h, 0.0))


def weak_chain():
    """A disordered chain with both leads on its first site.

    One level keeps contact weight 8.8e-9 at E = -1.2: its shift w^2 sigma
    is below the rounding of its pole, but its first-order residual
    |w| |sigma| is far above the backward-error bound.
    """
    onsite = 3.0 * np.random.default_rng(3).uniform(-1.0, 1.0, (20, 1))
    return CavityModel(LatticeSpec(20, 1, onsite=onsite.tolist()),
                       (LeadSpec((0, 0), 1.0), LeadSpec((0, 0), 1.0)), 1.0)


def test_weakly_coupled_level_is_not_taken_for_dark():
    # Deflated, the level's closed-cavity vector would leave a residual
    # w sigma of 8.8e-9; kept bright, its root sits within the rounding of
    # the pole, and its offset from the pole comes from the secular
    # equation.
    model = weak_chain()
    e_k, u = model.closed_modes
    w = u[list(model.contact_indices)].T
    sigma = model.self_energy_weights(-1.2)
    scale = np.abs(e_k).max() + np.abs(sigma).sum()
    k = np.abs(w[:, 0]).argmin()
    assert w[k] ** 2 @ np.abs(sigma) <= np.finfo(float).eps * scale
    assert np.abs(w[k]) @ np.abs(sigma) > 1e-12 * scale
    z = assert_matches_zgeev(model, -1.2)
    states = _secular_eigenvalues(model, -1.2)
    lost = np.flatnonzero(states.near >= 0)
    assert len(lost) == 1
    assert states.bright[states.near[lost]] == k
    assert np.abs(z - e_k[k]).min() < 1e-15
    # Its pairs are summed over the poles, and agree with the dense phi.
    sps = [heff_spectrum(model.with_alpha(a), -1.2) for a in (0.9, 1.0)]
    npt.assert_allclose(sps[0].overlaps(sps[1]),
                        spectrum._dense_overlaps(sps[0].vectors,
                                                 sps[1].vectors),
                        rtol=0, atol=1e-12)


def weak_level_cavity():
    """A 15-site disordered cavity with a nearly dark level at E = 0.

    Its level at 0.7467 keeps contact weights of 5e-6 and 2e-5, so its
    root sits 2e-10 from its pole, outside the rounding of z.
    """
    onsite = [
        [-0.08783270355185002, 0, 0, 0, 0, 0, 0, 0],
        [0.548249648680774, 0, 0, 0, 0, -0.7528460777274546,
         -0.7706807837566743, 0.19165062526143162],
        [-0.7443518403006668, -0.4153861511162582, 0.7684769009539385, 0,
         0.41686338220541774, 0.855271837206405, 0, 0],
        [0, 0.7253330839449663, 0.3860954367609404, 0.33449742732133414,
         0.6000040376995077, 0, 0, 0],
        [0, 0, 0.7494747363036778, 0, 0, 0, 0, 0],
    ]
    mask = [[1, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 1, 1, 1],
            [1, 1, 1, 0, 1, 1, 0, 0], [0, 1, 1, 1, 1, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0]]
    return CavityModel(
        LatticeSpec(5, 8, onsite=onsite, mask=mask),
        (LeadSpec((1, 5), 1.0), LeadSpec((1, 6), 1.0)), 1.0)


def test_nearly_dark_level_keeps_a_backward_stable_vector():
    # The root is off by 7e-16, which 1 / (z - p) carries into the other
    # components of its eigenvector at 4e-6 relative: a residual of
    # 1.3e-12 ||H||, which a bound of 1e-12 times the scale (4.8, against
    # ||H|| = 2.8) accepted. Against 1e-12 max |lambda| it fails, and the
    # root takes its pole offset from the secular equation instead.
    model = weak_level_cavity()
    assert_matches_zgeev(model, 0.0)
    states = _secular_eigenvalues(model, 0.0)
    assert np.count_nonzero(states.near >= 0) == 1


def test_dark_cluster_gets_real_rigid_states(monkeypatch):
    # Contacts on opposite edges of the full 15 x 15 lattice: H_B has a
    # 15-fold level at 0, and 13 of its states have no contact weight.
    # zgeev returns an arbitrary complex basis for them (r down to 0.07 on
    # the benchmark's lattices); the secular route their real combinations.
    model = square(15, ((0, 3), (14, 9)), 0.9)
    sp = heff_spectrum(model, 0.3)
    r = sp.rigidity_r
    dark = np.abs(sp.values) < 1e-12
    assert np.count_nonzero(dark) == 13
    npt.assert_allclose(r[dark], 1.0, rtol=0, atol=1e-12)
    assert np.abs(sp.vectors[:, dark].imag).max() == 0.0

    monkeypatch.setattr(spectrum, "_secular_eigenvalues",
                        lambda *args, **kwargs: None)
    ref = heff_spectrum(model, 0.3)
    r_ref = ref.rigidity_r
    single = single_states(ref.values)
    npt.assert_array_equal(single, ~dark)
    npt.assert_allclose(sp.values[single], ref.values[single], rtol=0,
                        atol=1e-12)
    npt.assert_allclose(r.min(), r_ref[single].min(), rtol=1e-10)
    assert abs(transmission_spectral(sp, model)
               - transmission_direct(model, 0.3)) <= 1e-11
    # Outside the cluster the Hermitian cross overlaps agree too.
    def residual(phis):
        overlap_b = phis.conj().T @ phis
        np.fill_diagonal(overlap_b, 0.0)
        return b_antisymmetry_residual(overlap_b)

    npt.assert_allclose(residual(sp.vectors[:, single]),
                        residual(ref.vectors[:, single]), rtol=1e-10)

    def ambiguous(spectra):
        return sum(int(sp.ambiguous.sum()) for sp in spectra)

    alphas = [0.1, 0.4, 0.9, 2.0, 4.0]
    zgeev_count = ambiguous(track_sweep(model.with_alpha, alphas, 0.3))
    monkeypatch.undo()
    assert ambiguous(track_sweep(model.with_alpha, alphas, 0.3)) <= zgeev_count


@pytest.mark.parametrize("model,energy", [
    (square(15, ((0, 3), (14, 9)), 0.9), 0.3),
    (square(9, ((0, 4), (4, 0)), 1.0), 0.3),
    (square(6, ((0, 0), (5, 5)), 0.8), 0.2),
    (weak_chain(), -1.2),
], ids=["dark-cluster-15x15", "mirror-9x9", "corners-6x6", "weak-chain"])
def test_spectral_transmission_forms_no_phi(monkeypatch, model, energy):
    # The expansion reads only the states' contact rows, from the secular
    # basis itself, and agrees with the direct route as before.
    sp = heff_spectrum(model, energy)
    assert isinstance(sp.basis, _SecularStates)
    assert np.abs(energy - sp.values).min() > 1e-6

    def refuse(*args):
        raise AssertionError("transmission_spectral formed phi")

    monkeypatch.setattr(spectrum, "_site_columns", refuse)
    t_spec = transmission_spectral(sp, model)
    assert abs(t_spec - transmission_direct(model, energy)) <= 1e-11


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


def aberth(z, newton):
    with np.errstate(all="ignore"):
        return spectrum._aberth(z, newton, 1.0)


def test_aberth_finds_known_roots_from_perturbed_starts():
    # z^40 - 1, two blocks of iterates; its roots are the 40th roots of 1.
    n = 40
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    noise = np.random.default_rng(0).normal(size=(2, n))
    z = roots + 1e-2 * (noise[0] + 1j * noise[1])
    assert aberth(z, lambda zb: (zb ** n - 1.0) / (n * zb ** (n - 1))) is z
    assert root_distance(z, roots) <= 1e-14


def test_aberth_nudge_separates_coincident_starts(monkeypatch):
    # (z - 1)(z - 3) from two equal starts: their repulsion divides by
    # zero, and only the nudge, which differs per root, splits them.
    def newton(zb):
        return (zb - 1.0) * (zb - 3.0) / (2.0 * zb - 4.0)

    z = np.full(2, 0.5 + 0j)
    assert aberth(z, newton) is z
    assert root_distance(z, np.array([1.0, 3.0])) <= 1e-14
    monkeypatch.setattr(spectrum, "_NUDGE", 0.0)
    assert aberth(np.full(2, 0.5 + 0j), newton) is None


def test_aberth_gives_none_after_the_sweep_limit():
    blocks = []

    def newton(zb):
        blocks.append(len(zb))
        return np.ones(len(zb), dtype=complex)

    assert aberth(np.arange(40, dtype=complex), newton) is None
    # No root ever stops, so every sweep evaluates both blocks.
    sweep = [spectrum._BLOCK, 40 - spectrum._BLOCK]
    assert blocks == sweep * spectrum._ABERTH_MAX_ITER


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("energy", [0.0, 0.3])
def test_degenerate_cluster_full_square(alpha, energy):
    model = square(4, ((0, 2), (3, 2)), alpha)
    e_k = model.closed_modes[0]
    assert _degenerate_runs(e_k, float(np.abs(e_k).max()))[1].max() == 4
    assert_matches_zgeev(model, energy)


def runs_reference(values, scale):
    """The multi-member runs of ``_degenerate_runs`` by np.split."""
    d = np.diff(values)
    splits = np.flatnonzero(np.hypot(d.real, d.imag) > 1e-12 * max(scale, 1.0))
    runs = np.split(np.arange(len(values)), splits + 1)
    return [c.tolist() for c in runs if len(c) > 1]


@st.composite
def tied_values(draw):
    """Sorted real or complex values with planted gaps at the tolerance."""
    scale = draw(st.sampled_from([0.5, 1.0, 7.25]))
    tol = 1e-12 * max(scale, 1.0)
    gaps = draw(st.lists(st.sampled_from([
        0.0, 0.5 * tol, np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0),
        2.0 * tol, 0.3, 1.0]), max_size=12))
    x = draw(st.floats(-3.0, 3.0)) + np.cumsum([0.0] + gaps)
    if draw(st.booleans()):
        angles = draw(st.lists(st.floats(-1.5, 1.5), min_size=len(x),
                               max_size=len(x)))
        x = np.sort_complex(x + 1j * np.cumsum(np.tan(angles)) * tol)
    n = draw(st.integers(0, len(x)))
    return x[:n], scale


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(tied_values())
def test_degenerate_runs_match_split_reference(case):
    values, scale = case
    first, size = _degenerate_runs(values, scale)
    runs = [list(range(f, f + m)) for f, m in zip(first.tolist(),
                                                   size.tolist())]
    assert runs == runs_reference(values, scale)


def test_degenerate_runs_of_empty_and_single_inputs():
    for values in (np.empty(0), np.empty(0, dtype=complex), np.array([0.5]),
                   np.array([1.0 - 2.0j])):
        first, size = _degenerate_runs(values, 1.0)
        assert first.size == size.size == 0
        assert _degenerate_sets(values, 1.0) == []


def sets_reference(values, scale):
    """Connected components of |z_i - z_j| <= tol, by search over all pairs."""
    tol = 1e-12 * max(scale, 1.0)
    left, sets = set(range(len(values))), []
    while left:
        found, todo = set(), [min(left)]
        while todo:
            i = todo.pop()
            found.add(i)
            todo += [j for j in left - found if abs(values[i] - values[j]) <= tol]
            left -= found
        if len(found) > 1:
            sets.append(sorted(found))
    return sets


def test_degenerate_sets_match_pairwise_reference():
    # Some values get a copy 0.5i off, which sorts right after them and so
    # between two tied values.
    interleaved = []

    @settings(derandomize=True, deadline=None, max_examples=300,
              database=None)
    @given(tied_values(), st.data())
    def check(case, data):
        values, scale = case
        copied = data.draw(st.lists(st.booleans(), min_size=len(values),
                                    max_size=len(values)))
        values = np.sort_complex(np.concatenate(
            [values, values[np.array(copied, dtype=bool)] + 0.5j]))
        got = [m.tolist() for m in _degenerate_sets(values, scale)]
        assert got == sets_reference(values, scale)
        interleaved.append(any(m[-1] - m[0] >= len(m) for m in got))

    check()
    # The draws must hold sets that other values sort between: 30 of the
    # 300 do.
    assert sum(interleaved) >= 20


def test_grouped_deflation_covers_every_group(monkeypatch):
    # H_B of the 9 x 9 square has two-fold levels and one nine-fold level.
    # The contacts are mirror images under x <-> y and sigma_L = sigma_R,
    # so the levels keep 0, 1 or 2 bright combinations, and many two-bright
    # levels shift twice by the same amount.
    model, energy = square(9, ((0, 4), (4, 0)), 1.0), 0.3
    e_k, u = model.closed_modes
    w_all = u[list(model.contact_indices)].T
    first, size = _degenerate_runs(e_k, float(np.abs(e_k).max()))
    bright = [np.linalg.matrix_rank(w_all[f:f + m], tol=1e-12)
              for f, m in zip(first, size)]
    assert set(size.tolist()) == {2, 9}
    assert set(bright) == {0, 1, 2}

    z = assert_matches_zgeev(model, energy)
    sp = heff_spectrum(model, energy)
    npt.assert_array_equal(sp.values, z)
    # The dark members keep their closed-cavity values: real, rigid states.
    dark = sp.values.imag == 0.0
    unlit = np.abs(w_all[single_states(e_k)]).max(axis=1) < 1e-12
    assert np.count_nonzero(dark) == (size.sum() - sum(bright)
                                      + np.count_nonzero(unlit))
    assert np.abs(sp.vectors[:, dark].imag).max() == 0.0
    npt.assert_allclose(sp.rigidity_r[dark], 1.0, rtol=0, atol=1e-12)

    # The coincident shifts are there: left unseparated, the starts never
    # move and the backward-error check rejects them.
    monkeypatch.setattr(spectrum, "_COINCIDENT", -1.0)
    assert _secular_eigenvalues(model, energy) is None


def test_one_svd_per_cluster_size(monkeypatch):
    model = square(15, ((0, 3), (14, 9)), 0.9)
    e_k = model.closed_modes[0]
    sizes = np.unique(_degenerate_runs(e_k, float(np.abs(e_k).max()))[1])
    assert sizes.tolist() == [2, 15]
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    heff_spectrum(model, 0.3)
    assert 0 < len(calls) <= len(sizes)


@pytest.mark.parametrize("alpha,w", [(0.0, (1.0, 1.0)), (1.0, (0.0, 0.0))])
def test_uncoupled_cavity_gives_closed_modes_exactly(alpha, w):
    model = square(4, ((0, 2), (3, 2)), alpha, w)
    z = _secular_eigenvalues(model, 0.3).values
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


def test_one_spectrum_route_at_every_size(monkeypatch):
    small = square(6, ((0, 0), (5, 5)), 0.8)
    h = assemble_heff(small, 0.2)
    ref_values = np.linalg.eigvals(h)
    ref_set = biorthogonal_spectrum(h, 0.2)
    mask, (c_l, c_r) = irregular_cavity()
    large = CavityModel(LatticeSpec(14, 13, mask=mask),
                        (LeadSpec(c_l, 1.0), LeadSpec(c_r, 1.0)), 0.8)
    h_large = assemble_heff(large, 0.2)
    reference = np.linalg.eigvals(h_large)

    def refuse(*args):
        raise AssertionError("the secular route assembles no H_eff")

    # heff_spectrum takes the secular route on the 36-site lattice as on
    # the 155-site cavity, and also on the chain whose level has a shift
    # below the rounding of its pole but a first-order residual above the
    # backward-error bound.
    monkeypatch.setattr(spectrum, "assemble_heff", refuse)
    got = heff_spectrum(small, 0.2)
    assert isinstance(got.basis, _SecularStates)
    npt.assert_allclose(got.values, ref_set.values, rtol=0, atol=1e-12)
    single = single_states(ref_set.values)
    npt.assert_allclose(got.a_norm[single], ref_set.a_norm[single],
                        rtol=1e-10)
    assert isinstance(heff_spectrum(weak_chain(), -1.2).basis, _SecularStates)
    for model, ref in ((small, ref_values), (large, reference)):
        z = heff_spectrum(model, 0.2).values
        assert root_distance(z, ref) <= 1e-12 * np.abs(ref).max()
    monkeypatch.undo()

    # A failed check falls back to zgeev, bit for bit.
    monkeypatch.setattr(spectrum, "_secular_eigenvalues",
                        lambda *args, **kwargs: None)
    npt.assert_array_equal(heff_spectrum(large, 0.2).values,
                           biorthogonal_spectrum(h_large, 0.2).values)
    assert_same_set(heff_spectrum(small, 0.2), ref_set)


def masked_6x6_crossover():
    mask = np.ones((6, 6), dtype=int)
    mask[2:4, 1:3] = 0
    mask[0, 5] = 0
    return RunConfig(
        study="crossover",
        lattice=LatticeSpec(6, 6, mask=mask.tolist()),
        leads=(LeadSpec((0, 1), 1.0), LeadSpec((5, 4), 0.7)),
        alpha=0.8,
        e_grid=EnergyGrid(-1.85, 1.87, 20),
        alpha_grid=AlphaGrid(0.1, 4.0, 10, "log"),
    )


def assert_crossover_widths_are_spectrum_widths(config):
    crossover = run_crossover_study(config).rows
    spectrum_rows = run_trapping_study(config).rows
    npt.assert_array_equal(crossover[:, 0], spectrum_rows[:, 0])
    widths = spectrum_rows[:, 1:-1]
    npt.assert_array_equal(crossover[:, 3], widths.max(axis=1))
    npt.assert_array_equal(crossover[:, 4], [_median(w) for w in widths])


def test_crossover_widths_are_the_spectrum_study_widths(monkeypatch):
    # On a 6 x 6 masked cavity the crossover's widths are the spectrum
    # study's, bit for bit, at every coupling: both come from the secular
    # route.
    def refuse(*args):
        raise AssertionError("every coupling takes the secular route")

    monkeypatch.setattr(spectrum, "assemble_heff", refuse)
    assert_crossover_widths_are_spectrum_widths(masked_6x6_crossover())


def test_crossover_widths_on_the_fallback(monkeypatch):
    # When every secular check fails, both studies fall back to the same
    # zgeev of the assembled matrix, and the widths still agree bit for bit.
    calls = []
    monkeypatch.setattr(spectrum, "_secular_eigenvalues",
                        lambda *args: calls.append(args))
    assert_crossover_widths_are_spectrum_widths(masked_6x6_crossover())
    assert len(calls) == 2 * 10


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
    assert base.dimension >= 140
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


def unit_couplings(model):
    """``model``'s geometry and contacts with both couplings 1.

    From alpha = 1.5 on, |sigma_C| = alpha^2 then exceeds the hopping of
    any contact to the other sites, at most 2, at every in-band energy.
    """
    leads = [LeadSpec(lead.contact, 1.0) for lead in model.leads]
    return CavityModel(model.lattice, leads, model.alpha)


def irregular_model(alpha):
    mask, (c_l, c_r) = irregular_cavity()
    return CavityModel(LatticeSpec(14, 13, mask=mask),
                       (LeadSpec(c_l, 1.0), LeadSpec(c_r, 1.0)), alpha)


def test_trapping_starts_never_fall_back(monkeypatch):
    # Past the trapping threshold the starts sit near trapped and
    # superradiant roots. No start may sit on a pole (a trapped level
    # equal to a bright level) or on another start (tied trapped levels),
    # or the check rejects the root and zgeev runs instead.
    fired = []
    trapping_starts = spectrum._trapping_starts

    def recorded(*args):
        starts = trapping_starts(*args)
        fired.append(starts is not None)
        return starts

    def refuse(*args):
        raise AssertionError("strong-coupling starts fell back to zgeev")

    monkeypatch.setattr(spectrum, "_trapping_starts", recorded)
    monkeypatch.setattr(spectrum, "assemble_heff", refuse)
    config = masked_6x6_crossover()
    grid = config.alpha_grid.values()
    assert grid[-1] == 4.0 and round(grid[-2], 3) == 2.655

    @settings(derandomize=True, deadline=None, max_examples=150,
              database=None)
    @given(model=st.one_of(open_cavities(full=st.booleans(), open_leads=True),
                           symmetric_lattices()).map(unit_couplings),
           alpha=st.floats(1.5, 8.0), e=energies)
    @example(model=config.build_model(), alpha=grid[-1],
             e=config.e_grid.center)
    @example(model=irregular_model(0.8), alpha=grid[-2],
             e=config.e_grid.center)
    def check(model, alpha, e):
        model = model.with_alpha(alpha)
        assert_matches_zgeev(model, e)
        assert isinstance(heff_spectrum(model, e).basis, _SecularStates)

    check()
    assert len(fired) >= 2 * 150
    assert all(fired)


def test_trapping_starts_halve_the_root_evaluations(monkeypatch):
    # On the 155-site cavity at alpha = 4 the first-order starts took
    # 2,120 root evaluations, the trapping starts 605.
    evaluations = []
    aberth = spectrum._aberth

    def counted(z, newton, scale):
        def counted_newton(zb):
            evaluations.append(len(zb))
            return newton(zb)
        return aberth(z, counted_newton, scale)

    # Below the threshold the trapped levels are not computed; past it,
    # once for every coupling.
    weak = irregular_model(0.8)
    heff_spectrum(weak, 0.01)
    assert not weak._closed._interior
    monkeypatch.setattr(spectrum, "_aberth", counted)
    assert_matches_zgeev(weak.with_alpha(4.0), 0.01)
    assert 0 < sum(evaluations) <= 2120 // 2
    heff_spectrum(weak.with_alpha(3.0), 0.01)
    assert len(weak._closed._interior) == 1
