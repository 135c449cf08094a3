"""The secular route's closed forms against its own dense phi.

On the secular route a SpectralSet keeps each state as its root's 2-vector
x in the eigenbasis of H_B, and takes the overlaps of two spectra, the
norms A, the cross overlaps B and the resonance expansion's rigidity from
O(N^2) closed forms; phi on the sites is formed only when ``vectors`` is
read. These tests compare the closed forms with dense products over the
same set's ``vectors``, check that the spectrum and rigidity studies never
form phi, and compare those studies with the ``zgeev`` route.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opencavity import (
    CavityModel,
    DefectiveSpectrum,
    LatticeSpec,
    LeadSpec,
    OutsideBand,
    PoleOnAxis,
    UndefinedValue,
    b_antisymmetry_residual,
    coefficients_c,
    heff_spectrum,
    rho_direct,
)
from opencavity import spectrum
from opencavity.spectrum import _dense_overlaps, _SecularStates
from opencavity.sweeps import (
    AlphaGrid,
    EnergyGrid,
    RunConfig,
    run_rigidity_study,
    run_trapping_study,
)

from conftest import connected_part, energies

EPS = np.finfo(float).eps
# The spectral rigidity columns of test_studies_match_the_zgeev_route differ
# between the routes by up to 6.4e-13 (rho_spec_re).
RIGIDITY_TOL = 1e-11


@st.composite
def disordered_cavities(draw):
    """A disordered 9-12 x 10 lattice with holes, 80 to 120 sites kept.

    Returns the model and two coupling values.
    """
    nx, ny = draw(st.integers(9, 12)), 10
    holes = draw(st.lists(st.tuples(st.integers(0, nx - 1),
                                    st.integers(0, ny - 1)), max_size=14))
    bits = [[(ix, iy) not in holes or (ix, iy) == (0, 0) for iy in range(ny)]
            for ix in range(nx)]
    mask, sites = connected_part(bits, nx, ny)
    assume(80 <= len(sites) <= 120)
    seed = draw(st.integers(0, 2**16))
    disorder = draw(st.sampled_from([0.3, 1.0]))
    onsite = disorder * np.random.default_rng(seed).uniform(-1, 1, (nx, ny))
    couplings = st.floats(0.05, 2.0)
    leads = tuple(LeadSpec(sites[draw(st.integers(0, len(sites) - 1))],
                           draw(couplings)) for _ in range(2))
    lattice = LatticeSpec(nx, ny, onsite=onsite.tolist(), mask=mask)
    alphas = (draw(couplings), draw(couplings))
    return CavityModel(lattice, leads, alphas[0]), alphas


def state_tolerance(sp):
    """Per-state bound: 1e-12, or eps / gap for a state with a close twin.

    The bilinear Gram-Schmidt of the dense phi mixes states closer than
    1e-12 relative, and moves states a little farther apart by about eps
    over their relative gap.
    """
    z = sp.values
    scale = max(1.0, float(np.abs(z).max()))
    d = np.abs(np.subtract.outer(z, z))
    np.fill_diagonal(d, np.inf)
    with np.errstate(divide="ignore"):
        return np.maximum(1e-12, EPS * scale / d.min(axis=1))


def closed_b(sp):
    """|B| of a secular set by the closed form, zero diagonal."""
    states = sp.basis
    n = len(sp)
    b = np.zeros((n, n))
    for blk, prod in states._products(states):
        b[np.ix_(states.bright_pos[blk], states.bright_pos)] = np.abs(prod)
    np.fill_diagonal(b, 0.0)
    return b


class DirectPairs:
    """Counts the bright pairs whose product is summed directly."""

    def __init__(self, monkeypatch):
        self.count = 0
        rows = _SecularStates.rows

        def counted(states, i):
            if not isinstance(i, slice):
                self.count += len(i)
            return rows(states, i)

        monkeypatch.setattr(_SecularStates, "rows", counted)


def check_against_dense(model, alphas, e, pairs):
    """Closed forms of two secular spectra against their dense phi.

    Returns False when either spectrum falls back to ``zgeev``.
    """
    sps = [heff_spectrum(model.with_alpha(a), e) for a in alphas]
    if not all(isinstance(sp.basis, _SecularStates) for sp in sps):
        return False
    # Everything closed-form first: reading vectors forms phi.
    before = pairs.count
    overlaps = sps[0].overlaps(sps[1])
    b = [closed_b(sp) for sp in sps]
    expansions = []
    for sp in sps:
        try:
            expansions.append(sp.expansion_rigidity(model.with_alpha(
                alphas[len(expansions)])))
        except (PoleOnAxis, DefectiveSpectrum, UndefinedValue, OutsideBand):
            expansions.append(None)
    # rows() is called once per pair for each of the two states.
    pairs.count = before + (pairs.count - before) // 2

    tol = [state_tolerance(sp) for sp in sps]
    dense = _dense_overlaps(sps[0].vectors, sps[1].vectors)
    bound = np.maximum.outer(tol[0], tol[1])
    assert (np.abs(overlaps - dense) <= bound).all()
    for sp, t, b_sp, expansion, a in zip(sps, tol, b, expansions, alphas):
        phis = sp.vectors
        gram = phis.conj().T @ phis
        a_norm = np.maximum(np.diag(gram).real, 1.0)
        assert (np.abs(sp.a_norm / a_norm - 1.0) <= t).all()
        np.fill_diagonal(gram, 0.0)
        scale = np.sqrt(np.multiply.outer(sp.a_norm, sp.a_norm))
        assert (np.abs(b_sp - np.abs(gram))
                <= np.maximum.outer(t, t) * scale).all()
        if expansion is None:
            continue
        rho, residual = expansion
        c = coefficients_c(sp, model.with_alpha(a))
        mod, theta = rho_direct(phis @ c)
        worst = float(t.max())
        assert abs(rho - mod * np.exp(-2j * theta)) <= worst
        assert abs(residual - b_antisymmetry_residual(gram)) <= worst * (
            1.0 + float(scale.max()))
    return True


def test_closed_forms_match_dense_phi_on_disordered_cavities(monkeypatch):
    pairs = DirectPairs(monkeypatch)
    accepted = []

    @settings(derandomize=True, deadline=None, max_examples=60,
              database=None)
    @given(case=disordered_cavities(), e=energies)
    def check(case, e):
        model, alphas = case
        accepted.append(check_against_dense(model, alphas, e, pairs))

    check()
    assert len(accepted) >= 40
    # The closed forms must not pass by always falling back.
    assert sum(accepted) >= 0.75 * len(accepted)


@pytest.mark.parametrize("n, contacts", [(9, ((0, 2), (8, 5))),
                                         (10, ((0, 3), (9, 7)))])
@pytest.mark.parametrize("e", [0.3, -1.1])
def test_closed_forms_match_dense_phi_on_dark_clusters(monkeypatch, n,
                                                       contacts, e):
    # H_B of the full n x n square has an n-fold level at 0, most of it
    # without contact weight: dark members beside bright roots.
    model = CavityModel(LatticeSpec(n, n),
                        tuple(LeadSpec(c, 1.0) for c in contacts), 0.9)
    pairs = DirectPairs(monkeypatch)
    assert check_against_dense(model, (0.1, 0.9), e, pairs)
    sp = heff_spectrum(model, e)
    assert np.count_nonzero(sp.values.imag == 0.0) >= n - 2


def test_closed_forms_follow_the_gram_schmidt_of_a_degenerate_run(
        monkeypatch):
    # At alpha = 4 the two superradiant states of this 15 x 15 lattice are
    # 3e-13 apart, one exactly degenerate run: the dense phi orthogonalize
    # them bilinearly, which moves their overlaps by up to 0.27, and the
    # closed forms must follow.
    model = CavityModel(LatticeSpec(15, 15),
                        (LeadSpec((0, 6), 1.0), LeadSpec((14, 9), 1.0)), 4.0)
    assert check_against_dense(model, (1.9, 4.0), 0.3, DirectPairs(monkeypatch))
    sps = [heff_spectrum(model.with_alpha(a), 0.3) for a in (1.9, 4.0)]
    assert [len(run) for run, _ in sps[1].basis.runs] == [2]
    # Followed, the run agrees far inside the eps / gap bound.
    npt.assert_allclose(sps[0].overlaps(sps[1]),
                        _dense_overlaps(sps[0].vectors, sps[1].vectors),
                        rtol=0, atol=1e-12)


def test_direct_sums_agree_with_the_closed_form(monkeypatch):
    # Summing every bright pair directly must give what the closed form
    # gives. Two sets may hold the 15-fold level's two bright rows in
    # different bases (the SVD orders equal singular values freely), and
    # the direct sums must align them: one set's rows are turned by 1 rad,
    # in the rotation and in the rotated contact rows alike.
    model = CavityModel(LatticeSpec(15, 15),
                        (LeadSpec((0, 6), 1.0), LeadSpec((14, 9), 1.0)), 4.0)
    sps = [heff_spectrum(model.with_alpha(a), 0.3) for a in (1.9, 4.0)]
    turned = sps[0].basis
    c, vt, _ = turned.rotations[-1]
    turn = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
    vt[:, :2] = turn @ vt[:, :2]
    rows = np.isin(turned.bright, c[:, :2])
    assert np.count_nonzero(rows) == 2
    turned.w[rows] = turn @ turned.w[rows]
    vt = [sp.basis.rotations[-1][1] for sp in sps]
    assert np.abs(vt[0][:, :2] - vt[1][:, :2]).max() > 0.1
    closed = sps[0].overlaps(sps[1]), sps[1].expansion_rigidity(model)
    pairs = DirectPairs(monkeypatch)
    monkeypatch.setattr(spectrum, "_CLOSED_FORM_TOL", -1.0)
    direct = sps[0].overlaps(sps[1]), sps[1].expansion_rigidity(model)
    n_bright = len(sps[0].basis.z)
    # Every pair of the overlaps and every off-diagonal one of B, each
    # reading the rows of its two states.
    assert pairs.count == 2 * (n_bright ** 2 + n_bright * (n_bright - 1))
    npt.assert_allclose(direct[0], closed[0], rtol=0, atol=1e-13)
    assert abs(direct[1][0] - closed[1][0]) <= 1e-13
    assert abs(direct[1][1] - closed[1][1]) <= 1e-13


def lattice_15(study):
    return RunConfig(
        study=study,
        lattice=LatticeSpec(15, 15),
        leads=(LeadSpec((0, 3), 1.0), LeadSpec((14, 9), 1.0)),
        alpha=0.9,
        e_grid=EnergyGrid(-1.9, 1.9, 20 if study == "spectrum" else 8),
        alpha_grid=AlphaGrid(0.1, 4.0, 6, "log"),
    )


def test_studies_never_form_phi(monkeypatch):
    def refuse(*args):
        raise AssertionError("the study formed phi")

    # No fallback either: every spectrum takes the secular route.
    monkeypatch.setattr(spectrum, "_site_columns", refuse)
    monkeypatch.setattr(spectrum, "assemble_heff", refuse)
    widths = run_trapping_study(lattice_15("spectrum")).rows[:, 1:-1]
    assert np.isfinite(widths).all()
    rows = run_rigidity_study(lattice_15("rigidity")).rows
    assert np.isfinite(rows).all()


def test_studies_match_the_zgeev_route(monkeypatch):
    # A disordered 12 x 10 lattice with holes: no degenerate level, so both
    # routes give the same states, one by one.
    mask = np.ones((12, 10), dtype=int)
    mask[4:7, 3:5] = 0
    mask[9, 6:9] = 0
    onsite = 0.5 * np.random.default_rng(5).uniform(-1, 1, (12, 10))
    lattice = LatticeSpec(12, 10, onsite=onsite.tolist(),
                          mask=mask.tolist())
    leads = (LeadSpec((0, 2), 1.0), LeadSpec((11, 7), 1.0))
    configs = [RunConfig(study=study, lattice=lattice, leads=leads,
                         alpha=0.9, e_grid=EnergyGrid(-1.8, 1.7, points),
                         alpha_grid=AlphaGrid(0.1, 4.0, 8, "log"))
               for study, points in (("spectrum", 5), ("rigidity", 12))]
    e_k = configs[0].build_model().closed_modes[0]
    assert not spectrum._degenerate_runs(e_k, float(np.abs(e_k).max()))[0].size
    secular = [run_trapping_study(configs[0]).rows,
               run_rigidity_study(configs[1]).rows]
    monkeypatch.setattr(spectrum, "_secular_eigenvalues",
                        lambda *args, **kwargs: None)
    dense = [run_trapping_study(configs[0]).rows,
             run_rigidity_study(configs[1]).rows]
    # Each width sits in its track's column, so equal columns are equal
    # track ids.
    npt.assert_allclose(secular[0], dense[0], rtol=0, atol=1e-10)
    npt.assert_array_equal(secular[1][:, :3], dense[1][:, :3])
    npt.assert_allclose(secular[1][:, 3:], dense[1][:, 3:], rtol=0,
                        atol=RIGIDITY_TOL)


def test_overlaps_with_another_basis_are_dense_products(monkeypatch):
    # Against the zgeev fallback's set of the same model, or a secular set of
    # other contacts, the overlaps are the dense product of both phi.
    lattice = LatticeSpec(9, 9)
    model = CavityModel(lattice, (LeadSpec((0, 2), 1.0),
                                  LeadSpec((8, 5), 1.0)), 0.9)
    other = CavityModel(lattice, (LeadSpec((0, 3), 1.0),
                                  LeadSpec((8, 5), 1.0)), 0.9)
    sp = heff_spectrum(model, 0.3)
    moved = heff_spectrum(other, 0.3)
    monkeypatch.setattr(spectrum, "_secular_eigenvalues",
                        lambda *args, **kwargs: None)
    dense = heff_spectrum(model, 0.3)
    assert isinstance(sp.basis, _SecularStates)
    assert isinstance(moved.basis, _SecularStates)
    for a, b in ((sp, dense), (dense, sp), (sp, moved)):
        npt.assert_array_equal(a.overlaps(b),
                               _dense_overlaps(a.vectors, b.vectors))
