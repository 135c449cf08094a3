import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opencavity import (
    CavityModel,
    DefectiveSpectrum,
    ExceptionalPointNotFound,
    InvalidMatrix,
    LatticeSpec,
    LeadSpec,
    PoleOnAxis,
    SingularMatrix,
    SpectralSet,
    assemble_heff,
    biorthogonal_spectrum,
    find_exceptional_point,
    heff_spectrum,
    fixed_point_poles,
    track_sweep,
    transmission_direct,
    transmission_spectral,
)
from opencavity.linalg import eig_general
from opencavity.spectrum import (
    SECULAR_MIN_N,
    _closest_pair,
    _degenerate_runs,
    _secular_eigenvalues,
    _track_spectra,
    _tracked_pair,
)

from conftest import energies, open_cavities, single_site_model


def ep_family_1param(p):
    """2x2 family with an exact exceptional point at p[0] = 1/2."""
    return np.array([[0.0, p[0]], [p[0], -1.0j]])


class TestAssembleHeff:
    def test_single_site_two_leads(self):
        m = CavityModel(
            LatticeSpec(1, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((0, 0), 1.0)),
            1.0,
        )
        npt.assert_array_equal(assemble_heff(m, 0.0), [[-2.0j]])

    def test_dimer_both_sites(self):
        m = CavityModel(
            LatticeSpec(2, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((1, 0), 1.0)),
            1.0,
        )
        npt.assert_array_equal(
            assemble_heff(m, 0.0), [[-1.0j, -1.0], [-1.0, -1.0j]]
        )

    def test_symmetric_for_any_energy(self):
        m = CavityModel(
            LatticeSpec(3, 2),
            (LeadSpec((0, 0), 1.0), LeadSpec((2, 1), 0.7)),
            1.3,
        )
        for e in (-1.5, 0.2, 1.9, 2.5):
            h = assemble_heff(m, e)
            npt.assert_array_equal(h, h.T)


class TestBiorthogonalSpectrum:
    def test_diagonal_matrix_rigid(self):
        sp = biorthogonal_spectrum(np.diag([1.0 - 1.0j, 3.0 + 0.0j]), 0.0)
        for s in sp.states:
            assert s.rigidity_r == 1.0
            assert s.a_norm == 1.0

    def test_pair_bilinear_orthogonal(self):
        h = np.array([[0.0, 1.0], [1.0, -1.0j]])
        sp = biorthogonal_spectrum(h, 0.0)
        expected = sorted(
            [(-1.0j - math.sqrt(3.0)) / 2.0, (-1.0j + math.sqrt(3.0)) / 2.0],
            key=lambda z: (z.real, z.imag),
        )
        npt.assert_allclose(sp.values, expected, rtol=0, atol=1e-14)
        p0, p1 = sp.states[0].phi, sp.states[1].phi
        assert abs(complex(p0 @ p1)) < 1e-14
        for s in sp.states:
            assert abs(complex(s.phi @ s.phi) - 1.0) < 1e-12

    def test_exactly_defective_pair(self):
        sp = biorthogonal_spectrum(np.array([[0.0, 0.5], [0.5, -1.0j]]), 0.0)
        for s in sp.states:
            assert s.z == -0.5j
            assert s.a_norm == math.inf
            assert s.rigidity_r == 0.0
            assert s.ep_proximity < 1e-12
            # Defective states fall back to a unit Hermitian norm.
            npt.assert_allclose(np.vdot(s.phi, s.phi).real, 1.0, rtol=0,
                                atol=1e-12)

    def test_rigidity_reciprocal_exact(self):
        m = CavityModel(
            LatticeSpec(4, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((3, 0), 0.8)),
            1.1,
        )
        sp = biorthogonal_spectrum(assemble_heff(m, 0.3), 0.3)
        for s in sp.states:
            assert s.rigidity_r == 1.0 / s.a_norm
            assert 0.0 < s.rigidity_r <= 1.0
            assert s.a_norm >= 1.0

    def test_phi_normalized_when_separable(self):
        m = single_site_model()
        sp = biorthogonal_spectrum(assemble_heff(m, 0.7), 0.7)
        for s in sp.states:
            if s.ep_proximity > 1e-6:
                assert abs(complex(s.phi @ s.phi) - 1.0) < 1e-10

    def test_rejects_asymmetric(self):
        h = np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]])
        with pytest.raises(InvalidMatrix):
            biorthogonal_spectrum(h, 0.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrix):
            biorthogonal_spectrum(np.zeros((2, 3)), 0.0)

    def test_trace_rule(self):
        rng = np.random.RandomState(29)
        for _ in range(6):
            n = rng.randint(2, 8)
            a = rng.randn(n, n) + 1j * rng.randn(n, n)
            h = a + a.T
            sp = biorthogonal_spectrum(h, 0.0)
            assert abs(sp.values.sum() - np.trace(h)) < 1e-10 * np.abs(h).max()

    def test_greens_function_identity(self):
        # sum phi phi^T / (E' - z) equals (E' - H_eff(E))^(-1) at frozen E.
        m = CavityModel(
            LatticeSpec(3, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((2, 0), 1.0)),
            0.7,
        )
        e = 0.45
        h = assemble_heff(m, e)
        sp = biorthogonal_spectrum(h, e)
        for e_prime in (0.45, 1.2, -0.8):
            g = np.zeros((3, 3), dtype=complex)
            for s in sp.states:
                g += np.outer(s.phi, s.phi) / (e_prime - s.z)
            direct = np.linalg.inv(e_prime * np.eye(3) - h)
            npt.assert_allclose(g, direct, rtol=0, atol=1e-8)

    def test_near_closed_limit_rigid(self):
        m = single_site_model(alpha=1e-4)
        for e in (-1.3, 0.2, 1.1):
            sp = biorthogonal_spectrum(assemble_heff(m, e), e)
            assert all(s.rigidity_r > 1.0 - 1e-6 for s in sp.states)

    def test_vectors_stored_once_and_read_only(self):
        m = CavityModel(
            LatticeSpec(4, 4),
            (LeadSpec((0, 0), 1.0), LeadSpec((3, 3), 1.0)),
            1.0,
        )
        sp = biorthogonal_spectrum(assemble_heff(m, 0.37), 0.37)
        assert sp.track_id is None and sp.ambiguous is None
        assert_record(sp)
        # Tracking signs a copy; the input set is left as it was.
        before = sp.vectors.copy()
        for tracked in _track_spectra([sp, sp]):
            assert tracked.track_id is not None
            assert_record(tracked)
        npt.assert_array_equal(sp.vectors, before)

    def test_record_of_secular_spectrum(self):
        m = CavityModel(
            LatticeSpec(9, 9),
            (LeadSpec((0, 2), 1.0), LeadSpec((8, 5), 1.0)),
            0.9,
        )
        assert m.dimension >= SECULAR_MIN_N
        assert _secular_eigenvalues(m, 0.3, vectors=True) is not None
        assert_record(heff_spectrum(m, 0.3))

    def test_record_of_track_sweep(self):
        lat = LatticeSpec(3, 3)
        leads = (LeadSpec((0, 1), 1.0), LeadSpec((2, 1), 1.0))
        tracked = track_sweep(lambda a: CavityModel(lat, leads, a),
                              np.linspace(0.2, 2.0, 6), 0.1)
        assert all(sp.ambiguous.dtype == bool for sp in tracked)
        for sp in tracked:
            assert_record(sp)

    def test_degenerate_cluster_biorthogonal(self):
        # The 4x4 lattice keeps symmetry-protected degenerate dark states;
        # the returned set must still satisfy Phi^T Phi = I.
        m = CavityModel(
            LatticeSpec(4, 4),
            (LeadSpec((0, 0), 1.0), LeadSpec((3, 3), 1.0)),
            1.0,
        )
        sp = biorthogonal_spectrum(assemble_heff(m, 0.37), 0.37)
        mat = np.column_stack([s.phi for s in sp.states])
        npt.assert_allclose(mat.T @ mat, np.eye(16), rtol=0, atol=1e-8)


def bits(x, dtype):
    return np.asarray(x, dtype=dtype).tobytes()


def assert_record(sp):
    """Read-only arrays, and ``states`` equal to them bit for bit."""
    arrays = (sp.values, sp.vectors, sp.a_norm, sp.ep_proximity,
              sp.track_id, sp.ambiguous)
    assert not any(a.flags.writeable for a in arrays if a is not None)
    assert sp.states is sp.states and len(sp.states) == len(sp)
    for j, s in enumerate(sp.states):
        col = sp.vectors[:, j]
        assert bits(s.z, complex) == bits(sp.values[j], complex)
        assert s.phi.base is sp.vectors
        assert (s.phi.ctypes.data, s.phi.strides) == (col.ctypes.data,
                                                      col.strides)
        assert bits(s.a_norm, float) == bits(sp.a_norm[j], float)
        assert bits(s.rigidity_r, float) == bits(1.0 / sp.a_norm[j], float)
        assert bits(s.rigidity_r, float) == bits(sp.rigidity_r[j], float)
        assert bits(s.ep_proximity, float) == bits(sp.ep_proximity[j], float)
        if sp.track_id is None:
            assert s.track_id is None and s.ambiguous is False
        else:
            assert type(s.track_id) is int and s.track_id == sp.track_id[j]
            assert s.ambiguous is bool(sp.ambiguous[j])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(model=open_cavities(full=st.booleans()), e=energies)
def test_biorthogonal_set_invariants(model, e):
    # Worst cases over these draws: |phi^T phi - 1| 9.1e-16, off-diagonal
    # |phi_i^T phi_j| 6.5e-14, |A |v^T v| - 1| 8.9e-16, |t_spec - t_direct|
    # 4.1e-14.
    sp = biorthogonal_spectrum(assemble_heff(model, e), e)
    phi = sp.vectors
    a_norm = np.array([s.a_norm for s in sp.states])
    r = np.array([s.rigidity_r for s in sp.states])
    prox = np.array([s.ep_proximity for s in sp.states])
    ok = np.isfinite(a_norm)
    gram = (phi.T @ phi)[np.ix_(ok, ok)]
    assert np.abs(np.diag(gram) - 1.0).max(initial=0.0) <= 1e-12
    # Degenerate clusters included: they are orthogonalized bilinearly.
    assert np.abs(gram - np.diag(np.diag(gram))).max(initial=0.0) <= 1e-10
    lead = phi[np.argmax(np.abs(phi), axis=0), np.arange(len(sp))]
    assert ((lead.real > 0.0) | ((lead.real == 0.0) & (lead.imag >= 0.0))).all()
    assert (a_norm >= 1.0).all() and (r == 1.0 / a_norm).all()
    # A = 1/|v^T v| holds for the eigenvector itself; a cluster member is a
    # combination of the cluster's eigenvectors instead.
    scale = float(np.abs(sp.values).max())
    single = np.ones(len(sp), dtype=bool)
    for first, size in zip(*_degenerate_runs(sp.values, scale)):
        single[first:first + size] = False
    npt.assert_allclose(
        a_norm[ok & single] * prox[ok & single], 1.0, rtol=0, atol=1e-12
    )
    try:
        t_direct = transmission_direct(model, e)
        t_spec = transmission_spectral(sp, model)
    except (SingularMatrix, DefectiveSpectrum, PoleOnAxis):
        return
    if np.abs(e - sp.values).min() > 1e-6:
        assert abs(t_spec - t_direct) <= 1e-11


def reference_biorthogonal(heff):
    """(phi, a_norm, ep_proximity) per state, one state at a time.

    The per-state loops :func:`biorthogonal_spectrum` replaces with column
    operations: the same rules, with every dot product taken per vector.
    """
    es = eig_general(heff)
    n = len(es.values)
    raw = [es.vectors[:, i] for i in range(n)]
    bilinear = [complex(v @ v) for v in raw]

    def canonical(phi):
        c = phi[int(np.argmax(np.abs(phi)))]
        return -phi if c.real < 0.0 or (c.real == 0.0 and c.imag < 0.0) else phi

    tol = 1e-12 * max(float(np.abs(es.values).max()), 1.0)
    clusters = [[0]]
    for i in range(1, n):
        if abs(es.values[i] - es.values[i - 1]) <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    phis = [
        raw[i] if abs(bilinear[i]) < 1e-12 else raw[i] / np.sqrt(bilinear[i])
        for i in range(n)
    ]
    for members in clusters:
        if len(members) > 1 and all(abs(bilinear[i]) > 1e-3 for i in members):
            done = []
            for i in members:
                u = raw[i].copy()
                for p in done:
                    u = u - (p @ u) * p
                uu = complex(u @ u)
                if abs(uu) <= 1e-12:
                    break
                done.append(u / np.sqrt(uu))
            else:
                for i, p in zip(members, done):
                    phis[i] = p
    out = []
    for phi, vv in zip(map(canonical, phis), bilinear):
        a_norm = (
            math.inf if abs(vv) < 1e-12
            else max(float(np.vdot(phi, phi).real), 1.0)
        )
        out.append((phi, a_norm, abs(vv)))
    return out


@settings(derandomize=True, deadline=None, max_examples=150)
@given(model=open_cavities(full=st.booleans()), e=energies)
def test_biorthogonal_matches_per_state_reference(model, e):
    # Column dots sum in another order than per-vector ones; measured worst
    # over these draws: 2.5e-16 on phi, 1.2e-15 relative on a_norm.
    h = assemble_heff(model, e)
    sp = biorthogonal_spectrum(h, e)
    for s, (phi, a_norm, prox) in zip(sp.states, reference_biorthogonal(h)):
        npt.assert_allclose(s.phi, phi, rtol=0, atol=1e-14)
        npt.assert_allclose(s.a_norm, a_norm, rtol=1e-14)
        npt.assert_allclose(s.ep_proximity, prox, rtol=1e-14)


class TestFixedPointPoles:
    def test_single_site_width(self):
        # One site with two identical channels: Gamma = 2 * 2 (alpha w)^2
        # at the band center, exact since Re Sigma(0) = 0.
        m = single_site_model(alpha=1.0, w=0.5)
        (pole,) = fixed_point_poles(m)
        assert pole.converged
        assert abs(pole.e_pole) < 1e-12
        npt.assert_allclose(pole.gamma_pole, 1.0, rtol=0, atol=1e-12)

    def test_width_vanishes_with_alpha(self):
        for alpha in (0.1, 0.03):
            m = single_site_model(alpha=alpha, w=0.5)
            (pole,) = fixed_point_poles(m)
            npt.assert_allclose(
                pole.gamma_pole, 4.0 * (alpha * 0.5) ** 2, rtol=1e-6, atol=0
            )

    def test_chain3_trace_rule_at_poles(self):
        m = CavityModel(
            LatticeSpec(3, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((2, 0), 1.0)),
            0.3,
        )
        poles = fixed_point_poles(m)
        assert len(poles) == 3
        assert all(p.converged for p in poles)
        for p in poles:
            h = assemble_heff(m, p.e_pole)
            sp = biorthogonal_spectrum(h, p.e_pole)
            total = sum(s.width for s in sp.states)
            assert abs(total + 2.0 * np.trace(h).imag) < 1e-8
            # The pole's own width appears in the spectrum at its energy.
            assert min(abs(s.width - p.gamma_pole) for s in sp.states) < 1e-8

    def test_pole_fixed_point_property(self):
        m = CavityModel(
            LatticeSpec(3, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((2, 0), 1.0)),
            0.3,
        )
        for p in fixed_point_poles(m):
            sp = biorthogonal_spectrum(assemble_heff(m, p.e_pole), p.e_pole)
            assert min(abs(z.real - p.e_pole) for z in sp.values) < 1e-8


class TestTrackSweep:
    def test_dimer_labels_follow_states(self):
        lat = LatticeSpec(2, 1)

        def family(a):
            return CavityModel(
                lat, (LeadSpec((0, 0), 1.0), LeadSpec((1, 0), 0.0)), a
            )

        alphas = np.linspace(0.2, 3.0, 29)
        tracked = track_sweep(family, alphas, 0.0)
        assert len(tracked) == len(alphas)
        for sp in tracked:
            assert sorted(s.track_id for s in sp.states) == [0, 1]
        # Tracked vectors stay continuous: consecutive overlap near 1.
        for prev, cur in zip(tracked, tracked[1:]):
            for tid in (0, 1):
                p = next(s.phi for s in prev.states if s.track_id == tid)
                c = next(s.phi for s in cur.states if s.track_id == tid)
                ov = abs(np.vdot(p, c)) / (
                    np.linalg.norm(p) * np.linalg.norm(c)
                )
                assert ov > 0.9

    def test_symmetric_lattice_tracks(self):
        # Mirror-symmetric contacts on the full 4x4 square give degenerate
        # clusters and near-tied overlaps; only tracks 5 and 10 at step 6
        # are too close to call.
        lat = LatticeSpec(4, 4)

        def family(a):
            return CavityModel(
                lat, (LeadSpec((0, 1), 1.0), LeadSpec((3, 1), 1.0)), a
            )

        tracked = track_sweep(family, np.linspace(0.2, 2.0, 10), 0.0)
        for sp in tracked:
            assert sorted(s.track_id for s in sp.states) == list(range(16))
        for prev, cur in zip(tracked, tracked[1:]):
            phis = {s.track_id: s.phi for s in prev.states}
            for s in cur.states:
                assert (phis[s.track_id] @ s.phi).real >= 0.0
        flagged = [
            (k, s.track_id)
            for k, sp in enumerate(tracked)
            for s in sp.states
            if s.ambiguous
        ]
        assert sorted(flagged) == [(6, 5), (6, 10)]

    def test_empty_sweep(self):
        assert track_sweep(lambda a: None, [], 0.0) == ()

    def test_deterministic(self):
        lat = LatticeSpec(3, 1)

        def family(a):
            return CavityModel(
                lat, (LeadSpec((0, 0), 1.0), LeadSpec((2, 0), 1.0)), a
            )

        alphas = np.linspace(0.3, 2.0, 12)
        t1 = track_sweep(family, alphas, 0.1)
        t2 = track_sweep(family, alphas, 0.1)
        for a, b in zip(t1, t2):
            for sa, sb in zip(a.states, b.states):
                assert sa.track_id == sb.track_id
                npt.assert_array_equal(sa.phi, sb.phi)


def reference_track(spectra, gap_tol=1e-6):
    """Greedy tracking that rescans the whole free overlap matrix per match.

    The plain form of the rule :func:`_track_spectra` implements from one
    sort: take the largest free entry; free entries within 1e-12 of it are
    near-ties, won by the smallest |z_prev - z_next|, exact ties in
    row-major order; the gap is taken against the full row. Returns the
    labeled spectra and the number of matches decided among several
    near-tied candidates.
    """
    first = spectra[0]
    n = len(first)
    labeled = [replace(first, track_id=np.arange(n),
                       ambiguous=np.zeros(n, dtype=bool))]
    contested = 0
    for current in spectra[1:]:
        prev = labeled[-1]
        z_prev, z_next = prev.values.tolist(), current.values.tolist()
        p_prev = prev.vectors / np.linalg.norm(prev.vectors, axis=0)
        p_next = current.vectors / np.linalg.norm(current.vectors, axis=0)
        ov = np.abs(p_prev.conj().T @ p_next)
        work = ov.copy()
        phis = current.vectors.copy()
        track_id = np.empty(n, dtype=int)
        ambiguous = np.empty(n, dtype=bool)
        for _ in range(n):
            m = work.max()
            tied = np.argwhere(work >= m - 1e-12)
            contested += len(tied) > 1
            i, j = min(
                (tuple(t) for t in tied),
                key=lambda ij: abs(z_prev[ij[0]] - z_next[ij[1]]),
            )
            row = ov[i].copy()
            row[j] = -np.inf
            gap = ov[i, j] - row.max() if n > 1 else np.inf
            if (prev.vectors[:, i] @ current.vectors[:, j]).real < 0.0:
                phis[:, j] = -phis[:, j]
            track_id[j] = prev.track_id[i]
            ambiguous[j] = gap < gap_tol
            work[i, :] = -np.inf
            work[:, j] = -np.inf
        labeled.append(replace(current, vectors=phis, track_id=track_id,
                               ambiguous=ambiguous))
    return tuple(labeled), contested


def symmetric_square_sweeps():
    """Seeded coupling sweeps of full squares with mirror-image contacts."""
    rng = np.random.default_rng(7)
    for n in (3, 4, 5, 6):
        for _ in range(3):
            y = int(rng.integers(0, n))
            lat = LatticeSpec(n, n)
            leads = (LeadSpec((0, y), 1.0), LeadSpec((n - 1, y), 1.0))
            alphas = np.sort(rng.uniform(0.1, 2.5, 6))
            for e in (0.0, float(rng.uniform(-1.5, 1.5))):
                yield [
                    biorthogonal_spectrum(
                        assemble_heff(CavityModel(lat, leads, a), e), e
                    )
                    for a in alphas
                ]


def synthetic_sweeps():
    """Spectra of small-integer vectors: duplicated overlaps, tied |dz|."""
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 6, 8):
        for _ in range(8):
            sweep = []
            for _ in range(4):
                phis = rng.choice([0, 0, 1, -1, 1j, -1j], size=(n, n))
                phis[rng.permutation(n), np.arange(n)] = 1.0
                z = rng.integers(-1, 2, n) + 1j * rng.integers(-1, 2, n)
                sweep.append(SpectralSet(
                    energy=0.0, values=z.astype(complex),
                    vectors=phis.astype(complex), a_norm=np.ones(n),
                    ep_proximity=np.ones(n),
                ))
            yield sweep


class TestTrackingAgainstReference:
    @staticmethod
    def assert_same_tracks(sweeps):
        contested = 0
        for spectra in sweeps:
            got = _track_spectra(spectra)
            want, ties = reference_track(spectra)
            contested += ties
            for g, w in zip(got, want):
                npt.assert_array_equal(g.track_id, w.track_id)
                npt.assert_array_equal(g.ambiguous, w.ambiguous)
                npt.assert_array_equal(g.vectors, w.vectors)
        return contested

    def test_symmetric_squares(self):
        # The data must exercise the near-tie rule to test it.
        assert self.assert_same_tracks(symmetric_square_sweeps()) > 0

    def test_duplicated_overlaps(self):
        assert self.assert_same_tracks(synthetic_sweeps()) > 0


class TestFindExceptionalPoint:
    def test_one_parameter_family_exact(self):
        p1, p2, z_star, report = find_exceptional_point(
            ep_family_1param, (0.7, 0.0)
        )
        assert abs(p1 - 0.5) < 1e-6
        assert abs(z_star - (-0.5j)) < 1e-6
        assert report.success
        assert report.separation < 1e-8
        # Chirality angle of a true EP stays small.
        assert report.angle < 1e-2

    def test_a_norm_grows_along_path(self):
        _, _, _, report = find_exceptional_point(ep_family_1param, (0.3, 0.0))
        a_max = max(a for *_, a in report.path)
        assert a_max > 1e3

    def test_already_at_ep(self):
        p1, p2, z_star, report = find_exceptional_point(
            ep_family_1param, (0.5, 0.0)
        )
        assert abs(p1 - 0.5) < 1e-6
        assert report.separation < 1e-8

    def test_hermitian_family_not_found(self):
        def family(p):
            return np.array([[p[0], 1.0], [1.0, -p[0]]])

        with pytest.raises(ExceptionalPointNotFound) as exc:
            find_exceptional_point(family, (0.5, 0.0))
        report = exc.value.report
        assert not report.success
        # Separation of a real symmetric pencil stays at or above 2 here.
        assert report.separation >= 2.0 - 1e-9

    def test_path_records_every_evaluation(self):
        _, _, _, report = find_exceptional_point(ep_family_1param, (0.7, 0.0))
        assert len(report.path) >= 3
        for entry in report.path:
            assert len(entry) == 4

    def test_rejects_bad_start(self):
        with pytest.raises(InvalidMatrix):
            find_exceptional_point(ep_family_1param, (0.5,))

    def test_rejects_scalar_family(self):
        with pytest.raises(InvalidMatrix):
            find_exceptional_point(lambda p: np.array([[p[0]]]), (0.5, 0.0))


    def test_symmetric_degeneracy_is_not_an_ep(self):
        # At E = 0 the 4x4 lattice with corner leads has a threefold,
        # diagonalisable degeneracy at the start (1.2, 1.6).
        lat = LatticeSpec(4, 4)

        def family(p):
            leads = (LeadSpec((0, 0), abs(float(p[0]))),
                     LeadSpec((3, 3), abs(float(p[1]))))
            return assemble_heff(CavityModel(lat, leads, 1.0), 0.0)

        with pytest.raises(ExceptionalPointNotFound) as exc:
            find_exceptional_point(family, (1.2, 1.6))
        report = exc.value.report
        assert not report.success
        assert report.outcome == "degenerate"
        assert report.separation <= 1e-8 * np.abs(family(report.params)).sum(
            axis=1).max()

    def test_hermitian_family_outcome_not_found(self):
        rng = np.random.RandomState(3)
        h0, a, b = (x + x.conj().T for x in
                    rng.randn(3, 5, 5) + 1j * rng.randn(3, 5, 5))
        with pytest.raises(ExceptionalPointNotFound) as exc:
            find_exceptional_point(lambda p: h0 + p[0] * a + p[1] * b,
                                   (0.2, -0.4))
        assert exc.value.report.outcome == "not_found"
        assert not exc.value.report.success

    def test_outcome_ep_on_success(self):
        report = find_exceptional_point(ep_family_1param, (0.7, 0.0))[3]
        assert report.outcome == "ep"

    def test_path_is_short(self):
        _, _, _, report = find_exceptional_point(ep_family_1param, (0.3, 0.0))
        # Newton converges quadratically: a handful of iterates, not the
        # hundreds of evaluations of a simplex.
        assert len(report.path) <= 12
        assert report.path[0][:2] == (0.3, 0.0)
        assert report.params in [row[:2] for row in report.path]


def test_tracked_pair_shares_out_a_common_nearest_value():
    # Both members are nearest to 0; giving the far member its second
    # choice (0.55 away) beats moving the near one (0.3 + 0.5).
    values = np.array([0.0, -0.3, 1.05])
    assert _tracked_pair(values, (0.0, 0.5)).tolist() == [0.0, 1.05]


# Nilpotent complex symmetric blocks: N^2 = 0 (a 2-level exceptional
# point) and N^3 = 0 with N^2 != 0 (a 3-level one).
_NILPOTENT = {
    2: np.array([[1.0, 1.0j], [1.0j, -1.0]]),
    3: np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0j], [0.0, 1.0j, 0.0]]),
}


@st.composite
def ep_families(draw):
    """A random two-parameter matrix family and a start near its EP.

    Complex symmetric families H0 + (p1 - a1) A + (p2 - a2) B carry a
    planted 2- or 3-level exceptional point at (a1, a2); Hermitian ones,
    H0 + p1 A + p2 B, have none.
    """
    kind = draw(st.sampled_from(["ep2", "ep3", "hermitian"]))
    n = draw(st.integers(2 if kind != "ep3" else 3, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.RandomState(seed)
    a = rng.uniform(-1.0, 1.0, 2)
    start = a + draw(st.tuples(*[st.floats(-0.3, 0.3)] * 2))
    g = rng.randn(3, n, n) + 1j * rng.randn(3, n, n)
    if kind == "hermitian":
        h0, da, db = (x + x.conj().T for x in g)
        return kind, (lambda p: h0 + p[0] * da + p[1] * db), start
    k = int(kind[-1])
    z0 = complex(*rng.randn(2))
    m = np.diag(z0 + 1.5 + 2.0 * (rng.randn(n) + 1j * rng.randn(n)))
    m[:k, :k] = z0 * np.eye(k) + rng.uniform(0.5, 2.0) * _NILPOTENT[k]
    q = np.linalg.qr(rng.randn(n, n))[0]
    h0 = q @ m @ q.T
    da, db = (x + x.T for x in g[1:])
    return kind, (lambda p: h0 + (p[0] - a[0]) * da + (p[1] - a[1]) * db), start


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=ep_families())
def test_reported_ep_passes_dense_oracle(case):
    """A reported exceptional point is one by an independent zgeev."""
    kind, family, start = case
    try:
        report = find_exceptional_point(family, start)[3]
    except ExceptionalPointNotFound as err:
        report = err.report
        assert report.outcome in ("degenerate", "not_found")
        return
    assert kind != "hermitian"
    assert report.outcome == "ep"
    h = family(np.array(report.params))
    z, v = np.linalg.eig(h)
    d = np.abs(z[:, None] - z[None, :]) + np.diag(np.full(len(z), np.inf))
    i, j = np.unravel_index(np.argmin(d), d.shape)
    assert d[i, j] <= 1e-6 * np.abs(h).sum(axis=1).max()
    overlap = abs(np.vdot(v[:, i], v[:, j])) / (
        np.linalg.norm(v[:, i]) * np.linalg.norm(v[:, j]))
    assert overlap >= 0.99
    assert report.angle < 1e-2


class TestClosestPair:
    def test_exact_tie_keeps_first_pair(self):
        assert _closest_pair([0, 1, 0, 1j, 1]) == ((0, 2), 0.0)

    def test_matches_double_loop(self):
        rng = np.random.RandomState(19)
        for n in list(range(2, 12)) * 2:
            # Small Gaussian integers let exact ties between pairs occur.
            v = rng.randint(-2, 3, n) + 1j * rng.randint(-2, 3, n)
            if n % 2:
                v = v + 0.1 * (rng.randn(n) + 1j * rng.randn(n))
            best, best_sep = (0, 1), abs(v[0] - v[1])
            for i in range(n):
                for j in range(i + 1, n):
                    if abs(v[i] - v[j]) < best_sep:
                        best, best_sep = (i, j), abs(v[i] - v[j])
            assert _closest_pair(v) == (best, float(best_sep))


class TestDefectiveThroughModel:
    def test_engineered_defective_heff(self):
        # Lead with w = 2, t_lead = 2 contributes Sigma(0) = -2i on one site
        # of a dimer: H_eff(0) = [[-2i, -1], [-1, 0]] is exactly defective.
        m = CavityModel(
            LatticeSpec(2, 1),
            (
                LeadSpec((0, 0), 2.0, lead_hopping=2.0),
                LeadSpec((1, 0), 0.0),
            ),
            1.0,
        )
        h = assemble_heff(m, 0.0)
        npt.assert_array_equal(h, [[-2.0j, -1.0], [-1.0, 0.0]])
        sp = biorthogonal_spectrum(h, 0.0)
        for s in sp.states:
            assert s.z == -1.0j
            assert s.a_norm == math.inf
            assert s.rigidity_r == 0.0
