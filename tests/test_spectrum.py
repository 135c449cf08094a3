import math

import numpy as np
import numpy.testing as npt
import pytest

from opencavity import (
    CavityModel,
    ExceptionalPointNotFound,
    InvalidMatrix,
    LatticeSpec,
    LeadSpec,
    assemble_heff,
    biorthogonal_spectrum,
    find_exceptional_point,
    fixed_point_poles,
    track_sweep,
)
from opencavity.spectrum import _closest_pair

from conftest import single_site_model


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
