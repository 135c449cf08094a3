import math

import numpy as np
import numpy.testing as npt
import pytest

from opencavity import (
    CavityModel,
    DefectiveSpectrum,
    LatticeSpec,
    LeadSpec,
    OutsideBand,
    PoleOnAxis,
    SingularMatrix,
    assemble_heff,
    biorthogonal_spectrum,
    build_report,
    coefficients_c,
    heff_spectrum,
    s_matrix,
    solve_scattering,
    transmission_direct,
    transmission_spectral,
    wigner_delay,
)

from opencavity.scattering import RESOLVENT_GAP

from conftest import single_site_model, square4, two_level_t


def single_site_t_exact(e, w2=0.25):
    """Closed-form transmission of one site with two identical leads."""
    root = math.sqrt(4.0 - e * e)
    return -1j * w2 * root / (e * (1.0 - w2) + 1j * w2 * root)


def defective_model():
    # H_eff(0) = [[-2i, -1], [-1, 0]]: an exact second-order degeneracy.
    return CavityModel(
        LatticeSpec(2, 1),
        (LeadSpec((0, 0), 2.0, lead_hopping=2.0), LeadSpec((1, 0), 0.0)),
        1.0,
    )


class TestSingleSiteClosedForm:
    def test_matches_exact_formula(self):
        m = single_site_model()
        for e in np.linspace(-1.9, 1.9, 41):
            t = transmission_direct(m, float(e))
            npt.assert_allclose(t, single_site_t_exact(float(e)), rtol=0,
                                atol=1e-13)

    def test_band_center_full_transmission(self):
        t = transmission_direct(single_site_model(), 0.0)
        npt.assert_allclose(t, -1.0 + 0.0j, rtol=0, atol=1e-14)

    def test_spectral_route_agrees(self):
        m = single_site_model()
        for e in (-1.4, -0.3, 0.55, 1.8):
            ts = transmission_spectral(biorthogonal_spectrum(
                assemble_heff(m, e), e), m)
            npt.assert_allclose(ts, single_site_t_exact(e), rtol=0,
                                atol=1e-13)


class TestCoefficients:
    def test_single_site_unit_weight(self):
        m = single_site_model()
        sp = biorthogonal_spectrum(assemble_heff(m, 0.4), 0.4)
        c = coefficients_c(sp, m)
        assert c.shape == (1,)
        npt.assert_allclose(abs(c[0]), 1.0, rtol=0, atol=1e-15)

    def test_symmetric_dimer_equal_weights(self):
        m = CavityModel(
            LatticeSpec(2, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((1, 0), 1.0)),
            0.6,
        )
        # At the band center the two resonances sit symmetrically about E.
        sp = biorthogonal_spectrum(assemble_heff(m, 0.0), 0.0)
        c = coefficients_c(sp, m)
        npt.assert_allclose(abs(c[0]), abs(c[1]), rtol=0, atol=1e-12)

    def test_normalized(self):
        from conftest import reference_models

        cases = [(label, model, float(grid[31]))
                 for label, model, grid in reference_models()]
        # E = 1.5 lies past lead R's band edge 1.2 but inside lead L's, and
        # only the incoming lead L enters the coefficients.
        cases.append(("chain3_unequal_hopping", CavityModel(
            LatticeSpec(3, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((2, 0), 1.0, lead_hopping=0.6)),
            0.3,
        ), 1.5))
        for label, model, e in cases:
            sp = biorthogonal_spectrum(assemble_heff(model, e), e)
            c = coefficients_c(sp, model)
            npt.assert_allclose(np.sum(np.abs(c) ** 2), 1.0, rtol=0,
                                atol=1e-12, err_msg=label)

    def test_pole_on_axis(self):
        m = single_site_model(alpha=0.0)
        sp = biorthogonal_spectrum(assemble_heff(m, 0.0), 0.0)
        with pytest.raises(PoleOnAxis):
            coefficients_c(sp, m)

    def test_defective_rejected(self):
        m = defective_model()
        sp = biorthogonal_spectrum(assemble_heff(m, 0.0), 0.0)
        with pytest.raises(DefectiveSpectrum):
            coefficients_c(sp, m)

    def test_outside_the_incoming_band(self):
        # Past the incoming lead's band edge |E| = 2 no wave comes in, and
        # both the coefficients and the expansion's rigidity are refused.
        m = CavityModel(
            LatticeSpec(3, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((2, 0), 1.0)),
            0.5,
        )
        sp = biorthogonal_spectrum(assemble_heff(m, 2.5), 2.5)
        with pytest.raises(OutsideBand):
            coefficients_c(sp, m)
        with pytest.raises(OutsideBand):
            sp.expansion_rigidity(m)

    def test_interior_wave_superposition(self):
        m = CavityModel(
            LatticeSpec(3, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((2, 0), 1.0)),
            0.5,
        )
        sp = biorthogonal_spectrum(assemble_heff(m, 0.3), 0.3)
        c = coefficients_c(sp, m)
        psi = sp.vectors @ c
        manual = np.zeros(3, dtype=complex)
        for ck, phi in zip(c, sp.vectors.T):
            manual += ck * phi
        npt.assert_allclose(psi, manual, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("incoming", [-1, 2])
    def test_incoming_out_of_range(self, incoming):
        # -1 used to solve for lead R and record -1; 2 raised IndexError.
        m = CavityModel(
            LatticeSpec(3, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((2, 0), 1.0)),
            0.5,
        )
        secular = heff_spectrum(m, 0.3)
        dense = biorthogonal_spectrum(assemble_heff(m, 0.3), 0.3)
        calls = [
            lambda: solve_scattering(m, 0.3, incoming=incoming),
            lambda: build_report(secular, np.ones(3), m, incoming),
        ]
        for sp in (secular, dense):
            calls += [lambda sp=sp: coefficients_c(sp, m, incoming=incoming),
                      lambda sp=sp: sp.expansion_rigidity(m, incoming)]
        for call in calls:
            with pytest.raises(ValueError, match="incoming must be 0"):
                call()


class TestSMatrix:
    def test_unitary_in_band(self):
        from conftest import reference_models

        for label, model, grid in reference_models():
            for e in (float(grid[5]), float(grid[-7])):
                s = s_matrix(model, e)
                npt.assert_allclose(
                    s.conj().T @ s, np.eye(2), rtol=0, atol=1e-10,
                    err_msg=label,
                )

    def test_reciprocal(self):
        from conftest import reference_models

        for label, model, grid in reference_models():
            s = s_matrix(model, float(grid[43]))
            assert abs(s[0, 1] - s[1, 0]) < 1e-10, label

    def test_det_unimodular(self):
        m = single_site_model()
        for e in (-1.1, 0.0, 0.9):
            assert abs(abs(np.linalg.det(s_matrix(m, e))) - 1.0) < 1e-8

    def test_closed_cavity_identity(self):
        s = s_matrix(single_site_model(alpha=0.0), 0.37)
        npt.assert_allclose(s, np.eye(2), rtol=0, atol=1e-12)

    def test_offdiagonal_is_transmission(self):
        m = single_site_model()
        s = s_matrix(m, 0.6)
        npt.assert_allclose(
            s[1, 0], transmission_direct(m, 0.6), rtol=0, atol=1e-14
        )


def delay_oracle(model, e, h=2e-5):
    """d arg det S / dE from dense LU solves, without the resolvent.

    Richardson's combination of the centred differences at steps h and
    h / 2, so the truncation error is O(h^4).
    """
    idx = list(model.contact_indices)

    def det_s(en):
        m = np.eye(model.dimension) * en - assemble_heff(model, en)
        rhs = np.zeros((model.dimension, 2))
        rhs[idx, [0, 1]] = 1.0
        g = np.linalg.solve(m, rhs)[idx]
        a = model.channel_amplitudes(en)
        return np.linalg.det(np.eye(2) - 2j * math.pi * np.outer(a, a) * g)

    def centred(step):
        return np.angle(det_s(e + step) / det_s(e - step)) / (2.0 * step)

    return (4.0 * centred(h / 2) - centred(h)) / 3.0


class TestWignerDelay:
    def test_single_site_band_center(self):
        # Exact value (1 - w2) / w2 = 3 at w2 = 1/4.
        tau = wigner_delay(single_site_model(), 0.0)
        npt.assert_allclose(tau, 3.0, rtol=1e-12, atol=0)

    def test_positive_on_resonance(self):
        m = CavityModel(
            LatticeSpec(3, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((2, 0), 1.0)),
            0.4,
        )
        assert wigner_delay(m, 0.0) > 0.0

    # The closed form against the LU oracle: worst |tau - ref| / (1 + |ref|)
    # measured 4.1e-11 over the reference grids (notched10x5, at its
    # sharpest resonance, where the oracle's O(h^4) error dominates) and
    # 1.8e-11 next to the bright e_k.
    TOL = 1e-9

    def test_matches_lu_oracle_on_reference_grids(self):
        from conftest import reference_models

        for label, model, grid in reference_models():
            tau = wigner_delay(model, grid)
            ref = np.array([delay_oracle(model, e) for e in grid])
            err = np.abs(tau - ref) / (1.0 + np.abs(ref))
            assert err.max() <= self.TOL, label

    def test_matches_lu_oracle_next_to_bright_level(self):
        # RESOLVENT_GAP / 10 from a bright e_k the resolvent hands the
        # energy to its LU fallback, which then supplies both columns.
        model = square4()
        e_k, u = model.closed_modes
        k = int(np.argmin(np.abs(e_k - 1.2360679774997898)))
        assert np.abs(u[list(model.contact_indices), k]).min() > 0.3
        e = float(e_k[k]) + RESOLVENT_GAP / 10
        assert abs(e - e_k[k]) < RESOLVENT_GAP * np.abs(e_k).max()
        ref = delay_oracle(model, e)
        assert abs(wigner_delay(model, e) - ref) <= self.TOL * (1.0 + abs(ref))

    def test_pinned_band_edge_grid(self):
        # Values from a 50-digit evaluation of d arg det S / dE.
        grid = np.linspace(-1.999999, 1.999999, 41)
        model = square4()
        tau = wigner_delay(model, grid)
        npt.assert_allclose(tau[10], 9.23754714979081, rtol=1e-12, atol=0)
        # Within 1e-6 of the band edges; no step leaves the band.
        npt.assert_allclose(tau[[0, 40]], 1666.676412088364, rtol=1e-10,
                            atol=0)
        assert np.isnan(tau[20]) and np.isfinite(np.delete(tau, 20)).all()
        # E = 0 is a dark level: E - H_eff is singular there.
        with pytest.raises(SingularMatrix):
            wigner_delay(model, grid[20])
        with pytest.raises(SingularMatrix):
            s_matrix(model, grid[20])

    def test_outside_band(self):
        model = square4()
        with pytest.raises(OutsideBand):
            wigner_delay(model, 2.5)
        assert np.isnan(wigner_delay(model, np.array([-2.0, 2.5]))).all()

    @pytest.mark.parametrize("nx, ny, levels", [(3, 1, 3), (4, 4, 5),
                                                (10, 5, 34)])
    def test_friedel_sum_rule(self, nx, ny, levels):
        # At weak coupling no state has left the band, so the total phase
        # gained across it, (1 / 2 pi) int tau dE, counts the in-band
        # levels of H_B with contact weight: a degenerate level counts the
        # rank of its contact rows. Measured 2.99909, 4.99987 and 34.00018.
        model = CavityModel(
            LatticeSpec(nx, ny),
            (LeadSpec((0, 0), 1.0), LeadSpec((nx - 1, ny - 1), 1.0)),
            0.3,
        )
        e_k, u = model.closed_modes
        u_c = u[list(model.contact_indices)]
        bright = sum(
            np.linalg.matrix_rank(u_c[:, np.abs(e_k - level) < 1e-9], tol=1e-9)
            for level in np.unique(np.round(e_k[np.abs(e_k) < 2.0], 9))
        )
        assert bright == levels
        grid = np.linspace(-(2.0 - 1e-4), 2.0 - 1e-4, 40000)
        tau = wigner_delay(model, grid)
        total = np.sum((tau[1:] + tau[:-1]) * np.diff(grid)) / (4.0 * math.pi)
        assert abs(total - levels) <= 2e-3


def width_products(spectral, model):
    """2 pi sum_C a_C^2 |phi[c_C]|^2 per state, at the spectrum's energy."""
    a = model.channel_amplitudes(spectral.energy)
    contact = spectral.vectors[model.contact_indices]
    return 2.0 * math.pi * (a**2 @ np.abs(contact) ** 2)


class TestWidthVsCoupling:
    # The width sum rule: gamma A = 2 pi sum_C a_C^2 |phi[c_C]|^2, so
    # gamma = -2 Im z stays below the product, with equality at A = 1.
    def test_identity_exact(self):
        from conftest import reference_models

        for label, model, grid in reference_models():
            e = float(grid[11])
            sp = biorthogonal_spectrum(assemble_heff(model, e), e)
            for width, a_norm, product in zip(sp.widths, sp.a_norm,
                                              width_products(sp, model)):
                npt.assert_allclose(
                    width * a_norm, product, rtol=1e-12, atol=1e-13,
                    err_msg=label,
                )

    def test_width_bounded_by_product(self):
        m = CavityModel(
            LatticeSpec(4, 4),
            (LeadSpec((0, 0), 1.0), LeadSpec((3, 3), 1.0)),
            1.0,
        )
        sp = biorthogonal_spectrum(assemble_heff(m, 0.37), 0.37)
        gamma = -2.0 * sp.values.imag
        assert (gamma <= width_products(sp, m) + 1e-12).all()

    def test_isolated_regime_equality(self):
        m = single_site_model(alpha=0.01)
        sp = biorthogonal_spectrum(assemble_heff(m, 0.0), 0.0)
        (product,) = width_products(sp, m)
        npt.assert_allclose(-2.0 * sp.values[0].imag, product, rtol=1e-3,
                            atol=0)


class TestTwoLevelProfile:
    def test_exact_zero_at_center(self):
        assert two_level_t(0.3, 0.8, np.array([0.3]))[0] == 0.0

    def test_value_at_half_width(self):
        npt.assert_allclose(two_level_t(0.0, 1.0, np.array([0.5]))[0],
                            -2.0 + 0.0j, rtol=0, atol=1e-15)

    def test_peak_height_two(self):
        gamma = 0.6
        e0 = -0.2
        grid = np.array([e0 - gamma / 2.0, e0 + gamma / 2.0])
        npt.assert_allclose(np.abs(two_level_t(e0, gamma, grid)), [2.0, 2.0],
                            rtol=0, atol=1e-15)

    def test_modulus_symmetric_about_center(self):
        t = two_level_t(0.1, 0.7, 0.1 + np.linspace(-2, 2, 81))
        npt.assert_allclose(np.abs(t), np.abs(t[::-1]), rtol=0, atol=1e-14)


class TestSolveScattering:
    def test_record_consistency(self):
        m = single_site_model()
        sol = solve_scattering(m, 0.45)
        assert sol.energy == 0.45
        assert sol.incoming == 0
        npt.assert_allclose(sol.t_spectral, sol.t_direct, rtol=0, atol=1e-12)
        npt.assert_allclose(
            sol.s_matrix[1, 0], sol.t_direct, rtol=0, atol=1e-14
        )
        assert len(sol.spectral) == 1

    def test_incoming_from_right(self):
        m = CavityModel(
            LatticeSpec(3, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((2, 0), 0.5)),
            0.7,
        )
        left = solve_scattering(m, 0.3, incoming=0)
        right = solve_scattering(m, 0.3, incoming=1)
        # Reciprocity: the transmission amplitude is direction independent.
        npt.assert_allclose(
            left.t_direct, right.t_direct, rtol=0, atol=1e-12
        )
        # The interior wave is not: the cavity is asymmetric.
        assert np.abs(left.psi_interior - right.psi_interior).max() > 1e-3
