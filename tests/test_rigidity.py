import cmath
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings

from opencavity import (
    DefectiveSpectrum,
    PoleOnAxis,
    SingularMatrix,
    UndefinedValue,
    b_antisymmetry_residual,
    build_report,
    rho_direct,
)
from opencavity.scattering import solve_scattering

from conftest import energies, open_cavities, single_site_model, square4
from test_resolvent import lu_oracle, rounding_floor


def assert_rows_match_scalar(stack):
    """Each row of a stack gives the scalar call's result bit for bit."""
    mod, theta = rho_direct(stack)
    for row, m, t in zip(stack, mod, theta):
        assert (m, t) == rho_direct(row)


class TestRhoDirect:
    def test_real_vector_fully_rigid(self):
        mod, theta = rho_direct(np.array([1.0, 2.0, 3.0]))
        npt.assert_allclose(mod, 1.0, rtol=0, atol=1e-15)
        npt.assert_allclose(theta, 0.0, rtol=0, atol=1e-15)

    def test_circular_vector_zero(self):
        mod, _ = rho_direct(np.array([1.0, 1.0j]) / math.sqrt(2.0))
        assert mod < 1e-15

    def test_mixed_vector(self):
        mod, _ = rho_direct(np.array([1.0 + 1.0j, 1.0]))
        npt.assert_allclose(mod, math.sqrt(5.0) / 3.0, rtol=0, atol=1e-15)

    def test_theta_range(self):
        rng = np.random.RandomState(41)
        for _ in range(25):
            psi = rng.randn(4) + 1j * rng.randn(4)
            mod, theta = rho_direct(psi)
            assert -math.pi / 2.0 < theta <= math.pi / 2.0
            assert 0.0 <= mod <= 1.0 + 1e-12
        # A stack along the last axis gives one value per state, each the
        # scalar call's, rounded as the elementwise numpy expression.
        psi = rng.randn(25, 2, 7) + 1j * rng.randn(25, 2, 7)
        mod, theta = rho_direct(psi)
        assert mod.shape == theta.shape == (25, 2)
        assert_rows_match_scalar(psi.reshape(50, 7))
        x = psi[:, 0]
        npt.assert_array_equal(
            rho_direct(x)[0],
            np.abs(np.sum(x * x, axis=1)) / np.sum(np.abs(x) ** 2, axis=1),
        )

    def test_rotation_invariant_modulus(self):
        # |rho| does not change under a global phase of psi.
        rng = np.random.RandomState(7)
        psi = rng.randn(5) + 1j * rng.randn(5)
        mod0, _ = rho_direct(psi)
        for phase in (0.3, 1.1, 2.9):
            mod, _ = rho_direct(psi * np.exp(1j * phase))
            npt.assert_allclose(mod, mod0, rtol=0, atol=1e-14)

    def test_zero_sum_gives_zero_theta(self):
        mod, theta = rho_direct(np.array([1.0, 1.0j]))
        assert mod == 0.0
        assert theta == 0.0
        assert_rows_match_scalar(np.array([[1.0, 1.0j], [1.0, -1.0j]]))

    def test_zero_vector_undefined(self):
        with pytest.raises(UndefinedValue):
            rho_direct(np.zeros(3))
        # In a stack, a zero or NaN state gives NaN and the others stand.
        mod, theta = rho_direct([[0.0, 0.0], [math.nan, 1.0], [1.0, 2.0]])
        assert np.isnan(mod[:2]).all() and np.isnan(theta[:2]).all()
        assert (mod[2], theta[2]) == rho_direct([1.0, 2.0])

    def test_huge_entries_do_not_overflow(self):
        # |psi_k|^2 overflows to inf; the result is that of psi / 2e160.
        assert rho_direct([1e160, 2e160j]) == rho_direct([0.5, 1.0j])
        assert rho_direct([1e160, 2e160j]) == (0.6, math.pi / 2.0)
        assert_rows_match_scalar(np.array([[1e160, 2e160j], [0.5, 1.0j],
                                           [1e300, 3e299 + 1e300j]]))

    def test_tiny_entries_do_not_underflow(self):
        # |psi_k|^2 underflows to 0, yet the vector is not the zero vector.
        assert rho_direct([1e-170, 1e-170j]) == (0.0, 0.0)
        assert rho_direct([1e-170, 2e-170j]) == rho_direct([0.5, 1.0j])
        # Down to a subnormal largest modulus, whose reciprocal overflows.
        assert rho_direct([5e-324, 2e-323j]) == rho_direct([0.25, 1.0j])
        assert_rows_match_scalar(np.array([[1e-170, 1e-170j],
                                           [1e-170, 2e-170j], [0.5, 1.0j],
                                           [5e-324, 2e-323j]]))


class TestBAntisymmetryResidual:
    def test_pure_antisymmetric(self):
        b = np.array([[0.0, 1.0j], [1.0j, 0.0]])
        npt.assert_allclose(
            b_antisymmetry_residual(b), 1.0, rtol=0, atol=1e-15
        )

    def test_exactly_antisymmetric_zero(self):
        b = np.array([[0.0, 1.0 + 1.0j], [-1.0 - 1.0j, 0.0]])
        assert b_antisymmetry_residual(b) == 0.0

    def test_scalar_matrix(self):
        assert b_antisymmetry_residual(np.array([[0.3j]])) == 0.0

    def test_scale_invariant_denominator(self):
        rng = np.random.RandomState(3)
        a = rng.randn(4, 4) + 1j * rng.randn(4, 4)
        b = a - a.T
        assert b_antisymmetry_residual(b) < 1e-14
        assert b_antisymmetry_residual(1e6 * b) < 1e-14


class TestBuildReport:
    def test_residual_measures_real_part_overlap(self, reference_cases):
        # B + B^T = 2 Re B = 4 Re phi_i . Re phi_j off the diagonal for a
        # bilinearly orthogonal set: a property of the states, far above
        # rounding on the 4x4 square.
        name, model, _ = reference_cases[3]
        assert name == "square4"
        sol = solve_scattering(model, 0.3)
        phi = sol.spectral.vectors
        b = np.abs(phi.conj().T @ phi)
        overlap = 4.0 * np.abs(phi.real.T @ phi.real) / (1.0 + b)
        np.fill_diagonal(overlap, 0.0)
        residual = sol.rigidity.b_antisymmetry_residual
        npt.assert_allclose(residual, overlap.max(), rtol=1e-12)
        assert residual > 0.2

    def test_fields_present(self):
        sol = solve_scattering(single_site_model(), 0.4)
        rep = sol.rigidity
        assert rep.energy == 0.4
        assert 0.0 <= rep.rho_direct_mod <= 1.0 + 1e-12
        assert -math.pi / 2.0 < rep.rho_direct_theta <= math.pi / 2.0
        assert isinstance(rep.rho_spectral, complex)
        assert rep.b_antisymmetry_residual >= 0.0
        assert len(sol.spectral.rigidity_r) == 1

    def test_spectral_matches_direct_modulus(self):
        # The rigidity of the resonance expansion is that of the direct
        # state: on a one-level cavity, where the interior wave is the
        # resonance state, and on the 4x4 square, where the diagonal form
        # sum c^2 A misses it by 0.06 through the cross terms of B.
        for model, e in ((single_site_model(), 0.4), (square4(), 0.3)):
            sol = solve_scattering(model, e)
            rep = sol.rigidity
            npt.assert_allclose(
                abs(rep.rho_spectral), rep.rho_direct_mod, rtol=0, atol=1e-10
            )
        diagonal = abs(np.sum(sol.c**2 * sol.spectral.a_norm))
        assert abs(diagonal - rep.rho_direct_mod) > 0.05

    def test_state_rigidities_in_range(self):
        from conftest import reference_models

        for label, model, grid in reference_models():
            sol = solve_scattering(model, float(grid[17]))
            for r in sol.spectral.rigidity_r.tolist():
                assert 0.0 <= r <= 1.0, label

    def test_report_via_build_report(self):
        model = single_site_model()
        sol = solve_scattering(model, -0.9)
        rebuilt = build_report(sol.spectral, sol.psi_interior, model)
        assert rebuilt.energy == sol.rigidity.energy
        assert rebuilt.rho_spectral == sol.rigidity.rho_spectral
        npt.assert_allclose(
            rebuilt.rho_direct_mod, sol.rigidity.rho_direct_mod,
            rtol=0, atol=1e-15,
        )


# Largest gaps seen over 1,000 derandomized draws of the test below when a
# lead or alpha could be 0: 5.5e-13 between direct and spectral, 1.8e-13
# between the resolvent and the LU.
TWO_ROUTE_TOL = 1e-11


# Both leads are open in every draw, and all 170 draws have an expansion
# (161 of 400 when a lead or alpha could be 0). Next to a narrow resonance
# every backward-stable route is off by the state's rounding floor (see
# test_resolvent.rounding_floor), and rho by up to four times its relative
# size; elsewhere that term is far below TWO_ROUTE_TOL.
@settings(derandomize=True, deadline=None, max_examples=170)
@given(model=open_cavities(open_leads=True), e=energies)
def test_direct_and_spectral_rigidity_agree(model, e):
    # Wherever the expansion exists, the rigidity of sum c phi equals that
    # of the resolvent's interior state as a complex number, and that state
    # has the rigidity of the dense LU solve.
    try:
        rep = solve_scattering(model, e).rigidity
        _, psi_lu = lu_oracle(model, e)
    except (PoleOnAxis, DefectiveSpectrum, UndefinedValue, SingularMatrix):
        return
    floor = rounding_floor(model, e, psi_lu, None) / np.linalg.norm(psi_lu)
    tol = TWO_ROUTE_TOL + 4.0 * floor
    direct = cmath.rect(rep.rho_direct_mod, -2.0 * rep.rho_direct_theta)
    assert abs(rep.rho_spectral - direct) <= tol
    mod, theta = rho_direct(psi_lu)
    assert abs(cmath.rect(mod, -2.0 * theta) - direct) <= tol
