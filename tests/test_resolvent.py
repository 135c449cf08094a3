"""Contact-space resolvent against the dense LU solve.

``contact_green`` diagonalizes H_B once and evaluates G_cc(E) and the
interior state in O(N) per energy; next to a closed-cavity eigenvalue it
hands the energy to the dense LU route. The property tests draw random
connected masked lattices, contacts (shared ones included), couplings
(zero included) and in-band energies, and compare every output with
``solve_linear`` on E - H_eff(E). The fallback tests pin the three energies
where the resolvent alone would be wrong or undefined.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings

from opencavity import (
    CavityModel,
    LatticeSpec,
    LeadSpec,
    SingularMatrix,
    assemble_heff,
    contact_green,
    rho_direct,
    s_matrix,
    solve_linear,
    transmission_direct,
    wigner_delay,
)

from conftest import energies, open_cavities


def lu_oracle(model, e):
    """G_cc and the L-fed interior state from one dense LU solve."""
    idx = list(model.contact_indices)
    m = np.eye(model.dimension, dtype=complex) * e - assemble_heff(model, e)
    rhs = np.zeros((model.dimension, 2), dtype=complex)
    rhs[idx[0], 0] = 1.0
    rhs[idx[1], 1] = 1.0
    x = solve_linear(m, rhs)
    return x[idx, :], x[:, 0]


def rel_err(got, ref):
    """Largest deviation relative to max(1, largest reference entry).

    The floor is the inverse hopping, the size of the terms of the mode sum
    G0 = sum_k u_k u_k^T / (E - e_k). A block far smaller than that (for
    instance -E [[1, 1], [1, 1]] on a closed dimer with both leads on one
    site, near E = 0) comes out of the sum as rounding of those terms.
    """
    scale = max(1.0, float(np.abs(ref).max()))
    return float(np.abs(got - ref).max()) / scale


@settings(derandomize=True, deadline=None, max_examples=150)
@given(model=open_cavities(), e=energies)
def test_contact_green_matches_lu(model, e):
    try:
        g_lu, psi_lu = lu_oracle(model, e)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            contact_green(model, e)
        return
    g, x = contact_green(model, e)
    assert rel_err(g, g_lu) <= 1e-10
    _, u = model.closed_modes
    assert rel_err(u @ x, psi_lu) <= 1e-10


@settings(derandomize=True, deadline=None, max_examples=150)
@given(model=open_cavities(), e=energies)
def test_s_matrix_unitary_and_reciprocal(model, e):
    try:
        s = s_matrix(model, e)
    except SingularMatrix:
        return
    np.testing.assert_allclose(s.conj().T @ s, np.eye(2), rtol=0, atol=1e-10)
    assert abs(s[0, 1] - s[1, 0]) <= 1e-10


@settings(derandomize=True, deadline=None, max_examples=150)
@given(model=open_cavities(), e=energies)
def test_resolvent_rigidity_matches_lu_state(model, e):
    try:
        _, psi_lu = lu_oracle(model, e)
    except SingularMatrix:
        return
    _, x = contact_green(model, e)
    rho = abs(np.sum(x * x)) / np.sum(np.abs(x) ** 2)
    assert abs(rho - rho_direct(psi_lu)[0]) <= 1e-10


def square4():
    return CavityModel(
        LatticeSpec(4, 4),
        (LeadSpec((0, 0), 1.0), LeadSpec((3, 3), 1.0)),
        1.0,
    )


class TestFallback:
    def test_exactly_at_closed_eigenvalue(self):
        model = CavityModel(
            LatticeSpec(3, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((2, 0), 1.0)),
            0.5,
        )
        e_k, _ = model.closed_modes
        for e in e_k:
            g_lu, _ = lu_oracle(model, float(e))
            g, _ = contact_green(model, float(e))
            assert np.isfinite(g).all()
            assert rel_err(g, g_lu) <= 1e-12

    def test_dark_state_raises_like_lu(self):
        # The 4x4 square with corner leads has a symmetry-protected state at
        # E = 0 with no weight on either contact: E - H_eff(0) is singular.
        model = square4()
        with pytest.raises(SingularMatrix):
            lu_oracle(model, 0.0)
        with pytest.raises(SingularMatrix):
            contact_green(model, 0.0)
        with pytest.raises(SingularMatrix):
            transmission_direct(model, 0.0)
        g, x = contact_green(model, np.array([-0.5, 0.0, 0.5]))
        assert np.isnan(g[1]).all() and np.isnan(x[1]).all()
        assert np.isfinite(g[[0, 2]]).all() and np.isfinite(x[[0, 2]]).all()
        assert np.isnan(s_matrix(model, np.array([0.0]))).all()

    def test_next_to_bright_eigenvalue(self):
        # 1e-9 from a bright, non-degenerate e_k the bare resolvent is off
        # by about 2e-8 relative; the LU fallback is exact to rounding.
        model = square4()
        e_k, u = model.closed_modes
        k = int(np.argmin(np.abs(e_k - 1.2360679774997898)))
        assert np.abs(u[list(model.contact_indices), k]).min() > 0.3
        for e in (e_k[k] - 1e-9, e_k[k] + 1e-9):
            g_lu, psi_lu = lu_oracle(model, float(e))
            g, x = contact_green(model, float(e))
            assert rel_err(g, g_lu) <= 1e-12
            assert rel_err(u @ x, psi_lu) <= 1e-12


def test_array_matches_one_point_calls():
    model = CavityModel(
        LatticeSpec(5, 3),
        (LeadSpec((0, 1), 1.0), LeadSpec((4, 2), 0.7)),
        0.8,
    )
    grid = np.linspace(-1.9, 1.9, 23)
    s = s_matrix(model, grid)
    tau = wigner_delay(model, grid)
    assert s.shape == (23, 2, 2) and tau.shape == (23,)
    for i, e in enumerate(grid):
        np.testing.assert_allclose(s[i], s_matrix(model, e), rtol=0, atol=1e-13)
        np.testing.assert_allclose(tau[i], wigner_delay(model, e), rtol=1e-9)


def test_with_alpha_shares_closed_modes():
    model = square4()
    other = model.with_alpha(0.3)
    assert other.closed_modes[1] is model.closed_modes[1]
    assert other.channels[0].w_eff == 0.3
    g_new, _ = contact_green(other, 0.7)
    g_fresh, _ = contact_green(
        CavityModel(model.lattice, model.leads, 0.3), 0.7
    )
    np.testing.assert_array_equal(g_new, g_fresh)


def test_closed_modes_computed_once_across_threads():
    # Models from with_alpha share one lazily computed eigh; eight threads
    # racing for it on two cores must all receive the same arrays.
    model = square4()
    seen = []

    def worker():
        seen.append(model.with_alpha(0.5).closed_modes)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8
    assert all(modes is seen[0] for modes in seen)
