"""Contact-space resolvent against the dense LU solve.

``contact_green`` diagonalizes H_B once and evaluates G_cc(E) and the
interior state in O(N) per energy. Next to a closed-cavity eigenvalue it
takes the near levels out of the modal sums and borders them back in
through their small block of E - H_eff, which is singular exactly when
E - H_eff is. The property tests draw random connected lattices, full ones
with their degenerate and contact-free levels included, disordered onsite
energies, contacts (shared ones included), couplings (zero included) and
energies anywhere in the band or within and just outside the gap of a
level, and compare every output with ``solve_linear`` on E - H_eff(E).
The fallback tests pin the three energies where the bare modal sums alone
would be wrong or undefined, and a spy checks that no N x N matrix is
factorized on the way.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from opencavity import scattering
from opencavity.scattering import RESOLVENT_GAP

from conftest import energies, open_cavities, square4


def lu_columns(model, e):
    """G_cc and both contact columns of (E - H_eff)^-1, by one dense LU."""
    idx = list(model.contact_indices)
    m = np.eye(model.dimension, dtype=complex) * e - assemble_heff(model, e)
    rhs = np.zeros((model.dimension, 2), dtype=complex)
    rhs[idx[0], 0] = 1.0
    rhs[idx[1], 1] = 1.0
    x = solve_linear(m, rhs)
    return x[idx, :], x


def lu_oracle(model, e):
    """G_cc and the L-fed interior state from one dense LU solve."""
    g, x = lu_columns(model, e)
    return g, x[:, 0]


def delay_oracle(model, e, g, x):
    """Im tr(S^dag dS/dE) from G_cc and the contact columns X of the LU,
    with dG_cc = G^T Sigma' G - X^T X."""
    t, w = model.lead_hopping, model.w_eff
    a = model.channel_amplitudes(e)
    root = np.sqrt(4.0 * t * t - e * e)
    kappa = -e / (2.0 * root * root)
    dsigma = w * w * (1.0 + 1j * e / root) / (2.0 * t * t)
    aa = -2j * np.pi * np.outer(a, a)
    ds = aa * (np.add.outer(kappa, kappa) * g
               + g.T @ np.diag(dsigma) @ g - x.T @ x)
    return float(np.trace((np.eye(2) + aa * g).conj().T @ ds).imag)


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


# Distances E - e_k in units of max(1, ||H_B||): on the level, within the
# gap, where the level is bordered, and just outside it.
OFFSETS = [0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7]
OUTSIDE = [1.5 * RESOLVENT_GAP, -1.5 * RESOLVENT_GAP]


def dark_part(model, e):
    """Projector, in H_B's eigenbasis, onto the combinations of the levels
    within the gap of e that have no contact weight; None if there are none.

    Both routes return rounding noise of size eps / |E - e_k| along them:
    the true component is zero, and each solve divides by E - e_k.
    """
    e_k, u = model.closed_modes
    near = np.flatnonzero(np.abs(e - e_k)
                          < RESOLVENT_GAP * max(1.0, np.abs(e_k).max()))
    if near.size == 0:
        return None
    _, sv, vt = np.linalg.svd(u[list(model.contact_indices)][:, near])
    dark = vt[np.count_nonzero(sv > 1e-8):]
    if dark.shape[0] == 0:
        return None
    proj = np.zeros((len(e_k), len(e_k)))
    proj[np.ix_(near, near)] = dark.T @ dark
    return proj


@st.composite
def clean_rectangles(draw):
    """Full rectangles without disorder and with both leads coupled: their
    symmetries give degenerate clusters and members without contact weight.
    """
    nx, ny = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    sites = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))
    w = st.floats(0.2, 2.0)
    return CavityModel(
        LatticeSpec(nx, ny),
        (LeadSpec(draw(sites), draw(w)), LeadSpec(draw(sites), draw(w))),
        draw(st.floats(0.1, 2.0)),
    )


def rounding_floor(model, e, x, proj):
    """eps (|E| + ||H_eff||_inf) ||X||_F / sigma, with X the contact columns
    of (E - H_eff)^-1 and sigma the smallest singular value of E - H_eff
    off the contact-free directions of ``proj``.

    Forming E - H_eff alone rounds it by eps (|E| + ||H_eff||), so to first
    order any backward-stable route is off by this much in X and, since
    ||X||_F <= sqrt(2) / sigma, in G_cc. It stays far below 1e-11 |X|
    unless a closed or barely coupled level lies within the gap, where the
    LU is off by as much as the bordered route.
    """
    heff = assemble_heff(model, e)
    sv = np.linalg.svd(np.eye(model.dimension) * e - heff, compute_uv=False)
    dark = 0 if proj is None else int(round(np.trace(proj)))
    return (np.finfo(float).eps * (abs(e) + np.abs(heff).sum(axis=1).max())
            * np.linalg.norm(x) / sv[len(sv) - 1 - dark])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(model=st.one_of(open_cavities(full=st.booleans()), clean_rectangles()),
       data=st.data())
def test_bordered_levels_match_lu(model, data):
    e_k, u = model.closed_modes
    gap = RESOLVENT_GAP * max(1.0, np.abs(e_k).max())
    split = np.diff(e_k) >= gap
    # Members of degenerate clusters are drawn as often as any level.
    tied = np.flatnonzero(~np.concatenate(([True], split))
                          | ~np.concatenate((split, [True])))
    k = data.draw(st.integers(0, len(e_k) - 1) if tied.size == 0 else
                  st.one_of(st.integers(0, len(e_k) - 1),
                            st.sampled_from(tied.tolist())))
    offset = data.draw(st.sampled_from(OFFSETS + OUTSIDE))
    e = float(e_k[k] + offset * max(1.0, np.abs(e_k).max()))
    try:
        g_lu, x_lu = lu_columns(model, e)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            contact_green(model, e)
        g, x = contact_green(model, np.array([e]))
        assert np.isnan(g).all() and np.isnan(x).all()
        return
    proj = dark_part(model, e)
    floor = 8.0 * rounding_floor(model, e, x_lu, proj)
    # Outside the gap the plain modal sums keep their own eps / |E - e_k|.
    bound = 1e-11 if offset in OFFSETS else 1e-10
    g, x = contact_green(model, e)
    assert np.abs(g - g_lu).max() <= bound * max(1, np.abs(g_lu).max()) + floor
    if abs(e) < 1.95:
        a = model.channel_amplitudes(e)
        aa = 2.0 * np.pi * np.outer(a, a)
        s_lu = np.eye(2) - 1j * aa * g_lu
        assert np.abs(s_matrix(model, e) - s_lu).max() <= (
            bound + floor * aa.max())
    if offset not in OFFSETS:
        return
    x_l = u.T @ x_lu[:, 0]
    if proj is not None:
        x, x_l = x - proj @ x, x_l - proj @ x_l
    assert np.abs(x - x_l).max() <= 1e-11 * max(1, np.abs(x_l).max()) + floor
    if abs(e) < 1.95 and proj is None:
        tau_lu = delay_oracle(model, e, g_lu, x_lu)
        assert abs(wigner_delay(model, e) - tau_lu) <= 1e-11 * max(
            1.0, abs(tau_lu)) + 2.0 * floor * aa.max() * np.linalg.norm(x_lu)


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

    def test_failed_border_solve_is_singular(self, monkeypatch):
        # Exactly on a bright level the near block is bordered back in. If
        # its solve fails, the array call gives a NaN row there and the
        # scalar call raises, as at a singular E - H_eff.
        model = CavityModel(
            LatticeSpec(3, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((2, 0), 1.0)),
            0.5,
        )
        e_k, u = model.closed_modes
        k = int(np.argmax(np.abs(u[list(model.contact_indices)]).min(axis=0)))
        assert np.abs(u[list(model.contact_indices), k]).min() > 0.3
        grid = np.array([-0.7, e_k[k], 0.3])
        assert np.isfinite(s_matrix(model, grid)).all()

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", fail)
        s = s_matrix(model, grid)
        assert np.isnan(s[1]).all()
        assert np.isfinite(s[[0, 2]]).all()
        with pytest.raises(SingularMatrix):
            s_matrix(model, float(e_k[k]))

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


def test_no_dense_factorization(monkeypatch):
    # Every energy takes the O(N) route: at a bright level, in the twofold
    # cluster at E = 1 with its contact-free member, and at the singular
    # E = 0, nothing larger than the near block or the 2x2 Dyson problem
    # is factorized, and the dense solve is never called.
    import opencavity.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("dense solve called")

    monkeypatch.setattr(opencavity.linalg, "solve_linear", refuse)
    sizes = []
    for name in ("solve", "svd"):
        def spy(a, *args, _real=getattr(np.linalg, name), **kwargs):
            sizes.append(max(np.shape(a)[-2:]))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    model = square4()
    e_k, _ = model.closed_modes
    gap = RESOLVENT_GAP * max(1.0, np.abs(e_k).max())
    bright = e_k[np.argmin(np.abs(e_k - 1.2360679774997898))]
    pair = e_k[np.abs(e_k - 1.0) < gap]
    assert pair.size == 2
    grid = np.array([bright - 1e-9, bright, pair[0] + 1e-12, pair[0] + 1e-9,
                     0.0, 0.3])
    block = max(np.count_nonzero(np.abs(e - e_k) < gap) for e in grid)
    assert block == 4
    for f in (contact_green, s_matrix, wigner_delay):
        out = f(model, grid)
        out = out[0] if f is contact_green else out
        assert np.isnan(out[4]).all()
        assert np.isfinite(np.delete(out, 4, axis=0)).all()
        with pytest.raises(SingularMatrix):
            f(model, 0.0)
        for e in np.delete(grid, 4):
            f(model, float(e))
    assert sizes and max(sizes) <= block < model.dimension


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


def test_delay_memory_does_not_grow_with_the_grid(monkeypatch):
    # The resolvent and the delay take O(N) temporaries per energy, and
    # run in chunks of _CHUNK energies. The grid holds the singular E = 0
    # of the 4 x 4 lattice in its third chunk.
    monkeypatch.setattr(scattering, "_CHUNK", 256)
    model = square4()
    grid = np.linspace(-1.9, 1.9, 1001)
    assert grid[500] == 0.0

    def traced_peak(energies):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            floor = tracemalloc.get_traced_memory()[0]
            wigner_delay(model, energies)
            return tracemalloc.get_traced_memory()[1] - floor
        finally:
            if started:
                tracemalloc.stop()

    assert traced_peak(grid[:1024]) <= 1.2 * traced_peak(grid[:256])
    chunked = (wigner_delay(model, grid), s_matrix(model, grid),
               *contact_green(model, grid))
    monkeypatch.setattr(scattering, "_CHUNK", len(grid))
    whole = (wigner_delay(model, grid), s_matrix(model, grid),
             *contact_green(model, grid))
    for got, want in zip(chunked, whole):
        assert got.shape == want.shape and len(got) == len(grid)
        assert np.isnan(got[500]).all() and np.isnan(want[500]).all()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("w", [(1.0, 0.7), (0.0, 1.3)])
def test_self_energies_match_scalar_path_bit_for_bit(w):
    # The grid path of the resolvent takes Sigma(E) for all energies at
    # once; it must equal the one-point path in every bit. Unequal lead
    # hoppings put the two band edges apart.
    model = CavityModel(
        LatticeSpec(5, 3),
        (LeadSpec((0, 1), w[0], lead_hopping=1.0),
         LeadSpec((4, 2), w[1], lead_hopping=0.6)),
        0.8,
    )
    edges = [2.0, 1.2, np.nextafter(2.0, 0.0), np.nextafter(1.2, 3.0)]
    grid = np.array([0.0, -0.0, 0.3, 1.1, 1.9, 2.5, 1e3]
                    + edges + np.linspace(-3.0, 3.0, 41).tolist())
    grid = np.concatenate([grid, -grid])
    got = model.self_energy_weights(grid)
    ref = np.array([model.self_energy_weights(float(e)) for e in grid])
    assert got.shape == ref.shape == (len(grid), 2)
    # Views as integers compare every bit, the signs of zeros included.
    np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_with_alpha_shares_closed_modes():
    model = square4()
    other = model.with_alpha(0.3)
    assert other.closed_modes[1] is model.closed_modes[1]
    assert other.w_eff[0] == 0.3
    g_new, _ = contact_green(other, 0.7)
    g_fresh, _ = contact_green(
        CavityModel(model.lattice, model.leads, 0.3), 0.7
    )
    np.testing.assert_array_equal(g_new, g_fresh)


def test_closed_modes_computed_once_across_threads():
    # Models from with_alpha share one lazily computed eigh, and one
    # eigvalsh per set of removed contacts; eight threads racing for them
    # on two cores must all receive the same arrays.
    model = square4()
    seen = []

    def worker():
        other = model.with_alpha(0.5)
        seen.append((other.closed_modes, other._interior_levels((0, 15))))

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
    assert all(a is b for pair in seen for a, b in zip(pair, seen[0]))
