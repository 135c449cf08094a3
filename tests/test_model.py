import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opencavity import (
    CavityModel,
    InvalidGeometry,
    LatticeSpec,
    LeadSpec,
    OutsideBand,
    build_hb,
    eig_general,
    surface_green,
)


class TestLatticeSpec:
    def test_sites_lexicographic(self):
        lat = LatticeSpec(2, 3)
        assert lat.sites() == (
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        )

    def test_mask_filters_sites(self):
        lat = LatticeSpec(2, 2, mask=((1, 0), (1, 1)))
        assert lat.sites() == ((0, 0), (1, 0), (1, 1))

    def test_scalar_onsite_broadcast(self):
        lat = LatticeSpec(2, 2, onsite=0.3)
        assert lat.onsite == ((0.3, 0.3), (0.3, 0.3))

    def test_rejects_bad_extent(self):
        with pytest.raises(InvalidGeometry):
            LatticeSpec(0, 3)

    def test_rejects_bad_mask_shape(self):
        with pytest.raises(InvalidGeometry):
            LatticeSpec(2, 2, mask=((1, 1),))

    def test_rejects_bad_onsite_shape(self):
        with pytest.raises(InvalidGeometry):
            LatticeSpec(2, 2, onsite=((1.0,), (1.0,)))


@pytest.mark.parametrize("spec, args, kwargs", [
    (LatticeSpec, (2, 2), {"hopping": math.inf}),
    (LatticeSpec, (2, 2), {"hopping": math.nan}),
    (LatticeSpec, (2, 2), {"onsite": math.nan}),
    (LatticeSpec, (2, 1), {"onsite": [[0.0], [-math.inf]]}),
    (LatticeSpec, (math.inf, 2), {}),
    (LatticeSpec, (2, math.nan), {}),
    (LeadSpec, ((math.inf, 0), 1.0), {}),
    (LeadSpec, ((0, 0.5), 1.0), {}),
    (LeadSpec, ((0, 0), math.inf), {}),
    (LeadSpec, ((0, 0), math.nan), {}),
    (LeadSpec, ((0, 0), 1.0), {"lead_hopping": math.inf}),
])
def test_specs_reject_non_finite(spec, args, kwargs):
    with pytest.raises(InvalidGeometry):
        spec(*args, **kwargs)


class TestBuildHb:
    def test_chain_structure(self):
        h, sites = build_hb(LatticeSpec(3, 1))
        npt.assert_array_equal(
            h, [[0.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 0.0]]
        )
        assert sites == ((0, 0), (1, 0), (2, 0))

    def test_onsite_on_diagonal(self):
        h, _ = build_hb(LatticeSpec(2, 1, onsite=((0.5,), (-0.25,))))
        npt.assert_array_equal(np.diag(h), [0.5, -0.25])

    def test_hopping_scale(self):
        h, _ = build_hb(LatticeSpec(2, 1, hopping=2.0))
        assert h[0, 1] == -2.0

    def test_spectrum_real(self):
        h, _ = build_hb(LatticeSpec(3, 4))
        values, _ = eig_general(h.astype(complex))
        assert np.abs(values.imag).max() < 1e-12

    def test_masked_disconnection_raises(self):
        # Two opposite corners share no bond.
        with pytest.raises(InvalidGeometry):
            build_hb(LatticeSpec(2, 2, mask=((1, 0), (0, 1))))

    def test_empty_mask_raises(self):
        with pytest.raises(InvalidGeometry):
            build_hb(LatticeSpec(2, 2, mask=((0, 0), (0, 0))))


class TestSurfaceGreen:
    def test_band_center(self):
        assert surface_green(0.0) == -1j

    def test_band_edges(self):
        assert surface_green(2.0) == 1.0 + 0.0j
        assert surface_green(-2.0) == -1.0 + 0.0j

    def test_decaying_branch_outside(self):
        # |g| < 1/t outside the band picks the decaying solution.
        for e in (2.5, -2.5, 7.0):
            g = surface_green(e)
            assert g.imag == 0.0
            assert abs(g) < 1.0

    def test_im_nonpositive_everywhere(self):
        for e in np.linspace(-3.0, 3.0, 301):
            assert surface_green(e).imag <= 0.0

    def test_band_edge_continuity(self):
        # g has a sqrt branch point at |E| = 2; Richardson extrapolation in
        # sqrt(delta) removes the sqrt term and leaves O(delta/4), so the
        # one-sided limits come out well below 1e-8.
        delta = 1e-10
        for edge in (2.0, -2.0):
            sgn = 1.0 if edge > 0 else -1.0
            inside = 2.0 * surface_green(edge - sgn * delta / 4.0) - surface_green(
                edge - sgn * delta
            )
            outside = 2.0 * surface_green(edge + sgn * delta / 4.0) - surface_green(
                edge + sgn * delta
            )
            assert abs(inside - outside) < 1e-8
            assert abs(inside - surface_green(edge)) < 1e-8

    def test_lead_hopping_scaling(self):
        # g(0) = -i/t for a lead with hopping t.
        npt.assert_allclose(surface_green(0.0, 2.0), -0.5j, rtol=0, atol=1e-15)


def lead_pair(w, alpha, t=1.0):
    """One site fed by two identical leads of coupling w and hopping t."""
    lead = LeadSpec((0, 0), w, lead_hopping=t)
    return CavityModel(LatticeSpec(1, 1), (lead, lead), alpha)


class TestLeadFunctions:
    def test_self_energy_examples(self):
        m = lead_pair(1.0, 1.0)
        assert m.self_energy_weights(0.0).tolist() == [-1j, -1j]
        assert m.self_energy_weights(2.0).tolist() == [1.0 + 0.0j] * 2

    def test_self_energy_alpha_scale(self):
        npt.assert_allclose(lead_pair(0.5, 2.0).self_energy_weights(0.0),
                            [-1j, -1j], rtol=0, atol=1e-15)

    def test_amplitude_band_center(self):
        npt.assert_allclose(lead_pair(1.0, 1.0).channel_amplitudes(0.0),
                            [math.sqrt(1.0 / math.pi)] * 2, rtol=0, atol=1e-15)

    def test_amplitude_outside_band(self):
        m = lead_pair(1.0, 1.0)
        for e in (2.0, -2.0, 2.5):
            with pytest.raises(OutsideBand):
                m.channel_amplitudes(e)

    def test_amplitude_self_energy_identity(self):
        # 2 pi a^2 = -2 Im sigma ties widths to transmission normalization;
        # holds for any lead hopping by construction.
        for t in (1.0, 1.7):
            m = lead_pair(0.8, 0.7, t)
            for e in np.linspace(-1.99 * t, 1.99 * t, 201):
                a = m.channel_amplitudes(e)
                sigma = m.self_energy_weights(e)
                assert np.abs(2.0 * math.pi * a * a + 2.0 * sigma.imag).max() < 1e-10

    def test_rejects_negative_coupling(self):
        with pytest.raises(InvalidGeometry):
            LeadSpec((0, 0), -1.0)


class TestCavityModel:
    def test_requires_two_leads(self):
        lat = LatticeSpec(2, 1)
        with pytest.raises(InvalidGeometry):
            CavityModel(lat, (LeadSpec((0, 0), 1.0),), 1.0)
        with pytest.raises(InvalidGeometry):
            CavityModel(
                lat,
                (LeadSpec((0, 0), 1.0),) * 3,
                1.0,
            )

    def test_channels_follow_lead_order(self):
        # The first lead is L and the second R, by position alone; the
        # resolved leads are read-only arrays in that order.
        lat = LatticeSpec(2, 1)
        m = CavityModel(lat, (LeadSpec((1, 0), 0.5),
                              LeadSpec((0, 0), 2.0, lead_hopping=0.6)), 1.0)
        assert m.contact_indices.tolist() == [1, 0]
        assert m.w_eff.tolist() == [0.5, 2.0]
        assert m.lead_hopping.tolist() == [1.0, 0.6]
        for per_channel in (m.contact_indices, m.w_eff, m.lead_hopping):
            with pytest.raises(ValueError):
                per_channel[0] = 0

    def test_shared_contact_site_allowed(self):
        m = CavityModel(
            LatticeSpec(1, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((0, 0), 1.0)),
            1.0,
        )
        assert m.contact_indices.tolist() == [0, 0]

    def test_masked_contact_rejected(self):
        lat = LatticeSpec(2, 2, mask=((1, 0), (1, 1)))
        with pytest.raises(InvalidGeometry):
            CavityModel(lat, (LeadSpec((0, 1), 1.0), LeadSpec((1, 1), 1.0)), 1.0)

    def test_negative_alpha_rejected(self):
        lat = LatticeSpec(1, 1)
        leads = (LeadSpec((0, 0), 1.0), LeadSpec((0, 0), 1.0))
        with pytest.raises(InvalidGeometry):
            CavityModel(lat, leads, -0.1)

    def test_with_alpha_rescales_w_eff(self):
        lat = LatticeSpec(2, 1)
        m = CavityModel(lat, (LeadSpec((0, 0), 0.5), LeadSpec((1, 0), 0.5)), 1.0)
        m2 = m.with_alpha(3.0)
        assert m2.w_eff[0] == 1.5
        assert m.w_eff[0] == 0.5

    def test_h_b_read_only(self):
        m = CavityModel(
            LatticeSpec(2, 1),
            (LeadSpec((0, 0), 1.0), LeadSpec((1, 0), 1.0)),
            1.0,
        )
        with pytest.raises(ValueError):
            m.h_b[0, 0] = 5.0

    def test_repr(self):
        m = CavityModel(
            LatticeSpec(3, 2),
            (LeadSpec((0, 0), 1.0), LeadSpec((2, 1), 1.0)),
            0.25,
        )
        assert repr(m) == "CavityModel(n=6, channels=2, alpha=0.25)"


# The lead layer computes g, Sigma and a once, array-valued; a scalar
# energy goes through the same code. The references below are the formulas
# in Python's own float and complex arithmetic: the results at scalar and
# array energies must match them to the bit, so the layer's outputs do not
# depend on how the energies are batched.
HOPPINGS = (1.0, 0.6)
EDGES = [2.0 * t for t in HOPPINGS]
SPECIAL_ENERGIES = [0.0, -0.0, 1e3, -1e3] + [
    s * x
    for edge in EDGES
    for x in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, 9.0))
    for s in (1.0, -1.0)
]
lead_energies = st.lists(
    st.one_of(st.sampled_from(SPECIAL_ENERGIES), st.floats(-3.0, 3.0)),
    min_size=1, max_size=12,
)
lead_couplings = st.one_of(st.just(0.0), st.floats(0.05, 2.0))


def green_ref(e, t):
    if abs(e) <= 2.0 * t:
        return complex(e, -math.sqrt(4.0 * t * t - e * e)) / (2.0 * t * t)
    root = math.sqrt(e * e - 4.0 * t * t)
    return complex(e - math.copysign(root, e)) / (2.0 * t * t)


def amplitude_ref(e, w, t):
    return w * math.sqrt(math.sqrt(4.0 * t * t - e * e) / (2.0 * t * t) / math.pi)


def bits(x, dtype):
    """Integer view, so equality covers every bit, zero signs included."""
    return np.asarray(x, dtype=dtype).view(np.uint64)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lead_energies, st.permutations(HOPPINGS), lead_couplings,
       lead_couplings, st.floats(0.0, 2.0))
@example(SPECIAL_ENERGIES, list(HOPPINGS), 0.0, 1.3, 0.8)
def test_lead_layer_scalar_and_array_agree_bit_for_bit(e, hop, w_l, w_r, alpha):
    model = CavityModel(
        LatticeSpec(2, 1),
        (LeadSpec((0, 0), w_l, lead_hopping=hop[0]),
         LeadSpec((1, 0), w_r, lead_hopping=hop[1])),
        alpha,
    )
    grid = np.array(e)
    for t in HOPPINGS:
        ref = [green_ref(x, t) for x in e]
        assert all(type(surface_green(x, t)) is complex for x in e)
        np.testing.assert_array_equal(bits(surface_green(grid, t), complex),
                                      bits(ref, complex))
        np.testing.assert_array_equal(
            bits([surface_green(x, t) for x in e], complex), bits(ref, complex))

    # Python floats, so the reference squares w_eff with Python's **.
    channels = list(zip(model.w_eff.tolist(), model.lead_hopping.tolist()))
    sigma = model.self_energy_weights(grid)
    assert sigma.shape == (len(e), 2)
    ref = [[w**2 * green_ref(x, t) for w, t in channels] for x in e]
    np.testing.assert_array_equal(bits(sigma, complex), bits(ref, complex))
    np.testing.assert_array_equal(
        bits([model.self_energy_weights(x) for x in e], complex),
        bits(ref, complex))

    a = model.channel_amplitudes(grid)
    assert a.shape == (len(e), 2)
    for i, x in enumerate(e):
        for c, (w, t) in enumerate(channels):
            if abs(x) >= 2.0 * t:
                assert math.isnan(a[i, c])
                continue
            ref = amplitude_ref(x, w, t)
            assert bits(ref, float) == bits(a[i, c], float)
            # 2 pi a^2 = -2 Im Sigma, the width normalization.
            npt.assert_allclose(2.0 * math.pi * ref * ref, -2.0 * sigma[i, c].imag,
                                rtol=1e-14, atol=0)
        if np.isnan(a[i]).any():
            with pytest.raises(OutsideBand):
                model.channel_amplitudes(x)
        else:
            np.testing.assert_array_equal(
                bits(model.channel_amplitudes(x), float), bits(a[i], float))


def test_lead_slopes_match_centred_differences():
    # Sigma'(E) and kappa(E) = (log a)'(E), the lead terms of the Wigner
    # delay, against centred differences inside both bands.
    model = CavityModel(
        LatticeSpec(2, 1),
        (LeadSpec((0, 0), 0.8, lead_hopping=1.0),
         LeadSpec((1, 0), 1.3, lead_hopping=0.6)),
        0.9,
    )
    e = np.linspace(-1.1, 1.1, 23)
    h = 1e-5
    dsigma, kappa = model._lead_slopes(e)
    num_sigma = (model.self_energy_weights(e + h)
                 - model.self_energy_weights(e - h)) / (2.0 * h)
    num_kappa = (np.log(model.channel_amplitudes(e + h))
                 - np.log(model.channel_amplitudes(e - h))) / (2.0 * h)
    assert dsigma.shape == kappa.shape == (len(e), 2)
    npt.assert_allclose(dsigma, num_sigma, rtol=1e-7, atol=0)
    npt.assert_allclose(kappa, num_kappa, rtol=1e-7, atol=1e-12)


def test_package_exports_each_module_name_once():
    # The package's __all__ is the union of its modules' lists, and each
    # listed name is bound on the package to the module's own object; every
    # other public attribute is a submodule. The exception classes are all
    # listed.
    import types

    import opencavity
    from opencavity import (exceptions, linalg, model, rigidity, scattering,
                            spectrum, sweeps)

    modules = (exceptions, linalg, model, spectrum, rigidity, scattering,
               sweeps)
    union = [name for mod in modules for name in mod.__all__]
    assert opencavity.__all__ == ["__version__", *union]
    assert len(opencavity.__all__) == len(set(opencavity.__all__))
    for mod in modules:
        for name in mod.__all__:
            assert getattr(opencavity, name) is getattr(mod, name), name
    others = {name for name in vars(opencavity)
              if not name.startswith("_") and name not in union}
    assert all(isinstance(getattr(opencavity, name), types.ModuleType)
               for name in others), others
    classes = {name for name, value in vars(exceptions).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert classes == set(exceptions.__all__)
