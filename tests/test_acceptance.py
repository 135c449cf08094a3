"""End-to-end acceptance checks.

One test per acceptance criterion, in order, so a verbose run reads as a
checklist. Models and grids are fixed; tolerances are part of the contract
and must not be loosened.

The lineshape-asymmetry check (second c06 test) asserts that the two
maxima flanking the antiresonance have equal heights to rounding, in the
two-level closed form and in the tuned cavity alike. Both lineshapes are
exactly even about the antiresonance energy: the closed form equals
(D*/D)^2 - 1, and the cavity is a zero-onsite bipartite chain whose lead
self-energy obeys g(-E) = -g(E)*.
"""

import json
import math

import numpy as np
import numpy.testing as npt

from opencavity import (
    CavityModel,
    LatticeSpec,
    LeadSpec,
    assemble_heff,
    biorthogonal_spectrum,
    count_peaks,
    find_exceptional_point,
    parse_config,
    run_study,
    s_matrix,
    track_sweep,
    transmission_direct,
    transmission_spectral,
    wigner_delay,
)
from opencavity.cli import main

from conftest import fano_family, single_site_model, two_level_t

TRAP_CHAIN_N = 8


def trap_chain(alpha):
    return CavityModel(
        LatticeSpec(TRAP_CHAIN_N, 1),
        (LeadSpec((0, 0), 1.0), LeadSpec((TRAP_CHAIN_N - 1, 0), 1.0)),
        alpha,
    )


def test_c01_spectral_route_matches_direct_route(reference_cases):
    worst = 0.0
    for label, model, grid in reference_cases:
        for e in grid:
            e = float(e)
            sp = biorthogonal_spectrum(assemble_heff(model, e), e)
            ts = transmission_spectral(sp, model)
            td = transmission_direct(model, e)
            worst = max(worst, abs(ts - td))
    assert worst < 1e-8


def test_c02_scattering_matrix_unitary_in_band(reference_cases):
    worst_unitarity = 0.0
    worst_excess = 0.0
    for label, model, grid in reference_cases:
        for e in grid:
            s = s_matrix(model, float(e))
            worst_unitarity = max(
                worst_unitarity,
                np.abs(s.conj().T @ s - np.eye(2)).max(),
            )
            worst_excess = max(worst_excess, abs(s[1, 0]) - 1.0)
    assert worst_unitarity < 1e-8
    assert worst_excess <= 1e-8


def test_c03_single_site_unit_peak_and_lorentzian_width():
    for alpha in (0.1, 0.05):
        model = single_site_model(alpha=alpha, w=0.5)
        peak = max(
            abs(transmission_direct(model, float(e)))
            for e in np.linspace(-0.02, 0.02, 2001)
        )
        assert abs(peak - 1.0) < 1e-6
        # Half width of |t|^2 at half maximum against 2 (alpha w)^2.
        expected = 2.0 * (alpha * 0.5) ** 2
        lo, hi = 0.0, 0.2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if abs(transmission_direct(model, mid)) ** 2 > 0.5:
                lo = mid
            else:
                hi = mid
        measured = 0.5 * (lo + hi)
        assert abs(measured - expected) / expected < 0.01


def test_c04_biorthogonal_spectra_consistent_everywhere(reference_cases):
    worst_ortho = 0.0
    worst_trace = 0.0
    for label, model, grid in reference_cases:
        n = model.dimension
        eye = np.eye(n)
        for e in grid:
            e = float(e)
            h = assemble_heff(model, e)
            sp = biorthogonal_spectrum(h, e)
            mat = sp.vectors
            worst_ortho = max(
                worst_ortho, np.abs(mat.T @ mat - eye).max()
            )
            worst_trace = max(
                worst_trace, abs(sp.values.sum() - np.trace(h))
            )
            assert (sp.a_norm >= 1.0 - 1e-12).all()
            assert ((0.0 < sp.rigidity_r) & (sp.rigidity_r <= 1.0)).all()
    assert worst_ortho < 1e-8
    assert worst_trace < 1e-10


def test_c05_ep_finder_two_level_benchmark():
    def family(p):
        return np.array([[0.0, p[0]], [p[0], -1.0j]])

    p1, p2, z_star, report = find_exceptional_point(family, (0.3, 0.0))
    assert report.success
    assert abs(p1 - 0.5) < 1e-6
    assert abs(z_star - (-0.5j)) < 1e-6
    assert report.angle < 1e-2
    assert max(a for *_, a in report.path) > 1e3


def test_c06_engineered_antiresonance_at_located_ep():
    p1, p2, z_star, report = find_exceptional_point(fano_family(), (1.2, 1.6))
    assert report.success
    model = CavityModel(
        LatticeSpec(2, 2, mask=((1, 0), (1, 1))),
        (LeadSpec((0, 0), abs(p1)), LeadSpec((1, 0), abs(p2))),
        1.0,
    )
    e_lambda = z_star.real
    grid = np.linspace(-1.9, 1.9, 401)
    abs_t = np.array(
        [abs(transmission_direct(model, float(e))) for e in grid]
    )
    assert abs(transmission_direct(model, e_lambda)) < 1e-6 * abs_t.max()
    # Matching closed form: exact zero at the degenerate energy and two
    # transmission maxima flanking it.
    gamma = -2.0 * z_star.imag
    t = two_level_t(
        e_lambda, gamma, e_lambda + np.linspace(-3 * gamma, 3 * gamma, 1201)
    )
    center = np.abs(t[600])
    assert center == 0.0
    assert count_peaks(np.abs(t), floor=0.5) == 2


def test_c06_lineshape_maxima_asymmetry():
    p1, p2, z_star, report = find_exceptional_point(fano_family(), (1.2, 1.6))
    assert report.success
    e_lambda = z_star.real
    gamma = -2.0 * z_star.imag
    # The two maxima carry no height imbalance beyond rounding.
    # Closed form: with D = E - e0 + i Gamma / 2 we have D - i Gamma = D*,
    # so t = -2i Gamma / D - (Gamma / D)^2 = (D* / D)^2 - 1 and
    # |t| = 2 |sin(2 arg D)|, which is even in E - e0 and equals 2 at
    # E = e0 +- Gamma / 2.
    low, high = np.abs(two_level_t(
        e_lambda,
        gamma,
        np.array([e_lambda - gamma / 2.0, e_lambda + gamma / 2.0]),
    ))
    npt.assert_allclose([low, high], [2.0, 2.0], rtol=0, atol=1e-15)
    assert abs(high / low - 1.0) <= 1e-12
    # Tuned cavity: zero onsite energy on a bipartite chain, and the lead
    # self-energy obeys g(-E) = -g(E)* in the band while the contact
    # amplitudes are even in E, so |t(e_lambda - d)| = |t(e_lambda + d)|
    # (e_lambda is zero to rounding). One maximum flanks each side.
    model = CavityModel(
        LatticeSpec(2, 2, mask=((1, 0), (1, 1))),
        (LeadSpec((0, 0), abs(p1)), LeadSpec((1, 0), abs(p2))),
        1.0,
    )
    offsets = np.linspace(0.0, 1.9, 201)[1:]
    below = np.array(
        [abs(transmission_direct(model, e_lambda - d)) for d in offsets]
    )
    above = np.array(
        [abs(transmission_direct(model, e_lambda + d)) for d in offsets]
    )
    assert np.max(np.abs(above / below - 1.0)) <= 1e-12
    assert count_peaks(below, floor=0.5) == 1
    assert count_peaks(above, floor=0.5) == 1


def test_c07_resonance_trapping_bifurcation_and_peaks():
    # Two-state cavity with one open channel: equal widths below the
    # critical coupling, one growing and one shrinking width above it.
    lat = LatticeSpec(2, 1)

    def dimer(alpha):
        return CavityModel(
            lat, (LeadSpec((0, 0), 1.0), LeadSpec((1, 0), 0.0)), alpha
        )

    below = (0.8, 1.2)
    above = (1.7, 2.2, 3.0)
    tracked = track_sweep(dimer, below + above, 0.0)
    for sp in tracked[: len(below)]:
        w0, w1 = sp.widths
        npt.assert_allclose(w0, w1, rtol=0, atol=1e-10)
    broad = []
    narrow = []
    for sp in tracked[len(below):]:
        ordered = sorted(sp.widths.tolist())
        narrow.append(ordered[0])
        broad.append(ordered[1])
    assert broad[0] < broad[1] < broad[2]
    assert narrow[0] > narrow[1] > narrow[2]
    # The trapped width approaches 2 / alpha^2.
    npt.assert_allclose(narrow[-1], 2.0 / 9.0, rtol=0.05, atol=0)

    # Longer chain, both ends open: at strong coupling exactly two states
    # hold >90% of the total width and the resonance landscape loses one
    # peak per open channel.
    doc = {
        "version": 1,
        "study": "spectrum",
        "model": {
            "nx": TRAP_CHAIN_N,
            "ny": 1,
            "alpha": 1.0,
            "leads": [
                {"contact": [0, 0], "coupling_w": 1.0},
                {"contact": [TRAP_CHAIN_N - 1, 0], "coupling_w": 1.0},
            ],
        },
        "e_grid": {"min": -1.95, "max": 1.95, "points": 401},
        "alpha_grid": {"min": 0.5, "max": 2.0, "points": 4},
    }
    result = run_study(parse_config(json.dumps(doc)))
    widths_strong = result.rows[-1, 1:-1]
    total = widths_strong.sum()
    top = np.sort(widths_strong)[::-1]
    assert top[:2].sum() > 0.9 * total
    assert top[0] < 0.9 * total
    n_peaks_weak = int(result.rows[0, -1])
    n_peaks_strong = int(result.rows[-1, -1])
    assert n_peaks_strong == n_peaks_weak - 2


def test_c08_crossover_interior_maximum_tracks_rigidity_loss():
    doc = {
        "version": 1,
        "study": "crossover",
        "model": {
            "nx": 4,
            "ny": 4,
            "alpha": 1.0,
            "leads": [
                {"contact": [0, 0], "coupling_w": 1.0},
                {"contact": [3, 3], "coupling_w": 1.0},
            ],
        },
        "e_grid": {"min": -1.9, "max": 1.9, "points": 80},
        "alpha_grid": {"min": 0.03, "max": 6.0, "points": 16, "scale": "log"},
    }
    result = run_study(parse_config(json.dumps(doc)))
    avg_t = result.rows[:, 1]
    min_rho = result.rows[:, 2]
    assert np.isfinite(avg_t).all() and np.isfinite(min_rho).all()
    k = int(np.argmax(avg_t))
    assert 0 < k < len(avg_t) - 1
    corr = np.corrcoef(avg_t, 1.0 - min_rho)[0, 1]
    assert corr > 0.5


def test_c09_wigner_delay_analytic_and_trapping_contrast():
    # One site, symmetric coupling: tau(0) = (1 - w2) / w2 exactly.
    tau0 = wigner_delay(single_site_model(alpha=1.0, w=0.5), 0.0)
    assert abs(tau0 - 3.0) / 3.0 < 1e-12
    model = trap_chain(2.0)
    tau_plateau = wigner_delay(model, 0.8)
    tau_trapped = wigner_delay(model, 1.199)
    assert tau_trapped / tau_plateau > 5.0


def test_c10_csv_byte_identical_across_worker_counts(tmp_path):
    mask_doc = {
        "version": 1,
        "study": "ep-find",
        "model": {
            "nx": 2,
            "ny": 2,
            "alpha": 1.0,
            "mask": [[1, 0], [1, 1]],
            "leads": [
                {"contact": [0, 0], "coupling_w": 1.2},
                {"contact": [1, 0], "coupling_w": 1.6},
            ],
        },
        "e_grid": {"min": -1.0, "max": 1.0, "points": 3},
    }
    chain = {
        "version": 1,
        "study": "transmit",
        "model": {
            "nx": 3,
            "ny": 1,
            "alpha": 0.5,
            "leads": [
                {"contact": [0, 0], "coupling_w": 1.0},
                {"contact": [2, 0], "coupling_w": 1.0},
            ],
        },
        "e_grid": {"min": -1.5, "max": 1.5, "points": 31},
    }
    docs = [chain, mask_doc]
    for study in ("rigidity", "delay"):
        d = json.loads(json.dumps(chain))
        d["study"] = study
        docs.append(d)
    spectrum = json.loads(json.dumps(chain))
    spectrum["study"] = "spectrum"
    spectrum["alpha_grid"] = {"min": 0.2, "max": 2.0, "points": 5}
    docs.append(spectrum)
    crossover = json.loads(json.dumps(chain))
    crossover["study"] = "crossover"
    crossover["alpha_grid"] = {"min": 0.1, "max": 2.0, "points": 10}
    crossover["e_grid"]["points"] = 15
    docs.append(crossover)

    for k, doc in enumerate(docs):
        cfg = tmp_path / f"{k}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"{k}-{threads}.csv"
            assert main([doc["study"], "--config", str(cfg), "--out", str(out),
                         "--threads", threads]) == 0, doc["study"]
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], doc["study"]
