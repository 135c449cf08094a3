import json
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opencavity import (
    STUDIES,
    AlphaGrid,
    CavityModel,
    EnergyGrid,
    EPReport,
    InvalidGeometry,
    ParseError,
    StudyResult,
    ValidationError,
    WriteError,
    assemble_heff,
    count_peaks,
    export_csv,
    format_csv,
    parse_config,
    run_crossover_study,
    run_delay_study,
    run_ep_study,
    run_rigidity_study,
    run_study,
    run_transmit_study,
    run_trapping_study,
    serialize_config,
    spectrum,
)
from opencavity.sweeps import _RUNNERS, _coupling_family, _median

from conftest import NOTCH_MASK


def config_doc(study="transmit", **overrides):
    doc = {
        "version": 1,
        "study": study,
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
    for key, value in overrides.items():
        doc[key] = value
    return doc


def parse_doc(doc):
    return parse_config(json.dumps(doc))


# Marks an entry that test_rejected_field removes from the document.
DROP = object()


class TestGrids:
    def test_energy_grid_values(self):
        g = EnergyGrid(min=-1.0, max=1.0, points=5)
        npt.assert_array_equal(g.values(), np.linspace(-1.0, 1.0, 5))
        assert g.center == 0.0

    def test_energy_grid_rejects_reversed(self):
        with pytest.raises(ValidationError):
            EnergyGrid(min=1.0, max=-1.0, points=5)

    def test_energy_grid_rejects_zero_points(self):
        with pytest.raises(ValidationError):
            EnergyGrid(min=-1.0, max=1.0, points=0)

    def test_alpha_grid_log_values(self):
        g = AlphaGrid(min=0.1, max=10.0, points=3, scale="log")
        npt.assert_allclose(g.values(), [0.1, 1.0, 10.0], rtol=1e-14, atol=0)

    def test_alpha_grid_log_needs_positive_min(self):
        with pytest.raises(ValidationError) as exc:
            AlphaGrid(min=0.0, max=1.0, points=5, scale="log")
        assert exc.value.field == "alpha_grid.min"

    @pytest.mark.parametrize("grid, args, field", [
        (EnergyGrid, (0.0, 1.0, math.inf), "e_grid.points"),
        (EnergyGrid, (0.0, 1.0, math.nan), "e_grid.points"),
        (EnergyGrid, (-math.inf, 1.0, 5), "e_grid"),
        (EnergyGrid, (0.0, math.nan, 5), "e_grid"),
        (AlphaGrid, (0.1, 1.0, math.inf), "alpha_grid.points"),
        (AlphaGrid, (0.1, 1.0, math.nan), "alpha_grid.points"),
        (AlphaGrid, (0.1, math.inf, 5), "alpha_grid"),
        (AlphaGrid, (math.nan, 1.0, 5), "alpha_grid"),
    ])
    def test_grids_reject_non_finite(self, grid, args, field):
        with pytest.raises(ValidationError) as exc:
            grid(*args)
        assert exc.value.field == field

    def test_alpha_grid_bad_scale(self):
        with pytest.raises(ValidationError):
            AlphaGrid(min=0.1, max=1.0, points=5, scale="cubic")


class TestParseConfig:
    def test_minimal_roundtrips_types(self):
        cfg = parse_doc(config_doc())
        assert cfg.study == "transmit"
        assert cfg.lattice.nx == 3
        assert cfg.alpha == 0.5
        assert cfg.e_grid.points == 31
        assert cfg.alpha_grid is None
        assert cfg.out is None
        model = cfg.build_model()
        assert model.dimension == 3

    def test_malformed_json_parse_error(self):
        with pytest.raises(ParseError) as exc:
            parse_config('{"version": 1,\n  "study": }')
        assert exc.value.line == 2
        assert exc.value.column is not None

    def test_bad_version(self):
        with pytest.raises(ValidationError) as exc:
            parse_doc(config_doc(version=2))
        assert exc.value.field == "version"

    def test_unknown_study(self):
        with pytest.raises(ValidationError) as exc:
            parse_doc(config_doc(study="scatter"))
        assert exc.value.field == "study"

    def test_unknown_key_dotted_field(self):
        doc = config_doc()
        doc["model"]["wall"] = 3
        with pytest.raises(ValidationError) as exc:
            parse_doc(doc)
        assert exc.value.field == "model.wall"

    def test_unknown_lead_key(self):
        doc = config_doc()
        doc["model"]["leads"][1]["width"] = 1.0
        with pytest.raises(ValidationError) as exc:
            parse_doc(doc)
        assert exc.value.field == "model.leads[1].width"

    def test_energy_grid_outside_band(self):
        doc = config_doc()
        doc["e_grid"]["max"] = 3.0
        with pytest.raises(ValidationError) as exc:
            parse_doc(doc)
        assert exc.value.field == "e_grid"

    def test_band_follows_lead_hopping(self):
        doc = config_doc()
        doc["model"]["leads"][0]["lead_hopping"] = 2.0
        doc["model"]["leads"][1]["lead_hopping"] = 2.0
        doc["e_grid"]["min"] = -3.0
        doc["e_grid"]["max"] = 3.0
        cfg = parse_doc(doc)
        assert cfg.e_grid.max == 3.0

    def test_exactly_two_leads(self):
        doc = config_doc()
        doc["model"]["leads"] = doc["model"]["leads"][:1]
        with pytest.raises(ValidationError) as exc:
            parse_doc(doc)
        assert exc.value.field == "model.leads"

    def test_spectrum_requires_alpha_grid(self):
        with pytest.raises(ValidationError) as exc:
            parse_doc(config_doc(study="spectrum"))
        assert exc.value.field == "alpha_grid"

    def test_crossover_needs_ten_points(self):
        doc = config_doc(
            study="crossover",
            alpha_grid={"min": 0.1, "max": 2.0, "points": 9},
        )
        with pytest.raises(ValidationError) as exc:
            parse_doc(doc)
        assert exc.value.field == "alpha_grid.points"

    def test_inline_mask(self):
        doc = config_doc()
        doc["model"]["nx"] = 2
        doc["model"]["ny"] = 2
        doc["model"]["mask"] = [[1, 1], [1, 0]]
        doc["model"]["leads"] = [
            {"contact": [0, 0], "coupling_w": 1.0},
            {"contact": [1, 0], "coupling_w": 1.0},
        ]
        cfg = parse_doc(doc)
        assert cfg.build_model().dimension == 3

    def test_mask_file(self, tmp_path):
        mask_path = tmp_path / "cavity.mask"
        mask_path.write_text("1 1\n1 0\n", encoding="utf-8")
        doc = config_doc()
        doc["model"]["nx"] = 2
        doc["model"]["ny"] = 2
        doc["model"]["mask"] = "cavity.mask"
        doc["model"]["leads"] = [
            {"contact": [0, 0], "coupling_w": 1.0},
            {"contact": [1, 0], "coupling_w": 1.0},
        ]
        cfg = parse_config(json.dumps(doc), base_dir=str(tmp_path))
        assert cfg.lattice.mask == ((True, True), (True, False))

    def test_mask_file_missing(self, tmp_path):
        doc = config_doc()
        doc["model"]["mask"] = "nowhere.mask"
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(doc), base_dir=str(tmp_path))
        assert exc.value.field == "model.mask"

    def test_mask_wrong_shape(self):
        doc = config_doc()
        doc["model"]["mask"] = [[1, 1], [1, 1]]
        with pytest.raises(ValidationError):
            parse_doc(doc)

    def test_masked_contact_rejected(self):
        doc = config_doc()
        doc["model"]["nx"] = 2
        doc["model"]["ny"] = 1
        doc["model"]["mask"] = [[1], [0]]
        doc["model"]["leads"] = [
            {"contact": [0, 0], "coupling_w": 1.0},
            {"contact": [1, 0], "coupling_w": 1.0},
        ]
        with pytest.raises(InvalidGeometry):
            parse_doc(doc)

    def test_onsite_grid(self):
        doc = config_doc()
        doc["model"]["onsite"] = [[0.1], [0.2], [0.3]]
        cfg = parse_doc(doc)
        h = cfg.build_model().h_b
        npt.assert_allclose(np.diag(h), [0.1, 0.2, 0.3], rtol=0, atol=0)

    def test_onsite_wrong_shape(self):
        doc = config_doc()
        doc["model"]["onsite"] = [[0.1], [0.2]]
        with pytest.raises(ValidationError) as exc:
            parse_doc(doc)
        assert exc.value.field == "model.onsite"

    def test_negative_alpha_rejected(self):
        doc = config_doc()
        doc["model"]["alpha"] = -0.1
        with pytest.raises(ValidationError):
            parse_doc(doc)

    def test_serialize_round_trip(self):
        doc = config_doc(
            study="crossover",
            alpha_grid={"min": 0.1, "max": 2.0, "points": 12, "scale": "log"},
            out="result.csv",
        )
        doc["model"]["onsite"] = [[0.1], [0.0], [-0.1]]
        cfg = parse_doc(doc)
        echo = serialize_config(cfg)
        again = parse_config(echo)
        assert again == cfg
        assert serialize_config(again) == echo

    def test_serialize_inlines_mask_file(self, tmp_path):
        mask_path = tmp_path / "m.mask"
        mask_path.write_text("1\n1\n1\n", encoding="utf-8")
        doc = config_doc()
        doc["model"]["mask"] = str(mask_path)
        cfg = parse_config(json.dumps(doc))
        echo = serialize_config(cfg)
        assert str(mask_path) not in echo
        assert parse_config(echo) == cfg

    @pytest.mark.parametrize("path, value, field", [
        (("model", "alpha"), DROP, "model.alpha"),
        (("model", "hopping"), 0.0, "model.hopping"),
        (("model", "nx"), DROP, "model.nx"),
        (("model", "nx"), 3.0, "model.nx"),
        (("e_grid", "points"), 0, "e_grid.points"),
        (("model", "mask"), "short.mask", "model.mask"),
        (("model", "mask"), "digits.mask", "model.mask"),
        (("model", "mask"), 5, "model.mask"),
        ((), [1], ""),
        (("model",), DROP, "model"),
        (("model", "leads", 0), 5, "model.leads[0]"),
        (("model", "leads", 1, "contact"), [2], "model.leads[1].contact"),
        (("e_grid",), DROP, "e_grid"),
        (("alpha_grid",), [1], "alpha_grid"),
        (("alpha_grid",), {"min": 0.1, "max": 1.0, "points": 3, "scale": 1},
         "alpha_grid.scale"),
        (("out",), 3, "out"),
    ])
    def test_rejected_field(self, tmp_path, path, value, field):
        # One entry of a valid document is replaced (or dropped); the
        # error names that entry's field.
        (tmp_path / "short.mask").write_text("1 1\n", encoding="utf-8")
        (tmp_path / "digits.mask").write_text("1\n2\n1\n", encoding="utf-8")
        doc = config_doc()
        if not path:
            doc = value
        else:
            *parents, key = path
            section = doc
            for k in parents:
                section = section[k]
            if value is DROP:
                del section[key]
            else:
                section[key] = value
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(doc), base_dir=str(tmp_path))
        assert exc.value.field == field


class TestCountPeaks:
    def test_single_peak(self):
        assert count_peaks([0.0, 1.0, 0.0], floor=0.5) == 1

    def test_floor_filters(self):
        assert count_peaks([0.0, 0.4, 0.0], floor=0.5) == 0

    def test_prominence_suppresses_ripple(self):
        flat = [1.0, 1.0 + 1e-12, 1.0, 1.0 + 1e-12, 1.0]
        assert count_peaks(flat, floor=0.5) == 0
        spiky = [1.0, 1.5, 1.0, 1.5, 1.0]
        assert count_peaks(spiky, floor=0.5) == 2

    def test_endpoints_never_count(self):
        assert count_peaks([2.0, 1.0, 2.0], floor=0.5) == 0

    def test_nan_blocks_peak(self):
        assert count_peaks([0.0, math.nan, 0.0], floor=0.5) == 0
        assert count_peaks([math.nan, 1.0, 0.0], floor=0.5) == 0


@settings(derandomize=True, deadline=None, max_examples=200)
@given(values=st.lists(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])),
    min_size=1, max_size=40))
def test_median_matches_numpy_bit_for_bit(values):
    # Odd and even lengths, ties, signed zeros, infinities and NaN: the
    # crossover's gamma_median must not move by a bit.
    v = np.array(values)
    got, ref = np.array(_median(v)), np.array(float(np.median(v)))
    if np.isnan(ref):
        assert np.isnan(got)
    else:
        assert got.view(np.uint64) == ref.view(np.uint64)


class TestStudyRunners:
    def test_transmit_columns_and_bound(self):
        res = run_transmit_study(parse_doc(config_doc()))
        assert res.columns == ("e", "re_t", "im_t", "abs_t", "transmission")
        assert res.rows.shape == (31, 5)
        finite = res.rows[np.isfinite(res.rows[:, 3])]
        assert (finite[:, 3] <= 1.0 + 1e-8).all()
        npt.assert_allclose(finite[:, 4], finite[:, 3] ** 2, rtol=0,
                            atol=1e-15)

    def test_transmit_pole_row_nan(self):
        # alpha = 0 leaves real poles; the grid passes through E = 0 where
        # the closed 3-chain has an eigenvalue.
        doc = config_doc()
        doc["model"]["alpha"] = 0.0
        res = run_transmit_study(parse_doc(doc))
        center = res.rows[15]
        assert center[0] == 0.0
        assert math.isnan(center[3])

    def test_trapping_columns(self):
        doc = config_doc(
            study="spectrum",
            alpha_grid={"min": 0.2, "max": 2.0, "points": 7},
        )
        doc["model"]["nx"] = 2
        doc["model"]["leads"] = [
            {"contact": [0, 0], "coupling_w": 1.0},
            {"contact": [1, 0], "coupling_w": 0.0},
        ]
        res = run_trapping_study(parse_doc(doc))
        assert res.columns == ("alpha", "gamma_0", "gamma_1", "n_peaks")
        assert res.rows.shape == (7, 4)
        assert (res.rows[:, 1:3] >= -1e-15).all()

    def test_rigidity_columns(self):
        res = run_rigidity_study(parse_doc(config_doc(study="rigidity")))
        assert res.columns == (
            "e", "rho_mod", "rho_theta", "rho_spec_re", "rho_spec_im",
            "b_residual", "r_min",
        )
        ok = np.isfinite(res.rows[:, 1])
        assert ok.any()
        assert (res.rows[ok, 1] <= 1.0 + 1e-12).all()
        assert (res.rows[ok, 6] > 0.0).all()

    def test_rigidity_at_exact_exceptional_point(self):
        # Both leads on one site of a dimer at alpha = 1: H_eff(0) is
        # [[-2i, -1], [-1, 0]], an exactly defective pair, so the expansion
        # does not exist at E = 0. E - H_eff is regular there, and the
        # direct columns print the rigidity of its solve; only the four
        # spectral columns are NaN.
        doc = config_doc(study="rigidity",
                         e_grid={"min": -1.0, "max": 1.0, "points": 3})
        doc["model"] = {
            "nx": 2, "ny": 1, "alpha": 1.0,
            "leads": [{"contact": [0, 0], "coupling_w": 1.0},
                      {"contact": [0, 0], "coupling_w": 1.0}],
        }
        config = parse_doc(doc)
        model = config.build_model()
        h = assemble_heff(model, 0.0)
        npt.assert_allclose(h, [[-2j, -1.0], [-1.0, 0.0]], rtol=0, atol=1e-15)
        psi = np.linalg.solve(-h, [1.0, 0.0])
        rho = abs(psi @ psi) / np.vdot(psi, psi).real
        row = run_rigidity_study(config).rows[1]
        assert row[0] == 0.0
        assert abs(row[1] - rho) <= 1e-14 and abs(rho - 1.0) <= 1e-14
        # The bilinear sum is a positive real: theta prints 0, not -0.
        assert row[2] == 0.0 and math.copysign(1.0, row[2]) == 1.0
        assert np.isnan(row[3:]).all()

    def test_rigidity_with_a_detached_incoming_lead(self):
        # coupling_w = 0 detaches lead L, so its channel amplitude is 0.
        # The expansion is that of G(E) e_c, the resolvent's state, and
        # every spectral column is finite, with |rho_spec| = rho_mod.
        doc = config_doc(study="rigidity",
                         e_grid={"min": -1.5, "max": 1.3, "points": 4})
        doc["model"] = {
            "nx": 4, "ny": 3, "alpha": 1.0,
            "leads": [{"contact": [0, 1], "coupling_w": 0.0},
                      {"contact": [3, 1], "coupling_w": 1.0}],
        }
        rows = run_rigidity_study(parse_doc(doc)).rows
        assert np.isfinite(rows).all()
        npt.assert_allclose(np.hypot(rows[:, 3], rows[:, 4]), rows[:, 1],
                            rtol=0, atol=1e-14)

    def test_delay_columns(self):
        res = run_delay_study(parse_doc(config_doc(study="delay")))
        assert res.columns == ("e", "tau")
        assert res.rows.shape == (31, 2)

    def test_delay_band_edge_rows_nan(self):
        # +-1.999999 is 1e-6 inside the band edges, where the closed-form
        # delay is finite. E = 0.0 is a dark level where E - H_eff is
        # singular, so that row is NaN, as in transmit, and the study
        # carries on.
        doc = config_doc(study="delay")
        doc["model"] = {
            "nx": 4,
            "ny": 4,
            "alpha": 1.0,
            "leads": [
                {"contact": [0, 0], "coupling_w": 1.0},
                {"contact": [3, 3], "coupling_w": 1.0},
            ],
        }
        doc["e_grid"] = {"min": -1.999999, "max": 1.999999, "points": 41}
        rows = run_delay_study(parse_doc(doc)).rows
        assert rows.shape == (41, 2)
        assert np.flatnonzero(np.isnan(rows[:, 1])).tolist() == [20]
        transmit = run_transmit_study(parse_doc(dict(doc, study="transmit")))
        assert np.flatnonzero(np.isnan(transmit.rows[:, 4])).tolist() == [20]

    def test_ep_study_returns_pair(self):
        doc = config_doc(study="ep-find")
        doc["model"] = {
            "nx": 2,
            "ny": 2,
            "alpha": 1.0,
            "mask": [[1, 0], [1, 1]],
            "leads": [
                {"contact": [0, 0], "coupling_w": 1.2},
                {"contact": [1, 0], "coupling_w": 1.6},
            ],
        }
        doc["e_grid"] = {"min": -1.0, "max": 1.0, "points": 3}
        res, report = run_ep_study(parse_doc(doc))
        assert isinstance(res, StudyResult)
        assert isinstance(report, EPReport)
        assert report.success
        assert res.columns == ("step", "p1", "p2", "separation", "a_norm_max")
        assert len(res.rows) == len(report.path)
        npt.assert_array_equal(res.rows[:, 0], np.arange(len(res.rows)))

    @pytest.mark.parametrize("model,e_grid", [
        # The three ep-find configs of the benchmark, then one off E = 0
        # with two lead hoppings and both leads on one site.
        ({"nx": 2, "ny": 2, "alpha": 1.0, "mask": [[1, 0], [1, 1]],
          "leads": [{"contact": [0, 0], "coupling_w": 1.2},
                    {"contact": [1, 0], "coupling_w": 1.6}]},
         (-1.0, 1.0)),
        ({"nx": 4, "ny": 4, "alpha": 1.0,
          "leads": [{"contact": [0, 0], "coupling_w": 1.2},
                    {"contact": [3, 3], "coupling_w": 1.6}]},
         (-1.0, 1.0)),
        ({"nx": 10, "ny": 5, "alpha": 0.6,
          "mask": [list(row) for row in NOTCH_MASK],
          "leads": [{"contact": [0, 2], "coupling_w": 1.0},
                    {"contact": [9, 2], "coupling_w": 1.0}]},
         (-1.9, 1.9)),
        ({"nx": 3, "ny": 2, "alpha": 0.7,
          "leads": [{"contact": [1, 1], "coupling_w": 0.4,
                     "lead_hopping": 1.5},
                    {"contact": [1, 1], "coupling_w": 0.9}]},
         (-1.9, 1.3)),
    ])
    def test_coupling_family_matches_model_assembly(self, model, e_grid):
        doc = config_doc(study="ep-find", model=model)
        doc["e_grid"] = {"min": e_grid[0], "max": e_grid[1], "points": 3}
        config = parse_doc(doc)
        family = _coupling_family(config)
        lead_a, lead_b = config.leads
        # The couplings enter as |p|, so negative p must match too.
        for p in [(1.2, 1.6), (-1.2, 1.6), (0.3, -2.5), (-0.0, 0.0),
                  (-1e-3, -7.25)]:
            model_p = CavityModel(
                config.lattice,
                (replace(lead_a, coupling_w=abs(p[0])),
                 replace(lead_b, coupling_w=abs(p[1]))),
                config.alpha,
            )
            expected = assemble_heff(model_p, config.e_grid.center)
            assert family(np.array(p)).tobytes() == expected.tobytes()

    def test_crossover_columns(self):
        doc = config_doc(
            study="crossover",
            alpha_grid={"min": 0.1, "max": 2.0, "points": 10},
        )
        doc["e_grid"]["points"] = 21
        res = run_crossover_study(parse_doc(doc))
        assert res.columns == (
            "alpha", "avg_T", "min_rho", "gamma_max", "gamma_median",
            "n_peaks",
        )
        assert res.rows.shape == (10, 6)
        assert np.isfinite(res.rows[:, 1]).all()
        assert (res.rows[:, 2] >= -1e-12).all()
        assert (res.rows[:, 2] <= 1.0 + 1e-12).all()

    def test_crossover_all_failed_energy_column(self):
        # A dark state at E = 0 makes the one grid energy singular at every
        # coupling: NaN aggregates, and no empty-slice RuntimeWarning.
        doc = config_doc(
            study="crossover",
            alpha_grid={"min": 0.1, "max": 2.0, "points": 10},
        )
        doc["model"] = {
            "nx": 4, "ny": 4, "alpha": 1.0,
            "leads": [
                {"contact": [0, 0], "coupling_w": 1.0},
                {"contact": [3, 3], "coupling_w": 1.0},
            ],
        }
        doc["e_grid"] = {"min": 0.0, "max": 0.5, "points": 1}
        rows = run_crossover_study(parse_doc(doc)).rows
        assert np.isnan(rows[:, 1:3]).all()
        assert np.isfinite(rows[:, [0, 3, 4, 5]]).all()

    def test_run_study_dispatch_and_wall_time(self):
        # One table names the studies, in the order --help lists them.
        assert STUDIES == ("transmit", "spectrum", "rigidity", "ep-find",
                           "delay", "crossover")
        assert STUDIES == tuple(_RUNNERS)
        res = run_study(parse_doc(config_doc()))
        assert res.study == "transmit"
        assert res.wall_time > 0.0
        pair = run_study_ep()
        assert isinstance(pair, tuple) and len(pair) == 2

    @pytest.mark.parametrize("study", ["spectrum", "rigidity"])
    def test_spectral_studies_form_no_phi(self, study, monkeypatch):
        def refuse(*args):
            raise AssertionError("the study formed phi")

        monkeypatch.setattr(spectrum, "_site_columns", refuse)
        doc = config_doc(
            study=study,
            e_grid={"min": -1.5, "max": 1.5, "points": 3},
            alpha_grid={"min": 0.2, "max": 2.0, "points": 3},
        )
        if study == "rigidity":
            del doc["alpha_grid"]
        doc["model"] = {
            "nx": 9,
            "ny": 9,
            "alpha": 0.9,
            "leads": [
                {"contact": [0, 2], "coupling_w": 1.0},
                {"contact": [8, 5], "coupling_w": 1.0},
            ],
        }
        config = parse_doc(doc)
        model = config.build_model()
        run_study(config)
        # The patch is live: asking for phi forms it.
        with pytest.raises(AssertionError, match="formed phi"):
            spectrum.heff_spectrum(model, 0.3).vectors


def run_study_ep():
    doc = config_doc(study="ep-find")
    doc["model"] = {
        "nx": 2,
        "ny": 2,
        "alpha": 1.0,
        "mask": [[1, 0], [1, 1]],
        "leads": [
            {"contact": [0, 0], "coupling_w": 1.2},
            {"contact": [1, 0], "coupling_w": 1.6},
        ],
    }
    doc["e_grid"] = {"min": -1.0, "max": 1.0, "points": 3}
    return run_study(parse_doc(doc))


def test_ep_search_solves_each_matrix_once(monkeypatch):
    # Every matrix the search diagonalizes with vectors is a distinct one:
    # the chirality angle at the optimum reuses that iterate's eigenpairs.
    solved = []
    eig_general = spectrum.eig_general

    def recording(m):
        solved.append(np.asarray(m, dtype=complex).tobytes())
        return eig_general(m)

    monkeypatch.setattr(spectrum, "eig_general", recording)
    result, report = run_study_ep()
    assert report.success and len(result.rows) > 1
    assert solved and len(set(solved)) == len(solved)


def spectrum_doc(model, points):
    return config_doc(
        study="spectrum",
        model=model,
        e_grid={"min": -1.9, "max": 1.9, "points": 3},
        alpha_grid={"min": 0.1, "max": 4.0, "points": points, "scale": "log"},
    )


# The full 15 x 15 lattice, whose symmetry gives degenerate clusters and
# near-tied matches.
LATTICE_15 = {
    "nx": 15, "ny": 15, "alpha": 0.9,
    "leads": [{"contact": [0, 3], "coupling_w": 1.0},
              {"contact": [14, 9], "coupling_w": 1.0}],
}
# The 44-site notched cavity, with neither.
NOTCH = {
    "nx": 10, "ny": 5, "alpha": 0.9, "mask": [list(r) for r in NOTCH_MASK],
    "leads": [{"contact": [0, 2], "coupling_w": 1.0},
              {"contact": [9, 2], "coupling_w": 1.0}],
}


class TestStreamedTracking:
    """The spectrum study tracks through the stream behind track_sweep."""

    @pytest.mark.parametrize("model, symmetric", [(LATTICE_15, True),
                                                  (NOTCH, False)],
                             ids=["lattice-15x15", "notch-10x5"])
    def test_rows_equal_track_sweep(self, model, symmetric):
        config = parse_doc(spectrum_doc(model, 6))
        base = config.build_model()
        alphas, e = config.alpha_grid.values(), config.e_grid.center
        tracked = spectrum.track_sweep(base.with_alpha, alphas, e)
        assert all(
            spectrum._secular_eigenvalues(base.with_alpha(a), e) is not None
            for a in alphas
        )
        if symmetric:
            # The data must hold what makes tracking hard.
            assert any(spectrum._degenerate_sets(sp.values, 1.0)
                       for sp in tracked)
            assert any(sp.ambiguous.any() for sp in tracked)
        widths = np.empty((len(alphas), base.dimension))
        for row, sp in zip(widths, tracked):
            row[sp.track_id] = -2.0 * sp.values.imag + 0.0
        rows = run_trapping_study(config).rows
        npt.assert_array_equal(rows[:, 0], alphas)
        assert rows[:, 1:-1].tobytes() == widths.tobytes()

    def test_track_spectra_keeps_its_record(self):
        # A tuple of SpectralSets whose ambiguous arrays are the flags of
        # the stream, one per state.
        config = parse_doc(spectrum_doc(LATTICE_15, 6))
        base = config.build_model()
        e = config.e_grid.center
        spectra = [spectrum.heff_spectrum(base.with_alpha(a), e)
                   for a in config.alpha_grid.values()]
        got = spectrum._track_spectra(spectra)
        assert type(got) is tuple
        assert all(type(sp) is spectrum.SpectralSet for sp in got)
        flags = [sp.ambiguous for sp, _ in spectrum._track_steps(spectra)]
        assert len(got) == len(flags)
        for sp, f in zip(got, flags):
            assert sp.ambiguous.dtype == bool
            assert sp.ambiguous.shape == (len(sp),)
            npt.assert_array_equal(sp.ambiguous, f)
        assert sum(int(sp.ambiguous.sum()) for sp in got) > 0
        assert sum(len(sp) for sp in got[1:]) == 5 * base.dimension

    def test_dark_widths_print_as_zero(self):
        # The 13 dark members of the 15-fold level at 0 keep Im z = +0.0,
        # so -2 Im z is -0.0; the CSV prints their widths as 0.
        text = format_csv(run_trapping_study(parse_doc(spectrum_doc(
            LATTICE_15, 6))))
        fields = [f for line in text.splitlines()
                  if not line.startswith("#") for f in line.split(",")]
        assert "-0" not in fields
        assert fields.count("0") >= 6 * 13
        # At alpha = 0, and at every alpha on detached leads, every state
        # is dark: the crossover's largest width is 0, like its median.
        for w in (1.0, 0.0):
            doc = config_doc(
                study="crossover",
                alpha_grid={"min": 0.0, "max": 1.0, "points": 10,
                            "scale": "linear"},
            )
            doc["model"] = {
                "nx": 4, "ny": 3, "alpha": 1.0,
                "leads": [{"contact": [0, 1], "coupling_w": w},
                          {"contact": [3, 1], "coupling_w": w}],
            }
            text = format_csv(run_crossover_study(parse_doc(doc)))
            rows = [line.split(",") for line in text.splitlines()
                    if not line.startswith("#")][1:]
            assert len(rows) == 10
            assert not any("-0" in row for row in rows)
            dark = rows if w == 0.0 else rows[:1]
            assert all(row[3:5] == ["0", "0"] for row in dark)
            assert all(row[3] != "0" for row in rows[len(dark):])

    def test_memory_does_not_grow_with_the_coupling_grid(self):
        def traced_peak(points):
            config = parse_doc(spectrum_doc(LATTICE_15, points))
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                floor = tracemalloc.get_traced_memory()[0]
                run_trapping_study(config)
                return tracemalloc.get_traced_memory()[1] - floor
            finally:
                if started:
                    tracemalloc.stop()

        n = 225
        few, many = traced_peak(6), traced_peak(24)
        assert many <= 1.1 * few
        # One complex N x N array is 16 N^2 bytes.
        assert few < 5 * 16 * n * n


class TestCsv:
    def test_header_shape(self):
        res = run_transmit_study(parse_doc(config_doc()))
        text = format_csv(res)
        lines = text.split("\n")
        assert lines[0] == "# opencavity 0.1.0"
        assert lines[1].startswith("# config {")
        assert lines[2].startswith("# values %.17g")
        assert lines[3] == "e,re_t,im_t,abs_t,transmission"
        assert len(lines) == 4 + 31 + 1
        assert lines[-1] == ""
        assert "\r" not in text

    def test_empty_rows_header_only(self):
        res = StudyResult(
            study="transmit",
            columns=("e", "tau"),
            rows=np.empty((0, 2)),
            config_echo="{}",
        )
        text = format_csv(res)
        assert text.endswith("e,tau\n")
        assert len(text.split("\n")) == 5

    def test_full_precision(self):
        res = StudyResult(
            study="delay",
            columns=("e", "tau"),
            rows=np.array([[1.0 / 3.0, 2.0 / 3.0]]),
            config_echo="{}",
        )
        assert "0.33333333333333331,0.66666666666666663" in format_csv(res)

    def test_sentinel_formatting(self):
        res = StudyResult(
            study="delay",
            columns=("e", "tau"),
            rows=np.array([[math.inf, math.nan]]),
            config_echo="{}",
        )
        assert "inf,nan" in format_csv(res)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.data())
    def test_rows_match_per_value_formatting(self, data):
        ncols = data.draw(st.sampled_from([1, 2, 5, 34]))
        special = st.sampled_from([
            math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
            2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308,
        ])
        value = st.one_of(special, st.floats(width=64))
        rows = data.draw(st.lists(
            st.lists(value, min_size=ncols, max_size=ncols), max_size=12
        ))
        res = StudyResult(
            study="delay",
            columns=tuple(f"c{k}" for k in range(ncols)),
            rows=np.array(rows, dtype=float).reshape(len(rows), ncols),
            config_echo="{}",
        )
        want = "".join(
            ",".join("%.17g" % v for v in row) + "\n" for row in res.rows
        )
        text = format_csv(res)
        assert text.endswith("\n" + ",".join(res.columns) + "\n" + want)
        assert text.count("\n") == 4 + len(rows)

    def test_wall_time_leaves_no_trace(self):
        cfg = parse_doc(config_doc())
        a = run_study(cfg)
        b = run_study(cfg)
        assert a.wall_time != b.wall_time or a.wall_time > 0
        assert format_csv(a) == format_csv(b)

    def test_export_csv_writes(self, tmp_path):
        res = run_transmit_study(parse_doc(config_doc()))
        path = tmp_path / "out.csv"
        export_csv(res, path)
        assert path.read_text(encoding="utf-8") == format_csv(res)

    def test_export_csv_write_error(self, tmp_path):
        res = run_transmit_study(parse_doc(config_doc()))
        with pytest.raises(WriteError):
            export_csv(res, os.path.join(str(tmp_path), "no", "dir.csv"))
