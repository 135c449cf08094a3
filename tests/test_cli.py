import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from opencavity import CavityModel
from opencavity.cli import main

from conftest import NOTCH_MASK

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def base_doc(study="transmit", **overrides):
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
        "e_grid": {"min": -1.5, "max": 1.5, "points": 21},
    }
    for key, value in overrides.items():
        doc[key] = value
    return doc


def ep_doc():
    return {
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


def study_docs():
    """One small passing config per study."""
    spectrum = base_doc(
        study="spectrum",
        alpha_grid={"min": 0.2, "max": 2.0, "points": 5},
    )
    spectrum["model"]["nx"] = 2
    spectrum["model"]["leads"] = [
        {"contact": [0, 0], "coupling_w": 1.0},
        {"contact": [1, 0], "coupling_w": 0.0},
    ]
    crossover = base_doc(
        study="crossover",
        alpha_grid={"min": 0.1, "max": 2.0, "points": 10},
    )
    crossover["e_grid"]["points"] = 15
    return {
        "transmit": base_doc(),
        "spectrum": spectrum,
        "rigidity": base_doc(study="rigidity"),
        "ep-find": ep_doc(),
        "delay": base_doc(study="delay"),
        "crossover": crossover,
    }


def write_config(tmp_path, doc, name="study.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestHappyPaths:
    def test_transmit_to_file(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        out = tmp_path / "t.csv"
        assert main(["transmit", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").split("\n")
        assert lines[3] == "e,re_t,im_t,abs_t,transmission"
        assert len(lines) == 4 + 21 + 1

    def test_stdout_default(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc())
        assert main(["transmit", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# opencavity")
        assert "e,re_t,im_t,abs_t,transmission" in captured.out

    def test_config_out_fallback(self, tmp_path, capsys):
        target = tmp_path / "from_config.csv"
        cfg = write_config(tmp_path, base_doc(out=str(target)))
        assert main(["transmit", "--config", cfg]) == 0
        assert target.exists()
        assert capsys.readouterr().out == ""

    def test_out_flag_beats_config_out(self, tmp_path):
        ignored = tmp_path / "ignored.csv"
        chosen = tmp_path / "chosen.csv"
        cfg = write_config(tmp_path, base_doc(out=str(ignored)))
        assert main(
            ["transmit", "--config", cfg, "--out", str(chosen)]
        ) == 0
        assert chosen.exists()
        assert not ignored.exists()

    def test_every_subcommand_runs(self, tmp_path):
        for study, doc in study_docs().items():
            cfg = write_config(tmp_path, doc, name=f"{study}.json")
            out = tmp_path / f"{study}.csv"
            code = main([study, "--config", cfg, "--out", str(out)])
            assert code == 0, study
            assert out.read_text(encoding="utf-8").startswith("# opencavity")

    def test_one_model_built_per_call(self, tmp_path, monkeypatch):
        # parse_config builds the model to check the geometry; the study
        # runs on that same model. Coupling sweeps derive theirs through
        # with_alpha, which does not construct.
        built = []
        init = CavityModel.__init__

        def spy(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CavityModel, "__init__", spy)
        for study, doc in study_docs().items():
            built.clear()
            cfg = write_config(tmp_path, doc, name=f"{study}.json")
            out = tmp_path / f"{study}.csv"
            assert main([study, "--config", cfg, "--out", str(out)]) == 0
            assert len(built) == 1, study

    def test_delay_band_edge_exits_zero(self, tmp_path):
        doc = base_doc(study="delay")
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
        out = tmp_path / "tau.csv"
        cfg = write_config(tmp_path, doc)
        assert main(["delay", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").split("\n")[4:-1]
        assert len(rows) == 41
        # Only E = 0.0, a dark level where E - H_eff is singular, has no
        # delay; the rows 1e-6 from the band edges are finite.
        assert [i for i, r in enumerate(rows) if r.endswith(",nan")] == [20]

    def test_threads_flag_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        one = tmp_path / "one.csv"
        four = tmp_path / "four.csv"
        assert main(["transmit", "--config", cfg, "--out", str(one),
                     "--threads", "1"]) == 0
        assert main(["transmit", "--config", cfg, "--out", str(four),
                     "--threads", "4"]) == 0
        assert one.read_bytes() == four.read_bytes()


class TestGridOverride:
    def test_points_override(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        out = tmp_path / "t.csv"
        assert main([
            "transmit", "--config", cfg, "--out", str(out),
            "--grid-override", "e_grid.points=11",
        ]) == 0
        lines = out.read_text(encoding="utf-8").split("\n")
        assert len(lines) == 4 + 11 + 1

    def test_bare_string_value(self, tmp_path):
        doc = base_doc(
            study="crossover",
            alpha_grid={"min": 0.1, "max": 2.0, "points": 10},
        )
        doc["e_grid"]["points"] = 9
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "c.csv"
        assert main([
            "crossover", "--config", cfg, "--out", str(out),
            "--grid-override", "alpha_grid.scale=log",
        ]) == 0
        assert '"scale":"log"' in out.read_text(encoding="utf-8")

    def test_override_creates_section(self, tmp_path):
        doc = base_doc(study="spectrum")
        doc["model"]["nx"] = 2
        doc["model"]["leads"] = [
            {"contact": [0, 0], "coupling_w": 1.0},
            {"contact": [1, 0], "coupling_w": 0.0},
        ]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "s.csv"
        assert main([
            "spectrum", "--config", cfg, "--out", str(out),
            "--grid-override", "alpha_grid.min=0.2",
            "--grid-override", "alpha_grid.max=2.0",
            "--grid-override", "alpha_grid.points=5",
        ]) == 0

    def test_missing_equals_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc())
        assert main([
            "transmit", "--config", cfg, "--grid-override", "e_grid.points",
        ]) == 2
        assert "override" in capsys.readouterr().err

    def test_cannot_descend_into_scalar(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc())
        assert main([
            "transmit", "--config", cfg, "--grid-override", "version.x=1",
        ]) == 2

    def test_override_validated(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc())
        assert main([
            "transmit", "--config", cfg, "--grid-override", "e_grid.max=5",
        ]) == 2
        assert "e_grid" in capsys.readouterr().err


class TestFailureExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(
            ["transmit", "--config", str(tmp_path / "none.json")]
        ) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1,\n "study": }', encoding="utf-8")
        assert main(["transmit", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err
        assert "line 2" in err

    def test_non_utf8_config(self, tmp_path, capsys):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(base_doc()).encode())
        assert main(["transmit", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("opencavity: cannot read config:")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_non_utf8_mask_file(self, tmp_path, capsys):
        (tmp_path / "cavity.mask").write_bytes(b"1\n\xff\n1\n")
        doc = base_doc()
        doc["model"]["mask"] = "cavity.mask"
        cfg = write_config(tmp_path, doc)
        assert main(["transmit", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "opencavity: invalid config at model.mask: cannot read mask file")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_nesting_past_the_recursion_limit(self, tmp_path, capsys):
        deep = "[" * 200_000
        path = tmp_path / "deep.json"
        path.write_text(deep, encoding="utf-8")
        assert main(["transmit", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("opencavity: config parse error:")
        assert err.count("\n") == 1 and "Traceback" not in err
        # An override value that nests as deep stays a string, like any
        # other value that is not JSON, and fails validation as one.
        cfg = write_config(tmp_path, base_doc())
        assert main(["transmit", "--config", cfg,
                     "--grid-override", f"e_grid.points={deep}"]) == 2
        err = capsys.readouterr().err
        assert err == ("opencavity: invalid config at e_grid.points: "
                       "expected an integer\n")

    def test_grid_too_large_to_allocate(self, tmp_path, capsys):
        # 7 PiB of energies: numpy refuses the array at once, well past
        # any address space, so nothing is allocated.
        cfg = write_config(tmp_path, base_doc())
        assert main(["transmit", "--config", cfg, "--grid-override",
                     "e_grid.points=1000000000000000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("opencavity: MemoryError: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_config_too_large_to_allocate(self, tmp_path, capsys,
                                          monkeypatch):
        # Running out of memory while the config is built is exit 2 with
        # one stderr line. The error is raised, not provoked, so nothing
        # large is allocated.
        def out_of_memory(doc, base_dir):
            raise MemoryError("cannot allocate the cavity")

        monkeypatch.setattr("opencavity.cli._build_config", out_of_memory)
        cfg = write_config(tmp_path, base_doc())
        assert main(["transmit", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "opencavity: invalid config: out of memory: "
            "cannot allocate the cavity\n")

    def test_invalid_config(self, tmp_path, capsys):
        doc = base_doc()
        doc["e_grid"]["max"] = 3.0
        cfg = write_config(tmp_path, doc)
        assert main(["transmit", "--config", cfg]) == 2
        assert "e_grid" in capsys.readouterr().err

    def test_study_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc(study="delay"))
        assert main(["transmit", "--config", cfg]) == 2
        assert "invoked as" in capsys.readouterr().err

    def test_unwritable_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc())
        bad = tmp_path / "no" / "dir" / "t.csv"
        assert main(["transmit", "--config", cfg, "--out", str(bad)]) == 4
        assert "cannot write" in capsys.readouterr().err


NON_FINITE_CASES = [
    # (study, dotted field, path into the document, JSON literal)
    ("transmit", "model.hopping", ("model", "hopping"), "Infinity"),
    ("transmit", "model.onsite", ("model", "onsite"), "NaN"),
    ("transmit", "model.onsite", ("model", "onsite", 1, 0), "NaN"),
    ("transmit", "model.onsite", ("model", "onsite", 2, 0), "-1e999"),
    ("transmit", "model.alpha", ("model", "alpha"), "1e999"),
    ("transmit", "model.hopping", ("model", "hopping"), "1" + "0" * 400),
    ("transmit", "model.onsite", ("model", "onsite", 0, 0), "-1" + "0" * 400),
    ("transmit", "model.leads[0].coupling_w",
     ("model", "leads", 0, "coupling_w"), "Infinity"),
    ("transmit", "model.leads[1].lead_hopping",
     ("model", "leads", 1, "lead_hopping"), "Infinity"),
    ("transmit", "e_grid.min", ("e_grid", "min"), "-Infinity"),
    ("crossover", "alpha_grid.max", ("alpha_grid", "max"), "Infinity"),
    ("crossover", "alpha_grid.min", ("alpha_grid", "min"), "NaN"),
]


@pytest.mark.parametrize("study,field,path,literal", NON_FINITE_CASES,
                         ids=[".".join(map(str, c[2])) + "=" + c[3][:12]
                              for c in NON_FINITE_CASES])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, study, field,
                                             path, literal):
    """json.loads accepts NaN, Infinity and 1e999; validation must not."""
    doc = base_doc(study=study)
    doc["model"]["onsite"] = [[0.0], [0.0], [0.0]]
    doc["alpha_grid"] = {"min": 0.1, "max": 2.0, "points": 10}
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "__X__"
    text = json.dumps(doc).replace('"__X__"', literal)
    path_cfg = tmp_path / "study.json"
    path_cfg.write_text(text, encoding="utf-8")
    assert main([study, "--config", str(path_cfg),
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert f"invalid config at {field}:" in capsys.readouterr().err


GRID_ENTRY_CASES = [
    # (dotted field, grid); each grid has the base document's shape (3, 1).
    ("model.mask", [[1], [1.7], [1]]),
    ("model.mask", [[1], [0.4], [1]]),
    ("model.mask", [[1], ["1"], [1]]),
    ("model.mask", [[1], [True], [1]]),
    ("model.mask", ["1", [1], [1]]),
    ("model.onsite", [[0.0], ["1.5"], [0.0]]),
    ("model.onsite", [[0.0], [True], [0.0]]),
    ("model.onsite", ["0", [0.0], [0.0]]),
]


@pytest.mark.parametrize("field,grid", GRID_ENTRY_CASES,
                         ids=[f"{f}={json.dumps(g[:2])}"
                              for f, g in GRID_ENTRY_CASES])
def test_grid_entry_must_be_a_number(tmp_path, capsys, field, grid):
    """Mask entries are the numbers 0 or 1, onsite entries numbers."""
    doc = base_doc()
    doc["model"][field.split(".")[1]] = grid
    cfg = write_config(tmp_path, doc)
    assert main(["transmit", "--config", cfg,
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert f"invalid config at {field}:" in capsys.readouterr().err


def test_float_mask_entries_accepted(tmp_path):
    plain = base_doc()
    plain["model"]["mask"] = [[1], [1], [1]]
    floats = base_doc()
    floats["model"]["mask"] = [[1.0], [1.0], [1]]
    outputs = []
    for k, doc in enumerate((plain, floats)):
        out = tmp_path / f"{k}.csv"
        cfg = write_config(tmp_path, doc, name=f"{k}.json")
        assert main(["transmit", "--config", cfg, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


class TestEpFind:
    def test_success_reports_and_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ep_doc())
        out = tmp_path / "ep.csv"
        assert main(["ep-find", "--config", cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "ep-find: success=True" in err
        assert "separation=" in err
        lines = out.read_text(encoding="utf-8").split("\n")
        assert lines[3] == "step,p1,p2,separation,a_norm_max"

    def test_failure_exits_three_but_writes_path(self, tmp_path, capsys):
        # alpha = 0 keeps H_eff Hermitian for every coupling, so no
        # exceptional point exists anywhere in the search plane.
        doc = ep_doc()
        doc["model"]["alpha"] = 0.0
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "ep.csv"
        assert main(["ep-find", "--config", cfg, "--out", str(out)]) == 3
        assert "ep-find: success=False" in capsys.readouterr().err
        assert out.exists()


    def test_symmetric_degeneracy_exits_three(self, tmp_path, capsys):
        doc = ep_doc()
        doc["model"] = {
            "nx": 4, "ny": 4, "alpha": 1.0,
            "leads": [
                {"contact": [0, 0], "coupling_w": 1.2},
                {"contact": [3, 3], "coupling_w": 1.6},
            ],
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "ep.csv"
        assert main(["ep-find", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "ep-find: success=False" in err
        assert err.rstrip().endswith("outcome=degenerate")
        assert out.exists()

    @pytest.mark.parametrize("lattice", [
        {"nx": 1, "ny": 1},
        {"nx": 2, "ny": 1, "mask": [[1], [0]]},
    ])
    def test_one_site_cavity_is_an_invalid_config(self, tmp_path, capsys,
                                                  lattice):
        # One site has no eigenvalue pair to coalesce; the config is
        # refused before any search, while transmit accepts the cavity.
        doc = ep_doc()
        doc["model"].pop("mask")
        doc["model"].update(lattice)
        for lead in doc["model"]["leads"]:
            lead["contact"] = [0, 0]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "ep.csv"
        assert main(["ep-find", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("opencavity: invalid config at model:")
        assert not out.exists()
        doc["study"] = "transmit"
        cfg = write_config(tmp_path, doc)
        assert main(["transmit", "--config", cfg, "--out", str(out)]) == 0

    def test_summary_matches_benchmark_oracle(self, tmp_path, capsys):
        # The pattern bench/oracle.py reads the summary with.
        ep_line = re.compile(
            r"ep-find: success=(True|False) p=\(([^,]+), ([^)]+)\) .* "
            r"angle=(\S+)")
        cfg = write_config(tmp_path, ep_doc())
        out = tmp_path / "ep.csv"
        assert main(["ep-find", "--config", cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        match = ep_line.search(err)
        assert match is not None
        assert match.group(1) == "True"
        assert float(match.group(4)) < 1e-2
        assert " outcome=ep" in err


def run_python(code, *args):
    """Run ``python -c code args`` in a fresh interpreter on the sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


CLI_RUN = """
import sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None
from opencavity.cli import main
sys.exit(main(sys.argv[2:]))
"""


class TestScipyFree:
    def test_import_loads_no_scipy(self):
        proc = run_python(
            "import sys, opencavity; "
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("study", ["ep-find", "transmit"])
    def test_runs_with_scipy_blocked(self, tmp_path, study):
        if study == "ep-find":
            doc = ep_doc()
        else:
            doc = base_doc(e_grid={"min": -1.9, "max": 1.9, "points": 401})
            doc["model"] = {
                "nx": 10, "ny": 5, "alpha": 0.6,
                "mask": [list(row) for row in NOTCH_MASK],
                "leads": [
                    {"contact": [0, 2], "coupling_w": 1.0},
                    {"contact": [9, 2], "coupling_w": 1.0},
                ],
            }
        cfg = write_config(tmp_path, doc)
        outputs = []
        for mode in ("block", "allow"):
            out = tmp_path / f"{mode}.csv"
            proc = run_python(
                CLI_RUN, mode, study, "--config", cfg, "--out", str(out)
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((out.read_bytes(), proc.stderr))
        assert outputs[0] == outputs[1]


def test_only_the_cli_freezes_the_collector():
    # The freeze keeps interpreter exit short for a CLI call; a library
    # import must leave the caller's collector as it was.
    proc = run_python(
        "import gc, opencavity; print(gc.get_freeze_count()); "
        "import opencavity.cli; print(gc.get_freeze_count())"
    )
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stdout.split())
    assert before == 0
    assert after > 0


def test_module_entry_point_matches_in_process_main(tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc())
    args = ["transmit", "--config", cfg, "--grid-override",
            "e_grid.points=101"]
    code = main(args)
    captured = capsys.readouterr()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "opencavity.cli", *args],
        env=env, capture_output=True, timeout=120,
    )
    assert code == 0
    assert (proc.returncode, proc.stderr) == (code, b"")
    assert proc.stdout == captured.out.encode("utf-8")


def test_import_starts_no_thread_pool():
    proc = run_python(
        "import sys, opencavity.cli; "
        "print(sorted(k for k in sys.modules if k.startswith('concurrent')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_crossover_all_failed_energies_warn_nothing(tmp_path):
    # The 4x4 square with corner contacts has a dark state at E = 0, so
    # every coupling's only energy is singular. avg_T and min_rho are then
    # NaN, and numpy's empty-slice warnings must not reach stderr: under
    # -W error::RuntimeWarning they abort the run with a traceback.
    doc = base_doc(study="crossover",
                   e_grid={"min": 0.0, "max": 0.5, "points": 1},
                   alpha_grid={"min": 0.1, "max": 2.0, "points": 10})
    doc["model"] = {
        "nx": 4, "ny": 4, "alpha": 1.0,
        "leads": [
            {"contact": [0, 0], "coupling_w": 1.0},
            {"contact": [3, 3], "coupling_w": 1.0},
        ],
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "x.csv"
    proc = run_python(CLI_RUN, "allow", "crossover", "--config", cfg,
                      "--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = out.read_text(encoding="utf-8").split("\n")[4:-1]
    assert len(rows) == 10
    assert all(r.split(",")[1:3] == ["nan", "nan"] for r in rows)


def test_crossover_imports_no_numpy_ma(tmp_path):
    # np.median imports numpy.ma for its NaN check, 8-13 ms per call; the
    # crossover's width median is taken without it.
    cfg = write_config(tmp_path, study_docs()["crossover"])
    proc = run_python(
        "import sys; from opencavity.cli import main; "
        "code = main(['crossover', '--config', sys.argv[1], '--out', "
        "sys.argv[2]]); print(code, 'numpy.ma' in sys.modules)",
        cfg, str(tmp_path / "x.csv"),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["0", "False"]


def test_crossover_eigensolver_failure_exits_three(tmp_path, capsys,
                                                   monkeypatch):
    # The widths fall back to biorthogonal_spectrum, whose eigensolver
    # reports a LAPACK failure as ConvergenceFailure: exit 3, one line.
    def fail(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr("opencavity.spectrum._secular_eigenvalues",
                        lambda *args: None)
    monkeypatch.setattr(np.linalg, "eig", fail)
    cfg = write_config(tmp_path, study_docs()["crossover"])
    assert main(["crossover", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("opencavity: ConvergenceFailure:")
    assert err.count("\n") == 1
