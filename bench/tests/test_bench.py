"""Tests of the benchmark itself: span arithmetic, failure accounting, the
workload generator and the oracle.

    python3 -m pytest bench/tests
"""

import json
import os
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oracle
import run
import spans
import workloads
from opencavity.cli import main as cli_main
from opencavity.sweeps import parse_config


def span(sid, start, end, parent=-1, thread=1, name="x", layer="sweeps"):
    return (sid, name, layer, start, end, parent, thread)


class TestSelfTimes:
    def test_nested(self):
        tree = [
            span(0, 0.0, 10.0),
            span(1, 1.0, 4.0, parent=0),
            span(2, 2.0, 3.0, parent=1),
            span(3, 5.0, 9.0, parent=0),
        ]
        assert spans.self_times(tree) == pytest.approx(
            {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})

    def test_pool_children_cover_the_wait_once(self):
        # The parent waits on thread 1 while two workers overlap.
        tree = [
            span(0, 0.0, 10.0, thread=1),
            span(1, 1.0, 6.0, parent=0, thread=2),
            span(2, 2.0, 8.0, parent=0, thread=3),
            span(3, 2.5, 4.5, parent=2, thread=3),
        ]
        selfs = spans.self_times(tree)
        assert selfs[0] == pytest.approx(3.0)  # 10 - |[1, 8]|
        assert selfs[1] == pytest.approx(5.0)
        assert selfs[2] == pytest.approx(4.0)  # 6 - 2 on its own thread
        assert selfs[3] == pytest.approx(2.0)

    def test_recorder_parents_pool_work_to_the_waiting_span(self):
        rec = spans.Recorder()
        inner = rec.wrap(lambda x: x * 2, "linalg.f", "linalg")

        def outer(xs):
            with ThreadPoolExecutor(max_workers=2) as ex:
                return list(ex.map(inner, xs))

        outer = rec.wrap(outer, "sweeps.g", "sweeps")
        assert outer([1, 2, 3]) == [2, 4, 6]
        by_name = {}
        for sp in rec.spans:
            by_name.setdefault(sp[1], []).append(sp)
        (root,) = by_name["sweeps.g"]
        assert root[5] == -1
        assert len(by_name["linalg.f"]) == 3
        assert all(sp[5] == root[0] for sp in by_name["linalg.f"])
        assert all(sp[6] != threading.get_ident() for sp in by_name["linalg.f"])

    def test_install_rebinds_every_namespace(self, monkeypatch):
        def f():
            return 1

        owner = types.ModuleType("opencavity._bench_owner")
        user = types.ModuleType("opencavity._bench_user")
        owner.f = user.f = f
        monkeypatch.setitem(sys.modules, owner.__name__, owner)
        monkeypatch.setitem(sys.modules, user.__name__, user)
        rec = spans.Recorder()
        rec.install([("linalg", owner.__name__, "f", None)])
        assert owner.f is user.f and owner.f is not f
        assert user.f() == 1 and rec.spans[0][1] == "linalg.f"

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        xs = list(range(1, 101))
        assert spans.tail_percentile(xs) == (90.0, 90)
        assert spans.tail_percentile(xs[:19]) == (100.0, 19)


def _calls(tmp_path, points=(5, 3)):
    calls = []
    for i, n in enumerate(points):
        doc = {"study": "transmit", "e_grid": {"min": -1, "max": 1,
                                               "points": n}}
        calls.append(workloads.Invocation(
            name=f"c{i}", study="transmit", config=str(tmp_path / "x.json"),
            doc=doc, threads=1))
    return calls


def _record(exit_code=0, csv=b"x"):
    return {"exit": exit_code, "csv": csv, "stderr": ""}


class TestFailureCounting:
    def test_nan_row_is_one_point(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oracle, "check", lambda *a: (None, 2))
        gate = run.Gate(_calls(tmp_path))
        assert gate.judge([_record(), _record()]) == [2, 2]
        assert not gate.problems

    def test_failed_call_fails_all_its_points(self, tmp_path, monkeypatch):
        verdicts = iter([("exit code 3", 0), ("t off", 0)])
        monkeypatch.setattr(oracle, "check", lambda *a: next(verdicts))
        gate = run.Gate(_calls(tmp_path))
        assert gate.judge([_record(3), _record()]) == [5, 3]
        assert len(gate.problems) == 2

    def test_known_defect_is_counted_but_not_a_problem(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(oracle, "check", lambda *a: ("exit code 3", 0))
        calls = _calls(tmp_path, points=(4,))
        calls[0].known_defect = "documented"
        gate = run.Gate(calls)
        assert gate.judge([_record(3)]) == [4]
        assert not gate.problems

    def test_later_pass_must_repeat_the_first(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oracle, "check", lambda *a: (None, 0))
        gate = run.Gate(_calls(tmp_path))
        assert gate.judge([_record(), _record()]) == [0, 0]
        assert gate.judge([_record(csv=b"y"), _record()]) == [5, 0]
        assert gate.problems == ["c0: output differs from the first pass"]

    def test_non_zero_exit_fails_the_check(self, tmp_path):
        (call,) = _calls(tmp_path, points=(4,))
        assert oracle.check(call, None, "", 3)[0] == "exit code 3"


def _tree(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestGenerator:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_deterministic_per_seed(self, tmp_path, workload):
        workloads.build(workload, 7, tmp_path / "a")
        workloads.build(workload, 7, tmp_path / "b")
        workloads.build(workload, 8, tmp_path / "c")
        assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
        assert _tree(tmp_path / "a") != _tree(tmp_path / "c")

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_configs_pass_parse_config(self, tmp_path, workload, seed):
        for inv in workloads.build(workload, seed, tmp_path):
            config = parse_config(json.dumps(inv.doc), base_dir=str(tmp_path))
            assert config.study == inv.study

    @pytest.mark.parametrize("seed", range(6))
    def test_direct_large_geometry(self, seed):
        import random

        mask, (left, right) = workloads.irregular_cavity(random.Random(seed))
        assert sum(map(sum, mask)) == 290
        assert not any(img == mask for img in workloads._images(mask))
        assert left[0] == 0 and right[0] == 17
        assert mask[left[0]][left[1]] and mask[right[0]][right[1]]

    def test_defect_configs_are_fixed(self, tmp_path):
        a = {c.name: c.doc for c in workloads.build("cli-small", 1, tmp_path)}
        b = {c.name: c.doc for c in workloads.build("cli-small", 2, tmp_path)}
        for name in ("ep-4x4", "delay-band-edge", "ep-10x5", "ep-2x2"):
            assert a[name] == b[name]
        ep = a["ep-4x4"]["model"]
        assert [ld["contact"] for ld in ep["leads"]] == [[0, 0], [3, 3]]
        assert [ld["coupling_w"] for ld in ep["leads"]] == [1.2, 1.6]
        assert a["delay-band-edge"]["e_grid"]["max"] == 1.999999
        assert a["dense-transmit"]["e_grid"]["points"] == 4001


@pytest.fixture(scope="module")
def small_outputs(tmp_path_factory):
    """CSV and stderr of the quick cli-small calls, made in-process."""
    path = tmp_path_factory.mktemp("cli")
    out = {}
    import contextlib
    import io

    for inv in workloads.build("cli-small", 3, path):
        if inv.name == "dense-transmit" or inv.name == "ep-10x5":
            continue
        err = io.StringIO()
        csv = path / f"{inv.name}.csv"
        with contextlib.redirect_stderr(err):
            code = cli_main(inv.argv(str(csv)))
        text = csv.read_text() if csv.exists() else None
        out[inv.name] = (inv, text, err.getvalue(), code)
    return out


def _perturb(text, row, col, delta):
    lines = text.split("\n")
    body = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    idx = body[1 + row]
    cells = lines[idx].split(",")
    cells[col] = "%.17g" % (float(cells[col]) + delta)
    lines[idx] = ",".join(cells)
    return "\n".join(lines)


class TestOracle:
    def test_seed_outputs_pass_except_known_defects(self, small_outputs):
        for name, (inv, text, err, code) in small_outputs.items():
            verdict, nan = oracle.check(inv, text, err, code)
            assert (verdict is None) == (inv.known_defect is None), name
            assert nan == 0

    @pytest.mark.parametrize("name,row,col,delta", [
        ("readme-transmit", 0, 1, 1e-6),
        ("rigidity-6x6", 40, 1, 1e-5),
        ("spectrum-6x6", 11, 3, 1e-4),
        ("crossover-6x6", 0, 2, 1e-5),
    ])
    def test_flags_a_perturbed_csv(self, small_outputs, name, row, col,
                                   delta):
        inv, text, err, code = small_outputs[name]
        bad = _perturb(text, row, col, delta)
        assert oracle.check(inv, bad, err, code)[0] is not None

    def test_width_order_does_not_matter(self, small_outputs):
        inv, text, err, code = small_outputs["spectrum-6x6"]
        lines = text.split("\n")
        cells = lines[4].split(",")
        cells[1], cells[2] = cells[2], cells[1]
        lines[4] = ",".join(cells)
        assert oracle.check(inv, "\n".join(lines), err, code)[0] is None

    def test_false_ep_success_is_flagged(self, small_outputs):
        inv, text, err, code = small_outputs["ep-4x4"]
        assert code == 0 and "success=True" in err
        assert "angle" in oracle.check(inv, text, err, code)[0]

    def test_delay_oracles_agree_inside_the_band(self, tmp_path):
        inv = next(c for c in workloads.build("cli-small", 1, tmp_path)
                   if c.name == "delay-band-edge")
        cav = oracle.Cavity(inv.doc)
        for e in (-1.3, 0.2, 1.7):
            fd, an = cav.delay_fd(e, 1.0), cav.delay_analytic(e, 1.0)
            assert abs(fd - an) <= oracle.TAU_TOL * (1 + abs(an))
        assert np.isfinite(cav.delay_analytic(1.999999, 1.0))


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
