"""Span recorder for the traced run, and the arithmetic on its spans.

The recorder wraps the package's functions from outside: each wrapped
function is rebound in every ``opencavity`` module namespace that holds it,
so a call through any import path is seen. A span is the tuple

    (id, name, layer, start, end, parent, thread)

with ``parent`` the id of the span that caused it, or -1. A call on a pool
worker thread with no open span of its own takes as parent the span open on
the thread that installed the recorder, which is blocked waiting for the
pool. Spans stay in memory and are written when the call ends.

Counts are taken at the same boundaries, from the arguments and results of
the wrapped calls. Flop counts are computed from matrix sizes, not measured:

* complex LU with k right-hand sides: 8/3 n^3 + 8 n^2 k real flops (real LU
  is 2/3 n^3 and each triangular pair 2 n^2; complex arithmetic costs 4x);
* ``zgeev`` with left and right vectors: 4 (25 + 2 * 4/3) n^3 real flops
  (real Schur form with Schur vectors 25 n^3, Golub and Van Loan 7.5.6;
  each vector set by back-substitution and back-transformation 4/3 n^3;
  complex arithmetic 4x). Matrices of size 1 and 2 are solved in closed
  form and count 0.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import sys
import threading
import time
from collections import defaultdict

LU_FLOPS = (8.0 / 3.0, 8.0)
EIG_FLOPS = 4.0 * (25.0 + 2.0 * 4.0 / 3.0)

LAYERS = ("cli", "sweeps", "model", "spectrum", "scattering", "rigidity",
          "linalg")


def _nan_rows(result):
    if isinstance(result, tuple):
        result = result[0]
    rows = result.rows
    return sum(1 for row in rows if any(math.isnan(v) for v in row))


def _grid_points(config):
    if config.study == "ep-find":
        return 1
    n = config.e_grid.points
    if config.study in ("spectrum", "crossover"):
        n *= config.alpha_grid.points
    return n


def _count_parse(counts, args, result, exc):
    if exc is None:
        counts["sweeps.grid_points"] += _grid_points(result)


def _count_run(counts, args, result, exc):
    if exc is None:
        counts["sweeps.nan_rows"] += _nan_rows(result)


def _count_csv(counts, args, result, exc):
    if exc is None:
        counts["sweeps.csv_bytes"] += len(result.encode("utf-8"))


def _count_track(counts, args, result, exc):
    if exc is None and result:
        counts["spectrum.track_matches"] += sum(len(s) for s in result[1:])
        counts["spectrum.track_ambiguous"] += sum(
            st.ambiguous for s in result for st in s.states)


def _count_ep(counts, args, result, exc):
    report = result[3] if exc is None else getattr(exc, "report", None)
    if report is not None:
        counts["spectrum.ep_evals"] += len(report.path)
        counts["spectrum.ep_success"] += bool(report.success)


def _count_solve(counts, args, result, exc):
    n = len(args[0])
    k = 1 if len(getattr(args[1], "shape", ())) < 2 else args[1].shape[1]
    counts["linalg.max_n"] = max(counts["linalg.max_n"], n)
    if exc is not None:
        if type(exc).__name__ == "SingularMatrix":
            counts["linalg.singular"] += 1
        return
    counts["linalg.solve_rhs_cols"] += k
    counts["linalg.lu_flop"] += LU_FLOPS[0] * n**3 + LU_FLOPS[1] * n * n * k


def _count_eig(counts, args, result, exc):
    n = len(args[0])
    counts["linalg.max_n"] = max(counts["linalg.max_n"], n)
    if exc is None and n > 2:
        counts["linalg.eig_flop"] += EIG_FLOPS * n**3


# (layer, module, attribute, counter). The layer is the module that defines
# the function; CavityModel is traced through its constructor.
TARGETS = (
    ("cli", "opencavity.cli", "main", None),
    ("sweeps", "opencavity.sweeps", "parse_config", _count_parse),
    ("sweeps", "opencavity.sweeps", "run_study", _count_run),
    ("sweeps", "opencavity.sweeps", "format_csv", _count_csv),
    ("model", "opencavity.model", "CavityModel.__init__", None),
    ("model", "opencavity.model", "build_hb", None),
    ("spectrum", "opencavity.spectrum", "assemble_heff", None),
    ("spectrum", "opencavity.spectrum", "biorthogonal_spectrum", None),
    ("spectrum", "opencavity.spectrum", "_track_spectra", _count_track),
    ("spectrum", "opencavity.spectrum", "find_exceptional_point", _count_ep),
    ("scattering", "opencavity.scattering", "transmission_direct", None),
    ("scattering", "opencavity.scattering", "s_matrix", None),
    ("scattering", "opencavity.scattering", "wigner_delay", None),
    ("scattering", "opencavity.scattering", "solve_scattering", None),
    ("rigidity", "opencavity.rigidity", "rho_direct", None),
    ("rigidity", "opencavity.rigidity", "build_report", None),
    ("linalg", "opencavity.linalg", "solve_linear", _count_solve),
    ("linalg", "opencavity.linalg", "eig_general", _count_eig),
    ("linalg", "opencavity.linalg", "minimize_simplex", None),
)


class Recorder:
    """Collects spans and counts of one process."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, layer, counter=None):
        """``fn`` recording one span per call, and counts via ``counter``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._home[-1] if self._home else -1
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if counter is not None:
                    with self._lock:
                        counter(self.counts, args, None, exc)
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, layer, t0, t1, parent,
                                   threading.get_ident()))
            if counter is not None:
                with self._lock:
                    counter(self.counts, args, result, None)
            return result

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target in every ``opencavity`` module that binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "opencavity" or k.startswith("opencavity.")]
        for layer, modname, attr, counter in targets:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth),
                                             f"{layer}.{cls_name}", layer,
                                             counter))
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(orig, f"{layer}.{attr}", layer, counter)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, traced)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _union_length(intervals):
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Map span id to self time.

    A span's self time is its duration minus the length of the union of
    its children's intervals, clipped to its own. Children on the same
    thread are nested calls; children on pool threads cover the time the
    parent spent waiting for them, so that time is not counted twice.
    """
    by_parent = defaultdict(list)
    for sp in spans:
        by_parent[sp[5]].append(sp)
    out = {}
    for sp in spans:
        sid, start, end = sp[0], sp[3], sp[4]
        covered = _union_length(
            (max(c[3], start), min(c[4], end))
            for c in by_parent.get(sid, ()) if c[4] > start and c[3] < end
        )
        out[sid] = (end - start) - covered
    return out


def tail_percentile(samples, ladder=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """Highest percentile in ``ladder`` with at least ten samples above it.

    Returns (percentile, value), nearest-rank; (100, max) when there are
    fewer than twenty samples.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 100.0, math.nan
    for p in ladder:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 100.0, xs[-1]


def layer_metrics(calls):
    """Per-layer metrics of one traced pass.

    ``calls`` holds one dict per CLI call with keys ``spans``, ``counts``,
    ``import_s`` and ``exit``. Returns (metrics, extra): the per-layer
    metric values, and report-only facts (self time by span name, with the
    import as ``cli.import``; the percentile of
    ``scattering.point_tail_ms``).
    """
    m = defaultdict(float)
    by_name_self = defaultdict(float)
    by_name_calls = defaultdict(int)
    by_name_total = defaultdict(float)
    layer_self = defaultdict(float)
    points = []
    for call in calls:
        spans = [tuple(s) for s in call["spans"]]
        selfs = self_times(spans)
        layer_of = {s[0]: s[2] for s in spans}
        for sp in spans:
            name, layer = sp[1], sp[2]
            by_name_self[name] += selfs[sp[0]]
            by_name_total[name] += sp[4] - sp[3]
            by_name_calls[name] += 1
            layer_self[layer] += selfs[sp[0]]
            if layer == "scattering" and layer_of.get(sp[5]) != "scattering":
                points.append(1e3 * (sp[4] - sp[3]))
        for key, value in call["counts"].items():
            if key == "linalg.max_n":
                m[key] = max(m[key], value)
            else:
                m[key] += value
        m["cli.import_s"] += call["import_s"]
        m["cli.invocations"] += 1
        m["cli.nonzero_exits"] += call["exit"] != 0
    layer_self["cli"] += m["cli.import_s"]

    m["cli.main_total_s"] = by_name_total["cli.main"]
    m["sweeps.parse_config_s"] = by_name_self["sweeps.parse_config"]
    m["sweeps.run_study_total_s"] = by_name_total["sweeps.run_study"]
    m["sweeps.format_csv_s"] = by_name_self["sweeps.format_csv"]
    m["model.cavity_models"] = by_name_calls["model.CavityModel"]
    m["model.cavity_model_s"] = layer_self["model"]
    for fn, short in (("assemble_heff", "assemble_heff"),
                      ("biorthogonal_spectrum", "biorthogonal")):
        m[f"spectrum.{short}_calls"] = by_name_calls[f"spectrum.{fn}"]
        m[f"spectrum.{short}_s"] = by_name_self[f"spectrum.{fn}"]
    m["spectrum.track_s"] = by_name_self["spectrum._track_spectra"]
    m["spectrum.ep_search_s"] = by_name_self["spectrum.find_exceptional_point"]
    for fn in ("transmission_direct", "s_matrix", "solve_scattering"):
        m[f"scattering.{fn}_calls"] = by_name_calls[f"scattering.{fn}"]
        m[f"scattering.{fn}_s"] = by_name_self[f"scattering.{fn}"]
    m["scattering.wigner_delay_calls"] = by_name_calls["scattering.wigner_delay"]
    m["scattering.point_p50_ms"] = statistics.median(points)
    tail_p, m["scattering.point_tail_ms"] = tail_percentile(points)
    m["rigidity.rho_direct_calls"] = by_name_calls["rigidity.rho_direct"]
    m["rigidity.build_report_s"] = by_name_self["rigidity.build_report"]
    for fn, short in (("solve_linear", "solve"), ("eig_general", "eig"),
                      ("minimize_simplex", "simplex")):
        m[f"linalg.{short}_calls"] = by_name_calls[f"linalg.{fn}"]
        m[f"linalg.{short}_s"] = by_name_self[f"linalg.{fn}"]
    m["linalg.lu_gflop"] = m.pop("linalg.lu_flop", 0.0) / 1e9
    m["linalg.eig_gflop"] = m.pop("linalg.eig_flop", 0.0) / 1e9
    for short in ("solve", "eig"):
        secs = m[f"linalg.{short}_s"]
        flop = m["linalg.lu_gflop" if short == "solve" else "linalg.eig_gflop"]
        m[f"linalg.{short}_gflops"] = flop / secs if secs > 0 else 0.0
    for key in ("sweeps.grid_points", "sweeps.nan_rows", "sweeps.csv_bytes",
                "spectrum.track_matches", "spectrum.track_ambiguous",
                "spectrum.ep_evals", "spectrum.ep_success", "linalg.singular",
                "linalg.solve_rhs_cols", "linalg.max_n"):
        m.setdefault(key, 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    by_name_self["cli.import"] = m["cli.import_s"]
    extra = {
        "self_by_name": dict(by_name_self),
        "point_tail_percentile": tail_p,
        "scattering_points": len(points),
    }
    return dict(m), extra
