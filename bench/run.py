"""Benchmark of the opencavity command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each pass runs the workload's CLI calls one
after another, each in a fresh interpreter (``bench/child.py``, the
equivalent of ``python -m opencavity.cli`` with ``PYTHONPATH=src``).
Passes repeat until S seconds have gone by. Every output is then checked
against the oracle of ``oracle.py`` (outside the timed region) and the last
line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: medians over the
passes of ``wall_s``, ``setup_s``, ``points_per_s`` and ``peak_rss_mb``.
With ``--trace 1`` untraced and traced passes alternate, and the metrics
are the per-layer ones of ``spans.py``, medians over the traced passes,
plus ``trace.overhead_frac``. The lines before it give every metric with
quartiles and the pass count, the failure fraction with its base, and the
machine facts. ``README.md`` says why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import oracle
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(ROOT, "bench", "child.py")
CHILD_TIMEOUT_S = 120.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("points_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

# (metric, unit) of the traced run's JSON line, in layer order. A layer's
# self_s is the self time of all its spans; cli.self_s includes the import.
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.main_total_s", "s"), ("cli.self_s", "s"),
    ("cli.invocations", "count"), ("cli.nonzero_exits", "count"),
    ("sweeps.parse_config_s", "s"), ("sweeps.run_study_total_s", "s"),
    ("sweeps.self_s", "s"), ("sweeps.format_csv_s", "s"),
    ("sweeps.grid_points", "count"), ("sweeps.nan_rows", "count"),
    ("sweeps.csv_bytes", "bytes"),
    ("model.cavity_models", "count"), ("model.cavity_model_s", "s"),
    ("spectrum.self_s", "s"),
    ("spectrum.assemble_heff_calls", "count"),
    ("spectrum.assemble_heff_s", "s"),
    ("spectrum.biorthogonal_calls", "count"),
    ("spectrum.biorthogonal_s", "s"),
    ("spectrum.track_matches", "count"),
    ("spectrum.track_ambiguous", "count"),
    ("spectrum.ep_evals", "count"), ("spectrum.ep_success", "count"),
    ("scattering.self_s", "s"),
    ("scattering.transmission_direct_calls", "count"),
    ("scattering.transmission_direct_s", "s"),
    ("scattering.s_matrix_calls", "count"), ("scattering.s_matrix_s", "s"),
    ("scattering.wigner_delay_calls", "count"),
    ("scattering.solve_scattering_calls", "count"),
    ("scattering.point_p50_ms", "ms"), ("scattering.point_tail_ms", "ms"),
    ("rigidity.self_s", "s"), ("rigidity.rho_direct_calls", "count"),
    ("linalg.self_s", "s"),
    ("linalg.solve_calls", "count"), ("linalg.solve_s", "s"),
    ("linalg.solve_rhs_cols", "count"), ("linalg.singular", "count"),
    ("linalg.lu_gflop", "Gflop"), ("linalg.solve_gflops", "Gflop/s"),
    ("linalg.eig_calls", "count"), ("linalg.eig_s", "s"),
    ("linalg.eig_gflop", "Gflop"), ("linalg.eig_gflops", "Gflop/s"),
    ("linalg.max_n", "sites"), ("linalg.simplex_calls", "count"),
    ("trace.overhead_frac", "ratio"),
)

# Self times of functions that some workload never calls. They are printed
# with the others but left out of the JSON line, where a time reading 0 on
# every run of a workload would look like a constant.
REPORT_ONLY = (
    ("spectrum.track_s", "s"), ("spectrum.ep_search_s", "s"),
    ("scattering.solve_scattering_s", "s"), ("rigidity.build_report_s", "s"),
    ("linalg.simplex_s", "s"),
)

# Self-time items predicted to dominate each workload (span names, and
# cli.import for the import).
PREDICTED = {
    "direct-large": ("linalg.solve_linear",),
    "spectral": ("spectrum._track_spectra", "linalg.eig_general"),
    "cli-small": ("cli.import",),
}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(workloads.BLAS_THREADS)
    return env


def run_child(argv, stamps, trace, stderr_path, env):
    """Run one child to completion; returns its exit code and timings.

    The wall time runs from just before the spawn to the reaping of the
    child; ``setup`` from the spawn to the end of ``import
    opencavity.cli`` inside it. Peak RSS comes from the child's rusage.
    """
    for path in (stamps, trace):
        if path != "-" and os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, CHILD, stamps, trace, "--", *argv]
    lock = threading.Lock()
    reaped = []
    with open(stderr_path, "wb") as err:
        t0 = _now()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                env=env, cwd=ROOT)

        def kill():
            with lock:
                if not reaped:
                    os.kill(proc.pid, signal.SIGKILL)

        watchdog = threading.Timer(CHILD_TIMEOUT_S, kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = _now()
        except BaseException:
            with lock:
                reaped.append(True)
                os.kill(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            with lock:
                reaped.append(True)
            watchdog.cancel()
            watchdog.join()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    wall = t1 - t0
    try:
        with open(stamps, encoding="utf-8") as fh:
            st = json.load(fh)
    except (OSError, ValueError):
        # main never started: the whole call was set-up.
        st = {"start": t0, "imported": t1}
    return {
        "exit": code,
        "wall": wall,
        "setup": st["imported"] - t0,
        "import_s": st["imported"] - st["start"],
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def run_pass(calls, workdir, traced):
    """One pass over the workload; returns a record per call."""
    records = []
    for inv in calls:
        base = os.path.join(workdir, inv.name)
        trace = base + ".trace.json" if traced else "-"
        if os.path.exists(base + ".csv"):
            os.remove(base + ".csv")
        rec = run_child(inv.argv(base + ".csv"), base + ".stamps.json", trace,
                        base + ".stderr", child_env())
        try:
            with open(base + ".csv", "rb") as fh:
                rec["csv"] = fh.read()
        except OSError:
            rec["csv"] = None
        with open(base + ".stderr", encoding="utf-8", errors="replace") as fh:
            rec["stderr"] = fh.read()
        if traced:
            try:
                with open(trace, encoding="utf-8") as fh:
                    rec.update(json.load(fh))
            except (OSError, ValueError):
                # The call died before main returned; its exit code says so.
                rec.update({"spans": [], "counts": {}})
        records.append(rec)
    return records


def warm_up(calls, workdir):
    """Run the first call once, untimed.

    This compiles the package's bytecode and fills the file cache; without
    it the first call of the first pass runs up to twice as long.
    """
    base = os.path.join(workdir, "warmup")
    run_child(calls[0].argv(base + ".csv"), base + ".stamps.json", "-",
              base + ".stderr", child_env())


class Gate:
    """Correctness of each call, checked once per distinct output.

    The first pass's outputs go through the oracle. A later output that
    matches the first byte for byte, with the same exit code, inherits its
    verdict; any other output is a failure of that call.
    """

    def __init__(self, calls):
        self.calls = calls
        self.ref = None
        self.verdicts = []
        self.problems = []

    def judge(self, records):
        """Failed points of each call of one pass."""
        if self.ref is None:
            self.ref = records
            for inv, rec in zip(self.calls, records):
                text = rec["csv"].decode("utf-8") if rec["csv"] else None
                err, nan = oracle.check(inv, text, rec["stderr"], rec["exit"])
                self.verdicts.append((err, nan))
                if err and not inv.known_defect:
                    self.problems.append(f"{inv.name}: {err}")
        failed = []
        for inv, rec, ref, (err, nan) in zip(self.calls, records, self.ref,
                                             self.verdicts):
            same = rec["csv"] == ref["csv"] and rec["exit"] == ref["exit"]
            if not same:
                msg = f"{inv.name}: output differs from the first pass"
                if msg not in self.problems:
                    self.problems.append(msg)
            if err or not same:
                failed.append(inv.points)
            else:
                failed.append(nan * inv.rows_points)
        return failed


def pass_metrics(calls, records):
    wall = sum(r["wall"] for r in records)
    setup = sum(r["setup"] for r in records)
    points = sum(inv.points for inv in calls)
    return {
        "wall_s": wall,
        "setup_s": setup,
        "points_per_s": points / (wall - setup),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }


def summarise(values):
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3


def _blas(module):
    try:
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"
    except (KeyError, TypeError):
        return "unknown"


def machine_facts(calls):
    import scipy

    threads = sorted({inv.threads for inv in calls})
    return (
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} (BLAS {_blas(np)}) "
        f"scipy={scipy.__version__} (BLAS {_blas(scipy)}); calls run with "
        f"--threads {'/'.join(map(str, threads))} and "
        f"{workloads.BLAS_THREADS} BLAS thread"
    )


def timed_passes(calls, workdir, seconds, trace):
    """Passes until ``seconds`` are up; with ``trace``, plain and traced
    passes alternate. Returns (plain passes, traced passes)."""
    plain, traced = [], []
    deadline = _now() + seconds
    while not plain or (trace and not traced) or _now() < deadline:
        if trace and len(traced) < len(plain):
            traced.append(run_pass(calls, workdir, traced=True))
        else:
            plain.append(run_pass(calls, workdir, traced=False))
    return plain, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into an exception so that a running child is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "opencavity", "cli.py")):
        print(f"bench: no opencavity sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, "bench", ".work",
                           f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    calls = workloads.build(args.workload, args.seed, workdir)
    warm_up(calls, workdir)
    plain, traced = timed_passes(calls, workdir, args.seconds, args.trace)

    gate = Gate(calls)
    failed = [sum(gate.judge(p)) for p in plain + traced]
    points = sum(inv.points for inv in calls)
    attempted = points * len(failed)
    correct = not gate.problems
    shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(calls)} calls, "
          f"{points} grid points per pass, {len(plain)} plain and "
          f"{len(traced)} traced passes")
    print(machine_facts(calls))
    for inv, (err, nan) in zip(calls, gate.verdicts):
        state = "ok" if not err else f"FAILED ({err})"
        tag = f" [known defect: {inv.known_defect}]" if inv.known_defect else ""
        print(f"  {inv.name:16s} {inv.study:9s} {inv.points:6d} points, "
              f"{nan} NaN rows, {state}{tag}")
    print(f"failed_frac {sum(failed) / attempted:.6f} ratio "
          f"({sum(failed)} failed of {attempted} grid points attempted)")
    for msg in gate.problems:
        print(f"correctness: {msg}")

    per_pass = [pass_metrics(calls, p) for p in plain]
    metrics = {}
    if not args.trace:
        for name, unit in END_TO_END:
            med, q1, q3 = summarise([m[name] for m in per_pass])
            metrics[name] = {"value": med, "unit": unit}
            print(f"{name:14s} {med:.6g} {unit}  (median of {len(per_pass)} "
                  f"passes, quartiles {q1:.6g} .. {q3:.6g})")
    else:
        metrics = report_layers(args.workload, calls, per_pass, traced)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": sum(failed), "metrics": metrics}))
    return 0


def report_layers(workload, calls, per_pass, traced):
    """Per-layer metrics of the traced passes, with the report lines."""
    runs = []
    for records, plain in zip(traced, per_pass):
        layer, extra = spans.layer_metrics(records)
        # Each traced pass against the plain pass just before it, so that
        # drift in machine speed across the run cancels.
        m = pass_metrics(calls, records)
        base = plain["wall_s"] - plain["setup_s"]
        layer["trace.overhead_frac"] = (
            m["wall_s"] - m["setup_s"] - base) / base
        runs.append((layer, extra))
    metrics = {}
    for name, unit in PER_LAYER + REPORT_ONLY:
        value, q1, q3 = summarise([r[0][name] for r in runs])
        if unit in ("count", "bytes", "sites"):
            value, q1, q3 = (int(round(x)) for x in (value, q1, q3))
        if (name, unit) in PER_LAYER:
            metrics[name] = {"value": value, "unit": unit}
        tag = "" if (name, unit) in PER_LAYER else ", report only"
        print(f"{name:38s} {value:.6g} {unit}  (median of {len(runs)} traced "
              f"passes, quartiles {q1:.6g} .. {q3:.6g}{tag})")
    extra = runs[len(runs) // 2][1]
    print(f"scattering.point_tail_ms is the "
          f"p{extra['point_tail_percentile']:g} of "
          f"{extra['scattering_points']} scattering calls per pass")
    layers = {k: statistics.median(r[0][f"{k}.self_s"] for r in runs)
              for k in spans.LAYERS}
    total = sum(layers.values())
    print("self time by layer: " + ", ".join(
        f"{k} {v:.3f} s ({100 * v / total:.1f} %)"
        for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    names = {k for r in runs for k in r[1]["self_by_name"]}
    by_name = {k: statistics.median(r[1]["self_by_name"].get(k, 0.0)
                                    for r in runs) for k in names}
    top = sorted(by_name, key=by_name.get, reverse=True)
    print("top self time: " + ", ".join(
        f"{k} {by_name[k]:.3f} s ({100 * by_name[k] / total:.1f} %)"
        for k in top[:4]))
    predicted = PREDICTED[workload]
    share = sum(by_name.get(k, 0.0) for k in predicted) / total
    verdict = "holds" if top[0] in predicted else f"differs: top is {top[0]}"
    print(f"prediction: {' + '.join(predicted)} dominate "
          f"({100 * share:.1f} % of self time); {verdict}; top layer "
          f"{max(layers, key=layers.get)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
