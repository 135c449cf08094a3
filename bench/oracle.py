"""Correctness gate: every CSV checked against a plain-numpy oracle.

The oracle rebuilds H_B and the lead self-energies from the config itself
(it imports nothing from ``opencavity``), then uses one dense solve or
``numpy.linalg.eigvals`` per checked grid point. Energies are checked on an
evenly spread subsample of the grid, couplings likewise; cheap per-row
identities are checked on every row.

Tolerances (absolute unless stated). They admit the last-digit changes of
a resolvent or a vectorised spectrum path, which agree with LU to about
1e-10, and reject any fast path that is wrong by more than rounding:

* transmission amplitude t: 1e-8 (|t| <= 1);
* phase rigidity |rho|: 1e-7; its angle when |rho| > 1e-6: 1e-7 / |rho|
  on exp(2 i theta);
* Wigner delay: 1e-6 (1 + |tau|) against the centred difference of the
  oracle's det S with the program's step 1e-5, or against the analytic
  -i tr(S^dag dS/dE), whichever is closer (only the analytic form exists
  within 1e-5 of the band edge);
* widths, sorted per coupling, independent of tracking labels: 1e-6, and
  likewise the largest and median width of a crossover row;
* mean transmission 1e-8, minimum rigidity 1e-7, peak counts exact;
* ep-find: a reported success needs the closest pair of the oracle's
  eigenvalues within 1e-6 ||H||_inf, the pair's eigenvectors parallel to
  0.99, and a reported chirality angle below 1e-2.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

T_TOL = 1e-8
RHO_TOL = 1e-7
TAU_TOL = 1e-6
WIDTH_TOL = 1e-6
EP_SEP = 1e-6
EP_PARALLEL = 0.99
EP_ANGLE = 1e-2
DELAY_STEP = 1e-5
PEAK_FLOOR = 0.5
PEAK_PROMINENCE = 1e-9

COLUMNS = {
    "transmit": ["e", "re_t", "im_t", "abs_t", "transmission"],
    "delay": ["e", "tau"],
    "rigidity": ["e", "rho_mod", "rho_theta", "rho_spec_re", "rho_spec_im",
                 "b_residual", "r_min"],
    "crossover": ["alpha", "avg_T", "min_rho", "gamma_max", "gamma_median",
                  "n_peaks"],
    "ep-find": ["step", "p1", "p2", "separation", "a_norm_max"],
}

_EP_LINE = re.compile(
    r"ep-find: success=(True|False) p=\(([^,]+), ([^)]+)\) .* angle=(\S+)")


class Cavity:
    """H_B, contacts and lead functions rebuilt from a config document."""

    def __init__(self, doc, base_dir="."):
        m = doc["model"]
        nx, ny = m["nx"], m["ny"]
        mask = m.get("mask")
        if isinstance(mask, str):
            with open(os.path.join(base_dir, mask), encoding="utf-8") as fh:
                mask = [[int(t) for t in ln.split()] for ln in fh if ln.strip()]
        onsite = m.get("onsite", 0.0)
        hop = m.get("hopping", 1.0)
        sites = [(ix, iy) for ix in range(nx) for iy in range(ny)
                 if mask is None or mask[ix][iy]]
        index = {s: i for i, s in enumerate(sites)}
        n = len(sites)
        h = np.zeros((n, n))
        for (ix, iy), i in index.items():
            h[i, i] = onsite if np.isscalar(onsite) else onsite[ix][iy]
            for nb in ((ix + 1, iy), (ix, iy + 1)):
                if nb in index:
                    h[i, index[nb]] = h[index[nb], i] = -hop
        self.h_b = h
        self.n = n
        self.contacts = [index[tuple(ld["contact"])] for ld in m["leads"]]
        self.w = np.array([ld["coupling_w"] for ld in m["leads"]], float)
        self.t = np.array([ld.get("lead_hopping", 1.0) for ld in m["leads"]],
                          float)
        self.alpha = m["alpha"]

    def _root(self, e):
        return np.sqrt(4.0 * self.t**2 - e * e)

    def sigma(self, e, alpha):
        """Lead self-energies (alpha w)^2 g(E) and their E-derivatives."""
        s = self._root(e)
        w2 = (alpha * self.w) ** 2
        g = (e - 1j * s) / (2.0 * self.t**2)
        dg = (1.0 + 1j * e / s) / (2.0 * self.t**2)
        return w2 * g, w2 * dg

    def amplitudes(self, e, alpha):
        """Contact amplitudes a(E) and their E-derivatives."""
        s = self._root(e)
        a = alpha * self.w * np.sqrt(s / (2.0 * math.pi * self.t**2))
        return a, a * (-e / (2.0 * s * s))

    def heff(self, e, alpha):
        h = self.h_b.astype(complex)
        sig, _ = self.sigma(e, alpha)
        for c, s in zip(self.contacts, sig):
            h[c, c] += s
        return h

    def green_columns(self, e, alpha):
        """Columns of (E - H_eff)^-1 at the two contact sites."""
        rhs = np.zeros((self.n, 2), complex)
        for col, c in enumerate(self.contacts):
            rhs[c, col] = 1.0
        return np.linalg.solve(e * np.eye(self.n) - self.heff(e, alpha), rhs)

    def s_matrix(self, e, alpha, x=None):
        x = self.green_columns(e, alpha) if x is None else x
        a, _ = self.amplitudes(e, alpha)
        g_cc = x[self.contacts, :]
        return np.eye(2) - 2j * math.pi * np.outer(a, a) * g_cc

    def transmission(self, e, alpha):
        return self.s_matrix(e, alpha)[1, 0]

    def delay_fd(self, e, alpha, step=DELAY_STEP):
        ratio = (np.linalg.det(self.s_matrix(e + step, alpha))
                 / np.linalg.det(self.s_matrix(e - step, alpha)))
        return float(np.angle(ratio)) / (2.0 * step)

    def delay_analytic(self, e, alpha):
        """Im tr(S^-1 dS/dE) = d arg det S / dE from dG/dE = -G(1 - dSigma)G."""
        x = self.green_columns(e, alpha)
        a, da = self.amplitudes(e, alpha)
        _, dsig = self.sigma(e, alpha)
        dvec = np.zeros(self.n, complex)
        for c, d in zip(self.contacts, dsig):
            dvec[c] += d
        g_cc = x[self.contacts, :]
        dg_cc = -(x.T @ x - (x * dvec[:, None]).T @ x)
        s = np.eye(2) - 2j * math.pi * np.outer(a, a) * g_cc
        ds = -2j * math.pi * (np.outer(da, a) * g_cc + np.outer(a, a) * dg_cc
                              + np.outer(a, da) * g_cc)
        return float(np.trace(np.linalg.solve(s, ds)).imag)

    def interior_state(self, e, alpha):
        """Interior wave fed from lead L, and t, from one dense solve."""
        x = self.green_columns(e, alpha)
        return x[:, 0], self.s_matrix(e, alpha, x)[1, 0]

    def widths(self, e, alpha):
        return np.sort(-2.0 * np.linalg.eigvals(self.heff(e, alpha)).imag)


def rigidity(psi):
    """(|rho|, sum psi^2) of an interior state."""
    s = complex(np.sum(psi * psi))
    return abs(s) / float(np.sum(np.abs(psi) ** 2)), s


def count_peaks(v):
    v = np.asarray(v, float)
    return sum(
        1 for i in range(1, len(v) - 1)
        if v[i] > v[i - 1] + PEAK_PROMINENCE and v[i] > v[i + 1] + PEAK_PROMINENCE
        and v[i] > PEAK_FLOOR
    )


def parse_csv(text):
    """(header, rows) of a study CSV; comment lines are skipped."""
    lines = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]],
                    float).reshape(len(lines) - 1, len(header))
    return header, rows


def nan_rows(rows):
    return int(np.isnan(rows).any(axis=1).sum()) if rows.size else 0


def _sample(n, k):
    return sorted({int(round(x)) for x in np.linspace(0, n - 1, min(k, n))})


def _grid(doc):
    g = doc["e_grid"]
    return np.linspace(g["min"], g["max"], g["points"])


def _alphas(doc):
    g = doc["alpha_grid"]
    if g.get("scale", "linear") == "log":
        return np.geomspace(g["min"], g["max"], g["points"])
    return np.linspace(g["min"], g["max"], g["points"])


def _close(a, b, tol):
    return abs(a - b) <= tol


def _check_axis(first_col, expected, what):
    if len(first_col) != len(expected):
        return f"{len(first_col)} rows for {len(expected)} {what} points"
    if not np.allclose(first_col, expected, rtol=1e-12, atol=1e-12):
        return f"{what} column differs from the config grid"
    return None


def _check_transmit(cav, doc, rows, samples):
    e_grid = _grid(doc)
    err = _check_axis(rows[:, 0], e_grid, "energy")
    if err:
        return err
    ok = ~np.isnan(rows).any(axis=1)
    r = rows[ok]
    t_abs = np.hypot(r[:, 1], r[:, 2])
    if not (np.allclose(r[:, 3], t_abs, rtol=1e-12, atol=0)
            and np.allclose(r[:, 4], r[:, 3] ** 2, rtol=1e-12, atol=0)):
        return "abs_t or transmission inconsistent with re_t, im_t"
    for i in _sample(len(e_grid), samples):
        if not ok[i]:
            continue
        t = cav.transmission(e_grid[i], cav.alpha)
        if not _close(complex(rows[i, 1], rows[i, 2]), t, T_TOL):
            return f"t at E={e_grid[i]:.6g} off by {abs(rows[i, 1] + 1j * rows[i, 2] - t):.2e}"
    return None


def _check_delay(cav, doc, rows, samples):
    e_grid = _grid(doc)
    err = _check_axis(rows[:, 0], e_grid, "energy")
    if err:
        return err
    for i in _sample(len(e_grid), samples):
        tau = rows[i, 1]
        if math.isnan(tau):
            continue
        e = e_grid[i]
        refs = [cav.delay_analytic(e, cav.alpha)]
        if abs(e) + DELAY_STEP < 2.0 * cav.t.min():
            refs.append(cav.delay_fd(e, cav.alpha))
        if not any(_close(tau, ref, TAU_TOL * (1.0 + abs(ref))) for ref in refs):
            return f"tau at E={e:.6g} is {tau!r}, oracle {refs}"
    return None


def _check_rho(rho, theta, psi_s, rho_ref, where):
    if not _close(rho, rho_ref, RHO_TOL):
        return f"|rho| {where} is {rho!r}, oracle {rho_ref!r}"
    if rho_ref > 1e-6:
        phase = np.exp(2j * theta) - np.conj(psi_s) / abs(psi_s)
        if abs(phase) > RHO_TOL / rho_ref:
            return f"rho angle {where} off by {abs(phase):.2e}"
    return None


def _check_rigidity(cav, doc, rows, samples):
    e_grid = _grid(doc)
    err = _check_axis(rows[:, 0], e_grid, "energy")
    if err:
        return err
    ok = ~np.isnan(rows).any(axis=1)
    r = rows[ok]
    if not (np.all((r[:, 6] > 0) & (r[:, 6] <= 1 + 1e-12))
            and np.all(r[:, 5] >= 0) and np.all(np.isfinite(r))):
        return "r_min outside (0, 1] or negative B residual"
    for i in _sample(len(e_grid), samples):
        if not ok[i]:
            continue
        psi, _ = cav.interior_state(e_grid[i], cav.alpha)
        rho_ref, s = rigidity(psi)
        err = _check_rho(rows[i, 1], rows[i, 2], s, rho_ref,
                         f"at E={e_grid[i]:.6g}")
        if err:
            return err
    return None


def _check_widths(got, ref, where):
    got = np.sort(got)
    if len(got) != len(ref) or np.max(np.abs(got - ref)) > WIDTH_TOL:
        return f"widths {where} differ from the oracle's eigvals"
    return None


def _check_spectrum(cav, doc, header, rows, samples):
    alphas = _alphas(doc)
    expected = ["alpha", *(f"gamma_{k}" for k in range(cav.n)), "n_peaks"]
    if header != expected:
        return "unexpected header"
    err = _check_axis(rows[:, 0], alphas, "coupling")
    if err:
        return err
    e_grid = _grid(doc)
    e_c = 0.5 * (doc["e_grid"]["min"] + doc["e_grid"]["max"])
    for k, i in enumerate(_sample(len(alphas), samples)):
        err = _check_widths(rows[i, 1:-1], cav.widths(e_c, alphas[i]),
                            f"at alpha={alphas[i]:.6g}")
        if err:
            return err
        if k < 2:
            abs_t = [abs(cav.transmission(e, alphas[i])) for e in e_grid]
            if rows[i, -1] != count_peaks(abs_t):
                return f"n_peaks at alpha={alphas[i]:.6g} is {rows[i, -1]:g}"
    return None


def _check_crossover(cav, doc, rows, samples):
    alphas = _alphas(doc)
    err = _check_axis(rows[:, 0], alphas, "coupling")
    if err:
        return err
    e_grid = _grid(doc)
    e_c = 0.5 * (doc["e_grid"]["min"] + doc["e_grid"]["max"])
    for i in _sample(len(alphas), samples):
        if np.isnan(rows[i]).any():
            continue
        a = alphas[i]
        abs_t, rho = [], []
        for e in e_grid:
            psi, t = cav.interior_state(e, a)
            abs_t.append(abs(t))
            rho.append(rigidity(psi)[0])
        abs_t = np.array(abs_t)
        w = cav.widths(e_c, a)
        where = f"at alpha={a:.6g}"
        if not _close(rows[i, 1], float(np.mean(abs_t**2)), T_TOL):
            return f"avg_T {where} is {rows[i, 1]!r}"
        if not _close(rows[i, 2], min(rho), RHO_TOL):
            return f"min_rho {where} is {rows[i, 2]!r}, oracle {min(rho)!r}"
        if not (_close(rows[i, 3], w.max(), WIDTH_TOL)
                and _close(rows[i, 4], float(np.median(w)), WIDTH_TOL)):
            return f"gamma_max or gamma_median {where} differ from eigvals"
        if rows[i, 5] != count_peaks(abs_t):
            return f"n_peaks {where} is {rows[i, 5]:g}"
    return None


def _check_ep(cav, doc, rows, stderr, exit_code):
    if rows.size and not np.array_equal(rows[:, 0], np.arange(len(rows))):
        return "search path steps are not 0, 1, 2, ..."
    match = _EP_LINE.search(stderr)
    if match is None:
        return "no ep-find summary on stderr"
    success = match.group(1) == "True"
    if not success:
        return "search reported no exceptional point"
    if exit_code != 0:
        return f"success reported with exit code {exit_code}"
    if float(match.group(4)) > EP_ANGLE:
        return f"success at chirality angle {match.group(4)}"
    p = np.array([float(match.group(2)), float(match.group(3))])
    # The summary prints 12 digits; take the exact point from the path.
    near = np.abs(rows[:, 1:3] - p).max(axis=1) if rows.size else np.array([])
    if not near.size or near.min() > 1e-9 * (1.0 + np.abs(p).max()):
        return "reported optimum is not on the search path"
    p1, p2 = rows[int(np.argmin(near)), 1:3]
    cav.w = np.abs([p1, p2])
    e_c = 0.5 * (doc["e_grid"]["min"] + doc["e_grid"]["max"])
    h = cav.heff(e_c, cav.alpha)
    z, v = np.linalg.eig(h)
    d = np.abs(z[:, None] - z[None, :]) + np.diag(np.full(len(z), np.inf))
    i, j = np.unravel_index(np.argmin(d), d.shape)
    if d[i, j] > EP_SEP * np.abs(h).sum(axis=1).max():
        return f"closest pair {d[i, j]:.2e} apart: no coalescence"
    overlap = abs(np.vdot(v[:, i], v[:, j])) / (
        np.linalg.norm(v[:, i]) * np.linalg.norm(v[:, j]))
    if overlap < EP_PARALLEL:
        return f"closest pair eigenvectors overlap {overlap:.3f}: not defective"
    return None


def check(inv, csv_text, stderr, exit_code):
    """Check one call's output; returns (failure or None, nan rows).

    A non-zero exit is a failure. So is any CSV the oracle disagrees with.
    """
    if exit_code != 0 and inv.study != "ep-find":
        return f"exit code {exit_code}", 0
    if csv_text is None:
        return f"no CSV written (exit {exit_code})", 0
    try:
        header, rows = parse_csv(csv_text)
    except (ValueError, IndexError) as err:
        return f"unreadable CSV: {err}", 0
    if inv.study in COLUMNS and header != COLUMNS[inv.study]:
        return f"unexpected header {header}", 0
    cav = Cavity(inv.doc, os.path.dirname(inv.config))
    if inv.study == "ep-find":
        err = _check_ep(cav, inv.doc, rows, stderr, exit_code)
    elif inv.study == "transmit":
        err = _check_transmit(cav, inv.doc, rows, 6)
    elif inv.study == "delay":
        err = _check_delay(cav, inv.doc, rows, 6)
    elif inv.study == "rigidity":
        err = _check_rigidity(cav, inv.doc, rows, 4)
    elif inv.study == "spectrum":
        err = _check_spectrum(cav, inv.doc, header, rows, 3)
    else:
        err = _check_crossover(cav, inv.doc, rows, 3)
    return err, nan_rows(rows)
