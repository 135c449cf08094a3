"""Seeded workload generator.

Every workload is a list of CLI invocations on config files written into a
work directory. The configs are made from the workload seed alone; the
program under test receives nothing but these files (and, for cli-small,
one ``--grid-override`` flag). Why each workload exists is recorded in
``README.md`` next to this file.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("direct-large", "spectral", "cli-small")

# BLAS threads of every call. With --threads 2 on direct-large this keeps
# each child within nproc = 2 threads of computation.
BLAS_THREADS = 1

# Notch mask of the README-sized 10x5 cavity: a 3x2 block removed from the
# bottom edge, 44 sites kept.
NOTCH_MASK = [
    [0 if (4 <= ix <= 6 and iy <= 1) else 1 for iy in range(5)]
    for ix in range(10)
]


@dataclass
class Invocation:
    """One CLI call of a workload pass.

    ``doc`` is the effective config (overrides already applied), from which
    the oracle rebuilds the model. ``points`` is the number of grid points
    the call attempts: the energy grid, times the coupling grid for the
    per-coupling studies, and 1 for an ep-find search. ``known_defect``
    names the documented seed defect the call reproduces, if any.
    """

    name: str
    study: str
    config: str
    doc: dict
    threads: int
    overrides: list = field(default_factory=list)
    known_defect: str | None = None

    @property
    def points(self):
        return grid_points(self.doc)

    @property
    def rows_points(self):
        """Grid points one CSV row stands for."""
        if self.study in ("spectrum", "crossover"):
            return self.doc["e_grid"]["points"]
        return 1

    def argv(self, out):
        args = [self.study, "--config", self.config, "--out", out,
                "--threads", str(self.threads)]
        for item in self.overrides:
            args += ["--grid-override", item]
        return args


def grid_points(doc):
    study = doc["study"]
    if study == "ep-find":
        return 1
    n = doc["e_grid"]["points"]
    if study in ("spectrum", "crossover"):
        n *= doc["alpha_grid"]["points"]
    return n


def apply_overrides(doc, overrides):
    """A copy of ``doc`` with ``path=value`` assignments applied.

    Values parse as JSON; keys are dotted paths into nested objects.
    """
    doc = json.loads(json.dumps(doc))
    for item in overrides:
        path, _, raw = item.partition("=")
        *parents, last = path.split(".")
        node = doc
        for key in parents:
            node = node.setdefault(key, {})
        node[last] = json.loads(raw)
    return doc


def _doc(study, nx, ny, leads, alpha, e_grid, mask=None, alpha_grid=None):
    model = {
        "nx": nx,
        "ny": ny,
        "alpha": alpha,
        "leads": [{"contact": list(c), "coupling_w": w} for c, w in leads],
    }
    if mask is not None:
        model["mask"] = mask
    doc = {
        "version": 1,
        "study": study,
        "model": model,
        "e_grid": {"min": e_grid[0], "max": e_grid[1], "points": e_grid[2]},
    }
    if alpha_grid is not None:
        doc["alpha_grid"] = {"min": alpha_grid[0], "max": alpha_grid[1],
                             "points": alpha_grid[2], "scale": "log"}
    return doc


def _connected(mask):
    sites = {(ix, iy) for ix, row in enumerate(mask)
             for iy, keep in enumerate(row) if keep}
    if not sites:
        return False
    start = next(iter(sites))
    seen = {start}
    stack = [start]
    while stack:
        ix, iy = stack.pop()
        for nb in ((ix + 1, iy), (ix - 1, iy), (ix, iy + 1), (ix, iy - 1)):
            if nb in sites and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(sites)


def _images(mask):
    """The mask under the seven non-trivial symmetries of a square grid."""
    m = [list(r) for r in mask]
    flip_x = m[::-1]
    flip_y = [r[::-1] for r in m]
    rot180 = [r[::-1] for r in m[::-1]]
    out = [flip_x, flip_y, rot180]
    if len(m) == len(m[0]):
        t = [list(c) for c in zip(*m)]
        out += [t, t[::-1], [r[::-1] for r in t], [r[::-1] for r in t[::-1]]]
    return out


def _edge_contacts(rng, mask):
    """A retained contact on the ix = 0 edge and one on the ix = nx-1 edge."""
    nx = len(mask)
    left = [iy for iy, keep in enumerate(mask[0]) if keep]
    right = [iy for iy, keep in enumerate(mask[nx - 1]) if keep]
    return (0, rng.choice(left)), (nx - 1, rng.choice(right))


def irregular_cavity(rng, n=18, kept=290):
    """An n x n rectangle minus a corner cut and an interior obstacle.

    The obstacle is a seeded blob grown site by site to make the retained
    count exactly ``kept``, so every seed costs the same O(N^3). Returns a
    connected 0/1 mask with no symmetry of the square, and contacts
    retained on opposite edges.
    """
    while True:
        mask = [[1] * n for _ in range(n)]
        cut = rng.randint(4, 5)
        cx, cy = rng.choice(((0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)))
        for ix in range(n):
            for iy in range(n):
                if abs(ix - cx) + abs(iy - cy) < cut:
                    mask[ix][iy] = 0
        blob = [(rng.randrange(3, n - 3), rng.randrange(3, n - 3))]
        while sum(map(sum, mask)) - len(blob) > kept:
            ix, iy = rng.choice(blob)
            nb = rng.choice(((ix + 1, iy), (ix - 1, iy), (ix, iy + 1),
                             (ix, iy - 1)))
            if 2 <= min(nb) and max(nb) < n - 2 and nb not in blob:
                blob.append(nb)
        for ix, iy in blob:
            mask[ix][iy] = 0
        if any(img == mask for img in _images(mask)) or not _connected(mask):
            continue
        return mask, _edge_contacts(rng, mask)


def small_cavity(rng, n=6):
    """An n x n cavity with 2 to 4 seeded sites removed, still connected."""
    while True:
        mask = [[1] * n for _ in range(n)]
        for _ in range(rng.randint(2, 4)):
            mask[rng.randrange(1, n - 1)][rng.randrange(n)] = 0
        if _connected(mask):
            return mask, _edge_contacts(rng, mask)


def _band_range(rng, half=1.9, jitter=0.05):
    return (round(-half + jitter * rng.random(), 6),
            round(half - jitter * rng.random(), 6))


def _direct_large(rng):
    mask, contacts = irregular_cavity(rng)
    leads = [(contacts[0], 1.0), (contacts[1], 1.0)]
    alpha = round(rng.uniform(0.6, 1.2), 6)
    lo, hi = _band_range(rng)
    threads = min(2, os.cpu_count() or 1)
    return [
        ("transmit", _doc("transmit", 18, 18, leads, alpha, (lo, hi, 200),
                          mask), threads),
        ("delay", _doc("delay", 18, 18, leads, alpha, (lo, hi, 80), mask),
         threads),
        ("crossover", _doc("crossover", 18, 18, leads, alpha, (lo, hi, 20),
                           mask, (0.1, 4.0, 10)), threads),
    ]


def _spectral(rng):
    contacts = ((0, rng.randrange(15)), (14, rng.randrange(15)))
    leads = [(contacts[0], 1.0), (contacts[1], 1.0)]
    alpha = round(rng.uniform(0.6, 1.2), 6)
    lo, hi = _band_range(rng)
    return [
        ("spectrum", _doc("spectrum", 15, 15, leads, alpha, (lo, hi, 20),
                          None, (0.1, 4.0, 6)), 1),
        ("rigidity", _doc("rigidity", 15, 15, leads, alpha, (lo, hi, 8)), 1),
    ]


def _cli_small(rng):
    mask, contacts = small_cavity(rng)
    leads6 = [(contacts[0], 1.0), (contacts[1], 1.0)]
    lo, hi = _band_range(rng)
    readme = _doc("transmit", 10, 5, [((0, 2), 1.0), ((9, 2), 1.0)], 0.6,
                  (-1.9, 1.9, 401), "cavity.mask")
    corner = [((0, 0), 1.2), ((3, 3), 1.6)]
    return [
        ("readme-transmit", readme, 1),
        ("dense-transmit", readme, 1, ["e_grid.points=4001"]),
        ("spectrum-6x6", _doc("spectrum", 6, 6, leads6, 1.0, (lo, hi, 41),
                              mask, (0.1, 4.0, 12)), 1),
        ("crossover-6x6", _doc("crossover", 6, 6, leads6, 1.0, (lo, hi, 21),
                               mask, (0.1, 4.0, 10)), 1),
        ("rigidity-6x6", _doc("rigidity", 6, 6, leads6, 1.0, (lo, hi, 41),
                              mask), 1),
        ("ep-2x2", _doc("ep-find", 2, 2, [((0, 0), 1.2), ((1, 0), 1.6)], 1.0,
                        (-1.0, 1.0, 3), [[1, 0], [1, 1]]), 1),
        ("ep-4x4", _doc("ep-find", 4, 4, corner, 1.0, (-1.0, 1.0, 3)), 1,
         [], "false EP: success=True at a symmetric degeneracy, angle 0.89"),
        ("ep-10x5", _doc("ep-find", 10, 5, [((0, 2), 1.0), ((9, 2), 1.0)],
                         0.6, (-1.9, 1.9, 401), NOTCH_MASK), 1,
         [], "search does not converge, exit 3"),
        ("delay-band-edge", _doc("delay", 4, 4, [((0, 0), 1.0), ((3, 3), 1.0)],
                                 1.0, (-1.999999, 1.999999, 41)), 1,
         [], "centred step leaves the band, OutsideBand, exit 3"),
    ]


_GENERATORS = {
    "direct-large": _direct_large,
    "spectral": _spectral,
    "cli-small": _cli_small,
}


def build(workload, seed, workdir):
    """Write the workload's configs into ``workdir`` and list its calls.

    The same (workload, seed) always writes the same files.
    """
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "cavity.mask"), "w", encoding="utf-8") as fh:
        for row in NOTCH_MASK:
            fh.write(" ".join(map(str, row)) + "\n")
    calls = []
    for entry in _GENERATORS[workload](rng):
        name, doc, threads = entry[:3]
        overrides = entry[3] if len(entry) > 3 else []
        defect = entry[4] if len(entry) > 4 else None
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        calls.append(Invocation(
            name=name, study=doc["study"], config=path,
            doc=apply_overrides(doc, overrides),
            threads=threads, overrides=list(overrides),
            known_defect=defect,
        ))
    return calls
