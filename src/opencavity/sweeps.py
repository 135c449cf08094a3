"""Config-driven parameter studies and CSV export.

A study is described by a JSON document (see ``parse_config``), runs over an
energy grid and optionally a coupling grid, and produces a ``StudyResult``:
a fixed column set plus float rows. ``export_csv`` writes the result with a
comment header (package version, canonical config echo, sentinel note) so a
result file is reproducible from its own header: the same config, package
version and numpy/BLAS build, at the same BLAS thread count, give
byte-identical files. Every study runs serially over its grid; each step is
array code or one LAPACK call.

Grid points that land on a real-axis pole or excite no resonance produce NaN
rows rather than aborting the sweep; aggregate columns use NaN-aware
reductions.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .exceptions import (
    DefectiveSpectrum,
    ExceptionalPointNotFound,
    ParseError,
    PoleOnAxis,
    SingularMatrix,
    UndefinedValue,
    ValidationError,
    WriteError,
)
from .model import CavityModel, LatticeSpec, LeadSpec, surface_green
from .scattering import (
    _s_matrices,
    contact_green,
    s_matrix,
    solve_scattering,
    wigner_delay,
)
from .spectrum import (
    find_exceptional_point,
    heff_eigenvalues,
    track_sweep,
)

__all__ = [
    "STUDIES",
    "EnergyGrid",
    "AlphaGrid",
    "RunConfig",
    "StudyResult",
    "parse_config",
    "serialize_config",
    "run_transmit_study",
    "run_trapping_study",
    "run_rigidity_study",
    "run_delay_study",
    "run_ep_study",
    "run_crossover_study",
    "run_study",
    "export_csv",
    "format_csv",
    "count_peaks",
]

STUDIES = ("transmit", "spectrum", "rigidity", "ep-find", "delay", "crossover")

# Peak rule: a transmission maximum counts when |t| clears the floor and
# tops both neighbors by the prominence margin, so rounding ripple on a
# flat plateau does not register.
PEAK_FLOOR_ABS = 0.5
PEAK_PROMINENCE = 1e-9

_SENTINEL_NOTE = (
    "values %.17g; sentinels: inf = defective-state norm, "
    "nan = failed grid point"
)


def _settle_grid(grid, field):
    """Check for finite min below max and a positive integer number of
    points, then store min and max as floats and points as an int."""
    if not (math.isfinite(grid.min) and math.isfinite(grid.max)):
        raise ValidationError("min and max must be finite", field=field)
    if not (grid.min < grid.max):
        raise ValidationError("min must be below max", field=field)
    p = grid.points
    if not (math.isfinite(p) and int(p) == p and p >= 1):
        raise ValidationError(
            "points must be a positive integer", field=f"{field}.points"
        )
    object.__setattr__(grid, "min", float(grid.min))
    object.__setattr__(grid, "max", float(grid.max))
    object.__setattr__(grid, "points", int(p))


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform real-energy grid."""

    min: float
    max: float
    points: int

    def __post_init__(self):
        _settle_grid(self, "e_grid")

    def values(self):
        return np.linspace(self.min, self.max, self.points)

    @property
    def center(self):
        return 0.5 * (self.min + self.max)


@dataclass(frozen=True)
class AlphaGrid:
    """Coupling-strength grid, linear or logarithmic."""

    min: float
    max: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        if self.scale not in ("linear", "log"):
            raise ValidationError(
                "scale must be 'linear' or 'log'", field="alpha_grid.scale"
            )
        _settle_grid(self, "alpha_grid")
        if self.scale == "log" and not (self.min > 0):
            raise ValidationError(
                "log scale needs min > 0", field="alpha_grid.min"
            )

    def values(self):
        if self.scale == "log":
            return np.geomspace(self.min, self.max, self.points)
        return np.linspace(self.min, self.max, self.points)


@dataclass(frozen=True)
class RunConfig:
    """Validated study description."""

    study: str
    lattice: LatticeSpec
    leads: tuple
    alpha: float
    e_grid: EnergyGrid
    alpha_grid: AlphaGrid | None = None
    out: str | None = None

    def build_model(self):
        """The model at the config's own alpha; sweeps use ``with_alpha``."""
        return CavityModel(self.lattice, self.leads, self.alpha)


@dataclass(frozen=True)
class StudyResult:
    """Columns, float rows and the canonical config echo of one study run.

    ``wall_time`` is informational only; it never enters the exported CSV,
    which stays byte-reproducible.
    """

    study: str
    columns: tuple
    rows: np.ndarray
    config_echo: str
    wall_time: float = 0.0


def _expect_keys(section, allowed, where):
    for key in section:
        if key not in allowed:
            raise ValidationError(
                f"unknown key {key!r}", field=f"{where}.{key}" if where else key
            )


def _finite(value, field):
    """A JSON number that is not a bool, as a finite float.

    json.loads gives inf for 1e999.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError("expected a number", field=field)
    try:
        v = float(value)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ValidationError("must be a finite number", field=field)
    return v


def _number(section, key, where, required=True, default=None, minimum=None,
            strict_min=False):
    if key not in section:
        if required:
            raise ValidationError("missing required key", field=f"{where}.{key}")
        return default
    v = _finite(section[key], f"{where}.{key}")
    if minimum is not None:
        if strict_min and not (v > minimum):
            raise ValidationError(
                f"must be greater than {minimum}", field=f"{where}.{key}"
            )
        if not strict_min and not (v >= minimum):
            raise ValidationError(
                f"must be at least {minimum}", field=f"{where}.{key}"
            )
    return v


def _integer(section, key, where, minimum=1):
    if key not in section:
        raise ValidationError("missing required key", field=f"{where}.{key}")
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError("expected an integer", field=f"{where}.{key}")
    if v < minimum:
        raise ValidationError(f"must be at least {minimum}", field=f"{where}.{key}")
    return v


def _parse_mask(value, nx, ny, base_dir):
    if isinstance(value, str):
        path = value if os.path.isabs(value) else os.path.join(base_dir, value)
        try:
            with open(path, encoding="utf-8") as fh:
                raw = [ln.split() for ln in fh if ln.strip()]
        except OSError as err:
            raise ValidationError(
                f"cannot read mask file: {err}", field="model.mask"
            ) from err
        if len(raw) != nx or any(len(r) != ny for r in raw):
            raise ValidationError(
                f"mask file must hold {nx} lines of {ny} entries",
                field="model.mask",
            )
        if any(tok not in ("0", "1") for row in raw for tok in row):
            raise ValidationError(
                "mask file entries must be 0 or 1", field="model.mask"
            )
        return tuple(tuple(tok == "1" for tok in row) for row in raw)
    if isinstance(value, list):
        rows = _grid(value, nx, ny, "model.mask")
        if any(x not in (0.0, 1.0) for row in rows for x in row):
            raise ValidationError("mask entries must be 0 or 1", field="model.mask")
        return tuple(tuple(x == 1.0 for x in row) for row in rows)
    raise ValidationError(
        "mask must be a file path or a nested 0/1 list", field="model.mask"
    )


def _grid(value, nx, ny, field):
    """A nested nx-by-ny list of JSON numbers, as a tuple grid of floats."""
    if len(value) != nx or any(
        not isinstance(row, list) or len(row) != ny for row in value
    ):
        raise ValidationError(
            f"grid must nest {nx} rows of {ny} numbers", field=field
        )
    return tuple(tuple(_finite(x, field) for x in row) for row in value)


def _parse_onsite(value, nx, ny):
    if isinstance(value, list):
        return _grid(value, nx, ny, "model.onsite")
    return _finite(value, "model.onsite")


def parse_config(text, base_dir="."):
    """Parse and validate a JSON study configuration.

    Parameters
    ----------
    text : str
        JSON document.
    base_dir : str
        Directory against which relative mask file paths resolve.

    Returns
    -------
    RunConfig

    Raises
    ------
    ParseError
        Malformed JSON; carries line and column.
    ValidationError
        Schema violation; carries the dotted field path.
    InvalidGeometry
        Geometry that parses but cannot be built (masked contact,
        disconnected cavity).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, line=err.lineno, column=err.colno) from err
    if not isinstance(doc, dict):
        raise ValidationError("top level must be an object", field="")
    _expect_keys(doc, {"version", "study", "model", "e_grid", "alpha_grid", "out"}, "")

    version = doc.get("version")
    if version != 1:
        raise ValidationError("unsupported config version", field="version")
    study = doc.get("study")
    if study not in STUDIES:
        raise ValidationError(
            f"study must be one of {', '.join(STUDIES)}", field="study"
        )

    if "model" not in doc or not isinstance(doc["model"], dict):
        raise ValidationError("missing model section", field="model")
    msec = doc["model"]
    _expect_keys(
        msec, {"nx", "ny", "onsite", "mask", "hopping", "alpha", "leads"}, "model"
    )
    nx = _integer(msec, "nx", "model")
    ny = _integer(msec, "ny", "model")
    onsite = _parse_onsite(msec.get("onsite", 0.0), nx, ny)
    hopping = _number(msec, "hopping", "model", required=False, default=1.0,
                      minimum=0.0, strict_min=True)
    alpha = _number(msec, "alpha", "model", minimum=0.0)
    mask = None
    if msec.get("mask") is not None:
        mask = _parse_mask(msec["mask"], nx, ny, base_dir)

    leads_raw = msec.get("leads")
    if not isinstance(leads_raw, list) or len(leads_raw) != 2:
        raise ValidationError(
            "exactly two leads (L then R) are required", field="model.leads"
        )
    leads = []
    for i, entry in enumerate(leads_raw):
        where = f"model.leads[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError("lead must be an object", field=where)
        _expect_keys(entry, {"contact", "coupling_w", "lead_hopping"}, where)
        contact = entry.get("contact")
        if (
            not isinstance(contact, list)
            or len(contact) != 2
            or any(isinstance(x, bool) or not isinstance(x, int) for x in contact)
        ):
            raise ValidationError(
                "contact must be a pair of integers", field=f"{where}.contact"
            )
        coupling = _number(entry, "coupling_w", where, minimum=0.0)
        lead_hop = _number(entry, "lead_hopping", where, required=False,
                           default=1.0, minimum=0.0, strict_min=True)
        leads.append(
            LeadSpec(contact=(contact[0], contact[1]), coupling_w=coupling,
                     lead_hopping=lead_hop)
        )

    if "e_grid" not in doc or not isinstance(doc["e_grid"], dict):
        raise ValidationError("missing e_grid section", field="e_grid")
    gsec = doc["e_grid"]
    _expect_keys(gsec, {"min", "max", "points"}, "e_grid")
    e_grid = EnergyGrid(
        min=_number(gsec, "min", "e_grid"),
        max=_number(gsec, "max", "e_grid"),
        points=_integer(gsec, "points", "e_grid"),
    )
    band = 2.0 * min(ld.lead_hopping for ld in leads)
    if max(abs(e_grid.min), abs(e_grid.max)) >= band:
        raise ValidationError(
            f"energy grid must stay strictly inside the band (|E| < {band})",
            field="e_grid",
        )

    alpha_grid = None
    if doc.get("alpha_grid") is not None:
        asec = doc["alpha_grid"]
        if not isinstance(asec, dict):
            raise ValidationError("alpha_grid must be an object", field="alpha_grid")
        _expect_keys(asec, {"min", "max", "points", "scale"}, "alpha_grid")
        scale = asec.get("scale", "linear")
        if not isinstance(scale, str):
            raise ValidationError("scale must be a string", field="alpha_grid.scale")
        alpha_grid = AlphaGrid(
            min=_number(asec, "min", "alpha_grid", minimum=0.0),
            max=_number(asec, "max", "alpha_grid"),
            points=_integer(asec, "points", "alpha_grid"),
            scale=scale,
        )
    elif study in ("spectrum", "crossover"):
        raise ValidationError(
            f"study {study!r} requires alpha_grid", field="alpha_grid"
        )
    if study == "crossover" and alpha_grid.points < 10:
        raise ValidationError(
            "crossover needs at least 10 coupling points",
            field="alpha_grid.points",
        )

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ValidationError("out must be a string path", field="out")

    config = RunConfig(
        study=study,
        lattice=LatticeSpec(nx=nx, ny=ny, onsite=onsite, mask=mask, hopping=hopping),
        leads=tuple(leads),
        alpha=alpha,
        e_grid=e_grid,
        alpha_grid=alpha_grid,
        out=out,
    )
    config.build_model()
    return config


def serialize_config(config: RunConfig) -> str:
    """Canonical JSON echo of a config: sorted keys, compact, mask inlined.

    ``parse_config(serialize_config(c))`` reproduces ``c`` exactly.
    """
    lat = config.lattice
    model = {
        "nx": lat.nx,
        "ny": lat.ny,
        "onsite": [list(row) for row in lat.onsite],
        "hopping": lat.hopping,
        "alpha": config.alpha,
        "leads": [
            {
                "contact": list(ld.contact),
                "coupling_w": ld.coupling_w,
                "lead_hopping": ld.lead_hopping,
            }
            for ld in config.leads
        ],
    }
    if lat.mask is not None:
        model["mask"] = [[1 if x else 0 for x in row] for row in lat.mask]
    doc = {
        "version": 1,
        "study": config.study,
        "model": model,
        "e_grid": {
            "min": config.e_grid.min,
            "max": config.e_grid.max,
            "points": config.e_grid.points,
        },
    }
    if config.alpha_grid is not None:
        doc["alpha_grid"] = {
            "min": config.alpha_grid.min,
            "max": config.alpha_grid.max,
            "points": config.alpha_grid.points,
            "scale": config.alpha_grid.scale,
        }
    if config.out is not None:
        doc["out"] = config.out
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def count_peaks(values, floor, prominence=PEAK_PROMINENCE):
    """Count interior local maxima exceeding the floor.

    A maximum must top both neighbors by ``prominence``, so rounding ripple
    on a featureless plateau does not register. NaN entries never form or
    bound a peak.
    """
    v = np.asarray(values, dtype=float)
    mid = v[1:-1]
    return int(np.count_nonzero(
        (mid > v[:-2] + prominence) & (mid > v[2:] + prominence) & (mid > floor)
    ))


def _nan_reduce(reduce, values):
    """``reduce`` (a NaN-aware numpy reduction) as a float; NaN, without
    numpy's empty-slice warning, when every entry is NaN."""
    if np.isnan(values).all():
        return math.nan
    return float(reduce(values))


def run_transmit_study(config: RunConfig) -> StudyResult:
    """Transmission amplitude L -> R across the energy grid."""
    energies = config.e_grid.values()
    t = s_matrix(config.build_model(), energies)[:, 1, 0]
    return StudyResult(
        study=config.study,
        columns=("e", "re_t", "im_t", "abs_t", "transmission"),
        rows=np.column_stack((energies, t.real, t.imag, np.abs(t),
                              np.abs(t) ** 2)),
        config_echo=serialize_config(config),
    )


def run_trapping_study(config: RunConfig) -> StudyResult:
    """Resonance widths and peak count across the coupling grid.

    H_eff is assembled at the center of the energy grid; widths follow each
    tracked state, so the column ``gamma_<k>`` stays with one resonance
    across the whole sweep. ``n_peaks`` counts |t| maxima above the floor
    on the energy grid.
    """
    alphas = config.alpha_grid.values()
    energies = config.e_grid.values()
    base = config.build_model()
    tracked = track_sweep(base.with_alpha, alphas, config.e_grid.center)
    n = len(tracked[0])
    rows = np.empty((len(alphas), n + 2))
    rows[:, 0] = alphas
    track_ids = np.array([sp.track_id for sp in tracked])
    widths = np.array([-2.0 * sp.values.imag for sp in tracked])
    np.put_along_axis(rows, 1 + track_ids, widths, axis=1)
    rows[:, n + 1] = [
        count_peaks(np.abs(s_matrix(base.with_alpha(a), energies)[:, 1, 0]),
                    PEAK_FLOOR_ABS)
        for a in alphas
    ]
    return StudyResult(
        study=config.study,
        columns=("alpha", *(f"gamma_{k}" for k in range(n)), "n_peaks"),
        rows=rows,
        config_echo=serialize_config(config),
    )


def run_rigidity_study(config: RunConfig) -> StudyResult:
    """Phase rigidity of the interior state fed from lead L."""
    model = config.build_model()

    def one(e):
        try:
            rig = solve_scattering(model, e, incoming=0).rigidity
        except (PoleOnAxis, DefectiveSpectrum, UndefinedValue, SingularMatrix):
            return (e,) + (math.nan,) * 6
        return (
            e,
            rig.rho_direct_mod,
            rig.rho_direct_theta,
            rig.rho_spectral.real,
            rig.rho_spectral.imag,
            rig.b_antisymmetry_residual,
            min(r for _, r in rig.per_state_r),
        )

    rows = [one(e) for e in config.e_grid.values()]
    return StudyResult(
        study=config.study,
        columns=(
            "e", "rho_mod", "rho_theta", "rho_spec_re", "rho_spec_im",
            "b_residual", "r_min",
        ),
        rows=np.array(rows, dtype=float),
        config_echo=serialize_config(config),
    )


def run_delay_study(config: RunConfig) -> StudyResult:
    """Wigner-Smith delay across the energy grid, in closed form.

    A point at a singular E - H_eff gives a NaN row.
    """
    energies = config.e_grid.values()
    tau = wigner_delay(config.build_model(), energies)
    return StudyResult(
        study=config.study,
        columns=("e", "tau"),
        rows=np.column_stack((energies, tau)),
        config_echo=serialize_config(config),
    )


def _coupling_family(config: RunConfig):
    """H_eff at the grid center as a function of the two lead couplings.

    H_B is built once; each call adds the two contact self-energies
    (alpha |p_C|)^2 g_C(E) to a copy, in the order and with the rounding
    of :func:`~opencavity.spectrum.assemble_heff` on a model with coupling
    values |p|.
    """
    base = config.build_model()
    h_b = base.h_b.astype(complex)
    e_c = config.e_grid.center
    contacts = [
        (ch.index, surface_green(e_c, ch.lead_hopping))
        for ch in base.channels
    ]

    def family(p):
        h = h_b.copy()
        for (index, g), w in zip(contacts, p):
            h[index, index] += (base.alpha * abs(float(w))) ** 2 * g
        return h

    return family


def run_ep_study(config: RunConfig):
    """Search for an exceptional point in the two lead couplings.

    The two coupling_w values vary (by magnitude) at fixed alpha; H_eff is
    assembled at the center of the energy grid. Returns the per-evaluation
    search path as the study rows together with the full report.

    Returns
    -------
    (StudyResult, EPReport)
        The result rows are (step, p1, p2, separation, a_norm_max); the
        report carries the optimum whether or not the search succeeded.
    """
    family = _coupling_family(config)
    start = tuple(lead.coupling_w for lead in config.leads)
    try:
        report = find_exceptional_point(family, start)[3]
    except ExceptionalPointNotFound as err:
        report = err.report

    rows = np.array(
        [
            (k, p1, p2, sep, a_max)
            for k, (p1, p2, sep, a_max) in enumerate(report.path)
        ],
        dtype=float,
    )
    result = StudyResult(
        study=config.study,
        columns=("step", "p1", "p2", "separation", "a_norm_max"),
        rows=rows,
        config_echo=serialize_config(config),
    )
    return result, report


def run_crossover_study(config: RunConfig) -> StudyResult:
    """Transport and rigidity aggregates across the coupling grid.

    Per coupling strength: mean transmission and minimum phase rigidity over
    the energy grid, the largest and median resonance width at the grid
    center, and the count of |t| peaks above the floor. The rigidity is
    evaluated on the direct interior solution, which exists even where the
    resonance expansion is defective. One contact-space resolvent per
    coupling gives both |t| and the interior state; the widths come from
    :func:`~opencavity.spectrum.heff_eigenvalues`. An aggregate over an
    energy grid on which every point failed is NaN.
    """
    energies = config.e_grid.values()
    e_c = config.e_grid.center
    base = config.build_model()

    def one(a):
        model = base.with_alpha(a)
        g, x = contact_green(model, energies)
        abs_t = np.abs(_s_matrices(model, energies, False, g)[:, 1, 0])
        # x holds the interior state in the real orthogonal eigenbasis of
        # H_B, which leaves both sums of the rigidity |psi^T psi| / psi^dag
        # psi unchanged.
        rho = np.abs(np.sum(x * x, axis=1)) / np.sum(np.abs(x) ** 2, axis=1)
        widths = -2.0 * heff_eigenvalues(model, e_c).imag
        return (
            a, _nan_reduce(np.nanmean, abs_t**2), _nan_reduce(np.nanmin, rho),
            float(widths.max()), float(np.median(widths)),
            count_peaks(abs_t, PEAK_FLOOR_ABS),
        )

    rows = [one(a) for a in config.alpha_grid.values()]
    return StudyResult(
        study=config.study,
        columns=("alpha", "avg_T", "min_rho", "gamma_max", "gamma_median",
                 "n_peaks"),
        rows=np.array(rows, dtype=float),
        config_echo=serialize_config(config),
    )


_RUNNERS = {
    "transmit": run_transmit_study,
    "spectrum": run_trapping_study,
    "rigidity": run_rigidity_study,
    "delay": run_delay_study,
    "crossover": run_crossover_study,
}


def run_study(config: RunConfig):
    """Dispatch a config to its study runner.

    Returns a StudyResult with the wall time filled in; for the ep-find
    study, a (StudyResult, EPReport) pair.
    """
    t0 = time.perf_counter()
    if config.study == "ep-find":
        result, report = run_ep_study(config)
        return replace(result, wall_time=time.perf_counter() - t0), report
    result = _RUNNERS[config.study](config)
    return replace(result, wall_time=time.perf_counter() - t0)


def format_csv(result: StudyResult) -> str:
    """Render a study result as CSV text.

    Three leading comment lines (package version, canonical config echo,
    sentinel note), a header row, then '%.17g'-formatted values; newline
    line endings. Equal results format to identical bytes, and the wall
    time leaves no trace; the results themselves repeat for the same config,
    package version, numpy/BLAS build and BLAS thread count.
    """
    lines = [
        f"# opencavity {__version__}",
        f"# config {result.config_echo}",
        f"# {_SENTINEL_NOTE}",
        ",".join(result.columns),
    ]
    for row in result.rows:
        lines.append(",".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


def export_csv(result: StudyResult, path) -> None:
    """Write a study result to a CSV file.

    Raises
    ------
    WriteError
        The file cannot be created or written.
    """
    text = format_csv(result)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as err:
        raise WriteError(f"cannot write {path}: {err}") from err
