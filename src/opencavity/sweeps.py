"""Config-driven parameter studies and CSV export.

A study is described by a JSON document (see ``parse_config``), runs over an
energy grid and optionally a coupling grid, and produces a ``StudyResult``:
a fixed column set plus float rows. ``export_csv`` writes the result with a
comment header (package version, canonical config echo, sentinel note) so a
result file is reproducible from its own header: the same config, package
version and numpy/BLAS build, at the same BLAS thread count, give
byte-identical files. Every study runs serially over its grid; each step is
array code or one LAPACK call.

Grid points that land on a real-axis pole or excite no resonance give NaN
in the columns they cannot fill rather than aborting the sweep; aggregate
columns use NaN-aware reductions.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import __version__
from .exceptions import (
    DefectiveSpectrum,
    ExceptionalPointNotFound,
    ParseError,
    PoleOnAxis,
    UndefinedValue,
    ValidationError,
    WriteError,
)
from .model import CavityModel, LatticeSpec, LeadSpec, surface_green
from .rigidity import rho_direct
from .scattering import (
    _s_matrices,
    contact_green,
    s_matrix,
    wigner_delay,
)
from .spectrum import (
    _track_steps,
    _with_self_energies,
    find_exceptional_point,
    heff_spectrum,
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

# Peak rule: a transmission maximum counts when |t| clears the floor and
# tops both neighbors by the prominence margin, so rounding ripple on a
# flat plateau does not register.
PEAK_FLOOR_ABS = 0.5
PEAK_PROMINENCE = 1e-9

_SENTINEL_NOTE = (
    "values %.17g; sentinels: inf = defective-state norm, "
    "nan = value undefined at that grid point"
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
        """The model at the config's own alpha; sweeps use ``with_alpha``.

        Built on the first call, which :func:`parse_config` makes to check
        the geometry, and the same model on every later call.
        """
        return self._model

    @cached_property
    def _model(self):
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
        except (OSError, UnicodeDecodeError) as err:
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
        Schema violation or a one-site ep-find cavity; carries the field path.
    InvalidGeometry
        Geometry that parses but cannot be built (masked contact,
        disconnected cavity).
    """
    return _build_config(_load_config(text), base_dir)


def _load_config(text):
    """Step 1 of :func:`parse_config`: the document's JSON object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, line=err.lineno, column=err.colno) from err
    except RecursionError as err:
        raise ParseError("nesting exceeds the recursion limit") from err
    if not isinstance(doc, dict):
        raise ValidationError("top level must be an object", field="")
    return doc


def _build_config(doc, base_dir):
    """Step 2 of :func:`parse_config`: the validated RunConfig."""
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
    n_sites = config.build_model().dimension
    if study == "ep-find" and n_sites < 2:
        raise ValidationError("ep-find needs at least two sites", field="model")
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


def count_peaks(values, floor):
    """Count interior local maxima exceeding the floor.

    A maximum must top both neighbors by ``PEAK_PROMINENCE``, so rounding
    ripple on a featureless plateau does not register. NaN entries never
    form or bound a peak.
    """
    v = np.asarray(values, dtype=float)
    mid = v[1:-1]
    top = (mid > v[:-2] + PEAK_PROMINENCE) & (mid > v[2:] + PEAK_PROMINENCE)
    return int(np.count_nonzero(top & (mid > floor)))


def _nan_reduce(reduce, values):
    """``reduce`` (a NaN-aware numpy reduction) as a float; NaN, without
    numpy's empty-slice warning, when every entry is NaN."""
    if np.isnan(values).all():
        return math.nan
    return float(reduce(values))


def _median(values):
    """``np.median`` of a 1-d float array, to the bit, without the
    ``numpy.ma`` import of its NaN check; numpy's mean sums from +0.0."""
    v, h = np.sort(values), len(values) // 2
    m = v[h] if v.size % 2 else (v[h - 1] + v[h]) / 2.0
    return math.nan if np.isnan(v[-1]) else float(m + 0.0)


def _result(config, columns, rows):
    """The StudyResult of ``config``'s study, with its canonical echo."""
    return StudyResult(study=config.study, columns=columns, rows=rows,
                       config_echo=serialize_config(config))


def run_transmit_study(config: RunConfig) -> StudyResult:
    """Transmission amplitude L -> R across the energy grid."""
    energies = config.e_grid.values()
    t = s_matrix(config.build_model(), energies)[:, 1, 0]
    return _result(config, ("e", "re_t", "im_t", "abs_t", "transmission"),
                   np.column_stack((energies, t.real, t.imag, np.abs(t),
                                    np.abs(t) ** 2)))


def run_trapping_study(config: RunConfig) -> StudyResult:
    """Resonance widths and peak count across the coupling grid.

    H_eff is assembled at the center of the energy grid; widths follow each
    tracked state, so the column ``gamma_<k>`` stays with one resonance
    across the whole sweep. ``n_peaks`` counts |t| maxima above the floor
    on the energy grid.

    The spectra stream through the matching of :func:`track_sweep` and
    only their widths and track ids are kept, so memory does not grow with
    the coupling grid. The sign step of :func:`track_sweep`, which changes
    only vectors, is not taken. The matching reads the closed-form overlaps
    of :meth:`~opencavity.spectrum.SpectralSet.overlaps` and forms no phi;
    a coupling whose secular check fails falls back to ``zgeev``, whose phi
    does not outlive its coupling. The widths are the spectrum's
    :attr:`~opencavity.spectrum.SpectralSet.widths`, +0.0 for a real (dark)
    state.
    """
    alphas = config.alpha_grid.values()
    energies = config.e_grid.values()
    base = config.build_model()
    e = config.e_grid.center
    n = base.dimension
    rows = np.empty((len(alphas), n + 2))
    rows[:, 0] = alphas
    steps = _track_steps(heff_spectrum(base.with_alpha(a), e) for a in alphas)
    for row in rows:
        sp, _ = next(steps)
        row[1 + sp.track_id] = sp.widths
        # Released before the next spectrum is computed.
        del sp
    rows[:, n + 1] = [
        count_peaks(np.abs(s_matrix(base.with_alpha(a), energies)[:, 1, 0]),
                    PEAK_FLOOR_ABS)
        for a in alphas
    ]
    return _result(config,
                   ("alpha", *(f"gamma_{k}" for k in range(n)), "n_peaks"),
                   rows)


def run_rigidity_study(config: RunConfig) -> StudyResult:
    """Phase rigidity of the interior state fed from lead L, by two routes.

    ``rho_mod`` and ``rho_theta`` come from one contact-space resolvent
    over the grid, as in the crossover study; the other columns from the
    spectrum per energy: its
    :meth:`~opencavity.spectrum.SpectralSet.expansion_rigidity`, which
    forms no phi on the secular route, and ``r_min``, the least of its
    ``rigidity_r``. Where the expansion does not exist, only those four
    are NaN.
    """
    model = config.build_model()
    energies = config.e_grid.values()
    _, x = contact_green(model, energies)
    rows = np.full((len(energies), 7), math.nan)
    rows[:, 0] = energies
    rows[:, 1], rows[:, 2] = rho_direct(x)
    for row, e in zip(rows, energies):
        try:
            sp = heff_spectrum(model, e)
            rho, residual = sp.expansion_rigidity(model)
        except (PoleOnAxis, DefectiveSpectrum, UndefinedValue):
            continue
        row[3:] = rho.real, rho.imag, residual, sp.rigidity_r.min()
    return _result(config, ("e", "rho_mod", "rho_theta", "rho_spec_re",
                            "rho_spec_im", "b_residual", "r_min"), rows)


def run_delay_study(config: RunConfig) -> StudyResult:
    """Wigner-Smith delay across the energy grid, in closed form.

    A point at a singular E - H_eff gives a NaN row.
    """
    energies = config.e_grid.values()
    tau = wigner_delay(config.build_model(), energies)
    return _result(config, ("e", "tau"), np.column_stack((energies, tau)))


def _coupling_family(config: RunConfig):
    """H_eff at the grid center as a function of the two lead couplings.

    H_B and the leads' g(E) are computed once; each call adds the
    self-energies (alpha |p_C|)^2 g_C(E) to a copy of H_B through
    :func:`~opencavity.spectrum.assemble_heff`'s own step, as on a model
    with coupling values |p|.
    """
    base = config.build_model()
    g = surface_green(config.e_grid.center, base.lead_hopping).tolist()

    def family(p):
        return _with_self_energies(
            base.h_b, base.contact_indices,
            [(base.alpha * abs(float(w))) ** 2 * g_c for w, g_c in zip(p, g)])

    return family


def run_ep_study(config: RunConfig):
    """Search for an exceptional point in the two lead couplings.

    The two coupling_w values vary (by magnitude) at fixed alpha; H_eff is
    assembled at the center of the energy grid. Returns the search path
    (the start and every accepted Newton step) as the study rows, together
    with the full report.

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
    return _result(config, ("step", "p1", "p2", "separation", "a_norm_max"),
                   rows), report


def run_crossover_study(config: RunConfig) -> StudyResult:
    """Transport and rigidity aggregates across the coupling grid.

    Per coupling strength: mean transmission and minimum phase rigidity over
    the energy grid, the largest and median resonance width at the grid
    center, and the count of |t| peaks above the floor. The rigidity is
    evaluated on the direct interior solution, which exists even where the
    resonance expansion is defective. One contact-space resolvent per
    coupling gives both |t| and the interior state; the widths are those of
    :func:`~opencavity.spectrum.heff_spectrum`, the spectrum study's, +0.0
    for a dark state, and with them its fallback to ``zgeev`` when a
    secular check fails. An aggregate over an energy grid on which every
    point failed is NaN.
    """
    energies = config.e_grid.values()
    e_c = config.e_grid.center
    base = config.build_model()

    def one(a):
        model = base.with_alpha(a)
        g, x = contact_green(model, energies)
        abs_t = np.abs(_s_matrices(model, energies, False, g)[:, 1, 0])
        widths = heff_spectrum(model, e_c).widths
        return (
            a, _nan_reduce(np.nanmean, abs_t**2),
            _nan_reduce(np.nanmin, rho_direct(x)[0]),
            float(widths.max()), _median(widths),
            count_peaks(abs_t, PEAK_FLOOR_ABS),
        )

    rows = [one(a) for a in config.alpha_grid.values()]
    return _result(config, ("alpha", "avg_T", "min_rho", "gamma_max",
                            "gamma_median", "n_peaks"),
                   np.array(rows, dtype=float))


_RUNNERS = {
    "transmit": run_transmit_study,
    "spectrum": run_trapping_study,
    "rigidity": run_rigidity_study,
    "ep-find": run_ep_study,
    "delay": run_delay_study,
    "crossover": run_crossover_study,
}

STUDIES = tuple(_RUNNERS)


def run_study(config: RunConfig):
    """Dispatch a config to its study runner, one table for all six.

    Returns a StudyResult with the wall time filled in; for the ep-find
    study, a (StudyResult, EPReport) pair.
    """
    t0 = time.perf_counter()
    result = _RUNNERS[config.study](config)
    if config.study == "ep-find":
        result, report = result
        return replace(result, wall_time=time.perf_counter() - t0), report
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
    rows = result.rows.tolist()
    if rows:
        fmt = ",".join(["%.17g"] * len(rows[0]))
        lines.extend([fmt % tuple(row) for row in rows])
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
