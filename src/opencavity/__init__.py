"""Transmission through open quantum cavities.

An open cavity is a tight-binding lattice block coupled to two
single-channel leads. Everything observable is derived from the
energy-dependent effective Hamiltonian H_eff(E) = H_B + sum of channel
self-energies: its biorthogonal spectrum carries the resonance energies,
widths and phase rigidities; the scattering matrix built from the same
surface Green's function is unitary by construction; transmission can be
evaluated independently from the resonance expansion and from the
contact-space resolvent, and the two agree to rounding wherever the
spectrum is not defective; so does the phase rigidity of the interior
state. Exceptional points, resonance trapping and the crossover to
plateau transmission are exposed through dedicated searches and
config-driven studies with deterministic CSV export.
"""

__version__ = "0.1.0"

from .exceptions import (
    ConvergenceFailure,
    DefectiveSpectrum,
    ExceptionalPointNotFound,
    InvalidGeometry,
    InvalidMatrix,
    OpenCavityError,
    OutsideBand,
    ParseError,
    PoleOnAxis,
    SingularMatrix,
    UndefinedValue,
    ValidationError,
    WriteError,
)
from .linalg import eig_general, minimize_simplex, solve_linear
from .model import (
    CavityModel,
    LatticeSpec,
    LeadSpec,
    build_hb,
    surface_green,
)
from .spectrum import (
    EPReport,
    PoleResult,
    SpectralSet,
    assemble_heff,
    biorthogonal_spectrum,
    find_exceptional_point,
    fixed_point_poles,
    heff_spectrum,
    track_sweep,
)
from .rigidity import (
    RigidityReport,
    b_antisymmetry_residual,
    build_report,
    rho_direct,
)
from .scattering import (
    ScatteringSolution,
    coefficients_c,
    contact_green,
    s_matrix,
    solve_scattering,
    transmission_direct,
    transmission_spectral,
    wigner_delay,
)
from .sweeps import (
    STUDIES,
    AlphaGrid,
    EnergyGrid,
    RunConfig,
    StudyResult,
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
)

from . import exceptions, linalg, model, rigidity, scattering, spectrum, sweeps

# Each module lists its public names once; the package exports them all.
__all__ = ["__version__", *exceptions.__all__, *linalg.__all__, *model.__all__,
           *spectrum.__all__, *rigidity.__all__, *scattering.__all__,
           *sweeps.__all__]
