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

from .exceptions import *
from .linalg import *
from .model import *
from .spectrum import *
from .rigidity import *
from .scattering import *
from .sweeps import *

from . import exceptions, linalg, model, rigidity, scattering, spectrum, sweeps

# Each module lists its public names once; the package exports them all.
__all__ = ["__version__", *exceptions.__all__, *linalg.__all__, *model.__all__,
           *spectrum.__all__, *rigidity.__all__, *scattering.__all__,
           *sweeps.__all__]
