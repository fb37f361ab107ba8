"""Band structure of the 1D Dirac equation with a periodized one-soliton
scalar potential: closed-form solutions, discriminant, band edges and
dispersion, cross-checked by an independent monodromy integrator.
"""

__version__ = "0.1.0"

from .bands import (
    Band,
    BandTable,
    band_edges,
    dispersion,
    lyapunov,
    lyapunov_many,
    lyapunov_trace,
)
from .darboux import intertwining_check, map_solution, transformed_potential
from .errors import (
    DiracBandError,
    NotAllowedBand,
    StepCountTooSmall,
)
from .monodromy import lyapunov_numeric_many
from .soliton import (
    ModelParams,
    basis_spinors,
    bound_states,
    periodized_potential,
    potential_s1,
    soliton_potential,
    w_functions,
)
from .verify import hamiltonian_residual

__all__ = [
    "__version__",
    "Band",
    "BandTable",
    "DiracBandError",
    "ModelParams",
    "NotAllowedBand",
    "StepCountTooSmall",
    "band_edges",
    "basis_spinors",
    "bound_states",
    "dispersion",
    "hamiltonian_residual",
    "intertwining_check",
    "lyapunov",
    "lyapunov_many",
    "lyapunov_numeric_many",
    "lyapunov_trace",
    "map_solution",
    "periodized_potential",
    "potential_s1",
    "soliton_potential",
    "transformed_potential",
    "w_functions",
]
