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
from .darboux import TransformSeed, intertwining_check, map_solution, soliton_seed, transformed_potential
from .errors import (
    DegenerateEnergy,
    DiracBandError,
    NotAllowedBand,
    SingularTransform,
    StepCountTooSmall,
)
from .monodromy import lyapunov_numeric_many
from .soliton import (
    Kinematics,
    ModelParams,
    basis_fields,
    basis_spinors,
    bound_state_fields,
    bound_states,
    periodized_potential,
    potential_s1,
    soliton_potential,
    w_functions,
)
from .spinor import (
    ScalarPotential,
    Spinor,
    SpinorField,
    hamiltonian_residual,
    wronskian,
)

__all__ = [
    "__version__",
    "Band",
    "BandTable",
    "DegenerateEnergy",
    "DiracBandError",
    "Kinematics",
    "ModelParams",
    "NotAllowedBand",
    "ScalarPotential",
    "SingularTransform",
    "Spinor",
    "SpinorField",
    "StepCountTooSmall",
    "TransformSeed",
    "band_edges",
    "basis_fields",
    "basis_spinors",
    "bound_state_fields",
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
    "soliton_seed",
    "transformed_potential",
    "w_functions",
    "wronskian",
]
