"""Band structure of the 1D Dirac equation with a periodized one-soliton
scalar potential: closed-form solutions, discriminant, band edges and
dispersion, cross-checked by an independent monodromy integrator.
"""

__version__ = "0.1.0"

from .bands import (
    Band,
    BandTable,
    LyapunovTrace,
    TraceSample,
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
    EvaluationDomainError,
    NotAllowedBand,
    SingularTransform,
    StepCountTooSmall,
)
from .monodromy import Monodromy, integrate_monodromy, lyapunov_numeric, lyapunov_numeric_many
from .soliton import (
    Kinematics,
    ModelParams,
    basis_fields,
    basis_spinors,
    bound_state_fields,
    bound_states,
    free_spinor_field,
    periodized_potential,
    potential_s1,
    soliton_potential,
    w_functions,
)
from .spinor import (
    FloquetPair,
    ScalarPotential,
    Spinor,
    SpinorField,
    floquet_multipliers,
    hamiltonian_residual,
    wronskian,
)

__all__ = [
    "__version__",
    "Band",
    "BandTable",
    "DegenerateEnergy",
    "DiracBandError",
    "EvaluationDomainError",
    "FloquetPair",
    "Kinematics",
    "LyapunovTrace",
    "ModelParams",
    "Monodromy",
    "NotAllowedBand",
    "ScalarPotential",
    "SingularTransform",
    "Spinor",
    "SpinorField",
    "StepCountTooSmall",
    "TraceSample",
    "TransformSeed",
    "band_edges",
    "basis_fields",
    "basis_spinors",
    "bound_state_fields",
    "bound_states",
    "dispersion",
    "floquet_multipliers",
    "free_spinor_field",
    "hamiltonian_residual",
    "integrate_monodromy",
    "intertwining_check",
    "lyapunov",
    "lyapunov_many",
    "lyapunov_numeric",
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
