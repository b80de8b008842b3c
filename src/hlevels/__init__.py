"""Relativistic two-body models of the hydrogen spectrum.

Closed-form Klein-Gordon, Dirac fine-structure, scalar-Coulomb and
complex-mass quasiclassical levels, a variational spinless-Salpeter
solver, a quadrature check of the quasiclassical quantization condition,
and a harness regenerating the standard ten-state comparison tables.
"""

from .constants import (
    Constants,
    DerivedMasses,
    default_constants,
    derive,
    load_constants,
    rydberg_constant,
    rydberg_energy,
)
from .errors import (
    DuplicateState,
    HlevelsError,
    IllConditionedBasis,
    NoBoundRegion,
    NoConvergence,
    ParseError,
    QuadratureFailure,
    SupercriticalCharge,
)
from .harness import (
    Environment,
    ReferenceDataset,
    builtin_reference,
    generate_table1,
    generate_table2,
    load_reference_csv,
    relative_error,
)
from .potential import (
    DEFAULT_LAMBDA_MEV,
    PotentialParams,
    default_params,
    mass_function,
    particle_mass,
    potential_r,
    running_alpha_q,
    running_alpha_r,
)
from .salpeter import (SolverConfig, SSOperatorMatrices, build_matrices, convergence_report,
                       lowest_levels, salpeter_levels)
from .spectra import (
    ComplexMass,
    DiracState,
    EnergyLevel,
    QuantumState,
    critical_z,
    kg_level,
    qc_complex_mass,
    qc_level,
    qc_root_gaps,
    qc_squared_mass,
    qc_width,
    scalar_coulomb_level,
    schrodinger_level,
    sommerfeld_level,
)
from .verifier import (
    RadialProblem,
    TurningPoints,
    analytic_i_infinity,
    angular_eigenmomentum,
    find_turning_points,
    phase_integral,
    quantization_residual,
    verification_report,
)

__version__ = "1.0.0"
