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

__version__ = "1.0.0"

# The Salpeter solver and the verifier need numpy, which takes twice as long
# to import as the rest of the package; they load on the first use of one of
# their names (PEP 562).
_LAZY = {
    **dict.fromkeys(("SolverConfig", "SSOperatorMatrices", "build_matrices",
                     "convergence_report", "lowest_levels", "salpeter_levels"), "salpeter"),
    **dict.fromkeys(("RadialProblem", "TurningPoints", "analytic_i_infinity",
                     "angular_eigenmomentum", "find_turning_points", "phase_integral",
                     "quantization_residual", "verification_report"), "verifier"),
}

# `from hlevels import *` and dir() include them
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __dir__():
    return sorted([*globals(), *_LAZY])


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
