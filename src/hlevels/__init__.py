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
)
from .errors import (
    DuplicateState,
    HlevelsError,
    IllConditionedBasis,
    NoBoundRegion,
    ParseError,
    QuadratureFailure,
    ScaleSearchFailure,
    SupercriticalCharge,
)
from .potential import (
    DEFAULT_LAMBDA_MEV,
    PotentialParams,
    default_params,
    potential_r,
)
from .spectra import (
    ComplexMass,
    DiracState,
    EnergyLevel,
    QuantumState,
    kg_level,
    qc_complex_mass,
    qc_level,
    qc_root_gaps,
    qc_width,
    scalar_coulomb_level,
    schrodinger_level,
    sommerfeld_level,
)

__version__ = "1.0.0"

# The Salpeter solver and the verifier need numpy, which takes twice as long
# to import as the rest of the package, and only `compare` of the commands
# needs the comparison harness.  Each loads on the first use of one of its
# names here (PEP 562), so a closed-form command loads none of them.
_LAZY = {
    **dict.fromkeys(("Environment", "ReferenceDataset", "builtin_reference", "generate_table1",
                     "generate_table2", "load_reference_csv"), "harness"),
    **dict.fromkeys(("SolverConfig", "SSOperatorMatrices", "build_matrices", "lowest_levels",
                     "salpeter_levels"), "salpeter"),
    **dict.fromkeys(("RadialProblem", "TurningPoints", "find_turning_points", "phase_integral",
                     "verification_report"), "verifier"),
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
