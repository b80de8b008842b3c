import importlib

import pytest

import hlevels

# the names the package loads from its numpy/scipy submodules on first use
LAZY_NAMES = {
    "salpeter": ("SolverConfig", "SSOperatorMatrices", "build_matrices", "convergence_report",
                 "lowest_levels", "salpeter_levels"),
    "verifier": ("RadialProblem", "TurningPoints", "analytic_i_infinity",
                 "angular_eigenmomentum", "find_turning_points", "phase_integral",
                 "quantization_residual", "verification_report"),
}


@pytest.mark.parametrize("module, name",
                         [(m, n) for m, names in LAZY_NAMES.items() for n in names])
def test_lazy_name_is_the_submodule_attribute(module, name):
    submodule = importlib.import_module(f"hlevels.{module}")
    assert getattr(hlevels, name) is getattr(submodule, name)
    assert name in hlevels.__all__
    assert name in dir(hlevels)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hlevels.no_such_name  # noqa: B018


def test_star_import_includes_the_lazy_names():
    namespace = {}
    exec("from hlevels import *", namespace)
    for names in LAZY_NAMES.values():
        for name in names:
            assert namespace[name] is getattr(hlevels, name)
    assert namespace["kg_level"] is hlevels.kg_level
