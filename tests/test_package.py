import ast
import importlib
from pathlib import Path

import pytest

import hlevels

# the names the package loads on first use from its numpy submodules and the harness
LAZY_NAMES = {
    "harness": ("Environment", "ReferenceDataset", "builtin_reference", "generate_table1",
                "generate_table2", "load_reference_csv", "relative_error"),
    "salpeter": ("SolverConfig", "SSOperatorMatrices", "build_matrices", "lowest_levels",
                 "salpeter_levels"),
    "verifier": ("RadialProblem", "TurningPoints", "analytic_i_infinity",
                 "find_turning_points", "phase_integral", "verification_report"),
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


def _unused_imports(path, exported=()):
    """The names a module imports and never reads, as 'file:line: name'."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # import a.b binds a
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used and name not in exported]


def test_no_module_imports_a_name_it_never_uses():
    # no linter runs on the package, so this is the check; __init__ re-exports its __all__
    tests = Path(__file__).parent
    package = tests.parent / "src" / "hlevels"
    unused = [
        entry
        for path in sorted([*package.glob("*.py"), *tests.glob("*.py")])
        for entry in _unused_imports(
            path, hlevels.__all__ if path == package / "__init__.py" else ())
    ]
    assert unused == []
