import ast
import importlib
import re
from pathlib import Path

import pytest

import hlevels

# the names the package loads on first use from its numpy submodules and the harness
LAZY_NAMES = {
    "harness": ("Environment", "ReferenceDataset", "builtin_reference", "generate_table1",
                "generate_table2", "load_reference_csv"),
    "salpeter": ("SolverConfig", "SSOperatorMatrices", "build_matrices", "lowest_levels",
                 "salpeter_levels"),
    "verifier": ("RadialProblem", "TurningPoints", "find_turning_points", "phase_integral",
                 "verification_report"),
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


def _defined_at_top(tree):
    """The names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _read_names(tree):
    """The names a module reads: each Name, Attribute and from-import in it."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_public_name_has_a_user():
    # a name in __all__ is read by another module of the package, or named by the README or
    # the benchmark; a name that only tests call is not public API
    root = Path(__file__).parent.parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in (root / "src" / "hlevels").glob("*.py") if path.name != "__init__.py"}
    defined = {module: _defined_at_top(tree) for module, tree in trees.items()}
    read = {module: _read_names(tree) for module, tree in trees.items()}
    documents = " ".join(path.read_text(encoding="utf-8")
                         for path in [root / "README.md", *(root / "perfbench").glob("*.py")])
    unused = [
        name for name in hlevels.__all__
        if not any(name in read[module] for module in trees if name not in defined[module])
        and not re.search(rf"\b{re.escape(name)}\b", documents)
    ]
    assert unused == []


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
