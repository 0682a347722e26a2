"""Import layering of the package, read from the source with ast, and its public names.

Each module may import only the package modules below it, and outside the
package only the standard library and numpy. Every name in ``nhbloch.__all__``
must resolve, once, so that ``from nhbloch import *`` works.
"""

import ast
import collections
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nhbloch"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

# Package modules each module imports; cli and the package __init__ may import any.
LAYERS = {
    "core": set(),
    "analytic": set(),
    "dynamics": {"analytic", "core"},
    "fit": {"analytic", "core"},
    "nmr": {"analytic", "core"},
}
TOP = ("__init__", "cli")


def imported(node):
    """Dotted module names an import statement names; relative ones get the package prefix."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not node.level:
        return [node.module]
    if node.module:
        return [f"nhbloch.{node.module}"]
    return [f"nhbloch.{alias.name}" for alias in node.names]


def imports(name):
    """(package modules, outside top-level modules) imported by module ``name``."""
    inside, outside = set(), set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for dotted in imported(node):
                parts = dotted.split(".")
                if parts[0] == "nhbloch":
                    inside.update(parts[1:2])
                else:
                    outside.add(parts[0])
    return inside, outside


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYERS) | set(TOP)


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_package_imports_follow_the_layers(name):
    assert imports(name)[0] == LAYERS[name]


@pytest.mark.parametrize("name", TOP)
def test_top_modules_import_only_package_modules(name):
    assert imports(name)[0] <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_outside_imports_are_stdlib_or_numpy(name):
    assert imports(name)[1] <= set(sys.stdlib_module_names) | {"numpy"}


def test_public_names_resolve_once():
    import nhbloch

    names = nhbloch.__all__
    assert [name for name, n in collections.Counter(names).items() if n > 1] == []
    assert [name for name in names if not hasattr(nhbloch, name)] == []
    namespace = {}
    exec("from nhbloch import *", namespace)
    assert set(names) <= set(namespace)
