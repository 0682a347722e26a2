"""Census of the public names, read from the source with ast.

Each of the five library modules declares the names it defines in its own
``__all__``, and ``nhbloch`` re-exports the five lists. Every such name must
have a user outside the tests and outside its own module: an import or an
attribute use in another package module, a use in ``scripts/``, a name in
``perfbench/tracing.py``'s ``TARGETS`` or the ``pyproject.toml`` entry
point. A name without one is kept only with its reason in ``KEPT``, and
leaves that list once it gains a user.
"""

import ast
import collections
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nhbloch"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
HOMES = ("analytic", "core", "dynamics", "fit", "nmr")

# Public names that nothing outside the tests uses, with what each one is.
KEPT = {
    "decay_f": "the decay envelope f(t) = e^{-delta t} + nu (1 - e^{-mu t}), the Bloch radius |r(t)|",
    "g_root": "the time where g(t) and f'(t) change sign: the purity minimum of the trajectory",
    "effective_hamiltonian": "the non-Hermitian generator H - i (G - Tr[G rho] 1) of the matrix form",
    "field_matrix": "the coherent Hamiltonian wx IX + wy IY + wz IZ of the matrix form",
    "pseudo_pure_decompose": "the pseudo-pure split (1 - epsilon) I0 + epsilon |0><0| of the thermal state",
    "deviation_matrix": "the NMR deviation matrix (rho_eq - I0) / epsilon",
    "rotation_pulse": "the pulse unitary exp(i omega1 t_r IY) that prepares the initial state",
    "DeviationReport": "the return type of max_deviation",
    "FitResult": "the return type of fit_decay_model",
    "DegenerateJacobianError": "the error fit_decay_model raises on a record with no usable signal",
    "HBAR": "a CODATA constant of the thermal quantities",
    "KB": "a CODATA constant of the thermal quantities",
}


def tree(path):
    return ast.parse(path.read_text())


def assigned(node):
    """Names a statement binds by plain assignment."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [target.id for target in targets if isinstance(target, ast.Name)]


def declared(name):
    """The ``__all__`` list of package module ``name``, or () if it has none."""
    for node in tree(PACKAGE / f"{name}.py").body:
        if assigned(node) == ["__all__"]:
            return tuple(ast.literal_eval(node.value))
    return ()


def defined(name):
    """Names bound at the top level of package module ``name`` by def, class or assignment."""
    body = tree(PACKAGE / f"{name}.py").body
    return {node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))} | {
        target for node in body for target in assigned(node)
    }


def root(node):
    """The name an attribute chain ``a.b.c`` starts from, or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def used(path):
    """Names a file imports from the package or reads as attributes of a package module."""
    names = set()
    for node in ast.walk(tree(path)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "nhbloch"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and root(node) in {"nhbloch", *MODULES}:
            names.add(node.attr)
    return names


def targets():
    """Names that ``perfbench/tracing.py`` wraps, from the literal ``TARGETS``."""
    for node in tree(ROOT / "perfbench" / "tracing.py").body:
        if assigned(node) == ["TARGETS"]:
            return {name for _, _, name in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracing.py has no TARGETS")


def census():
    """{public name: where it is used outside the tests and its own module}."""
    homes = {name: home for home in HOMES for name in declared(home)}
    places = {f"src/nhbloch/{m}.py": used(PACKAGE / f"{m}.py") for m in MODULES if m != "__init__"}
    places.update({f"scripts/{p.name}": used(p) for p in sorted((ROOT / "scripts").glob("*.py"))})
    places["perfbench/tracing.py TARGETS"] = targets()
    entry_points = re.findall(r'"nhbloch[\w.]*:(\w+)"', (ROOT / "pyproject.toml").read_text())
    places["pyproject.toml"] = set(entry_points)
    return {
        name: [place for place, names in places.items() if name in names and place != f"src/nhbloch/{home}.py"]
        for name, home in homes.items()
    }


def test_each_public_name_has_a_user_or_a_reason():
    assert [name for name, users in census().items() if not users and name not in KEPT] == []


def test_no_kept_name_has_a_user():
    # A kept name that gained a user leaves KEPT.
    assert {name: users for name, users in census().items() if users and name in KEPT} == {}


def test_kept_names_are_public():
    assert set(KEPT) <= set(census())


def test_each_public_name_is_defined_and_declared_once():
    declarations = collections.Counter(name for home in HOMES for name in declared(home))
    assert [name for name, n in declarations.items() if n > 1] == []
    for home in HOMES:
        where = {name: [m for m in MODULES if name in defined(m)] for name in declared(home)}
        assert where == {name: [home] for name in declared(home)}


@pytest.mark.parametrize("name", sorted(set(MODULES) - set(HOMES) - {"__init__"}))
def test_other_modules_declare_nothing(name):
    # The package re-exports only the five lists; cli and table are imported by module.
    assert declared(name) == ()


def test_package_names_no_public_name():
    public = {name for home in HOMES for name in declared(home)}
    words = {node.id for node in ast.walk(tree(PACKAGE / "__init__.py")) if isinstance(node, ast.Name)}
    words |= {node.value for node in ast.walk(tree(PACKAGE / "__init__.py")) if isinstance(node, ast.Constant)}
    assert words & public == set()


def test_package_exports_the_five_lists():
    import importlib

    import nhbloch

    modules = [importlib.import_module(f"nhbloch.{home}") for home in HOMES]
    assert nhbloch.__all__ == sorted(name for module in modules for name in module.__all__)
    namespace = {}
    exec("from nhbloch import *", namespace)
    rebound = [name for module in modules for name in module.__all__ if namespace[name] is not getattr(module, name)]
    assert rebound == []
