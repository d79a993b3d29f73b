"""Static checks: every import in the package's modules is used, and no code is dead.

Parses each ``src/klm_teleport/*.py`` with ``ast`` (stdlib only) and fails on
an imported name that the module never reads.  ``__init__.py`` re-exports,
``__future__`` imports and imports on a line marked ``# noqa: F401`` are
exempt.  It also fails on a private (``_name``, not dunder) module-level
function or class, or a method of a module-level class, that no module of
the package reads as a name or an attribute.  A public name, one listed in
``__all__`` or a public module-level function or class, must be read by a
module other than ``__init__.py``, or be allowed in
``UNREAD_PUBLIC_ALLOWED`` with the reason it stays.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "klm_teleport"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")

#: Public names that no package module reads, each with the reason it stays.
UNREAD_PUBLIC_ALLOWED = {
    "permanent": "reference route for `apply` / the corrective phase",
    "transition_amplitude": "reference route for `apply` / the corrective phase",
    "certify_klm_bound": "independent route for the success bound",
    "average_fidelity_for_qubit": "independent route for the Monte-Carlo sampler",
    "optimal_fidelity_profile": "independent route for the eigenvector optimum",
    "kraus_for": "Kraus route of the correction, checked against the circuit; "
    "benchmark `polarization` workload",
    "run_oracle_polarization": "polarization API, benchmark `polarization` workload",
    "teleported_state": "polarization API, benchmark `polarization` workload",
    "correction_circuit": "polarization API, benchmark `polarization` workload",
}


def _imported_names(tree: ast.AST, lines: list[str]):
    """(bound name, line) for each import not marked ``# noqa: F401``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for name in names:
            yield name, node.lineno


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            yield from (p.annotation for p in params if p is not None and p.annotation)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.AST) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # Quoted annotations such as -> "PureState" name their types as well.
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read_names(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = _read_names(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in _imported_names(tree, source.splitlines())
        if name not in used
    ]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_checker_sees_an_unused_import():
    source = "import os\nfrom typing import Iterable\nx: 'Iterable[int]' = []\n"
    tree = ast.parse(source)
    used = _read_names(tree)
    unused = [name for name, _ in _imported_names(tree, source.splitlines()) if name not in used]
    assert unused == ["os"]


def _private_definitions(tree: ast.Module):
    """(name, line) of each private module-level function, class and method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        members = node.body if isinstance(node, ast.ClassDef) else ()
        for definition in (node, *members):
            name = getattr(definition, "name", "")
            if name.startswith("_") and not name.endswith("__"):
                yield name, definition.lineno


def _reads(trees) -> set[str]:
    """Every name and attribute the trees read."""
    read = set()
    for tree in trees:
        read |= _read_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return read


def _dead_private_code(trees: dict[str, ast.Module]) -> list[str]:
    read = _reads(trees.values())
    return [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree)
        if name not in read
    ]


def test_package_has_no_dead_private_code():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    dead = _dead_private_code(trees)
    assert not dead, f"private code that no module reads: {', '.join(dead)}"


def test_checker_sees_dead_private_code():
    source = (
        "def _called(): pass\n"
        "def _dead(): pass\n"
        "def __getattr__(name): pass\n"
        "class _Box:\n"
        "    def __init__(self): self._used()\n"
        "    def _used(self): _called()\n"
        "    def _unused(self): pass\n"
        "box: '_Box'\n"
    )
    dead = _dead_private_code({"m.py": ast.parse(source)})
    assert dead == ["m.py: _dead (line 2)", "m.py: _unused (line 7)"]


def _exported_names(tree: ast.Module) -> set[str]:
    """The entries of the module's ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unread_public_names(trees: dict[str, ast.Module]) -> set[str]:
    """``__all__`` names and public module-level functions and classes no module reads.

    Reads in ``__init__.py`` do not count: its imports and ``__all__`` only
    re-export.
    """
    modules = [tree for name, tree in trees.items() if name != "__init__.py"]
    public = _exported_names(trees["__init__.py"]) if "__init__.py" in trees else set()
    for tree in modules:
        public |= {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        }
    return public - _reads(modules)


def test_every_public_name_is_read_or_allowed():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unread = _unread_public_names(trees)
    unexplained = sorted(unread - UNREAD_PUBLIC_ALLOWED.keys())
    assert not unexplained, (
        f"public names that no package module reads: {', '.join(unexplained)}; "
        "delete them, or allow them in UNREAD_PUBLIC_ALLOWED with the reason they stay"
    )
    stale = sorted(UNREAD_PUBLIC_ALLOWED.keys() - unread)
    assert not stale, f"allowed names that a module reads or that are gone: {', '.join(stale)}"


def test_checker_sees_unread_public_names():
    trees = {
        "__init__.py": ast.parse(
            "from .m import Box, exported, read_by_init\n"
            "read_by_init()\n"
            "__all__ = ['Box', 'exported', 'read_by_init', 'used']\n"
        ),
        "m.py": ast.parse(
            "def used(): pass\n"
            "def attribute_used(): pass\n"
            "def unused(): pass\n"
            "def exported(): pass\n"
            "def read_by_init(): pass\n"
            "def _private(): used()\n"
            "class Box:\n"
            "    def method(self): pass\n"
            "box: 'Box'\n"
        ),
        "n.py": ast.parse("from . import m\nm.attribute_used()\n"),
    }
    assert _unread_public_names(trees) == {"unused", "exported", "read_by_init"}
