"""Static checks: every import in the package's modules is used, and no private code is dead.

Parses each ``src/klm_teleport/*.py`` with ``ast`` (stdlib only) and fails on
an imported name that the module never reads.  ``__init__.py`` re-exports,
``__future__`` imports and imports on a line marked ``# noqa: F401`` are
exempt.  It also fails on a private (``_name``, not dunder) module-level
function or class, or a method of a module-level class, that no module of
the package reads as a name or an attribute.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "klm_teleport"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


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


def _dead_private_code(trees: dict[str, ast.Module]) -> list[str]:
    read = set()
    for tree in trees.values():
        read |= _read_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
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
