"""Static check: every import in the package's modules is used.

Parses each ``src/klm_teleport/*.py`` with ``ast`` (stdlib only) and fails on
an imported name that the module never reads.  ``__init__.py`` re-exports,
``__future__`` imports and imports on a line marked ``# noqa: F401`` are
exempt.
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
