"""Static checks: every import in the package's modules is used, no code is dead,
each input rule has one owner, and paired routes share no code.

Parses each ``src/klm_teleport/*.py`` with ``ast`` (stdlib only) and fails on
an imported name that the module never reads.  ``__init__.py`` re-exports
and ``__future__`` imports are exempt, and so is an import on a line marked
``# noqa: F401`` when ``NOQA_ALLOWED`` lists it with the reason it stays; a
marked import that the list lacks, or an entry for an import that is gone,
unmarked or read, fails.  It also fails on a private (``_name``, not dunder)
module-level function or class, or a method of a module-level class, that no
module of the package reads as a name or an attribute.  A public name, one listed in
``__all__``, a public module-level function or class, or a public method,
classmethod or property of a module-level class, must be read by a module
other than ``__init__.py``, or be allowed in ``UNREAD_PUBLIC_ALLOWED`` with
the reason it stays.  Methods are listed as ``Class.method`` and count as
read when any module reads an attribute of that name.  Finally it fails on a
parameter of any function, method or nested function that its body never
loads; ``self``, ``cls`` and ``_``-prefixed names are exempt.  It also fails
on an ``if`` that compares a bare size, outcome or count name (``COUNT_NAMES``)
and raises ``ValueError`` or ``ConfigError``: such rules belong to the owners
(``checked_count`` in ``fock.py``, re-exported by ``teleport.py``;
``ResourceCoefficients.success_pair`` and ``admit_oracle`` in ``teleport.py``),
and any other function that states one must be allowed in
``COUNT_RULES_ALLOWED`` with the reason.  Last, it keeps the paired routes of
``ROUTE_PAIRS`` apart: over a conservative, name-based call graph of the
package, the definitions both routes of a pair reach must all be shared input
owners listed in ``SHARED_ALLOWED`` with the reason they are shared.  It also
fails on a tolerance written as a bare literal: a nonzero float below
``TOLERANCE_LITERAL_BOUND`` in magnitude must be a named module-level constant.
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
    "PolarizedPhotonState.mode_amplitudes": "benchmark `polarization` workload",
}


#: Unread imports marked ``# noqa: F401`` (``module:name``), each with the reason it stays.
NOQA_ALLOWED = {
    "teleport.py:transition_amplitude": "`bench/tracing.py` wraps it by name (ROADMAP item 1)",
}


def _imported_names(tree: ast.AST, lines: list[str]):
    """(bound name, line, marked) for each import; marked when a line of it
    carries ``# noqa: F401``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        marked = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for name in names:
            yield name, node.lineno, marked


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
        for name, line, marked in _imported_names(tree, source.splitlines())
        if name not in used and not marked
    ]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _noqa_findings(sources: dict[str, str], allowed: dict[str, str]):
    """Marked imports (``module:name``) that ``allowed`` does not list, and
    listed entries that name no marked import its module leaves unread."""
    marked, unread = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        used = _read_names(tree)
        for name, _, is_marked in _imported_names(tree, source.splitlines()):
            if is_marked:
                marked.add(f"{module}:{name}")
                if name not in used:
                    unread.add(f"{module}:{name}")
    return sorted(marked - allowed.keys()), sorted(allowed.keys() - unread)


def test_every_noqa_import_is_allowed():
    sources = {path.name: path.read_text() for path in MODULES}
    unexplained, stale = _noqa_findings(sources, NOQA_ALLOWED)
    assert not unexplained, (
        f"imports marked # noqa: F401 that NOQA_ALLOWED does not list: {', '.join(unexplained)}; "
        "delete them, or allow them with the reason they stay"
    )
    assert not stale, f"allowed imports that are gone, unmarked or read: {', '.join(stale)}"


def test_checker_sees_an_unused_import():
    source = "import os\nfrom typing import Iterable\nx: 'Iterable[int]' = []\n"
    tree = ast.parse(source)
    used = _read_names(tree)
    unused = [name for name, _, _ in _imported_names(tree, source.splitlines()) if name not in used]
    assert unused == ["os"]
    # A marked import passes only where the allowlist names it and nothing reads it.
    sources = {
        "m.py": "import os  # noqa: F401\n"
        "from sys import (\n    argv,  # noqa: F401\n)\n"
        "import re  # noqa: F401\nimport json\nre.compile, json.dumps\n",
    }
    allowed = {"m.py:os": "kept", "m.py:re": "read", "m.py:json": "unmarked", "n.py:io": "gone"}
    assert _noqa_findings(sources, allowed) == (
        ["m.py:argv"],
        ["m.py:json", "m.py:re", "n.py:io"],
    )


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


def _public_definitions(tree: ast.Module):
    """(listed name, read name) of each public module-level function and class,
    and of each public method, classmethod and property of a module-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name
        members = node.body if isinstance(node, ast.ClassDef) else ()
        for member in members:
            if isinstance(member, functions) and not member.name.startswith("_"):
                yield f"{node.name}.{member.name}", member.name


def _unread_public_names(trees: dict[str, ast.Module]) -> set[str]:
    """``__all__`` names and public definitions (see above) that no module reads.

    Reads in ``__init__.py`` do not count: its imports and ``__all__`` only
    re-export.
    """
    modules = [tree for name, tree in trees.items() if name != "__init__.py"]
    read = _reads(modules)
    exported = _exported_names(trees["__init__.py"]) if "__init__.py" in trees else set()
    return (exported - read) | {
        listed
        for tree in modules
        for listed, name in _public_definitions(tree)
        if name not in read
    }


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
            "    def read_method(self): pass\n"
            "    @classmethod\n"
            "    def build(cls): return cls()\n"
            "    @property\n"
            "    def size(self): return 0\n"
            "    def _helper(self): pass\n"
            "    def __len__(self): return 0\n"
            "class _Hidden:\n"
            "    def shown(self): pass\n"
            "box: 'Box'\n"
        ),
        "n.py": ast.parse(
            "from . import m\nm.attribute_used()\nm.Box.build().read_method()\n"
        ),
    }
    assert _unread_public_names(trees) == {
        "unused",
        "exported",
        "read_by_init",
        "Box.method",
        "Box.size",
        "_Hidden.shown",
    }


def _unread_parameters(tree: ast.AST):
    """(function, parameter, line) for each parameter its function's body never loads.

    A load anywhere in the body counts, a nested function's included, so a
    parameter read only by a closure is read.
    """
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
        loaded = {
            name.id
            for statement in node.body
            for name in ast.walk(statement)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        for param in params:
            if param is None or param.arg in ("self", "cls") or param.arg.startswith("_"):
                continue
            if param.arg not in loaded:
                yield node.name, param.arg, node.lineno


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    unread = [
        f"{function}({param}) (line {line})"
        for function, param, line in _unread_parameters(ast.parse(path.read_text()))
    ]
    assert not unread, f"{path.name} has parameters nothing reads: {', '.join(unread)}"


def test_checker_sees_unread_parameters():
    source = (
        "def used(a, *args, b, **kwargs): return a, args, b, kwargs\n"
        "def unused(a, b=1, *args, c, **kwargs): return a\n"
        "def stored(a): a = 1\n"
        "def closure(a):\n"
        "    def inner(b, _c): return a\n"
        "    return inner\n"
        "class Box:\n"
        "    def method(self): pass\n"
        "    @classmethod\n"
        "    def build(cls, size): pass\n"
    )
    assert list(_unread_parameters(ast.parse(source))) == [
        ("unused", "b", 2),
        ("unused", "args", 2),
        ("unused", "c", 2),
        ("unused", "kwargs", 2),
        ("stored", "a", 3),
        ("inner", "b", 5),
        ("build", "size", 10),
    ]


#: Names of sizes, outcomes and counts, whose rules ``teleport.py`` states once.
COUNT_NAMES = {"n", "m", "limit", "samples", "mc_samples", "restarts", "seed"}
#: Functions that may compare one of COUNT_NAMES and raise, each with the reason.
#: ``checked_count`` and ``success_pair`` compare only their own locals.
COUNT_RULES_ALLOWED = {
    "teleport.py:admit_oracle": "the owner of oracle admission",
    "teleport.py:derive_phase_correction": "m goes through checked_count; the pattern "
    "check compares the pattern's photon total with m",
}


def _compares_a_count(test: ast.expr) -> bool:
    return any(
        isinstance(node, ast.Compare)
        and any(
            isinstance(operand, ast.Name) and operand.id in COUNT_NAMES
            for operand in (node.left, *node.comparators)
        )
        for node in ast.walk(test)
    )


def _raises_a_refusal(body: list[ast.stmt]) -> bool:
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "ConfigError"):
                    return True
    return False


def _count_rule_copies(tree: ast.AST):
    """(function, line) of each ``if`` that compares a count name and raises a refusal.

    The function is the enclosing definition's dotted name, ``Class.method``
    for a method; an ``if`` at module level has the name ``""``.
    """

    def visit(node: ast.AST, scope: tuple[str, ...]):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if (
            isinstance(node, ast.If)
            and _compares_a_count(node.test)
            and _raises_a_refusal(node.body)
        ):
            yield ".".join(scope), node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    yield from visit(tree, ())


def test_input_rules_have_one_owner():
    found = [
        (f"{path.name}:{function}", line)
        for path in MODULES
        for function, line in _count_rule_copies(ast.parse(path.read_text()))
    ]
    copies = [f"{where} (line {line})" for where, line in found if where not in COUNT_RULES_ALLOWED]
    assert not copies, (
        f"size, outcome or count rules stated outside their owners: {', '.join(copies)}; "
        "call teleport.checked_count, ResourceCoefficients.success_pair or "
        "teleport.admit_oracle instead, or allow the function in COUNT_RULES_ALLOWED"
    )
    stale = sorted(COUNT_RULES_ALLOWED.keys() - {where for where, _ in found})
    assert not stale, f"allowed functions that state no count rule: {', '.join(stale)}"


def test_checker_sees_a_count_rule_copy():
    source = (
        "def size(n):\n"
        "    if n < 1:\n"
        "        raise ValueError(n)\n"
        "def parse(args, seed):\n"
        "    if args.n > 3 or len(args.c) != 2:\n"
        "        raise ValueError\n"
        "    if not 0 <= seed:\n"
        "        raise ConfigError(seed) from None\n"
        "class Box:\n"
        "    def outcome(self, m):\n"
        "        if m == 0:\n"
        "            return None\n"
        "        if m > self.n:\n"
        "            raise RuntimeError(m)\n"
        "        if m + 1 > 3:\n"
        "            raise ValueError(m)\n"
        "        def inner(limit):\n"
        "            if limit == m or self.n:\n"
        "                raise ValueError\n"
    )
    assert list(_count_rule_copies(ast.parse(source))) == [
        ("size", 2),
        ("parse", 7),
        ("Box.outcome.inner", 18),
    ]


#: Headline numbers that two routes compute, and the routes' root definitions.
#: The routes of a pair must share no code (ROADMAP aim 3).  The simulation
#: takes its input from ``teleport._resource_term``, which also gives the
#: branch table the simulation is checked against; that is the protocol's
#: definition, not a route, and the law ``run_analytic`` does not read it.
ROUTE_PAIRS = {
    "outcome law vs Fock simulation": ({"run_analytic"}, {"apply", "measure_photon_counts"}),
    "success probability: pairwise minima vs extrema": (
        {"adjacent_minima_sum"},
        {"extrema_formula", "classify_sequence"},
    ),
    "correction: Kraus operators vs optical circuit": ({"kraus_for"}, {"correction_circuit"}),
    "average fidelity: closed form vs sampler": (
        {"avg_fidelity_closed_form"},
        {"_sample_fidelities", "average_fidelity_for_qubit"},
    ),
    "success bound: dual multipliers vs extrema certificate": (
        {"success_dual_certificate"},
        {"certify_klm_bound"},
    ),
    "corrective phase: Fourier formula vs Fock simulation": ({"fourier_phase"}, {"apply"}),
}
#: Definitions that both routes of a pair may reach: shared input owners,
#: each with the reason.  Names resolve conservatively, so a local variable
#: or attribute with an owner's name reaches it too.
SHARED_ALLOWED = {
    "checked_count": "the one rule for sizes and counts (fock.py)",
    "checked_weights": "the one rule for weight vectors (teleport.py)",
    "weights": "ResourceCoefficients.weights, the resource's squared moduli that both routes take",
    "n": "ResourceCoefficients.n and SimplexPoint.n, the resource size",
    "success_pair": "ResourceCoefficients.success_pair, the one rule for success outcomes",
    "FailureConvention": "the failure convention both fidelity routes are told to use",
    "require_unitary": "the one unitarity rule (optics.py), which both correction routes' "
    "matrices must pass; it computes neither route's answer",
}


def _call_graph(trees) -> dict[str, set[str]]:
    """Definition name -> the package definitions its body may reach in one step.

    Every function, method and class at any depth is a definition, and
    definitions that share a name share a node.  A body reaches every
    definition whose name it mentions as a name or an attribute, so the
    graph over-approximates the calls: it can show a path that never runs,
    never miss one that does.  A class's body includes its methods.
    """
    mentions: dict[str, set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = mentions.setdefault(node.name, set())
                for statement in node.body:
                    for sub in ast.walk(statement):
                        if isinstance(sub, ast.Name):
                            names.add(sub.id)
                        elif isinstance(sub, ast.Attribute):
                            names.add(sub.attr)
    return {name: names & mentions.keys() for name, names in mentions.items()}


def _reachable(graph: dict[str, set[str]], roots: set[str]) -> set[str]:
    seen: set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph[name])
    return seen


def _shared_route_code(trees, pairs, allowed) -> tuple[list[str], list[str]]:
    """(violations, stale): each pair's shared definitions outside ``allowed``,
    and ``allowed`` entries that no pair shares.

    A route that reaches the other's root shares that root, so one
    intersection checks both directions.
    """
    graph = _call_graph(trees)
    violations, shared_anywhere = [], set()
    for label, (left, right) in pairs.items():
        shared = _reachable(graph, left) & _reachable(graph, right)
        shared_anywhere |= shared
        if shared - allowed.keys():
            violations.append(f"{label}: {', '.join(sorted(shared - allowed.keys()))}")
    return violations, sorted(allowed.keys() - shared_anywhere)


def _package_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in MODULES}


def test_paired_routes_share_no_code():
    trees = _package_trees()
    violations, stale = _shared_route_code(trees.values(), ROUTE_PAIRS, SHARED_ALLOWED)
    assert not violations, (
        f"paired routes share code: {'; '.join(violations)}; keep the routes apart, "
        "or allow a shared input owner in SHARED_ALLOWED with the reason"
    )
    assert not stale, f"allowed definitions that no pair shares: {', '.join(stale)}"
    # apply's private plan helpers belong to the simulation route, so the
    # pairs above keep them off the law and the Fourier phase formula.
    simulation = _reachable(_call_graph(trees.values()), {"apply"})
    assert {"_expand_term", "_plan_term", "_outputs", "_replay", "_keep"} <= simulation
    assert not {"run_analytic", "fourier_phase"} & simulation


def test_checker_sees_routes_that_share_code():
    trees = _package_trees()
    for node in ast.walk(trees["correction.py"]):
        if isinstance(node, ast.FunctionDef) and node.name == "extrema_formula":
            node.body.append(ast.parse("adjacent_minima_sum(weights)").body[0])
    violations, _ = _shared_route_code(trees.values(), ROUTE_PAIRS, SHARED_ALLOWED)
    assert violations == ["success probability: pairwise minima vs extrema: adjacent_minima_sum"]


#: Float literals smaller than this in magnitude are tolerances, each stated
#: once as a named module-level constant (``NAME = ...``) and read by name.
TOLERANCE_LITERAL_BOUND = 1e-6


def _names_a_constant(statement: ast.stmt) -> bool:
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return False
    return all(isinstance(target, ast.Name) and target.id.isupper() for target in targets)


def _tolerance_literals(tree: ast.Module) -> list[int]:
    """Sorted lines of the nonzero float literals below ``TOLERANCE_LITERAL_BOUND``
    in magnitude that no module-level constant assignment holds."""
    named = {
        id(node)
        for statement in tree.body
        if _names_a_constant(statement)
        for node in ast.walk(statement)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0 < abs(node.value) < TOLERANCE_LITERAL_BOUND
        and id(node) not in named
    )


def test_tolerances_are_named_constants():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _tolerance_literals(ast.parse(path.read_text()))
    ]
    assert not found, (
        f"tolerance literals outside a named constant: {', '.join(found)}; "
        "read the constant that owns the tolerance, or name a new one at module level"
    )


def test_checker_sees_a_tolerance_literal():
    source = (
        "TOL = 1e-9\n"
        "_EPS: float = -1e-15\n"
        "lower = 1e-12\n"
        "def close(a, b):\n"
        "    return abs(a - b) <= 1e-10 or a == 0.0 or b > 1e-6 or a < 1e-7j\n"
        "class Box:\n"
        "    LIMIT = 2e-7\n"
        "PAIR, other = 3e-8, 4e-8\n"
        "print(-5e-9, 7, 'tolerance 1e-9')\n"
    )
    assert _tolerance_literals(ast.parse(source)) == [3, 5, 7, 8, 8, 9]
