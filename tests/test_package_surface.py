"""The package's public surface and its private helpers.

Every exported name resolves and is exported once; the filter utilities
that no pipeline read, and the per-layer block budgets that one block rule
replaced, stay deleted; every fit's inputs are judged by one conditioning
rule, so the eigenvalue ratio is read only as the whole-matrix screen;
and every private function, method or class, and
every module-level upper-case constant, in the package has a reader besides
its own definition, so a helper or a constant orphaned by a deletion fails
here rather than lingering.
"""

import ast
from collections import Counter
from pathlib import Path

import polyscope
from polyscope import metric, sparse, topology, wiener

PACKAGE = Path(polyscope.__file__).parent


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_every_exported_name_resolves():
    missing = [name for name in polyscope.__all__
               if not hasattr(polyscope, name)]
    assert missing == []


def test_no_exported_name_is_listed_twice():
    twice = [name for name, count in Counter(polyscope.__all__).items()
             if count > 1]
    assert twice == []


def test_deleted_filter_utilities_stay_gone():
    for name in ("apply_filter", "causal_truncate"):
        assert name not in polyscope.__all__
        assert not hasattr(polyscope, name)
        assert not hasattr(wiener, name)
    assert not hasattr(wiener.TransferFunction, "is_causal")


def test_every_private_definition_has_a_reader():
    defined, read = {}, set()
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and _is_private(node.name):
                defined.setdefault(node.name, f"{module}:{node.lineno}")
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.asname or node.name)
                read.add(node.name)
    unread = sorted(f"{where} {name}" for name, where in defined.items()
                    if name not in read)
    assert unread == []


def test_the_per_layer_block_budgets_stay_gone():
    # signals.BLOCK_VALUES replaced one budget per blocked layer
    for module in (polyscope, sparse, metric, topology):
        for layer in ("OLS", "CAUSAL", "PURGE"):
            assert not hasattr(module, f"{layer}_BLOCK_VALUES")


def _readers(name: str) -> set:
    """``(module, function)`` of every read of ``name`` as a name or an
    attribute in the package, by its innermost enclosing function."""
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Name, ast.Attribute)) and \
                    getattr(child, "id", getattr(child, "attr", None)) == name:
                found.add((module, scope))
            visit(child, module, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    for module, tree in _modules().items():
        visit(tree, module, None)
    return found


def test_one_conditioning_rule_judges_every_fit():
    # the Schur ratio decides whether a fit's inputs are usable; the
    # eigenvalue ratio is only the whole-matrix screen, OLS alone reads the
    # step kernel (MISO's per-input fallback through a one-target wrapper
    # of it stays gone), and OLS checks no block of its own
    assert _readers("eigvalsh") == {("signals.py", "_eigenvalue_ratio")}
    assert _readers("_extension_costs") == {("sparse.py", "_ols_outcomes")}
    assert not hasattr(sparse, "_check_conditioning")
    assert all(module != "sparse.py"
               for module, _ in _readers("_check_conditioning"))


def test_every_constant_has_a_reader():
    defined, read = {}, set()
    for module, tree in _modules().items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    defined.setdefault(target.id, f"{module}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(f"{where} {name}" for name, where in defined.items()
                    if name not in read)
    assert defined and unread == []
