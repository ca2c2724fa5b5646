"""Source rules for the package itself.

Invariants are raised errors, never `assert` statements, so they survive
`python -O`; no interface method is a stub that only raises; and no
module imports scipy at its top level, so `import dualgen` loads none of
it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dualgen"
MODULES = sorted(SRC.glob("*.py"))


def _only_raises(fn) -> bool:
    body = fn.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"generator_core.py", "monte_carlo.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_asserts_stubs_or_not_implemented(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.Name) and node.id == "NotImplementedError":
            found.append(f"line {node.lineno}: names NotImplementedError")
        elif isinstance(node, ast.ClassDef):
            found.extend(
                f"line {fn.lineno}: method {node.name}.{fn.name} only raises"
                for fn in node.body
                if isinstance(fn, ast.FunctionDef) and _only_raises(fn))
    assert found == []


def _run_on_import(nodes):
    """Every node that runs when the module is imported: all but the
    bodies of functions."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        yield from _run_on_import(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_top_level_scipy_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in _run_on_import(tree.body):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found.extend(f"line {node.lineno}: imports {n}" for n in names
                     if n == "scipy" or n.startswith("scipy."))
    assert found == []
