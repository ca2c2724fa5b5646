"""Whitelisted arithmetic expressions for scenario coefficients.

Coefficients in scenario files are strings over the variables x1..xd,
parsed once into vectorized callables.  Only arithmetic, comparisons-free
function calls from a fixed table, and numeric literals are allowed;
anything else is rejected with the offending position.
"""

from __future__ import annotations

import ast

import numpy as np

from .errors import ExpressionParseError

__all__ = ["parse_expression", "ALLOWED_FUNCTIONS"]

ALLOWED_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
    "pow": np.power,
    "min": np.minimum,
    "max": np.maximum,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
}

_ALLOWED_CONSTANTS = {"pi": np.pi, "e": np.e}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
    ast.Mod: np.mod,
}

_UNARYOPS = {ast.USub: np.negative, ast.UAdd: lambda v: v}


def _fail(msg: str, source: str, node=None):
    col = getattr(node, "col_offset", 0)
    raise ExpressionParseError(f"{msg} at offset {col} in {source!r}")


def parse_expression(source: str, dim: int, only_variable: int = None):
    """Compile an expression over x1..x<dim> into a vectorized callable.

    The callable accepts an (n, dim) state array (or a scalar/1-D state
    for dim = 1) and returns an array of length n.  With only_variable = j
    set, referencing any other coordinate is an error, and the callable
    takes the values of coordinate j instead of states, a scalar or an
    array, and returns a new array shaped like its input (a scalar for a
    scalar); this is the form of a coefficient declared separable.
    """
    if not isinstance(source, str) or not source.strip():
        raise ExpressionParseError(f"empty expression {source!r}")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionParseError(
            f"invalid syntax at offset {exc.offset} in {source!r}") from exc

    names = set()

    def build(node):
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                _fail(f"non-numeric literal {node.value!r}", source, node)
            return lambda X, v=float(node.value): v
        if isinstance(node, ast.Name):
            if node.id in _ALLOWED_CONSTANTS:
                return lambda X, v=_ALLOWED_CONSTANTS[node.id]: v
            if node.id.startswith("x") and node.id[1:].isdigit():
                j = int(node.id[1:]) - 1
                if not (0 <= j < dim):
                    _fail(f"variable {node.id} out of range for dimension {dim}",
                          source, node)
                if only_variable is not None and j != only_variable:
                    _fail(f"variable {node.id} not allowed in a coefficient "
                          f"of coordinate {only_variable + 1}", source, node)
                names.add(node.id)
                if only_variable is not None:
                    return lambda s: s
                return lambda X, jj=j: np.asarray(X)[..., jj]
            _fail(f"unknown name {node.id!r}", source, node)
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS:
                _fail(f"operator {type(node.op).__name__} not allowed",
                      source, node)
            fl, fr = build(node.left), build(node.right)
            op = _BINOPS[type(node.op)]
            return lambda X: op(fl(X), fr(X))
        if isinstance(node, ast.UnaryOp):
            if type(node.op) not in _UNARYOPS:
                _fail(f"operator {type(node.op).__name__} not allowed",
                      source, node)
            f = build(node.operand)
            op = _UNARYOPS[type(node.op)]
            return lambda X: op(f(X))
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or \
                    node.func.id not in ALLOWED_FUNCTIONS:
                _fail("only calls to "
                      + ", ".join(sorted(ALLOWED_FUNCTIONS)) + " are allowed",
                      source, node)
            if node.keywords:
                _fail("keyword arguments not allowed", source, node)
            fn = ALLOWED_FUNCTIONS[node.func.id]
            args = [build(a) for a in node.args]
            expected = 2 if node.func.id in ("pow", "min", "max") else 1
            if len(args) != expected:
                _fail(f"{node.func.id} takes {expected} argument(s)",
                      source, node)
            return lambda X: fn(*(a(X) for a in args))
        _fail(f"{type(node).__name__} not allowed", source, node)

    body = build(tree)

    if only_variable is not None:
        def fn(s):
            s = np.asarray(s, dtype=float)
            out = body(s)
            # a constant, or the coordinate itself: a new array of s's shape
            if np.ndim(out) == 0 or np.may_share_memory(out, s):
                out = np.array(np.broadcast_to(out, s.shape), dtype=float)
            return out[()] if out.ndim == 0 else out
    else:
        def fn(X):
            X = np.asarray(X, dtype=float)
            if X.ndim == 0:
                X = X.reshape(1)
            if X.ndim == 1 and dim == 1:
                X = X[:, None]
            out = body(X)
            return np.broadcast_to(np.asarray(out, dtype=float),
                                   X.shape[:-1]).copy() if np.ndim(out) == 0 \
                else np.asarray(out, dtype=float)

    fn.source = source
    fn.variables = frozenset(names)
    return fn
