"""Compile restricted expression strings from scenario configs into callables.

State variables are named ``x1 .. xn``.  Only arithmetic, comparisons,
boolean operators, conditional expressions and a small whitelist of math
names are available.  Every expression is checked node by node against that
whitelist before it is compiled, so attribute access, subscripts, lambdas,
comprehensions and the like are rejected at load time and config files
cannot reach into the interpreter.

The per-point form evaluates on float64 elements whatever container holds
the point, so a list, a tuple and an ndarray give the same value or the same
error.

A square, ``a ** 2`` with the exponent the constant 2 or 2.0, is compiled
as the one product ``a * a`` (``a`` evaluated once).  IEEE 754 rounds a
product correctly, so the square is the same on every CPU and in both forms
below; libm's ``pow``, which Python's ``**`` calls, is not correctly rounded
and differs from ``a * a`` in the last bit on about one double in a
thousand.  Every other power keeps Python's ``**``: a longer product chain
such as ``(a * a) * a`` rounds twice.

Every compiled callable also carries a batched form, ``.rows(X)``, that
evaluates the expression at every row of an (m, n) array in one pass and is
equal bit for bit to stacking the per-point results.  It is emitted from the
same parsed tree: arithmetic, squares, comparisons, boolean operators,
conditional expressions and ``abs`` map to numpy directly; ``min`` and
``max`` keep Python's rule (a later argument replaces the current one only
when strictly smaller or larger); other powers, ``//``, ``%`` and the math
functions run the very same Python operation elementwise, since numpy's own
versions round differently.  When the batched pass raises (say ``log`` of a
negative number in a branch that is not taken) the form evaluates row by
row, so errors are those of the per-point form.
"""
from __future__ import annotations

import ast
import math
import operator
from typing import Callable, Sequence

import numpy as np

__all__ = ["ExpressionError", "scalar_fn", "vector_fn", "predicate_fn", "rows_of"]

_NAMESPACE = {
    "abs": abs,
    "min": min,
    "max": max,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "tanh": math.tanh,
    "floor": math.floor,
    "ceil": math.ceil,
    "pi": math.pi,
    "e": math.e,
}


_FUNCTIONS = frozenset(k for k, v in _NAMESPACE.items() if callable(v))
_BINARY = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)
_UNARY = (ast.UAdd, ast.USub, ast.Not)
_COMPARE = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


class ExpressionError(ValueError):
    """Raised when a config expression cannot be compiled."""


def _reads_state(body: ast.AST, variables: frozenset, expression: str, what: str) -> bool:
    """Check every node of ``body`` against the whitelist; True when the
    expression reads a state variable."""
    reads = False
    stack = [body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            if node.id in variables:
                reads = True
            elif node.id not in _NAMESPACE:
                raise ExpressionError(f"unknown name in {what} {expression!r}: {node.id!r}")
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float, bool):
            pass
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _BINARY):
            stack += (node.left, node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY):
            stack.append(node.operand)
        elif isinstance(node, ast.Compare) and all(isinstance(op, _COMPARE) for op in node.ops):
            stack.append(node.left)
            stack += node.comparators
        elif isinstance(node, ast.BoolOp):  # and, or
            stack += node.values
        elif isinstance(node, ast.IfExp):
            stack += (node.test, node.body, node.orelse)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _FUNCTIONS and not node.keywords:
            stack += node.args  # a starred argument is rejected when popped
        else:
            raise ExpressionError(
                f"{what} {expression!r} uses a disallowed construct ({type(node).__name__})"
            )
    return reads


def _compile(expression: str, dimension: int, what: str) -> tuple[Callable, Callable, bool]:
    """The expression as a lambda of ``x1 .. xn``, a maker of its batched
    lambda (of the columns ``x1 .. xn``), and whether it reads them."""
    if not isinstance(expression, str) or not expression.strip():
        raise ExpressionError(f"{what} must be a nonempty string, got {expression!r}")
    variables = [f"x{i + 1}" for i in range(dimension)]
    source = f"lambda {', '.join(variables)}: ({expression})"
    try:
        tree = ast.parse(source, f"<{what}>", "eval")
    except SyntaxError as exc:
        raise ExpressionError(f"invalid {what} {expression!r}: {exc.msg}") from None
    # the parsed source must be exactly one lambda; text such as "0), (y"
    # would otherwise close it early and smuggle in a second expression
    if not isinstance(tree.body, ast.Lambda):
        raise ExpressionError(f"invalid {what} {expression!r}: not a single expression")
    reads = _reads_state(tree.body.body, frozenset(variables), expression, what)
    tree = ast.fix_missing_locations(_Squares().visit(tree))
    # the namespace must live in the globals dict: that is where the lambda
    # body resolves free names when it is eventually called
    namespace = {"__builtins__": {}, **_NAMESPACE, "_square": _square}
    fn = eval(compile(tree, f"<{what}>", "eval"), namespace)

    def batched():
        body, _ = _batch(tree.body.body, frozenset(variables))
        lam = ast.Expression(ast.Lambda(tree.body.args, body))
        code = compile(ast.fix_missing_locations(lam), f"<{what} rows>", "eval")
        return eval(code, {**namespace, **_BATCH_NAMESPACE})

    return fn, batched, reads


class _Squares(ast.NodeTransformer):
    """Rewrite every ``a ** 2`` as ``_square(a)``; the base subtree is
    moved, not copied, so nested squares stay linear in size."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        exponent = node.right
        if isinstance(node.op, ast.Pow) and isinstance(exponent, ast.Constant) \
                and type(exponent.value) in (int, float) and exponent.value == 2:
            return ast.copy_location(_call("_square", node.left), node)
        return node


_BOOL = np.dtype(bool)


def _square(a):
    """``a ** 2`` as the one correctly rounded product ``a * a``; numpy's
    multiply on arrays and float64 elements alike."""
    if type(a) is bool or getattr(a, "dtype", None) is _BOOL:
        a = a + 0  # a truth value squares to an integer, as under ``**``
    return a * a


# ---------------------------------------------------------------------- #
# batched forms
def _truth(v) -> np.ndarray:
    """Elementwise ``bool(v)``; object arrays use Python truthiness."""
    v = np.asarray(v)
    return v if v.dtype == bool else v.astype(bool)


def _pow(a, b):
    out = a ** b
    if type(out) is complex:  # numpy's scalar power returns nan here instead
        raise ValueError("complex power")
    return out


def _first(better):
    """Python's ``min``/``max`` rule: a later argument replaces the current
    value only when ``better(arg, current)`` holds."""

    def pick(*args):
        if len(args) < 2:
            raise TypeError("min/max of a single number")
        cur = args[0]
        for a in args[1:]:
            cur = np.where(_truth(better(a, cur)), a, cur)
        return cur

    return pick


def _all(*terms):
    out = _truth(terms[0])
    for t in terms[1:]:
        out = out & _truth(t)
    return out


_BATCH_NAMESPACE = {
    "_abs": np.absolute,
    "_min": _first(operator.lt),
    "_max": _first(operator.gt),
    "_not": lambda v: ~_truth(v),
    "_and": lambda a, b: np.where(_truth(a), b, a),
    "_or": lambda a, b: np.where(_truth(a), a, b),
    "_where": lambda c, a, b: np.where(_truth(c), a, b),
    "_all": _all,
    "_Pow": np.frompyfunc(_pow, 2, 1),
    "_FloorDiv": np.frompyfunc(operator.floordiv, 2, 1),
    "_Mod": np.frompyfunc(operator.mod, 2, 1),
    **{f"_{k}": np.frompyfunc(v, 1, 1) for k, v in _NAMESPACE.items()
       if callable(v) and k not in ("abs", "min", "max")},
}


def _call(name: str, *args: ast.AST) -> ast.Call:
    return ast.Call(ast.Name(name, ast.Load()), list(args), [])


def _batch(node: ast.AST, variables: frozenset) -> tuple[ast.AST, bool]:
    """The whitelisted ``node`` rewritten to act on column arrays, and
    whether it reads a state variable.  Subtrees that read none stay as
    they are, so constants are computed exactly as the per-point form does."""
    if isinstance(node, ast.Name):
        return node, node.id in variables
    if isinstance(node, ast.Constant):
        return node, False
    if isinstance(node, ast.BinOp):
        (left, a), (right, b) = _batch(node.left, variables), _batch(node.right, variables)
        if not (a or b):
            return node, False
        if isinstance(node.op, (ast.Pow, ast.FloorDiv, ast.Mod)):
            return _call(f"_{type(node.op).__name__}", left, right), True
        return ast.BinOp(left, node.op, right), True
    if isinstance(node, ast.UnaryOp):
        operand, reads = _batch(node.operand, variables)
        if not reads:
            return node, False
        if isinstance(node.op, ast.Not):
            return _call("_not", operand), True
        return ast.UnaryOp(node.op, operand), True
    if isinstance(node, ast.Compare):
        parts = [_batch(n, variables) for n in (node.left, *node.comparators)]
        if not any(reads for _, reads in parts):
            return node, False
        terms = [ast.Compare(a, [op], [b]) for op, (a, _), (b, _) in zip(node.ops, parts, parts[1:])]
        return (terms[0] if len(terms) == 1 else _call("_all", *terms)), True
    if isinstance(node, ast.BoolOp):
        parts = [_batch(n, variables) for n in node.values]
        if not any(reads for _, reads in parts):
            return node, False
        name = "_and" if isinstance(node.op, ast.And) else "_or"
        out = parts[0][0]
        for value, _ in parts[1:]:
            out = _call(name, out, value)
        return out, True
    if isinstance(node, ast.IfExp):
        parts = [_batch(n, variables) for n in (node.test, node.body, node.orelse)]
        if not any(reads for _, reads in parts):
            return node, False
        return _call("_where", *(n for n, _ in parts)), True
    if isinstance(node, ast.Call):
        parts = [_batch(n, variables) for n in node.args]
        if not any(reads for _, reads in parts):
            return node, False
        name = node.func.id
        return _call(name if name == "_square" else f"_{name}", *(n for n, _ in parts)), True
    raise AssertionError(f"node {type(node).__name__} passed the whitelist")  # pragma: no cover


def _rows_form(batched: Callable, per_point: Callable, finish: Callable) -> Callable:
    """``rows(X)``: the batched lambda, made on first use, applied to the
    columns of X and shaped by ``finish(value, m)``; row by row through
    ``per_point`` when the batched pass raises."""
    lam = None

    def rows(X):
        nonlocal lam
        X = np.asarray(X, dtype=float)
        if lam is None:
            lam = batched()
        try:
            return finish(lam(*(X[:, i] for i in range(X.shape[1]))), X.shape[0])
        except (ArithmeticError, ValueError, TypeError):
            # the per-point form raises (or not) exactly where it should
            return finish(np.array([per_point(x) for x in X]), X.shape[0])

    return rows


def _as_floats(value, m: int) -> np.ndarray:
    out = np.array(value, dtype=float)
    return out if out.shape == (m,) else np.broadcast_to(out, (m,)).copy()


def _as_bools(value, m: int) -> np.ndarray:
    out = _truth(value)
    return out if out.shape == (m,) else np.broadcast_to(out, (m,)).copy()


def scalar_fn(expression: str, dimension: int) -> Callable[[Sequence[float]], float]:
    """Compile an expression into ``f(x) -> float`` with x a length-n vector.

    ``f.rows(X)`` evaluates it at every row of an (m, n) array at once.
    """
    fn, batched, _ = _compile(expression, dimension, "scalar expression")

    def wrapped(x):
        return float(fn(*np.asarray(x, dtype=float)))

    wrapped.expression = expression
    wrapped.rows = _rows_form(batched, wrapped, _as_floats)
    return wrapped


def predicate_fn(expression: str, dimension: int) -> Callable[[Sequence[float]], bool]:
    """Compile an expression into ``p(x) -> bool``.

    The returned callable's ``constant`` attribute holds the predicate's
    value when the expression reads no state variable (such as ``"True"``),
    and None otherwise; batched evaluators use it to skip per-point calls.
    ``p.rows(X)`` evaluates it at every row of an (m, n) array at once.
    """
    fn, batched, reads = _compile(expression, dimension, "predicate")

    def wrapped(x):
        return bool(fn(*np.asarray(x, dtype=float)))

    wrapped.expression = expression
    wrapped.constant = None
    if not reads:
        try:
            wrapped.constant = wrapped([0.0] * dimension)
        except (ArithmeticError, ValueError, TypeError):
            pass  # a domain error (log(0) etc.) stays the caller's concern
    wrapped.rows = _rows_form(batched, wrapped, _as_bools)
    return wrapped


def vector_fn(expressions: Sequence[str], dimension: int) -> Callable[[Sequence[float]], np.ndarray]:
    """Compile a list of component expressions into ``f(x) -> ndarray``.

    ``f.rows(X)`` evaluates it at every row of an (m, n) array at once and
    returns an (m, k) array for k components.
    """
    compiled = [_compile(e, dimension, "vector component") for e in expressions]
    fns = [fn for fn, _, _ in compiled]
    k = len(fns)

    def wrapped(x):
        x = np.asarray(x, dtype=float)
        return np.array([f(*x) for f in fns], dtype=float)

    def batched():
        lams = [make() for _, make, _ in compiled]
        return lambda *cols: [lam(*cols) for lam in lams]

    def finish(value, m):
        if isinstance(value, list):  # the batched components
            out = np.empty((m, k))
            for j, v in enumerate(value):
                out[:, j] = v
            return out
        return value.reshape(m, k)

    wrapped.expressions = list(expressions)
    wrapped.rows = _rows_form(batched, wrapped, finish)
    return wrapped


def rows_of(fn: Callable, dtype=float) -> Callable[[np.ndarray], np.ndarray]:
    """Batched form of a per-point callable: its ``.rows`` when it was
    compiled here, else a loop that calls it at each row."""
    rows = getattr(fn, "rows", None)
    if rows is not None:
        return rows

    def loop(X):
        return np.array([fn(x) for x in X], dtype=dtype)

    return loop
