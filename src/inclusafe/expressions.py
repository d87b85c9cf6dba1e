"""Compile restricted expression strings from scenario configs into callables.

State variables are named ``x1 .. xn``.  Only arithmetic, comparisons,
boolean operators, conditional expressions and a small whitelist of math
names are available.  Every expression is checked node by node against that
whitelist before it is compiled, so attribute access, subscripts, lambdas,
comprehensions and the like are rejected at load time and config files
cannot reach into the interpreter.

Every value an expression computes is a float64 or a truth value.  The
per-point form evaluates on float64 elements whatever container holds the
point, so a list, a tuple and an ndarray give the same value or the same
error.  An int literal is its float, and one that no float holds is an
ExpressionError at load.  Arithmetic takes a truth value as 0.0 or 1.0:
``(x1 > 0) + (x2 > 0)`` is 2.0 where both hold, and ``-(x1 > 0)`` is -0.0
where x1 <= 0.  ``floor`` and ``ceil`` return floats, and ±inf and nan pass
through them.  ``/``, ``//``, ``%`` and ``**`` follow float64 in both
forms: ``x / 0`` and ``x // 0`` are ±inf or nan, ``x % 0`` is nan, and a
power past float range is ±inf, never an exception (numpy's ``errstate``
decides whether any of them warns or raises).

A square, ``a ** 2`` with the exponent the constant 2 or 2.0, is compiled
as the one product ``a * a`` (``a`` evaluated once).  IEEE 754 rounds a
product correctly, so the square is the same on every CPU and in both forms
below; libm's ``pow`` is not correctly rounded and differs from ``a * a``
in the last bit on about one double in a thousand.  Every other power is
numpy's float64 scalar power (libm's ``pow``) in both forms: a longer
product chain such as ``(a * a) * a`` rounds twice, and numpy's array
power can take a SIMD ``pow`` that rounds differently.

Every compiled callable also carries a batched form, ``.rows(X)``, that
evaluates the expression at every row of an (m, n) array in one pass and is
equal bit for bit to stacking the per-point results.  One walk over the
checked tree emits both forms as source text, and one ``compile()`` call
makes both lambdas (one lambda serves both where the texts agree; a vector's
components share the call).  In the batched text, arithmetic, squares,
``/``, ``//``, ``%``, comparisons, boolean operators, conditional
expressions, ``abs``, ``floor`` and ``ceil`` map to numpy directly (numpy's
scalar and array loops of ``/``, ``//`` and ``%`` round alike); ``min`` and
``max`` keep Python's rule (a later argument replaces the current one only
when strictly smaller or larger); other powers and the remaining math
functions run the very same scalar operation elementwise, since numpy's
own versions round differently.  When the batched pass raises (say ``log``
of a negative number in a branch that is not taken) the form evaluates row
by row, so errors are those of the per-point form.  No text reaches
``compile()`` but what the walk emitted from whitelisted nodes.
"""
from __future__ import annotations

import ast
import math
import operator
from typing import Callable, Sequence

import numpy as np

__all__ = ["ExpressionError", "scalar_fn", "vector_fn", "predicate_fn", "rows_of"]


def _rounding(fn: Callable) -> Callable:
    """``fn``, numpy's floor or ceil, on float64: a truth value is 0.0 or
    1.0, and ±inf and nan pass through.  Rounding to an integer is exact,
    so the one function serves both forms, on arrays as on numbers."""
    return lambda a: fn(np.float64(a))


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
    "floor": _rounding(np.floor),
    "ceil": _rounding(np.ceil),
    "pi": math.pi,
    "e": math.e,
}


_FUNCTIONS = frozenset(k for k, v in _NAMESPACE.items() if callable(v))
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**"}
_UNARY = {ast.UAdd: "+", ast.USub: "-", ast.Not: "not "}
_COMPARE = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


class ExpressionError(ValueError):
    """Raised when a config expression cannot be compiled."""


def _check(body: ast.AST, variables: frozenset, expression: str, what: str) -> None:
    """Check every node of ``body`` against the whitelist."""
    stack = [body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            if node.id not in variables and node.id not in _NAMESPACE:
                raise ExpressionError(f"unknown name in {what} {expression!r}: {node.id!r}")
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float, bool):
            try:
                float(node.value)
            except OverflowError:
                raise ExpressionError(f"{what} {expression!r} has a literal that no float holds") from None
        elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            stack += (node.left, node.right)
        elif isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            stack.append(node.operand)
        elif isinstance(node, ast.Compare) and all(type(op) in _COMPARE for op in node.ops):
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


def _parsed(expression: str, variables: list, what: str) -> ast.AST:
    """The body of the lambda of ``x1 .. xn`` that returns ``expression``,
    checked against the whitelist."""
    if not isinstance(expression, str) or not expression.strip():
        raise ExpressionError(f"{what} must be a nonempty string, got {expression!r}")
    source = f"lambda {', '.join(variables)}: ({expression})"
    try:
        tree = ast.parse(source, f"<{what}>", "eval")
    except SyntaxError as exc:
        raise ExpressionError(f"invalid {what} {expression!r}: {exc.msg}") from None
    # the parsed source must be exactly one lambda; text such as "0), (y"
    # would otherwise close it early and smuggle in a second expression
    if not isinstance(tree.body, ast.Lambda):
        raise ExpressionError(f"invalid {what} {expression!r}: not a single expression")
    _check(tree.body.body, frozenset(variables), expression, what)
    return tree.body.body


def _lambdas(point: str, rows: str, variables: list, what: str) -> tuple[Callable, Callable]:
    """The per-point and the batched lambda of ``x1 .. xn`` that return the
    emitted ``point`` and ``rows`` texts, from one ``compile()``; where the
    texts agree, one lambda serves as both."""
    params = ", ".join(variables)
    if point == rows:
        fn = eval(compile(f"lambda {params}: {point}", f"<{what}>", "eval"), _GLOBALS)
        return fn, fn
    return eval(compile(f"(lambda {params}: {point}, lambda {params}: {rows})", f"<{what}>", "eval"), _GLOBALS)


def _compile(expression: str, dimension: int, what: str) -> tuple[Callable, Callable, bool]:
    """The expression as a lambda of ``x1 .. xn``, its batched lambda (of the
    columns ``x1 .. xn``), and whether it reads them."""
    variables = [f"x{i + 1}" for i in range(dimension)]
    point, rows, reads, _ = _emit(_parsed(expression, variables, what), frozenset(variables))
    return (*_lambdas(point, rows, variables, what), reads)


def _literal(value) -> str:
    """Source text that parses back to the constant ``value``, an int as its
    float: ``repr`` gives 'inf' for ``1e999``."""
    if type(value) is bool:
        return repr(value)
    return "1e999" if value == math.inf else repr(float(value))


def _arithmetic(node: ast.AST, variables: frozenset) -> tuple[str, str, bool]:
    """``node`` as an operand of arithmetic: a truth value passes through
    ``_number`` in both forms."""
    point, rows, reads, truth = _emit(node, variables)
    return (f"_number({point})", f"_number({rows})", reads) if truth else (point, rows, reads)


def _emit(node: ast.AST, variables: frozenset) -> tuple[str, str, bool, bool]:
    """The whitelisted ``node`` as the source text of its per-point form and
    of its batched form, whether it reads a state variable, and whether it
    can be a truth value: a comparison, ``not``, a bool constant, or
    ``and``/``or``/``if``-``else``/``abs``/``min``/``max`` of one.

    Every compound is parenthesised, so the text parses back to the tree
    it came from.  A square's base is emitted once, so nested squares stay
    linear in size.  A subtree that reads no state variable is the same
    text in both forms, so constants are computed exactly as the per-point
    form computes them."""
    if isinstance(node, ast.Name):
        return node.id, node.id, node.id in variables, False
    if isinstance(node, ast.Constant):
        text = _literal(node.value)
        return text, text, False, type(node.value) is bool
    truth = False
    if isinstance(node, ast.BinOp):
        (lp, lb, lr), (rp, rb, rr) = _arithmetic(node.left, variables), _arithmetic(node.right, variables)
        op, exponent, reads = type(node.op), node.right, lr or rr
        point, rows = f"({lp} {_BINARY[op]} {rp})", f"({lb} {_BINARY[op]} {rb})"
        if op is ast.Pow and isinstance(exponent, ast.Constant) \
                and type(exponent.value) in (int, float) and exponent.value == 2:
            point, rows = f"_square({lp})", f"_square({lb})"
        elif op is ast.Pow:  # numpy's array power rounds differently
            point, rows = f"_power({lp}, {rp})", f"_Pow({lb}, {rb})"
        elif op in _FLOAT64:
            name = _FLOAT64[op]
            point, rows = f"{name}({lp}, {rp})", f"{name}({lb}, {rb})"
    elif isinstance(node, ast.UnaryOp):
        symbol = _UNARY[type(node.op)]
        if isinstance(node.op, ast.Not):
            operand, rows, reads, _ = _emit(node.operand, variables)
            rows, truth = f"_not({rows})", True
        else:
            operand, rows, reads = _arithmetic(node.operand, variables)
            rows = f"({symbol}{rows})"
        point = f"({symbol}{operand})"
    else:
        if isinstance(node, ast.Compare):
            children = (node.left, *node.comparators)
        elif isinstance(node, ast.IfExp):
            children = (node.test, node.body, node.orelse)
        else:
            children = node.values if isinstance(node, ast.BoolOp) else node.args
        parts = [_emit(child, variables) for child in children]
        points, batched = [p[0] for p in parts], [p[1] for p in parts]
        reads, truths = any(p[2] for p in parts), [p[3] for p in parts]
        if isinstance(node, ast.Compare):
            ops = [_COMPARE[type(op)] for op in node.ops]
            point = f"({points[0]}{''.join(f' {op} {p}' for op, p in zip(ops, points[1:]))})"
            terms = [f"({a} {op} {b})" for op, a, b in zip(ops, batched, batched[1:])]
            rows, truth = terms[0] if len(terms) == 1 else f"_all({', '.join(terms)})", True
        elif isinstance(node, ast.IfExp):
            point, rows = f"({points[1]} if {points[0]} else {points[2]})", f"_where({', '.join(batched)})"
            truth = truths[1] or truths[2]
        elif isinstance(node, ast.BoolOp):
            word, name = (" and ", "_and") if isinstance(node.op, ast.And) else (" or ", "_or")
            point, rows, truth = f"({word.join(points)})", batched[0], any(truths)
            for value in batched[1:]:
                rows = f"{name}({rows}, {value})"
        else:  # a call of a whitelisted function
            name = node.func.id
            point, rows = f"{name}({', '.join(points)})", f"_{name}({', '.join(batched)})"
            truth = name in ("abs", "min", "max") and any(truths)
    return point, rows if reads else point, reads, truth


def _power(a, b):
    """``a ** b`` as numpy's float64 scalar power: per point, and elementwise
    in the batched form."""
    return np.float64(a) ** b


def _divide(a, b):
    """``a / b`` as float64 division, of numbers and arrays alike: ``x / 0``
    is ±inf or nan."""
    return np.float64(a) / np.float64(b)


def _floordiv(a, b):
    """``a // b`` as numpy's float64 floor division, of numbers and arrays
    alike: ``x // 0`` is ±inf or nan."""
    return np.float64(a) // np.float64(b)


def _mod(a, b):
    """``a % b`` as numpy's float64 remainder, of numbers and arrays alike:
    ``x % 0`` is nan."""
    return np.float64(a) % np.float64(b)


#: the operators that are one float64 operation, by helper name, in both forms
_FLOAT64 = {ast.Div: "_divide", ast.FloorDiv: "_floordiv", ast.Mod: "_mod"}


def _square(a):
    """``a ** 2`` as the one correctly rounded product ``a * a``."""
    return a * a


# ---------------------------------------------------------------------- #
# batched forms
def _truth(v) -> np.ndarray:
    """Elementwise ``bool(v)``; object arrays use Python truthiness."""
    v = np.asarray(v)
    return v if v.dtype == bool else v.astype(bool)


def _pick(c, a, b):
    """``np.where(c, a, b)`` with Python's truthiness of ``c``."""
    return np.where(_truth(c), a, b)


def _first(better):
    """Python's ``min``/``max`` rule: a later argument replaces the current
    value only when ``better(arg, current)`` holds."""

    def pick(*args):
        if len(args) < 2:
            raise TypeError("min/max of a single number")
        cur = args[0]
        for a in args[1:]:
            cur = _pick(better(a, cur), a, cur)
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
    "_and": lambda a, b: _pick(a, b, a),
    "_or": lambda a, b: _pick(a, a, b),
    "_where": _pick,
    "_all": _all,
    "_Pow": np.frompyfunc(_power, 2, 1),
    "_floor": _NAMESPACE["floor"],
    "_ceil": _NAMESPACE["ceil"],
    **{f"_{k}": np.frompyfunc(v, 1, 1) for k, v in _NAMESPACE.items()
       if callable(v) and k not in ("abs", "min", "max", "floor", "ceil")},
}

# the globals of both lambdas: their names are disjoint but for the helpers
# that serve both forms (_number takes a truth value, or an array of them, as
# float64; _power also serves a constant power in the batched text); a free
# name of a lambda body resolves here
_GLOBALS = {"__builtins__": {}, **_NAMESPACE, **_BATCH_NAMESPACE, "_number": np.float64, "_square": _square,
            "_power": _power, "_divide": _divide, "_floordiv": _floordiv, "_mod": _mod}


def _rows_form(batched: Callable, per_point: Callable, finish: Callable) -> Callable:
    """``rows(X)``: the batched lambda applied to the columns of X and shaped
    by ``finish(value, m)``; row by row through ``per_point`` when the
    batched pass raises."""

    def rows(X):
        X = np.asarray(X, dtype=float)
        try:
            return finish(batched(*X.T), X.shape[0])
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
    variables = [f"x{i + 1}" for i in range(dimension)]
    forms = [_emit(_parsed(e, variables, "vector component"), frozenset(variables)) for e in expressions]
    point, rows = (f"[{', '.join(form[i] for form in forms)}]" for i in (0, 1))
    fn, batched = _lambdas(point, rows, variables, "vector component")
    k = len(forms)

    def wrapped(x):
        return np.array(fn(*np.asarray(x, dtype=float)), dtype=float)

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
