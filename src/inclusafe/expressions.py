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
such as ``(a * a) * a`` rounds twice.  A power of ints is exact, so its
cost grows with its result; one (a square included) whose result no float
holds raises OverflowError in both forms before it is computed.

Arithmetic takes a truth value as Python's int in both forms: ``(x1 > 0) +
(x2 > 0)`` is 2 where both hold, and ``-(x1 > 0)`` is -1.

Every compiled callable also carries a batched form, ``.rows(X)``, that
evaluates the expression at every row of an (m, n) array in one pass and is
equal bit for bit to stacking the per-point results.  One walk over the
checked tree emits both forms as source text, and one ``compile()`` call
makes both lambdas (one lambda serves both where the texts agree; a vector's
components share the call).  In the batched text, arithmetic, squares,
comparisons, boolean operators, conditional expressions and ``abs`` map to
numpy directly; ``min`` and ``max`` keep Python's rule (a later argument
replaces the current one only when strictly smaller or larger); other
powers, ``//``, ``%`` and the math functions run the very same Python
operation elementwise, since numpy's own versions round differently; ``/``
is numpy's, but raises where numpy divides by zero or gets an invalid
quotient.  When the batched pass raises (say ``log`` of a negative number
in a branch that is not taken) the form evaluates row by row, so errors
are those of the per-point form.  No text reaches ``compile()`` but what
the walk emitted from whitelisted nodes.
"""
from __future__ import annotations

import ast
import math
import operator
import sys
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
            pass
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
    """Source text that parses back to the constant ``value``: ``repr`` gives
    'inf' for ``1e999``, and a long int's decimal text can pass the limit
    on int to str conversion, which its hexadecimal text does not."""
    if type(value) is int:
        return hex(value)
    return "1e999" if value == math.inf else repr(value)


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
        elif op is ast.Pow:  # numpy's own power rounds differently
            point, rows = f"_power({lp}, {rp})", f"_Pow({lb}, {rb})"
        elif op in (ast.FloorDiv, ast.Mod):  # numpy's own versions round differently
            rows = f"_{op.__name__}({lb}, {rb})"
        elif op is ast.Div:
            rows = f"_Div({lb}, {rb})"
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


_BOOL = np.dtype(bool)


def _number(a):
    """A truth value, or an array of them, as Python's int: ``True + True`` is 2."""
    if getattr(a, "dtype", None) is _BOOL:
        return a.astype(int) if a.ndim else int(a)
    return int(a) if type(a) is bool else a


#: the largest finite float as an int: an int power beyond it is refused
_FLOAT_MAX = int(sys.float_info.max)


def _power(a, b):
    """``a ** b``, except that an int power whose result no float can hold
    raises OverflowError, found before the exact power is computed: an
    exact power of ints takes time and memory that grow with the result
    (``2 ** floor(x1)`` at x1 = 1e12 would take hours)."""
    if type(a) is int and type(b) is int and b > 0:
        if (a.bit_length() - 1) * b < 1024:  # else |a ** b| >= 2 ** 1024
            out = a ** b
            if -_FLOAT_MAX <= out <= _FLOAT_MAX:
                return out
        raise OverflowError("int power too large for a float")
    return a ** b


_OBJECT = np.dtype(object)
_Square = np.frompyfunc(lambda v: _power(v, 2) if type(v) is int else v * v, 1, 1)


def _square(a):
    """``a ** 2`` as the one correctly rounded product ``a * a``; numpy's
    multiply on arrays and float64 elements alike.  An int, alone or in an
    object array, squares under :func:`_power`'s bound."""
    if type(a) is int:
        return _power(a, 2)
    if getattr(a, "dtype", None) is _OBJECT:
        return _Square(a)
    return a * a


# ---------------------------------------------------------------------- #
# batched forms
def _truth(v) -> np.ndarray:
    """Elementwise ``bool(v)``; object arrays use Python truthiness."""
    v = np.asarray(v)
    return v if v.dtype == bool else v.astype(bool)


def _pow(a, b):
    out = _power(a, b)
    if type(out) is complex:  # numpy's scalar power returns nan here instead
        raise ValueError("complex power")
    return out


def _divide(a, b):
    """``a / b``, raising where numpy's quotient is a division by zero or
    invalid, so that the rows fall back to the per-point form: there a
    Python number (an int from a truth value or ``floor``) over zero
    raises ZeroDivisionError where numpy's int64 array gives inf or nan."""
    with np.errstate(divide="raise", invalid="raise"):
        return a / b


def _pick(c, a, b):
    """``np.where(c, a, b)``, of Python values when only one of a and b holds
    truth values: numpy would make False 0.0, which negates to -0.0, not 0."""
    a, b = np.asarray(a), np.asarray(b)
    if (a.dtype == bool) != (b.dtype == bool):
        a = a.astype(object)
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
    "_Pow": np.frompyfunc(_pow, 2, 1),
    "_Div": _divide,
    "_FloorDiv": np.frompyfunc(operator.floordiv, 2, 1),
    "_Mod": np.frompyfunc(operator.mod, 2, 1),
    **{f"_{k}": np.frompyfunc(v, 1, 1) for k, v in _NAMESPACE.items()
       if callable(v) and k not in ("abs", "min", "max")},
}

# the globals of both lambdas: their names are disjoint but for _number and
# _square, which serve both forms (and _power, which a constant power in the
# batched text shares with the per-point text); a free name of a lambda body
# resolves here
_GLOBALS = {"__builtins__": {}, **_NAMESPACE, **_BATCH_NAMESPACE, "_number": _number, "_square": _square,
            "_power": _power}


def _rows_form(batched: Callable, per_point: Callable, finish: Callable) -> Callable:
    """``rows(X)``: the batched lambda applied to the columns of X and shaped
    by ``finish(value, m)``; row by row through ``per_point`` when the
    batched pass raises."""

    def rows(X):
        X = np.asarray(X, dtype=float)
        try:
            return finish(batched(*(X[:, i] for i in range(X.shape[1]))), X.shape[0])
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
