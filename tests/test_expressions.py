from __future__ import annotations

import ast
import json
import math
import os
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inclusafe import ExpressionError, scenarios
from inclusafe.expressions import _compile, predicate_fn, scalar_fn, vector_fn


@pytest.mark.parametrize("expression", [
    "().__class__.__mro__[1].__subclasses__()",
    "abs.__self__",
    "x1[0]",
    "[x1 for _ in (1,)]",
    "(lambda: 1)()",
    "max(*(1, 2))",
    "max(1, 2, key=abs)",
    "(y := 1)",
    "x1 in (1, 2)",
    "'text'",
    "pi()",
    "0), (x1",
    "x3",
    "x1 + 0x" + "f" * 300,  # a literal that no float holds
])
def test_sandbox_rejects_constructs_outside_the_whitelist(expression):
    with pytest.raises(ExpressionError):
        scalar_fn(expression, 2)


def test_whitelisted_constructs_evaluate_as_python_does():
    f = scalar_fn("max(x1, -2 - x1) + (sqrt(abs(x2)) if x1 > 0 and not x2 == 3 else -x1 ** 2 // 3 % 2)", 2)
    for x1, x2 in ((2.0, -4.0), (-1.5, 3.0), (0.0, 0.0)):
        want = max(x1, -2 - x1) + (math.sqrt(abs(x2)) if x1 > 0 and not x2 == 3 else -x1 ** 2 // 3 % 2)
        assert f([x1, x2]) == want
    assert vector_fn(["pi", "e * x1", "-x1 < +x1 <= 2"], 1)([1.0]).tolist() == [math.pi, math.e, 1.0]


def test_builtin_configs_compile_under_the_sandbox():
    for name in scenarios.BUILTIN:
        scenarios.build(name)


def test_predicates_without_state_variables_fold_to_constants():
    assert predicate_fn("True", 2).constant is True
    assert predicate_fn("1 > 2", 1).constant is False
    assert predicate_fn("x1 <= 0", 1).constant is None
    # a domain error is left to evaluation time, as for any expression
    assert predicate_fn("log(0) > 1", 1).constant is None


# ----------------------------------------------------------------------- #
# batched forms
def _builtin_expressions():
    """(kind, expression, dimension) of every expression in the builtin
    configs and of both hint velocities."""
    out = []
    for name in scenarios.BUILTIN:
        cfg = scenarios.builtin_config(name)
        n = cfg["dimension"]
        bar = cfg["barrier"]
        out.append(("scalar", bar["value"], n))
        out.append(("vector", bar["gradient"], n))
        out += [("predicate", cfg[k], n) for k in ("initial", "unsafe")]
        out.append(("scalar", cfg["depth"], n))
        for piece in cfg["dynamics"]["pieces"]:
            out.append(("predicate", piece["when"], n))
            if piece["image"]["kind"] == "polynomial":
                out.append(("vector", piece["image"]["components"], n))
        out += [("vector", h["velocity"], n) for h in cfg.get("hints", ())]
    # example2's sensing-offset hint velocity, as its hint builder writes it
    out += [("vector", ["0", f"-1 + x1**2*(x2 + {eps!r}) + {eps!r}"], 2) for eps in (0.04, 0.1)]
    return out


_EXTRA = [
    "x1**2 - x2**3 + 2**x1", "x1 // x2 + x1 % x2 - x2 // 0.7 + (-x1) % 3",
    "sqrt(abs(x1)) + exp(-x2) - log(1 + abs(x1)) + sin(x2) * cos(x1)",
    "tan(x1) + tanh(x2) + floor(x1) * ceil(x2)",
    "min(x1, 0.0) + max(x2, -0.0, x1)", "min(x1*0, -0.0)", "max(-0.0, x2*0)",
    "-1 < x1 <= x2 < 2", "x1 == x2 != 0", "x1 if x1 > x2 else (x2 if x2 > 0 else -x1)",
    "x1 > 0 and x2 < 0", "x1 and x2", "x1 or x2 or 3", "not (x1 > 0)",
    "log(x1) if x1 > 0 else -x1",  # log of a negative number in the branch not taken
    "x1 / x2", "(x1 > 0) + (x2 <= 0) * 2", "pi * x1 + e", "3 ** 2 + x1",
    "(x1 - x2) ** 2", "(x1 > 0) ** 2 + x1", "x1 ** 2.0 - 3 ** 2",
    "-(0 if x1 else x1)",  # a literal branch negates to -0.0 in both forms
    "(1e999 if x1 else x1) / 0",  # a float over zero is inf in both forms, not an error
    # a math function's result and a state variable, floor-divided and
    # reduced by zero: inf or nan in both forms, not an error
    "sqrt(abs(x1)) // 0", "sqrt(abs(x1)) % 0", "x1 // 0", "x1 % 0",
]


# arithmetic on truth values, which both forms must evaluate as Python does
# on plain floats with every truth value taken as its float
_TRUTH = [
    "(x1 > 0) + (x2 > 0)", "(x1 > 0) - (x2 > 0)", "-(x1 > 0)", "+(x1 > 0) * x2",
    "(not (x1 > 0)) + (not (x2 > 0))", "((x1 > 0) or 0) + ((x2 > 0) or 0)",
    "abs(x1 > 0) + abs(x2 <= 0)", "min(x1 > 0, x2 > 0) + max(x1 > 0, x2 <= 0)",
    "-min(x1 > 0, x2)", "-max(x2, x1 > 0) * 3",
    "(x1 > 0 if x2 > 0 else x2 < 0) + (x1 < 0)", "-(x2 if x1 > 0 else x1 > 1)",
    "-(x1 > 0 and x2)", "(x1 > 0 or x2) ** 2 + (x2 > 0) ** 3",
    "(x1 > 0) // 1 + (x2 > 0) % 2 + (x1 > 0) / 2 + True",
    "(x1 > 0) * 1000000000000000000 * 100",  # past int64: a truth value is a float
]


class _TruthAsFloat(ast.NodeTransformer):
    """Wraps each comparison, ``not`` and constant in ``float(...)``, so that
    Python evaluates a truth value as 0.0 or 1.0."""

    def generic_visit(self, node):
        node = super().generic_visit(node)
        if isinstance(node, (ast.Compare, ast.Constant)) or isinstance(getattr(node, "op", None), ast.Not):
            return ast.Call(ast.Name("float", ast.Load()), [node], [])
        return node


def _points(n: int) -> np.ndarray:
    rng = np.random.default_rng(7 + n)
    X = rng.uniform(-3.0, 3.0, (300, n))
    X[:40] = np.round(X[:40])  # integer points: exact ties, x1 == 0, x2 == 0
    X[40:60, 0] = 0.0
    X[60:80, 0] = -0.0
    X[80:90] = 0.0
    return X


def _rows_match_scalar(kind, expression, n):
    X = _points(n)
    if kind == "vector":
        f = vector_fn(expression, n)
        want = np.array([f(x) for x in X])
    else:
        f = (scalar_fn if kind == "scalar" else predicate_fn)(expression, n)
        want = np.array([f(x) for x in X])
    got = f.rows(X)
    assert got.dtype == want.dtype and got.shape == want.shape, expression
    assert got.tobytes() == want.tobytes(), expression


@pytest.mark.parametrize("kind, expression, n", _builtin_expressions())
def test_rows_equal_stacked_scalar_results_on_builtin_expressions(kind, expression, n):
    _rows_match_scalar(kind, expression, n)


@pytest.mark.parametrize("expression", _EXTRA + _TRUTH)
def test_rows_equal_stacked_scalar_results_on_every_construct(expression):
    with np.errstate(all="ignore"):
        for kind in ("scalar", "predicate"):
            _rows_match_scalar(kind, expression, 2)
        _rows_match_scalar("vector", [expression, "x2"], 2)
    if expression in _TRUTH:
        f = scalar_fn(expression, 2)
        names = {"__builtins__": {}, "abs": abs, "min": min, "max": max, "float": float}
        reference = compile(ast.fix_missing_locations(_TruthAsFloat().visit(ast.parse(expression, mode="eval"))),
                            "<reference>", "eval")
        for x1, x2 in _points(2).tolist():
            want = float(eval(reference, names, {"x1": x1, "x2": x2}))
            assert np.float64(f([x1, x2])).tobytes() == np.float64(want).tobytes(), (expression, x1, x2)


def test_rows_min_max_keep_the_first_of_signed_zero_ties():
    X = np.array([[0.0, -0.0], [-0.0, 0.0]])
    assert np.signbit(scalar_fn("min(x1, x2)", 2).rows(X)).tolist() == [False, True]
    assert np.signbit(scalar_fn("max(x2, x1)", 2).rows(X)).tolist() == [True, False]


def test_rows_fall_back_to_row_errors():
    f = scalar_fn("log(x1)", 1)
    assert f.rows(np.array([[1.0], [math.e]])).tolist() == [0.0, 1.0]
    with pytest.raises(ValueError):  # the per-point form's math domain error
        f.rows(np.array([[1.0], [-1.0]]))
    # a negative number to a fractional power is nan in both forms, not
    # Python's complex number
    with np.errstate(all="ignore"):
        g = scalar_fn("x1 ** 0.5", 1)
        X = np.array([[4.0], [-4.0]])
        assert np.array_equal(g.rows(X), [g(x) for x in X], equal_nan=True)


@pytest.mark.parametrize("expression, x", [("x1 ** 0.5", -4.0), ("x1 ** 3", 1e200)])
def test_per_point_form_evaluates_on_float64_whatever_the_container(expression, x):
    f = scalar_fn(expression, 1)
    vector = vector_fn([expression], 1)
    with np.errstate(all="ignore"):
        got = [f(c) for c in ([x], (x,), np.array([x]))]
        got += [vector(c)[0] for c in ([x], (x,), np.array([x]))]
        assert np.array_equal(got, [f.rows(np.array([[x]]))[0]] * 6, equal_nan=True)
    with np.errstate(all="raise"):
        for c in ([x], (x,), np.array([x])):
            with pytest.raises(FloatingPointError):
                f(c)


# ----------------------------------------------------------------------- #
# squares
def _square_points() -> list:
    """Random doubles, first those where Python's ``x ** 2`` (libm's pow)
    is not the correctly rounded ``x * x``."""
    xs = np.random.default_rng(11).uniform(-10.0, 10.0, 20000).tolist()
    return sorted(xs, key=lambda x: x ** 2 == x * x)


def test_squares_are_one_correctly_rounded_product():
    xs = _square_points()
    f, vector = scalar_fn("x1**2", 1), vector_fn(["x1", "x1**2"], 1)
    for x in xs[:50]:
        assert f([x]) == x * x and vector([x])[1] == x * x, x
        # a bound between pow's square and the product tells them apart
        c = min(x ** 2, x * x)
        assert predicate_fn(f"x1**2 <= {c!r}", 1)([x]) is (x * x <= c), x
    X = np.array(xs)[:, None]
    assert f.rows(X).tobytes() == (X[:, 0] * X[:, 0]).tobytes()
    assert vector.rows(X)[:, 1].tobytes() == (X[:, 0] * X[:, 0]).tobytes()
    # a truth value squares to an integer, as under ``**``, not to a bool
    g = scalar_fn("(x1 > 0) ** 2 + (x2 > 0) ** 2", 2)
    assert g([1.0, 1.0]) == 2.0 and g.rows(np.ones((1, 2))).tolist() == [2.0]


@pytest.mark.parametrize("expression, power", [
    ("x1**3", lambda x: x ** 3),
    ("2**x1", lambda x: 2 ** x),
    ("abs(x1)**0.5", lambda x: abs(x) ** 0.5),
])
def test_other_powers_keep_pythons_pow(expression, power):
    xs = _square_points()[:200]
    f = scalar_fn(expression, 1)
    want = [power(x) for x in xs]
    assert [f([x]) for x in xs] == want
    assert f.rows(np.array(xs)[:, None]).tolist() == want


def test_powers_beyond_float_range_are_infinite_at_once():
    # a power is one float64 operation: as an exact int power, 2 ** floor(x1)
    # at 1e8 took 0.74 s, and at 1e12 would have taken hours
    start = time.perf_counter()
    with np.errstate(all="ignore"):
        for expression, x in (("2 ** floor(x1)", 1e8), ("floor(x1) ** 2", 1e200),
                              ("2 ** (3 ** (3 ** 3)) + x1", 0.0), ("x1 + 10 ** 400", 0.0)):
            f = scalar_fn(expression, 1)
            assert f([x]) == math.inf and f.rows(np.array([[1.0], [x]]))[1] == math.inf, expression
    assert time.perf_counter() - start < 0.2
    assert predicate_fn("2 ** floor(x1) == 2 ** 1023", 1)([1023.5]) is True
    assert scalar_fn("(-2) ** floor(x1)", 1).rows(np.array([[1023.0], [3.0]])).tolist() == [-2.0 ** 1023, -8.0]
    assert scalar_fn("floor(x1) ** 1", 1)([sys.float_info.max]) == sys.float_info.max
    # numpy's errstate decides whether the overflow raises, in both forms alike
    with np.errstate(over="raise"):
        f = predicate_fn("2 ** floor(x1) > 0", 1)
        with pytest.raises(FloatingPointError):
            f([1024.0])
        with pytest.raises(FloatingPointError):
            f.rows(np.array([[1.0], [1024.0]]))


def test_nested_squares_are_not_duplicated():
    expression = "x1"
    for _ in range(40):
        expression = f"({expression}) ** 2"
    start = time.perf_counter()
    f = scalar_fn(expression, 1)
    assert f([0.5]) == 0.0 and f([-1.0]) == 1.0
    assert f.rows(np.array([[1.0], [-1.0], [0.5]])).tolist() == [1.0, 1.0, 0.0]
    assert time.perf_counter() - start < 0.5


def test_config_cannot_name_the_square_helper():
    with pytest.raises(ExpressionError):
        scalar_fn("_square(x1)", 1)


def test_builtin_batched_forms_use_no_elementwise_pow():
    for kind, expression, n in _builtin_expressions():
        for text in [expression] if isinstance(expression, str) else expression:
            _, batched, _ = _compile(text, n, kind)
            assert "_Pow" not in batched.__code__.co_names, text


# ----------------------------------------------------------------------- #
# frozen forms: tests/data/expression_forms.json holds what the compiler gave
# on this corpus when it was written by tools/expression_forms.py
FORMS = os.path.join(os.path.dirname(__file__), "data", "expression_forms.json")

# at least one expression per whitelisted construct, and the README's
_CONSTRUCTS = [
    "x1 + x2", "x1 - x2", "x1 * x2", "x1 / x2", "x1 // x2", "x1 % x2", "x1 ** x2",
    "+x1", "-x1", "not x1", "-(-x1)", "abs(-0.0 * x1)",
    "x1 == x2", "x1 != x2", "x1 < x2", "x1 <= x2", "x1 > x2", "x1 >= x2",
    "0 <= x1 < x2 <= 3", "x1 < x2 > 0", "x1 > 0 or x2 > 0 and not x1 < x2", "not x1 and x2",
    "x1 if x2 else x2", "x1 if 1 else x2",
    "abs(x1)", "min(x1, x2)", "max(x1, x2)", "min(x1, x2, 0.5)", "sqrt(x1)", "exp(x1)",
    "log(x1)", "sin(x1)", "cos(x1)", "tan(x1)", "tanh(x1)", "floor(x1)", "ceil(x1)",
    "pi", "e", "True", "1 > 2", "log(0) > 1", "True + x1", "x1 + False", "x1 + (2 > 1 and 5)",
    "x1 ** 2", "x1 ** 2.0", "((x1 ** 2) ** 2) ** 2", "(x1 ** 2 + x2 ** 2) ** 2", "-x1 ** 2",
    "(x1 > 0) ** 2", "x1 ** 2 ** 1", "x1 ** 3", "x1 ** 0.5", "x1 ** -1", "2 ** x1",
    "2 ** 0.5 * x1", "x1 + 2 ** 0.5", "sqrt(2) * x1", "x1 * (1 // 3 + 7 % 4)",
    "x1 + (3 if 1 > 0 else 4)", "x1 + 10 ** 400",
    "1e999", "x1 + 1e999", "x1 - 1e999", "x1 * 1e999", "-1e999 < x1",
    "x1 * x1", "(x1 * x1) * x1", "x1 <= 0", "(x1 > 0 and x2)", "-(x1 > 0 and x2)",
]


def form_corpus() -> list:
    """(kind, expression, dimension) of every frozen form, each once."""
    out = _builtin_expressions()
    for text in _EXTRA + _TRUTH + _CONSTRUCTS:
        n = 2 if "x2" in text else 1
        out += [("scalar", text, n), ("predicate", text, n)]
    out.append(("vector", ["x1 ** 2", "(x1 > 0) + x2", "pi", "min(x1, x2)", "x2 - 1e999", "-(x2 < 0)"], 2))
    seen = set()
    return [c for c in out if repr(c) not in seen and not seen.add(repr(c))]


def _form_points(n: int) -> np.ndarray:
    """Zeros of both signs, the builtin pieces' interfaces, ±1e200 and a few
    other values, two of them where libm's ``x ** 2`` is not ``x * x``;
    every pair of them in 2-D."""
    values = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, -0.7, -0.5690083675613415, 1e200, -1e200]
    if n == 1:
        return np.array(values + [2.5, 3.0, 0.1, 1e-300, 3.753351923688669])[:, None]
    return np.array([(a, b) for a in values for b in values])


def _encode(value):
    """A float as float.hex (a NaN with its sign), a bool as itself, and an
    array as the list of its entries."""
    if isinstance(value, (list, np.ndarray)):
        return [_encode(v) for v in (value.tolist() if isinstance(value, np.ndarray) else value)]
    if isinstance(value, bool):
        return value
    return ("-nan" if math.copysign(1.0, value) < 0 else "nan") if math.isnan(value) else float.hex(value)


def _outcome(fn, *args):
    try:
        return _encode(fn(*args))
    except Exception as exc:  # the exception class is the frozen outcome
        return f"raise {type(exc).__name__}"


def forms(kind: str, expression, n: int) -> dict:
    """The per-point result at every point of ``_form_points(n)``, the
    ``.rows`` result on all of them and, when that raises, on the points
    where the per-point form does not."""
    factory = {"scalar": scalar_fn, "predicate": predicate_fn, "vector": vector_fn}[kind]
    f = factory(expression, n)
    X = _form_points(n)
    with np.errstate(all="ignore"):
        point = [_outcome(f, x) for x in X]
        out = {"kind": kind, "expression": expression, "dimension": n, "point": point,
               "rows": _outcome(f.rows, X)}
        if isinstance(out["rows"], str):
            ok = [not (isinstance(p, str) and p.startswith("raise ")) for p in point]
            out["rows_ok"] = _outcome(f.rows, X[ok])
    return out


def test_compiled_forms_equal_the_frozen_forms():
    with open(FORMS, encoding="utf-8") as fh:
        table = json.load(fh)
    assert [(e["kind"], e["expression"], e["dimension"]) for e in table] == form_corpus()
    wrong = [(e, got) for e in table if (got := forms(e["kind"], e["expression"], e["dimension"])) != e]
    assert not wrong, f"{len(wrong)} of {len(table)} forms moved, first: {wrong[0]}"


def test_non_finite_and_long_literals_parse_back():
    for expression, want in (("x1 + 1e999", math.inf), ("x1 - 1e999", -math.inf)):
        f = scalar_fn(expression, 1)
        assert f([2.0]) == want and f.rows(np.array([[2.0], [-1e200]])).tolist() == [want, want]
    # a hexadecimal literal past the limit on int to str conversion is its
    # float; one that no float holds is refused at load
    f = scalar_fn("x1 + 0x" + "0" * 5000 + "f" * 10, 1)
    assert f([1.0]) == 1.0 + 0xffffffffff and f.rows(np.array([[1.0]])).tolist() == [1.0 + 0xffffffffff]
    with pytest.raises(ExpressionError):
        scalar_fn("x1 + 0x" + "f" * 5000, 1)


# ----------------------------------------------------------------------- #
# random expression trees: rows against the stacked per-point form
_LEAVES = ["0", "1", "2", "3", "0.5", "2.0", "1e999", "True", "False", "pi", "e"]
_CALLS = ["abs", "sqrt", "exp", "log", "sin", "cos", "tan", "tanh", "floor", "ceil"]


def _trees(depth: int, leaves: list, calls: list) -> st.SearchStrategy:
    """Whitelisted expression texts of at most ``depth`` levels.

    Any subtree can be an exponent, ``floor``/``ceil`` of a state variable
    and int literals included: a power is one float64 operation, so one
    past float range, such as ``2 ** floor(x1)`` at x1 = 1e200 or
    ``2 ** (3 ** (3 ** 3))``, is inf at once."""
    leaf = st.sampled_from(leaves)
    if depth == 0:
        return leaf
    sub = _trees(depth - 1, leaves, calls)
    return st.one_of(
        leaf,
        st.builds("({} {} {})".format, sub, st.sampled_from(["+", "-", "*", "/", "//", "%"]), sub),
        st.builds("({} ** {})".format, sub, sub),
        st.builds("({}) ** {}".format, sub, st.sampled_from(["2", "2.0"])),
        st.builds("({}{})".format, st.sampled_from(["-", "+", "not "]), sub),
        st.builds(lambda first, rest: "(" + first + "".join(f" {op} {t}" for op, t in rest) + ")",
                  sub, st.lists(st.tuples(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), sub),
                                min_size=1, max_size=2)),
        st.builds(lambda word, terms: "(" + word.join(terms) + ")",
                  st.sampled_from([" and ", " or "]), st.lists(sub, min_size=2, max_size=3)),
        st.builds("({} if {} else {})".format, sub, sub, sub),
        st.builds("{}({})".format, st.sampled_from(calls), sub),
        st.builds(lambda name, args: f"{name}({', '.join(args)})",
                  st.sampled_from(["min", "max"]), st.lists(sub, min_size=2, max_size=3)),
    )


_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e200, -1e200]), st.floats())


_TREES = {n: _trees(4, [f"x{i + 1}" for i in range(n)] + _LEAVES, _CALLS) for n in (1, 2)}


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 2))
    expression = draw(_TREES[n])
    rows = draw(st.lists(st.lists(_VALUES, min_size=n, max_size=n), min_size=1, max_size=6))
    return expression, n, np.array(rows, dtype=float)


def _stacked(f, X):
    try:
        return np.array([f(x) for x in X])
    except Exception as exc:  # the outcome is the exception class
        return type(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_cases())
# a power of a NaN keeps one sign: both forms run the same float64 power
@example(("x1 ** 3", 1, np.array([[-math.nan]])))
@example(("(x1 - x1) ** 1", 1, np.array([[math.inf]])))
def test_rows_equal_stacked_per_point_values_on_random_trees(case):
    expression, n, X = case
    with np.errstate(all="ignore"):
        for factory in (scalar_fn, predicate_fn):
            f = factory(expression, n)
            want, got = _stacked(f, X), _stacked(f.rows, [X])
            if isinstance(want, type) or isinstance(got, type):
                assert got is want, (expression, X)
            else:
                assert got[0].dtype == want.dtype and got[0].tobytes() == want.tobytes(), (expression, X)


def test_squares_overflow_to_infinity_in_both_forms():
    f = scalar_fn("x1**2", 1)
    with np.errstate(all="ignore"):
        assert f([1e200]) == f(np.array([1e200])) == math.inf
        assert f.rows(np.array([[1e200], [-1e200]])).tolist() == [math.inf, math.inf]
