from __future__ import annotations

import math
import time

import numpy as np
import pytest

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
]


# arithmetic on truth values, which both forms must evaluate as Python does
# on plain floats
_TRUTH = [
    "(x1 > 0) + (x2 > 0)", "(x1 > 0) - (x2 > 0)", "-(x1 > 0)", "+(x1 > 0) * x2",
    "(not (x1 > 0)) + (not (x2 > 0))", "((x1 > 0) or 0) + ((x2 > 0) or 0)",
    "abs(x1 > 0) + abs(x2 <= 0)", "min(x1 > 0, x2 > 0) + max(x1 > 0, x2 <= 0)",
    "-min(x1 > 0, x2)", "-max(x2, x1 > 0) * 3",
    "(x1 > 0 if x2 > 0 else x2 < 0) + (x1 < 0)", "-(x2 if x1 > 0 else x1 > 1)",
    "-(x1 > 0 and x2)", "(x1 > 0 or x2) ** 2 + (x2 > 0) ** 3",
    "(x1 > 0) // 1 + (x2 > 0) % 2 + (x1 > 0) / 2 + True",
]


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
        names = {"__builtins__": {}, "abs": abs, "min": min, "max": max}
        for x1, x2 in _points(2).tolist():
            want = float(eval(expression, names, {"x1": x1, "x2": x2}))
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
    # Python's power gives a complex number here; the per-point form on a
    # float64 gives nan, and so must the batched form
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
            assert "_Pow" not in batched().__code__.co_names, text


def test_squares_overflow_to_infinity_in_both_forms():
    f = scalar_fn("x1**2", 1)
    with np.errstate(all="ignore"):
        assert f([1e200]) == f(np.array([1e200])) == math.inf
        assert f.rows(np.array([[1e200], [-1e200]])).tolist() == [math.inf, math.inf]
