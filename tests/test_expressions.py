from __future__ import annotations

import math

import pytest

from inclusafe import ExpressionError, scenarios
from inclusafe.expressions import predicate_fn, scalar_fn, vector_fn


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
