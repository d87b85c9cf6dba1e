from __future__ import annotations

import contextlib
import io
import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_entry_points_example_runs_as_printed():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Library entry points"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {})
    margin, witness, result = out.getvalue().splitlines()
    assert float(margin) == pytest.approx(2.0, abs=1e-3)  # "≈ 2.0"
    assert witness == "(0.0,)"
    found, depth, policy = result.split()
    assert found == "True"
    assert float(depth) == pytest.approx(0.1, abs=1e-3)
    assert policy == "constant(1)"
