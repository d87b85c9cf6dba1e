"""Freeze what the expression compiler gives on a fixed corpus into
``tests/data/expression_forms.json``.

    python3 tools/expression_forms.py

The corpus (``form_corpus`` in ``tests/test_expressions.py``) is every
builtin config expression and hint velocity, the README's expressions and
at least one expression per whitelisted construct; the points include both
signed zeros, the builtin pieces' interfaces and ±1e200.  For each entry
the table records the per-point result at every point and the ``.rows``
result, as ``float.hex``, as a bool or as the exception class.
``test_compiled_forms_equal_the_frozen_forms`` checks the compiler against
the table.  Run this again only when a change to the forms is intended, and
review the diff of the table.
"""
from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from test_expressions import FORMS, form_corpus, forms  # noqa: E402


def main() -> int:
    entries = [forms(kind, expression, n) for kind, expression, n in form_corpus()]
    os.makedirs(os.path.dirname(FORMS), exist_ok=True)
    with open(FORMS, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"{len(entries)} forms -> {os.path.relpath(FORMS, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
