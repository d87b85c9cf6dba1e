"""Run the random-tree property of the expression compiler with a fresh seed.

    python3 tools/expression_sweep.py [SEED]

Runs ``test_rows_equal_stacked_per_point_values_on_random_trees`` of
``tests/test_expressions.py``, its own strategy and assertion, on 3,000
random trees drawn under ``hypothesis.seed(SEED)``, not derandomized.
SEED defaults to a fresh random one and is printed first, so a failure can
be run again.  A difference between the per-point and the batched forms
ends the run with hypothesis's shrunk falsifying example and exit status 1.
The tier-1 test runs the same property on 300 derandomized examples.
"""
from __future__ import annotations

import os
import random
import sys
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from hypothesis import given, seed, settings  # noqa: E402

from test_expressions import _cases, test_rows_equal_stacked_per_point_values_on_random_trees as prop  # noqa: E402


def main(argv: list) -> int:
    chosen = int(argv[1]) if len(argv) > 1 else random.SystemRandom().randrange(2 ** 32)
    print(f"seed {chosen}", flush=True)
    warnings.simplefilter("error", RuntimeWarning)  # as pyproject.toml sets for pytest
    sweep = settings(derandomize=False, database=None, deadline=None, max_examples=3000)(
        given(_cases())(prop.hypothesis.inner_test))
    try:
        seed(chosen)(sweep)()
    except AssertionError as exc:
        print(f"seed {chosen}: the forms differ: {exc}")
        return 1
    print(f"seed {chosen}: no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
