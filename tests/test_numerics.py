"""The bisection kernel: probe order, lockstep brackets and termination."""
from __future__ import annotations

import numpy as np
import pytest

from inclusafe.numerics import largest_feasible, largest_feasible_rows


def _threshold(limit, seen=None):
    """Feasible up to ``limit``; records every probe in ``seen``."""

    def violation(t):
        if seen is not None:
            seen.append(t)
        return None if t <= limit else ("above", t)

    return violation


# (limit, result, probes) of largest_feasible(., 2.4) at the default
# tolerances, as recorded from the per-bracket loop the lockstep kernel
# replaced
PROBES = {
    "feasible at hi": (5.0, 2.4, [0.0024, 2.4]),
    "fails at the probe": (0.001, 0.0, [0.0024]),
    "interior root": (1.234567, 1.2339796875000002, [
        0.0024, 2.4, 1.2012, 1.8006, 1.5009000000000001, 1.35105, 1.276125, 1.2386625,
        1.2199312500000001, 1.2292968750000002, 1.2339796875000002, 1.23632109375,
        1.235150390625]),
    "root within rel_tol of hi": (2.3995, 2.39765859375, [
        0.0024, 2.4, 1.2012, 1.8006, 2.1003, 2.2501499999999997, 2.325075, 2.3625375,
        2.3812687500000003, 2.3906343750000003, 2.3953171875, 2.39765859375]),
}


@pytest.mark.parametrize("case", sorted(PROBES))
def test_largest_feasible_probe_sequence(case):
    limit, value, probes = PROBES[case]
    seen = []
    got, witness = largest_feasible(_threshold(limit, seen), 2.4)
    assert seen == probes
    assert got == value and type(got) is float
    assert witness == (("above", 0.0024) if value == 0.0 else None)


def test_rows_make_each_brackets_own_probes():
    limits = [5.0, 0.001, 1.234567, 2.3995, 0.7, 1e-9]
    his = [2.4, 2.4, 2.4, 2.4, 1.3, 3.0]
    seen = {k: [] for k in range(len(limits))}
    rounds = []

    def violation(rows, t):
        rounds.append(rows.tolist())
        out = []
        for k, v in zip(rows.tolist(), t.tolist()):
            seen[k].append(v)
            out.append(None if v <= limits[k] else ("above", k))
        return out

    values, witnesses = largest_feasible_rows(violation, his)
    for k, (limit, hi) in enumerate(zip(limits, his)):
        alone = []
        value, witness = largest_feasible(_threshold(limit, alone), hi)
        assert seen[k] == alone
        assert values[k] == value
        assert witnesses[k] == (None if witness is None else ("above", k))
    # the probe round sees every bracket, later rounds only the open ones
    assert rounds[0] == [0, 1, 2, 3, 4, 5]
    assert rounds[1] == [0, 2, 3, 4]
    assert rounds[2] == [2, 3, 4]


def test_rows_with_no_brackets_make_no_call():
    def violation(rows, t):
        raise AssertionError("called")

    values, witnesses = largest_feasible_rows(violation, [])
    assert values.shape == (0,) and witnesses == []


def test_nonpositive_bracket_rejected():
    with pytest.raises(ValueError, match="positive"):
        largest_feasible(_threshold(1.0), 0.0)
    with pytest.raises(ValueError, match="positive"):
        largest_feasible_rows(lambda rows, t: [None] * len(rows), [1.0, -1.0])


def test_tolerance_below_float_spacing_terminates():
    # once lo and hi are adjacent floats the midpoint equals one of them;
    # the bracket closes at its feasible end instead of probing forever
    probes = []

    def violation(t):
        probes.append(t)
        if len(probes) > 10_000:
            raise RuntimeError("bisection makes no progress")
        return None if t <= 0.3 else "above"

    value, witness = largest_feasible(violation, 1.0, rel_tol=1e-17)
    assert (value, witness) == (0.3, None)
    assert len(probes) < 100
