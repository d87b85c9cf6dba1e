"""Small shared numeric helpers: box grids and threshold bisection."""
from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["box_array", "grid_axes", "box_grid", "largest_feasible", "largest_feasible_rows", "scale_box"]


def box_array(box) -> np.ndarray:
    """Validate and return a domain box as an (n, 2) array of [lo, hi] rows."""
    b = np.asarray(box, dtype=float)
    if b.ndim == 1 and b.shape[0] == 2:
        b = b.reshape(1, 2)
    if b.ndim != 2 or b.shape[1] != 2:
        raise ValueError(f"box must be an (n, 2) array, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("box bounds must be finite")
    if np.any(b[:, 1] <= b[:, 0]):
        raise ValueError("box upper bounds must exceed lower bounds")
    return b


def scale_box(box, factor: float) -> np.ndarray:
    """Shrink or grow a box about its center."""
    b = box_array(box)
    center = b.mean(axis=1, keepdims=True)
    half = (b[:, 1:] - b[:, :1]) / 2.0 * float(factor)
    return np.hstack([center - half, center + half])


def grid_axes(box, resolution) -> list[np.ndarray]:
    b = box_array(box)
    res = np.broadcast_to(np.asarray(resolution, dtype=int), (b.shape[0],))
    if np.any(res < 2):
        raise ValueError("grid resolution must be >= 2 per axis")
    return [np.linspace(b[i, 0], b[i, 1], int(res[i])) for i in range(b.shape[0])]


def box_grid(box, resolution) -> np.ndarray:
    """All lattice nodes of the box grid as an (N, n) array, C-ordered."""
    axes = grid_axes(box, resolution)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.reshape(-1) for m in mesh])


#: first probe of a bisection, as a fraction of the bracket's upper end
_PROBE_FRAC = 1e-3


def largest_feasible(
    violation: Callable[[float], Optional[object]],
    hi: float,
    *,
    rel_tol: float = 1e-3,
) -> tuple[float, Optional[object]]:
    """Largest value in (0, hi] for which ``violation`` returns None.

    ``violation(t)`` returns None when t is feasible, otherwise a witness
    object.  The feasible region is assumed to be an interval containing 0.
    Returns ``(0.0, witness)`` when even the probe value ``hi * _PROBE_FRAC``
    fails; otherwise bisects down to relative tolerance and returns the last
    known-feasible value (sound side) with witness None.  The one-bracket
    case of :func:`largest_feasible_rows`.
    """
    value, witness = largest_feasible_rows(
        lambda rows, t: [violation(float(t[0]))], [float(hi)], rel_tol=rel_tol
    )
    return float(value[0]), witness[0]


def largest_feasible_rows(
    violation: Callable[[np.ndarray, np.ndarray], Sequence[Optional[object]]],
    hi,
    *,
    rel_tol: float = 1e-3,
) -> tuple[np.ndarray, list]:
    """:func:`largest_feasible` on K brackets ``(0, hi[k]]`` in lockstep.

    ``violation(rows, t)`` tests value ``t[j]`` on bracket ``rows[j]`` and
    returns one entry per j: None when feasible, else a witness.  Each
    round passes only the brackets still open, and every bracket sees the
    probes it would see alone: ``hi * _PROBE_FRAC``, then ``hi``, then the
    midpoints.  A bracket whose midpoint rounds to one of its ends is
    closed at its feasible end, as bisection can make no more progress.

    Returns the (K,) values and a list holding, for each bracket that
    failed its probe value (value 0), that probe's witness, else None.
    """
    hi = np.array(hi, dtype=float).reshape(-1)
    if (hi <= 0.0).any():
        raise ValueError("bracket upper end must be positive")
    value = np.zeros(hi.shape[0])
    witness: list = []

    def feasible(rows, t):
        if not rows.size:
            return np.zeros(0, dtype=bool)
        found = violation(rows, t)
        return np.array([w is None for w in found], dtype=bool)

    lo = hi * _PROBE_FRAC
    rows = np.arange(hi.shape[0])
    if rows.size:
        witness = list(violation(rows, lo))
    rows = rows[np.array([w is None for w in witness], dtype=bool)]
    capped = feasible(rows, hi[rows])
    value[rows[capped]] = hi[rows[capped]]
    rows = rows[~capped]
    bisected, high = rows, hi.copy()
    while True:
        rows = rows[high[rows] - lo[rows] > rel_tol * high[rows]]
        mid = 0.5 * (lo[rows] + high[rows])
        moves = (mid != lo[rows]) & (mid != high[rows])
        rows, mid = rows[moves], mid[moves]
        if not rows.size:
            break
        ok = feasible(rows, mid)
        lo[rows[ok]] = mid[ok]
        high[rows[~ok]] = mid[~ok]
    value[bisected] = lo[bisected]
    return value, witness
