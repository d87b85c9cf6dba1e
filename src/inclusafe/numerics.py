"""Small shared numeric helpers: box grids and threshold bisection."""
from __future__ import annotations

from typing import Callable

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
    infeasible: Callable[[float], bool],
    hi: float,
    *,
    rel_tol: float = 1e-3,
) -> tuple[float, bool]:
    """Largest value in (0, hi] at which ``infeasible`` is False.

    The feasible region is assumed to be an interval containing 0.  Returns
    ``(0.0, True)`` when even the probe value ``hi * _PROBE_FRAC`` is
    infeasible; otherwise bisects down to relative tolerance and returns the
    last known-feasible value (sound side) with False.  The one-bracket case
    of :func:`largest_feasible_rows`.
    """
    value, failed = largest_feasible_rows(
        lambda rows, t: [infeasible(float(t[0]))], [float(hi)], rel_tol=rel_tol
    )
    return float(value[0]), bool(failed[0])


def largest_feasible_rows(
    infeasible: Callable[[np.ndarray, np.ndarray], np.ndarray],
    hi,
    *,
    rel_tol: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`largest_feasible` on K brackets ``(0, hi[k]]`` in lockstep.

    ``infeasible(rows, t)`` tests value ``t[j]`` on bracket ``rows[j]`` and
    returns a bool per j, True where infeasible.  Each round passes only the
    brackets still open, and every bracket sees the probes it would see
    alone: ``hi * _PROBE_FRAC``, then ``hi``, then the midpoints.  After the
    probe one loop makes the rest, with ``hi`` as its first test value; a
    bracket closes at its feasible end once it is within ``rel_tol`` (at
    once if feasible at ``hi``) or once its midpoint rounds to one of its
    ends, as bisection can make no more progress.

    Returns the (K,) values and the (K,) mask of the brackets infeasible at
    their probe value, whose values are 0.
    """
    hi = np.array(hi, dtype=float).reshape(-1)
    if (hi <= 0.0).any():
        raise ValueError("bracket upper end must be positive")
    lo, rows = hi * _PROBE_FRAC, np.arange(hi.shape[0])
    failed = np.asarray(infeasible(rows, lo), dtype=bool) if rows.size else np.zeros(0, dtype=bool)
    lo[failed] = 0.0
    rows, t = rows[~failed], hi[~failed]
    while rows.size:
        bad = np.asarray(infeasible(rows, t), dtype=bool)
        lo[rows[~bad]] = t[~bad]
        hi[rows[bad]] = t[bad]
        rows = rows[hi[rows] - lo[rows] > rel_tol * hi[rows]]
        t = 0.5 * (lo[rows] + hi[rows])
        moves = (t != lo[rows]) & (t != hi[rows])
        rows, t = rows[moves], t[moves]
    return lo, failed
