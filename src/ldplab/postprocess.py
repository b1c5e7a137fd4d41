"""Post-processing primitives shared by the tree and grid protocols.

* ``norm_sub`` -- subtract a threshold ``delta`` and clip at zero so that the
  result is a non-negative vector summing to one.  ``delta`` may be negative
  (uniform mass is added) when the positive part of the input sums below one.
  ``norm_sub_deltas`` is its solver, one ``delta`` per row of a matrix.
* ``tree_consistency`` -- bottom-up parent/child weighted averaging on an
  interval-decomposition tree, one level at a time.
* ``grid_consistency`` -- weighted averaging between the grids (flat cell
  vectors) that cover the same column of an attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Mapping

import numpy as np

__all__ = [
    "NormSubResult", "norm_sub", "norm_sub_deltas", "tree_consistency", "grid_consistency"
]


@dataclass
class NormSubResult:
    normalized: np.ndarray
    delta: float


def norm_sub(values) -> NormSubResult:
    """Solve ``sum(max(f_i - delta, 0)) == 1`` and return the clipped vector.

    ``delta`` comes from :func:`norm_sub_deltas` on the one row ``values``.
    """
    f = np.asarray(values, dtype=np.float64)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("norm_sub requires a non-empty 1-D vector")
    if not np.all(np.isfinite(f)):
        raise ValueError("norm_sub requires finite entries")
    delta = float(norm_sub_deltas(f[None, :])[0])
    return NormSubResult(np.maximum(f - delta, 0.0), delta)


def norm_sub_deltas(rows: np.ndarray) -> np.ndarray:
    """The Norm-Sub threshold ``delta`` of every row of a finite 2-D array.

    Exact O(n log n) sort-and-scan solver per row: sort descending, then the
    solution threshold is ``(prefix_sum_k - 1) / k`` for the largest prefix
    ``k`` whose smallest member still exceeds that candidate threshold.  The
    prefix sums run sequentially along each row, so a row's ``delta`` has
    the bits of the same row solved alone.
    """
    a = -np.sort(-rows, axis=1)
    n = a.shape[1]
    candidates = (a.cumsum(axis=1) - 1.0) / np.arange(1, n + 1)
    last = n - 1 - (a > candidates)[:, ::-1].argmax(axis=1)
    return candidates[np.arange(a.shape[0]), last]


def tree_consistency(tree):
    """Apply one bottom-up consistency pass, filling ``f_tilde`` on every node.

    Leaves keep their pre-consistency value; an internal node with ``m``
    children gets ``lam * f_hat + (1 - lam) * sum(child f_tilde)`` where
    ``lam = m / (m + 1)``.  ``tree`` is a heap-ordered
    :class:`ldplab.tree_protocol.Tree`, processed one level at a time.
    """
    m = tree.fanout
    lam = m / (m + 1.0)
    tree.f_tilde[:] = tree.f_hat
    for k in range(tree.depth - 1, -1, -1):
        parents, kids = tree.level(k), tree.level(k + 1)
        # Column by column, so each sum adds the children left to right.
        child_sum = sum(tree.f_tilde[kids].reshape(-1, m).T)
        has_kids = tree.exists[kids][::m]
        merged = lam * tree.f_hat[parents] + (1.0 - lam) * child_sum
        tree.f_tilde[parents] = np.where(has_kids, merged, tree.f_hat[parents])
    return tree


def grid_consistency(
    freqs: Mapping[Hashable, np.ndarray],
    columns: Mapping[Hashable, Mapping[int, np.ndarray]],
    g2: int,
) -> Dict[Hashable, np.ndarray]:
    """One consistency pass across grids sharing an attribute.

    ``freqs`` holds one flat cell vector per grid and ``columns[key]`` maps
    each attribute of that grid to the ``g2``-column of every cell.  Each
    attribute is divided into ``g2`` columns.  For attribute ``i`` and column
    ``c``, every grid containing ``i`` contributes the sum of its cells in
    that column, with scale ``S`` = cells per column (``g1/g2`` for a 1-D
    grid, ``g2`` for a 2-D one).  The consensus value is the
    ``1/S``-weighted average, and each contributing cell moves by
    ``(consensus - grid_sum) / S``.

    Attributes are processed in ascending order against the current values,
    grids with fewer attributes first and otherwise in key order, which
    makes the pass deterministic.  When all grids carry equal total mass
    (e.g. right after Norm-Sub) a single pass equalizes every column sum
    exactly.
    """
    if freqs.keys() != columns.keys():
        raise ValueError("freqs and columns must name the same grids")
    freqs = {key: np.array(v, dtype=np.float64) for key, v in freqs.items()}
    for key, cols in columns.items():
        if any(c.size != freqs[key].size for c in cols.values()):
            raise ValueError(f"grid {key}: cell count does not match its column map")
    for attr in sorted({a for cols in columns.values() for a in cols}):
        partners = sorted(
            (key for key in columns if attr in columns[key]), key=lambda k: len(columns[k])
        )
        for c in range(g2):
            hits = [(freqs[key], columns[key][attr] == c) for key in partners]
            sums = np.array([v[hit].sum() for v, hit in hits])
            scales = np.array([hit.size / g2 for _, hit in hits])
            consensus = (sums / scales).sum() / (1.0 / scales).sum()
            for (v, hit), s, scale in zip(hits, sums, scales):
                v[hit] += (consensus - s) / scale
    return freqs
