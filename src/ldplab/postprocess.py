"""Post-processing primitives shared by the tree and grid protocols.

* ``norm_sub`` -- subtract a threshold ``delta`` and clip at zero so that the
  result is a non-negative vector summing to one.  ``delta`` may be negative
  (uniform mass is added) when the positive part of the input sums below one.
* ``tree_consistency`` -- bottom-up parent/child weighted averaging on an
  interval-decomposition tree, one level at a time.
* ``grid_consistency`` -- weighted averaging between the 1-D and 2-D grids
  that cover the same domain fraction of a dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["NormSubResult", "norm_sub", "tree_consistency", "grid_consistency"]


@dataclass
class NormSubResult:
    normalized: np.ndarray
    delta: float


def norm_sub(values) -> NormSubResult:
    """Solve ``sum(max(f_i - delta, 0)) == 1`` and return the clipped vector.

    Exact O(n log n) sort-and-scan solver: sort descending, then the solution
    threshold is ``(prefix_sum_k - 1) / k`` for the largest prefix ``k`` whose
    smallest member still exceeds that candidate threshold.
    """
    f = np.asarray(values, dtype=np.float64)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("norm_sub requires a non-empty 1-D vector")
    if not np.all(np.isfinite(f)):
        raise ValueError("norm_sub requires finite entries")
    a = -np.sort(-f)
    candidates = (np.cumsum(a) - 1.0) / np.arange(1, f.size + 1)
    valid = np.nonzero(a > candidates)[0]
    delta = float(candidates[valid[-1]])
    return NormSubResult(np.maximum(f - delta, 0.0), delta)


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
    one_d: List[np.ndarray],
    two_d: Dict[Tuple[int, int], np.ndarray],
    g1: int,
    g2: int,
    d: int,
) -> Tuple[List[np.ndarray], Dict[Tuple[int, int], np.ndarray]]:
    """One consistency pass across grids sharing a dimension.

    Each dimension is divided into ``g2`` fractions.  For dimension ``i`` and
    fraction ``c``, the 1-D grid contributes the sum of its ``g1/g2`` cells in
    the fraction (scale ``S = g1/g2``) and every 2-D grid containing ``i``
    contributes its column/row sum (scale ``S = g2``).  The consensus value is
    the ``1/S``-weighted average, and each contributing cell moves by
    ``(consensus - grid_sum) / S``.

    Dimensions are processed in ascending order against the current values,
    which makes the pass deterministic.  When all grids carry equal total
    mass (e.g. right after Norm-Sub) a single pass equalizes every fraction
    sum exactly.
    """
    if g1 % g2 != 0:
        raise ValueError("g1 must be divisible by g2")
    span = g1 // g2
    one_d = [np.array(v, dtype=np.float64) for v in one_d]
    two_d = {k: np.array(v, dtype=np.float64) for k, v in two_d.items()}
    if len(one_d) != d:
        raise ValueError(f"expected {d} 1-D grids, got {len(one_d)}")
    for i in range(d):
        # (grid array, axis along which dimension i varies); axis None => 1-D
        partners: List[Tuple[np.ndarray, int | None]] = [(one_d[i], None)]
        for (a, b), grid in two_d.items():
            if a == i:
                partners.append((grid, 0))
            elif b == i:
                partners.append((grid, 1))
        for c in range(g2):
            sums = []
            scales = []
            for grid, axis in partners:
                if axis is None:
                    sums.append(grid[c * span : (c + 1) * span].sum())
                    scales.append(g1 / g2)
                elif axis == 0:
                    sums.append(grid[c, :].sum())
                    scales.append(float(g2))
                else:
                    sums.append(grid[:, c].sum())
                    scales.append(float(g2))
            sums_arr = np.array(sums)
            scales_arr = np.array(scales)
            consensus = (sums_arr / scales_arr).sum() / (1.0 / scales_arr).sum()
            for (grid, axis), s, scale in zip(partners, sums_arr, scales_arr):
                adjust = (consensus - s) / scale
                if axis is None:
                    grid[c * span : (c + 1) * span] += adjust
                elif axis == 0:
                    grid[c, :] += adjust
                else:
                    grid[:, c] += adjust
    return one_d, two_d
