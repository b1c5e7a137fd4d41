"""Independent reference implementations used to validate the library.

Everything here is deliberately written with different algorithms than the
package (bisection instead of sort-and-scan, recursion instead of closed
forms, exhaustive enumeration instead of search) so agreement is meaningful.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ldplab.attacks.tree import Assignment, _check_search_inputs, assignment_objective
from ldplab.freq_oracles import OueParams


def norm_sub_bisect(values: Sequence[float], tol: float = 1e-12) -> Tuple[np.ndarray, float]:
    """Solve sum(max(f - delta, 0)) == 1 by bisection."""
    f = np.asarray(values, dtype=np.float64)

    def mass(delta: float) -> float:
        return float(np.maximum(f - delta, 0.0).sum())

    lo = float(f.min()) - 1.0  # mass(lo) >= 1 for any vector (sum + n >= 1)
    hi = float(f.max())
    assert mass(lo) >= 1.0 >= mass(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mass(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, abs(hi)):
            break
    delta = 0.5 * (lo + hi)
    return np.maximum(f - delta, 0.0), delta


def consistency_recursive(root) -> None:
    """Recompute post-consistency values on a tree of TreeNode-likes."""

    def visit(node) -> float:
        if not node.children:
            return node.f_hat
        child_total = sum(visit(c) for c in node.children)
        m = len(node.children)
        return (m * node.f_hat + child_total) / (m + 1.0)

    def fill(node) -> None:
        if not node.children:
            node.f_tilde = node.f_hat
            return
        for c in node.children:
            fill(c)
        m = len(node.children)
        node.f_tilde = (m * node.f_hat + sum(c.f_tilde for c in node.children)) / (m + 1.0)

    fill(root)


def estimate_by_consistency(root, lo: int, hi: int) -> float:
    """Query estimate computed by explicit consistency + deepest-cover walk."""
    consistency_recursive(root)
    total = 0.0

    def visit(node) -> None:
        nonlocal total
        if node.hi <= lo or node.lo >= hi:
            return
        if lo <= node.lo and node.hi <= hi:
            total += node.f_tilde
            return
        if not node.children:
            overlap = min(hi, node.hi) - max(lo, node.lo)
            total += node.f_tilde * overlap / (node.hi - node.lo)
            return
        for c in node.children:
            visit(c)

    visit(root)
    return total


def objective_reference(
    coeffs: np.ndarray,
    freqs: np.ndarray,
    assignment: np.ndarray,
    n_real: int,
    m_fake: int,
    p: float,
    q: float,
) -> float:
    """Expected-objective evaluation with independent normalization."""
    total = n_real + m_fake
    counts = n_real * (freqs * p + (1.0 - freqs) * q) + np.asarray(assignment, float)
    est = (counts - total * q) / (total * (p - q))
    normalized, _ = norm_sub_bisect(est)
    return float(np.dot(coeffs, normalized))


def exhaustive_best_objective(
    coeffs: np.ndarray,
    freqs: np.ndarray,
    m_fake: int,
    n_real: int,
    evaluate,
) -> float:
    """Global best objective over every integer assignment in [0, M]^L."""
    best = -np.inf
    for assignment in itertools.product(range(m_fake + 1), repeat=len(coeffs)):
        best = max(best, evaluate(np.array(assignment, dtype=np.float64)))
    return best


def aot_assignment_bruteforce(
    sorted_coeffs: Sequence[float],
    m_fake: int,
    n_real: int,
    freqs: Sequence[float],
    params: OueParams,
) -> Assignment:
    """Best front-loaded assignment by direct enumeration.

    Scans every assignment of the form (M, ..., M, c, 0, ..., 0) over the
    coefficient-sorted nodes (plus the all-M assignment), which provably
    contains a global integer optimum of the objective.
    """
    c = _check_search_inputs(np.asarray(sorted_coeffs), m_fake)
    f = np.asarray(freqs, dtype=np.float64)
    n_nodes = c.size
    best_val = -np.inf
    best: Optional[np.ndarray] = None
    assignment = np.zeros(n_nodes, dtype=np.float64)
    for k in range(n_nodes):
        assignment[:k] = m_fake
        assignment[k:] = 0.0
        for count in range(m_fake):
            assignment[k] = count
            val = assignment_objective(c, f, assignment, n_real, m_fake, params)
            if val > best_val:
                best_val = val
                best = assignment.copy()
    full = np.full(n_nodes, float(m_fake))
    val = assignment_objective(c, f, full, n_real, m_fake, params)
    if val > best_val:
        best_val = val
        best = full
    assert best is not None
    return Assignment(best.astype(np.int64), best_val)


def olh_support_scan(prime: int, g: int, fn_id: int, key: int, n_cells: int) -> List[int]:
    """Brute-force support of a hash pair by per-cell evaluation."""
    a, b = divmod(fn_id, prime)
    return [x for x in range(n_cells) if ((a * x + b) % prime) % g == key]


def olh_collision_prob(prime: int, g: int) -> float:
    """Probability two distinct cells collide under a random (a!=0) function.

    Counted exactly over residue classes: h maps x to (a*x+b) % prime, a
    bijection for a != 0, then % g; two cells collide iff their (distinct)
    residues land in the same class of [0, prime) mod g.
    """
    sizes = np.bincount(np.arange(prime) % g, minlength=g)
    pairs_same = int((sizes * (sizes - 1)).sum())
    return pairs_same / (prime * (prime - 1))


def stable_matching_audit(
    values: np.ndarray, quotas: Sequence[int], matched: Sequence[Sequence[int]]
) -> bool:
    """True iff no (grid, function) pair strictly prefers each other.

    Both sides rank by the shared ``values`` matrix.  A blocking pair is a
    grid g and function f such that g strictly prefers f to its worst match
    (or has unfilled quota) and f strictly prefers g to its own match (or is
    unmatched).
    """
    n_grids, n_fns = values.shape
    assigned: Dict[int, int] = {}
    for g_idx, fns in enumerate(matched):
        for f in fns:
            assigned[f] = g_idx
    for g_idx in range(n_grids):
        worst = min((values[g_idx, f] for f in matched[g_idx]), default=np.inf)
        unfilled = len(matched[g_idx]) < quotas[g_idx]
        for f in range(n_fns):
            if f in matched[g_idx]:
                continue
            grid_wants = unfilled or values[g_idx, f] > worst
            if not grid_wants:
                continue
            holder = assigned.get(f)
            fn_wants = holder is None or values[g_idx, f] > values[holder, f]
            if fn_wants:
                return False
    return True
