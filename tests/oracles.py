"""Independent reference implementations used to validate the library.

Everything here is deliberately written with different algorithms than the
package (bisection instead of sort-and-scan, recursion over the JSON tree
instead of flat level passes, per-report loops instead of batches,
exhaustive enumeration instead of search) so agreement is meaningful.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ldplab.attacks.tree import Assignment, _check_search_inputs, assignment_objective
from ldplab.freq_oracles import HashFamily, HashPair, OlhParams, OueParams


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


def consistency_recursive(node: dict) -> None:
    """Fill ``f_tilde`` on a ``json.loads(tree_to_json(...))`` tree, recursively."""
    children = node["children"]
    if not children:
        node["f_tilde"] = node["f_hat"]
        return
    for child in children:
        consistency_recursive(child)
    m = len(children)
    node["f_tilde"] = (m * node["f_hat"] + sum(c["f_tilde"] for c in children)) / (m + 1.0)


def estimate_by_consistency(root: dict, lo: int, hi: int) -> float:
    """Query estimate by explicit consistency + deepest-cover walk of a JSON tree."""
    consistency_recursive(root)
    total = 0.0

    def visit(node: dict) -> None:
        nonlocal total
        n_lo, n_hi = node["interval"]
        if n_hi <= lo or n_lo >= hi:
            return
        if lo <= n_lo and n_hi <= hi:
            total += node["f_tilde"]
            return
        if not node["children"]:
            overlap = min(hi, n_hi) - max(lo, n_lo)
            total += node["f_tilde"] * overlap / (n_hi - n_lo)
            return
        for c in node["children"]:
            visit(c)

    visit(root)
    return total


def json_nodes(root: dict) -> List[dict]:
    """Every node of a JSON tree, parents before children."""
    nodes = [root]
    for node in nodes:
        nodes.extend(node["children"])
    return nodes


def coefficients_by_linearity(root: dict, lo: int, hi: int) -> Dict[Tuple[int, int], float]:
    """Weight of each node's ``f_hat`` in the query estimate, keyed by interval.

    The estimate is linear in the ``f_hat`` values, so a node's weight is the
    estimate of the tree whose only nonzero ``f_hat`` is a 1 on that node.
    """
    nodes = json_nodes(root)
    saved = [node["f_hat"] for node in nodes]
    coeffs = {}
    for target in nodes:
        for node in nodes:
            node["f_hat"] = 1.0 if node is target else 0.0
        coeffs[tuple(target["interval"])] = estimate_by_consistency(root, lo, hi)
    for node, f_hat in zip(nodes, saved):
        node["f_hat"] = f_hat
    consistency_recursive(root)
    return coeffs


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


def oue_perturb(true_index: int, params: OueParams, rng: np.random.Generator) -> np.ndarray:
    """Perturb a one-hot encoding of ``true_index`` into an OUE report."""
    if not 0 <= true_index < params.n:
        raise ValueError(f"index {true_index} out of range [0, {params.n})")
    bits = rng.random(params.n) < params.q
    bits[true_index] = rng.random() < params.p
    return bits.astype(np.uint8)


def hash_eval(family: HashFamily, fn_id: int, cell: int | np.ndarray) -> int | np.ndarray:
    """Evaluate ``h_{a,b}(cell)`` for the function with index ``fn_id``."""
    a, b = family.ab(fn_id)
    cells = np.asarray(cell)
    if cells.size and int(cells.max()) >= family.prime:
        raise ValueError("cell must be < prime")
    keys = ((a * cells + b) % family.prime) % family.g
    if np.isscalar(cell) or getattr(cell, "ndim", 0) == 0:
        return int(keys)
    return keys


def olh_perturb(
    true_cell: int, family: HashFamily, params: OlhParams, rng: np.random.Generator
) -> HashPair:
    """Draw a random universal function and a perturbed key for ``true_cell``."""
    if not 0 <= true_cell < family.prime:
        raise ValueError("cell out of domain")
    fn = family.fn_id(int(rng.integers(1, family.prime)), int(rng.integers(0, family.prime)))
    true_key = hash_eval(family, fn, true_cell)
    if rng.random() < 0.5:
        key = true_key
    else:
        key = int(rng.integers(0, family.g - 1))
        if key >= true_key:
            key += 1
    return HashPair(fn, key)


def olh_support(
    pair: HashPair, family: HashFamily, cells: Sequence[int]
) -> np.ndarray:
    """Cells of ``cells`` that the pair's function hashes to the pair's key."""
    cells = np.asarray(cells, dtype=np.int64)
    keys = hash_eval(family, pair.fn_id, cells)
    return cells[keys == pair.key]


def olh_aggregate_pairs(
    pairs: Sequence[HashPair], family: HashFamily, cells: Sequence[int], params: OlhParams
) -> np.ndarray:
    """Per-cell OLH estimate from a list of pairs, one support at a time."""
    if not pairs:
        raise ValueError("empty report set")
    cells = np.asarray(cells, dtype=np.int64)
    counts = np.zeros(cells.size)
    for pair in pairs:
        counts += np.isin(cells, olh_support(pair, family, cells))
    n = len(pairs)
    return (counts - n * params.q) / (n * (0.5 - params.q))


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
