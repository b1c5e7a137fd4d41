"""Independent reference implementations used to validate the library.

Every reference here is deliberately written with different algorithms than
the package (bisection instead of sort-and-scan, recursion over the JSON tree
instead of flat level passes, per-report loops instead of batches,
exhaustive enumeration instead of search) so agreement is meaningful.

It also holds the code only tests read: the JSON serializers of trees and
grid sets (hashed by the digest tests and read by the JSON-tree oracles),
the expected assignment objective that turns the assignment search's
counts into a value, and the privacy check of PRISM's bitwise range
encoding (acceptance criterion 10), a protocol the package does not run.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np
from scipy import stats

from ldplab.attacks import grid
from ldplab.attacks.grid import AdaptiveGridAttack, ColumnBook, GridRangeAttack, GridSupports
from ldplab.attacks.tree import _check_search_inputs, expected_layer_estimates
from ldplab.freq_oracles import HashFamily, OlhParams, OueParams
from ldplab.grid_protocol import GridSet, grid_keys
from ldplab.postprocess import norm_sub
from ldplab.query import RangeQuery
from ldplab.tree_protocol import Tree


def tree_to_json(tree: Tree) -> str:
    """Serialize a tree to JSON (interval, f_hat, f_tilde, children)."""

    def encode(i: int) -> dict:
        kids = tree.children([i]) if i < tree.level(tree.depth).start else []
        return {
            "interval": [int(tree.lo[i]), int(tree.hi[i])],
            "f_hat": float(tree.f_hat[i]),
            "f_tilde": float(tree.f_tilde[i]),
            "children": [encode(int(k)) for k in kids if tree.exists[k]],
        }

    return json.dumps(encode(0))


def grids_to_json(grids: GridSet) -> str:
    config = grids.config
    payload = {
        "config": asdict(config),
        "one_d": [grids.freqs[("1d", i)].tolist() for i in range(config.d)],
        "two_d": {
            f"{i},{j}": grids.freqs[("2d", i, j)].reshape(config.shape(("2d", i, j))).tolist()
            for i, j in combinations(range(config.d), 2)
        },
    }
    return json.dumps(payload)


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
    """Query estimate by explicit consistency + coarsest-cover walk of a JSON tree."""
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


def assignment_objective(
    coeffs: np.ndarray,
    freqs: np.ndarray,
    assignment: np.ndarray,
    n_real: int,
    m_fake: int,
    params: OueParams,
) -> float:
    """Coefficient-weighted normalized expected estimate for one assignment."""
    est = expected_layer_estimates(freqs, assignment, n_real, m_fake, params)
    return float(np.dot(coeffs, norm_sub(est).normalized))


@dataclass
class Assignment:
    """Fake-report 1-counts per layer node (aligned with the caller's order)."""

    counts: np.ndarray
    value: float


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


def aot_assignment_loop(
    sorted_coeffs: Sequence[float],
    m_fake: int,
    n_real: int,
    freqs: Sequence[float],
    params: OueParams,
) -> np.ndarray:
    """Loop reference of :func:`ldplab.attacks.tree.aot_assignment_fast`:
    one Norm-Sub solve and one threshold sweep per base assignment.

    Best front-loaded assignment via incremental threshold tracking.

    Returns the fake reports' ``int64`` 1-count per node, in the order of
    ``sorted_coeffs``.

    For each base assignment (first ``i`` nodes at M) a trailing count ``t``
    on node ``i`` sweeps [0, M].  The normalization threshold and objective
    are piecewise linear in ``t`` — the threshold is flat while node ``i``
    sits below it and then rises at rate 1/|active set|, with active nodes
    dropping out in ascending order of their fixed values — so the maximum
    over integers is attained at a segment endpoint.  Total cost is
    O(L^2 log L) instead of O(L * M) normalizations.
    """
    c = _check_search_inputs(np.asarray(sorted_coeffs), m_fake)
    f = np.asarray(freqs, dtype=np.float64)
    n_nodes = c.size
    m = float(m_fake)
    total = n_real + m_fake
    unit = 1.0 / (total * (params.p - params.q))

    best_val = -np.inf
    best_i = 0
    best_t = 0
    base = np.zeros(n_nodes, dtype=np.float64)

    for i in range(n_nodes):
        base[:i] = m
        base[i:] = 0.0
        values = expected_layer_estimates(f, base, n_real, m_fake, params)
        ns = norm_sub(values)
        delta = ns.delta
        active = values > delta
        obj = float(np.dot(c, np.maximum(values - delta, 0.0)))
        a_size = int(active.sum())
        s_c = float(c[active].sum())

        # Other active nodes exit in ascending order of their fixed values.
        others = np.array([j for j in range(n_nodes) if j != i and active[j]])
        exit_order = others[np.argsort(values[others], kind="stable")] if others.size else others
        ptr = 0

        def record(t_int: float, val: float) -> None:
            nonlocal best_val, best_i, best_t
            if val > best_val + 1e-15:
                best_val = val
                best_i = i
                best_t = int(t_int)

        t = 0.0
        record(0, obj)
        if not active[i]:
            # Flat until node i's value reaches the threshold.
            t_enter = (delta - values[i]) / unit
            if t_enter >= m:
                continue
            t = t_enter
            a_size += 1
            s_c += float(c[i])

        while t < m:
            slope = unit * (c[i] - s_c / a_size)
            if ptr < exit_order.size:
                j = exit_order[ptr]
                t_exit = t + (values[j] - delta) * a_size / unit
            else:
                t_exit = np.inf
            seg_end = min(t_exit, m)
            lo_int = math.ceil(t - 1e-12)
            hi_int = math.floor(seg_end + 1e-12)
            if lo_int <= hi_int:
                record(lo_int, obj + slope * (lo_int - t))
                record(hi_int, obj + slope * (hi_int - t))
            if seg_end >= m:
                break
            obj += slope * (t_exit - t)
            delta = float(values[j])
            t = t_exit
            while ptr < exit_order.size and values[exit_order[ptr]] <= delta:
                s_c -= float(c[exit_order[ptr]])
                a_size -= 1
                ptr += 1

    counts = np.zeros(n_nodes, dtype=np.int64)
    counts[:best_i] = m_fake
    counts[best_i] = best_t
    return counts


def mga_tree_rows(
    lo: np.ndarray,
    hi: np.ndarray,
    query: RangeQuery,
    m_fake: int,
    params: OueParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Max-gain tree reports, padding bits drawn per report with ``rng.choice``."""
    n_nodes = len(lo)
    if n_nodes == 0:
        raise ValueError("empty layer")
    if params.n != n_nodes:
        raise ValueError("params.n must equal the layer size")
    q_lo, q_hi = query.intervals[0]
    in_range = (q_lo <= np.asarray(lo)) & (np.asarray(hi) <= q_hi)
    k = int(in_range.sum())
    extra = max(int(math.floor(params.p + (n_nodes - 1) * params.q - k)), 0)
    out_idx = np.nonzero(~in_range)[0]
    extra = min(extra, out_idx.size)
    reports = np.tile(in_range.astype(np.uint8), (m_fake, 1))
    for row in range(m_fake):
        if extra:
            chosen = rng.choice(out_idx, size=extra, replace=False)
            reports[row, chosen] = 1
    return reports


def mga_tree_oneshot(
    lo: np.ndarray,
    hi: np.ndarray,
    query: RangeQuery,
    m_fake: int,
    params: OueParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Max-gain tree reports from one key draw of the whole padding matrix.

    Each report pads the out-of-range nodes whose key ranks below ``extra``
    in its row (ranks by a double argsort).
    """
    q_lo, q_hi = query.intervals[0]
    in_range = ((q_lo <= np.asarray(lo)) & (np.asarray(hi) <= q_hi)).astype(np.uint8)
    out_idx = np.flatnonzero(in_range == 0)
    extra = min(
        max(int(math.floor(params.p + (len(lo) - 1) * params.q - in_range.sum())), 0),
        out_idx.size,
    )
    reports = np.tile(in_range, (m_fake, 1))
    if extra:
        rank = rng.random((m_fake, out_idx.size)).argsort(axis=1).argsort(axis=1)
        reports[:, out_idx] = rank < extra
    return reports


def aaot_transform_rows(
    report: np.ndarray, n: int, q: float, rng: np.random.Generator
) -> np.ndarray:
    """Resample one fake report's 1-count from the honest OUE law.

    Draws ``X ~ Bin(n-1, q) + Bin(1, 1/2)`` and flips random bits so the
    output has exactly ``X`` ones, keeping as much of the original targeting
    pattern as the count allows.
    """
    report = np.asarray(report, dtype=np.uint8).copy()
    if report.size != n:
        raise ValueError("report length mismatch")
    target = int(rng.binomial(n - 1, q)) + int(rng.random() < 0.5)
    ones = np.nonzero(report == 1)[0]
    zeros = np.nonzero(report == 0)[0]
    k = ones.size
    if target > k:
        chosen = rng.choice(zeros, size=target - k, replace=False)
        report[chosen] = 1
    elif target < k:
        chosen = rng.choice(ones, size=k - target, replace=False)
        report[chosen] = 0
    return report


def aaot_transform_oneshot(
    reports: np.ndarray, n: int, q: float, rng: np.random.Generator
) -> np.ndarray:
    """Batch 1-count resampling from one key draw of the whole matrix.

    Draws the targets, the coins and then every key at once; a row flips the
    candidate cells (zeros when it gains ones, ones when it loses them) whose
    key ranks below the count change (ranks by a double argsort).
    """
    out = np.array(reports, dtype=np.uint8)
    m = out.shape[0]
    target = rng.binomial(n - 1, q, m) + (rng.random(m) < 0.5)
    delta = (target - out.sum(axis=1))[:, None]
    candidate = out == (delta < 0)
    keys = np.where(candidate, rng.random((m, n)), np.inf)
    rank = keys.argsort(axis=1).argsort(axis=1)
    return out ^ (candidate & (rank < np.abs(delta)))


def _byte_bits(rng: np.random.Generator, size: int, r: float) -> np.ndarray:
    """``size`` Bern(``r``) bits from one draw: a uniform byte ``B`` per bit
    (``ceil(size / 8)`` full-range uint64 draws viewed as uint8), 1 below
    ``k = floor(256 r)`` and 0 above it, then one double per tie ``B == k``,
    in order, which makes the bit 1 below ``256 r - k``."""
    draw = rng.integers(0, 2**64, size=-(-size // 8), dtype=np.uint64).view(np.uint8)[:size]
    k = math.floor(256 * r)
    bits = draw < k
    tie = np.flatnonzero(draw == k)
    bits[tie] = rng.random(tie.size) < 256 * r - k
    return bits


def oue_perturb_batch_oneshot(
    true_indices: Sequence[int], params: OueParams, rng: np.random.Generator
) -> np.ndarray:
    """OUE bit matrix from one byte draw of the whole ``(users, n)`` noise
    matrix at ``q``, then one of the users' true bits at ``p``."""
    idx = np.asarray(true_indices, dtype=np.int64)
    bits = _byte_bits(rng, idx.size * params.n, params.q).reshape(idx.size, params.n)
    bits[np.arange(idx.size), idx] = _byte_bits(rng, idx.size, params.p)
    return bits.astype(np.uint8)


def oue_perturb(true_index: int, params: OueParams, rng: np.random.Generator) -> np.ndarray:
    """Perturb a one-hot encoding of ``true_index`` into an OUE report."""
    if not 0 <= true_index < params.n:
        raise ValueError(f"index {true_index} out of range [0, {params.n})")
    bits = rng.random(params.n) < params.q
    bits[true_index] = rng.random() < params.p
    return bits.astype(np.uint8)


def oue_aggregate(reports: Sequence[np.ndarray] | np.ndarray, params: OueParams) -> np.ndarray:
    """Unbiased frequency estimate from a matrix of OUE reports (one row each)."""
    matrix = np.asarray(reports)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.size == 0 or matrix.shape[0] == 0:
        raise ValueError("empty report set")
    if matrix.shape[1] != params.n:
        raise ValueError(f"report length {matrix.shape[1]} != n={params.n}")
    n = matrix.shape[0]
    counts = matrix.sum(axis=0, dtype=np.float64)
    return (counts - n * params.q) / (n * (params.p - params.q))


def hash_ab(family: HashFamily, fn_id: int) -> Tuple[int, int]:
    """The ``(a, b)`` of the function with index ``fn_id = a*prime + b``."""
    if not 0 <= fn_id < family.prime**2:
        raise ValueError(f"fn_id {fn_id} out of range [0, {family.prime**2})")
    return divmod(fn_id, family.prime)


def hash_fn_id(family: HashFamily, a: int, b: int) -> int:
    """Index of the function ``h_{a,b}``."""
    return a * family.prime + b


def hash_eval(family: HashFamily, fn_id: int, cell: int | np.ndarray) -> int | np.ndarray:
    """Evaluate ``h_{a,b}(cell)`` for the function with index ``fn_id``."""
    a, b = hash_ab(family, fn_id)
    cells = np.asarray(cell)
    if cells.size and int(cells.max()) >= family.prime:
        raise ValueError("cell must be < prime")
    keys = ((a * cells + b) % family.prime) % family.g
    if np.isscalar(cell) or getattr(cell, "ndim", 0) == 0:
        return int(keys)
    return keys


def olh_perturb(
    true_cell: int, family: HashFamily, params: OlhParams, rng: np.random.Generator
) -> Tuple[int, int]:
    """Draw a random universal function and a perturbed key for ``true_cell``;
    returns the ``(fn_id, key)`` pair."""
    if not 0 <= true_cell < family.prime:
        raise ValueError("cell out of domain")
    fn = hash_fn_id(family, int(rng.integers(1, family.prime)), int(rng.integers(0, family.prime)))
    true_key = hash_eval(family, fn, true_cell)
    if rng.random() < params.p:
        key = true_key
    else:
        key = int(rng.integers(0, family.g - 1))
        if key >= true_key:
            key += 1
    return fn, key


def olh_support(
    pair: Tuple[int, int], family: HashFamily, cells: Sequence[int]
) -> np.ndarray:
    """Cells of ``cells`` that the ``(fn_id, key)`` pair's function hashes
    to its key."""
    fn_id, key = pair
    cells = np.asarray(cells, dtype=np.int64)
    return cells[hash_eval(family, fn_id, cells) == key]


def olh_aggregate_pairs(
    pairs: Sequence[Tuple[int, int]], family: HashFamily, cells: Sequence[int]
) -> np.ndarray:
    """Per-cell OLH support counts of a list of ``(fn_id, key)`` pairs, one
    support at a time."""
    if not pairs:
        raise ValueError("empty report set")
    cells = np.asarray(cells, dtype=np.int64)
    counts = np.zeros(cells.size, dtype=np.int64)
    for pair in pairs:
        counts += np.isin(cells, olh_support(pair, family, cells))
    return counts


def olh_support_scan(prime: int, g: int, fn_id: int, key: int, n_cells: int) -> List[int]:
    """Brute-force support of a hash pair by per-cell evaluation."""
    a, b = divmod(fn_id, prime)
    return [x for x in range(n_cells) if ((a * x + b) % prime) % g == key]


def support_scan_reference(family: HashFamily, in_range: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(sizes, inter)`` of every universal (function, key) pair over a cell mask.

    Compares the family's key table with one key at a time: ``sizes[f, k]``
    counts the cells function ``f`` hashes to ``k``, ``inter[f, k]`` those of
    them inside ``in_range``.
    """
    in_range = np.asarray(in_range, dtype=bool)
    table = family.key_table(in_range.size)
    sizes = np.empty((table.shape[0], family.g), dtype=np.int64)
    inter = np.empty_like(sizes)
    for key in range(family.g):
        hit = table == key
        sizes[:, key] = np.count_nonzero(hit, axis=1)
        inter[:, key] = np.count_nonzero(hit[:, in_range], axis=1)
    return sizes, inter


def olh_collision_prob(prime: int, g: int) -> float:
    """Probability two distinct cells collide under a random (a!=0) function.

    Counted exactly over residue classes: h maps x to (a*x+b) % prime, a
    bijection for a != 0, then % g; two cells collide iff their (distinct)
    residues land in the same class of [0, prime) mod g.
    """
    sizes = np.bincount(np.arange(prime) % g, minlength=g)
    pairs_same = int((sizes * (sizes - 1)).sum())
    return pairs_same / (prime * (prime - 1))


def oue_worst_ratio(params: OueParams) -> float:
    """Largest likelihood ratio ``P[y | v] / P[y | v']`` of OUE, enumerated
    over every output bit vector ``y`` of length ``params.n`` and every pair
    of true indices: bit ``v`` is set with probability ``p``, every other
    bit with probability ``q``, independently."""
    outputs = np.array(list(itertools.product((False, True), repeat=params.n)))
    likelihood = np.empty((params.n, len(outputs)))
    for v in range(params.n):
        set_prob = np.full(params.n, params.q)
        set_prob[v] = params.p
        likelihood[v] = np.prod(np.where(outputs, set_prob, 1.0 - set_prob), axis=1)
    return float((likelihood.max(axis=0) / likelihood.min(axis=0)).max())


def olh_worst_ratio(family: HashFamily, params: OlhParams, n_cells: int) -> float:
    """Largest likelihood ratio ``P[(f, k) | x] / P[(f, k) | x']`` of OLH,
    enumerated over every (function, key) output of ``family`` and every
    pair of cells below ``n_cells``: a report draws its function uniformly,
    sends the cell's hashed key with probability ``p`` and each other key
    with probability ``(1 - p) / (g - 1)``."""
    keys = np.arange(family.g)[:, None]
    worst = 0.0
    for fn_id in family.random_fn_ids():
        hits = hash_eval(family, int(fn_id), np.arange(n_cells)) == keys
        likelihood = np.where(hits, params.p, (1.0 - params.p) / (family.g - 1)) / family.n_random_functions
        worst = max(worst, float((likelihood.max(axis=1) / likelihood.min(axis=1)).max()))
    return worst


def prism_violation_ratio(epsilon: float) -> float:
    """Worst-case output likelihood ratio of the 3-bit range encoding.

    With per-bit randomized response (keep probability ``p = e^eps/(e^eps+1)``),
    the all-zeros output is ``p^2 q`` likely under value 0 but only ``q^3``
    likely under value 2, a ratio of ``e^{2 eps}`` — exceeding the claimed
    ``e^eps`` bound.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    p = math.exp(epsilon) / (math.exp(epsilon) + 1.0)
    q = 1.0 / (math.exp(epsilon) + 1.0)
    return (p * p * q) / (q * q * q)


def _prism_encode(value: int, d: int) -> np.ndarray:
    """Range encoding: bit i set iff the value is at least i."""
    return (value >= np.arange(d)).astype(np.int64)


def prism_bruteforce_ratio(epsilon: float) -> float:
    """Exact likelihood ratio of the all-zeros 3-bit output under values 0
    and 2, by enumerating its per-bit probabilities."""
    p = math.exp(epsilon) / (math.exp(epsilon) + 1.0)

    def likelihood(value: int) -> float:
        per_bit = np.where(_prism_encode(value, 3) == 0, p, 1.0 - p)
        return float(np.prod(per_bit))

    return likelihood(0) / likelihood(2)


def match_functions_to_grids_loop(
    values: np.ndarray, quotas: Sequence[int]
) -> List[List[int]]:
    """Greedy quota matching, one (grid, function) entry of the stable
    ``argsort`` order at a time: the reference for the package's
    ``match_functions_to_grids``, which takes one value level at a time."""
    n_grids, n_fns = values.shape
    if sum(quotas) > n_fns:
        raise ValueError("not enough functions to fill all quotas")
    order = np.argsort(-values, axis=None, kind="stable")
    remaining = list(quotas)
    taken = np.zeros(n_fns, dtype=bool)
    matched: List[List[int]] = [[] for _ in range(n_grids)]
    needed = sum(quotas)
    for flat in order:
        if needed == 0:
            break
        g_idx, f_idx = divmod(int(flat), n_fns)
        if remaining[g_idx] > 0 and not taken[f_idx]:
            matched[g_idx].append(f_idx)
            taken[f_idx] = True
            remaining[g_idx] -= 1
            needed -= 1
    return matched


def best_pairs_argwhere(values: np.ndarray, fn_ids: np.ndarray) -> np.ndarray:
    """Reference of the grid attacks' ``_best_pairs``: every maximum of
    ``values[row, key]`` found by a 2-D ``np.argwhere``, as ``(fn_id, key)``
    rows in row-major order."""
    ties = np.argwhere(values == values.max())
    ties[:, 0] = fn_ids[ties[:, 0]]
    return ties


def preference(scan: GridSupports) -> np.ndarray:
    """Float reference of ``GridSupports.rank``: spill first, then size.

    A support with less out-of-range spill (primary ``inter - sizes``)
    ranks first; among equal spill a larger support (secondary ``sizes``)
    does.  Both are divided by ``scale`` so that scores of grids with
    different cell counts are comparable.  The score ``primary * 1e6 +
    secondary`` orders exactly lexicographically: distinct primaries differ
    by at least ``1/scale`` and secondaries span at most ``n_cells/scale``,
    so the order holds while ``n_cells < 10**6``, which ``n_cells <=
    prime`` always meets.
    """
    return ((scan.inter - scan.sizes) / scan.scale) * 1e6 + scan.sizes / scan.scale


def best_keys_by_preference(hook: AdaptiveGridAttack, key) -> Tuple[np.ndarray, np.ndarray]:
    """Reference of ``AdaptiveGridAttack._best_keys``: each function's
    ``argmax`` of the float :func:`preference` and that score."""
    score = preference(hook.supports(key))
    best = score.argmax(axis=1)
    return best, np.take_along_axis(score, best[:, None], axis=1)[:, 0]


@contextlib.contextmanager
def float_ranking() -> Iterator[None]:
    """Run the grid attacks on the float64 path that the integer
    ``GridSupports.rank`` replaced: pairs scored by
    :func:`preference`, maxima and candidates found by
    ``np.argwhere``, the adaptive attack's values taken from the preference,
    and its quota matching by :func:`match_functions_to_grids_loop`, which
    stable-sorts the float64 values one entry at a time."""
    patches = (
        mock.patch.object(GridSupports, "rank", preference),
        mock.patch.object(grid, "_best_pairs", best_pairs_argwhere),
        mock.patch.object(grid, "_where", lambda mask: tuple(np.argwhere(mask).T)),
        mock.patch.object(AdaptiveGridAttack, "_best_keys", best_keys_by_preference),
        mock.patch.object(grid, "match_functions_to_grids", match_functions_to_grids_loop),
    )
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        yield


def book_admits_one(book: ColumnBook, attr: int, col_counts: np.ndarray) -> bool:
    """Per-column reference of ``ColumnBook.admits`` for one candidate: every
    recorded column of ``attr`` is matched exactly or by +1."""
    recorded = book.counts.get(attr)
    if recorded is None:
        return True
    for recorded_count, count in zip(recorded.tolist(), np.asarray(col_counts).tolist()):
        if count - recorded_count not in (0, 1):
            return False
    return True


def plan_once_loop(
    keys: Sequence,
    candidates: Dict,
    rng: np.random.Generator,
    book: ColumnBook,
) -> Tuple[Dict, List]:
    """Per-candidate reference of ``GridRangeAttack._plan_once``: per grid,
    walk a seeded permutation of the candidates and take the first whose
    column counts :func:`book_admits_one` admits for every attribute."""
    chosen: Dict = {}
    failed: List = []
    for key in keys:
        pairs, counts = candidates[key]
        for idx in rng.permutation(len(pairs)):
            picked = {attr: cc[idx] for attr, cc in counts.items()}
            if all(book_admits_one(book, attr, cc) for attr, cc in picked.items()):
                for attr, cc in picked.items():
                    book.record(attr, cc)
                chosen[key] = (int(pairs[idx, 0]), int(pairs[idx, 1]))
                break
        else:
            failed.append(key)
    return chosen, failed


def range_attack_begin_loop(hook: GridRangeAttack, rng: np.random.Generator) -> Tuple[Dict, List]:
    """Reference of ``GridRangeAttack.begin``: up to ``_MAX_RESTARTS``
    attempts of :func:`plan_once_loop` over the relevant grids that have a
    candidate, stopping at the first attempt that plans all of them.  The
    attempt that plans the most grids is kept; every relevant grid outside
    it is a fallback grid.  The fallback grids, then the grids with no query
    attribute, take their heuristic pairs.  Returns ``(chosen,
    fallback_keys)``."""
    keys = hook._relevant_keys()
    all_keys = grid_keys(hook.config.d)
    scans = {key: hook.supports(key) for key in all_keys}
    candidates = {key: hook._candidates(key, scans[key]) for key in keys}
    plannable = [key for key in keys if len(candidates[key][0]) > 0]
    best: Optional[Tuple[Dict, List]] = None
    for _ in range(grid._MAX_RESTARTS):
        chosen, failed = plan_once_loop(plannable, candidates, rng, ColumnBook())
        if best is None or len(failed) < len(best[1]):
            best = (chosen, failed)
        if not failed:
            break
    assert best is not None
    chosen = best[0]
    fallback_keys = [key for key in keys if key not in chosen]
    for key in fallback_keys + [k for k in all_keys if k not in keys]:
        chosen[key] = grid._pick(grid._best_pairs(scans[key].rank(), scans[key].fn_ids), rng)
    return chosen, fallback_keys


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
        mine = set(matched[g_idx])
        worst = min((values[g_idx, f] for f in mine), default=np.inf)
        unfilled = len(matched[g_idx]) < quotas[g_idx]
        for f in range(n_fns):
            if f in mine:
                continue
            grid_wants = unfilled or values[g_idx, f] > worst
            if not grid_wants:
                continue
            holder = assigned.get(f)
            fn_wants = holder is None or values[g_idx, f] > values[holder, f]
            if fn_wants:
                return False
    return True


def grid_consistency_slices(
    one_d: List[np.ndarray],
    two_d: Dict[Tuple[int, int], np.ndarray],
    g1: int,
    g2: int,
    d: int,
) -> Tuple[List[np.ndarray], Dict[Tuple[int, int], np.ndarray]]:
    """One cross-grid consistency pass over 1-D vectors and 2-D matrices.

    The per-axis slice form of ``postprocess.grid_consistency``: for each
    dimension in ascending order and each of its ``g2`` fractions, the 1-D
    grid's ``g1/g2``-cell slice (scale ``g1/g2``) and every 2-D grid's row
    or column (scale ``g2``) move to their ``1/scale``-weighted consensus.
    """
    span = g1 // g2
    one_d = [np.array(v, dtype=np.float64) for v in one_d]
    two_d = {k: np.array(v, dtype=np.float64) for k, v in two_d.items()}
    for i in range(d):
        # (grid array, axis along which dimension i varies); axis None => 1-D
        partners: List[Tuple[np.ndarray, Optional[int]]] = [(one_d[i], None)]
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


def max_load_threshold_scan(n_balls: int, n_bins: int, alpha: float) -> int:
    """Smallest load ``x`` with ``n_bins * P[Bin(n_balls, 1/n_bins) > x] < alpha``,
    by scan over scipy's binomial tail: the first load whose union-bound CDF
    ``1 - n_bins * P[Bin > x]`` exceeds ``1 - alpha``."""
    for x in range(n_balls + 1):
        if n_bins * stats.binom.sf(x, n_balls, 1.0 / n_bins) < alpha:
            return x
    raise ValueError("alpha must be positive")


def simulated_max_load(
    n_balls: int, n_bins: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Max bin occupancy of ``trials`` throws of ``n_balls`` balls into ``n_bins`` bins."""
    samples = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        samples[t] = np.bincount(rng.integers(0, n_bins, size=n_balls), minlength=n_bins).max()
    return samples


def simulated_load_tail(
    n_round_real: int, family_size: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """``tail[k]``: share of (bin, trial) pairs with honest load ``>= k``.

    Throws ``n_round_real`` balls into ``family_size`` bins ``trials`` times
    and pools the per-bin loads of all trials.
    """
    load_hist = np.zeros(n_round_real + 1, dtype=np.int64)
    for _ in range(trials):
        occ = np.bincount(
            rng.integers(0, family_size, size=n_round_real),
            minlength=family_size,
        )
        load_hist += np.bincount(occ, minlength=n_round_real + 1)
    return load_hist[::-1].cumsum()[::-1] / (family_size * trials)


def aaog_load_limit_simulated(
    threshold: float,
    beta: float,
    m_round: int,
    n_round_real: int,
    family_size: int,
    trials: int,
    rng: np.random.Generator,
) -> int:
    """``aaog_compute_load_limit`` with the honest per-function tail taken
    from :func:`simulated_load_tail` instead of the exact binomial law."""
    if m_round < 1:
        return 0
    tail = simulated_load_tail(n_round_real, family_size, trials, rng)
    l_max = min(int(math.ceil(threshold)) - 1, m_round)
    for cap in range(l_max, 0, -1):
        n_fns = math.ceil(m_round / cap)
        if n_fns > family_size:
            continue
        k_bad = int(math.ceil(threshold - cap))
        p_bad = tail[k_bad] if k_bad <= n_round_real else 0.0
        if 1.0 - (1.0 - p_bad) ** n_fns <= beta:
            return cap
    return 0
