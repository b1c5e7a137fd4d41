"""Poisoning attacks against the tree protocol.

Three attack families:

* a max-gain baseline where every fake report sets all in-range bits plus a
  count-matching number of random out-of-range bits;
* an optimal layer-assignment attack that maximizes the target query's
  post-consistency estimate through per-node coefficients and a search over
  the provably sufficient family of "front-loaded" assignments, found by a
  fast incremental search (a brute-force reference lives in the tests);
* an adaptive wrapper that re-samples each fake report's 1-count from the
  honest distribution to evade the ones-count detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..freq_oracles import OueParams
from ..postprocess import norm_sub
from ..tree_protocol import RangeQuery, Tree, TreeConfig, _partition_sizes, query_cover

__all__ = [
    "Assignment",
    "mga_tree",
    "MgaTreeAttack",
    "tree_coefficients",
    "expected_layer_estimates",
    "assignment_objective",
    "aot_assignment_fast",
    "aot_zero_coeff_strategy",
    "OptimalTreeAttack",
    "aaot_transform",
    "AdaptiveTreeAttack",
]


@dataclass
class Assignment:
    """Fake-report 1-counts per layer node (aligned with the caller's order)."""

    counts: np.ndarray
    value: float


# ---------------------------------------------------------------------------
# Max-gain baseline
# ---------------------------------------------------------------------------

def mga_tree(
    lo: np.ndarray,
    hi: np.ndarray,
    query: RangeQuery,
    m_fake: int,
    params: OueParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Fake OUE reports setting every in-range bit plus padding bits.

    The layer's nodes are the intervals ``[lo, hi)``.  Each report sets 1 on
    the ``k`` nodes contained in the query and on
    ``max(floor(p + (L-1)q - k), 0)`` random out-of-range nodes, matching the
    expected honest 1-count when possible.
    """
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


class MgaTreeAttack:
    """Layer hook emitting max-gain baseline reports for a fixed target query."""

    def __init__(self, query: RangeQuery, epsilon: float):
        self.query = query
        self.epsilon = epsilon

    def __call__(
        self, lo: np.ndarray, hi: np.ndarray, m_fake: int, rng: np.random.Generator
    ) -> np.ndarray:
        params = OueParams(self.epsilon, len(lo))
        return mga_tree(lo, hi, self.query, m_fake, params, rng)


# ---------------------------------------------------------------------------
# Per-node coefficients
# ---------------------------------------------------------------------------

def tree_coefficients(tree: Tree, query: RangeQuery) -> np.ndarray:
    """Weight of each node's pre-consistency estimate in the query answer.

    Returns one weight per node id of ``tree`` (zero for nodes that do not
    exist).  The query estimate equals the coefficient-weighted sum of
    pre-consistency node frequencies: nodes serving the query estimate seed
    weight 1 (partially covered leaves seed their overlap fraction), and the
    bottom-up consistency average is unrolled downward, one level at a time —
    an internal node with ``m`` children keeps ``m/(m+1)`` of its incoming
    weight and passes ``1/(m+1)`` to each subtree.
    """
    lo, hi = query.intervals[0]
    full, partial, fractions = query_cover(tree, lo, hi)
    weight = np.zeros(tree.lo.size)
    weight[full] = 1.0
    weight[partial] = fractions
    m = tree.fanout
    lam = m / (m + 1.0)
    for k in range(tree.depth):
        kids = tree.level(k + 1)
        weight[kids] = np.repeat((1.0 - lam) * weight[tree.level(k)], m) + weight[kids]
    coeffs = np.where(tree.leaves(), weight, lam * weight)
    return np.where(tree.exists, coeffs, 0.0)


# ---------------------------------------------------------------------------
# Optimal layer assignment
# ---------------------------------------------------------------------------

def expected_layer_estimates(
    freqs: np.ndarray,
    assignment: np.ndarray,
    n_real: int,
    m_fake: int,
    params: OueParams,
) -> np.ndarray:
    """Expected pre-normalization estimates given real frequencies and fakes.

    ``freqs`` are the attacker-assumed real per-node frequencies; the fake
    reports contribute ``assignment`` deterministic 1-counts.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    assignment = np.asarray(assignment, dtype=np.float64)
    total = n_real + m_fake
    counts = n_real * (freqs * params.p + (1.0 - freqs) * params.q) + assignment
    return (counts - total * params.q) / (total * (params.p - params.q))


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


def _check_search_inputs(sorted_coeffs: np.ndarray, m_fake: int) -> np.ndarray:
    c = np.asarray(sorted_coeffs, dtype=np.float64)
    if c.size == 0:
        raise ValueError("empty coefficient vector")
    if np.any(np.diff(c) > 1e-12):
        raise ValueError("coefficients must be sorted descending")
    if not np.any(c > 0):
        raise ValueError("all coefficients zero; use a heuristic strategy")
    if m_fake < 0:
        raise ValueError("fake count must be >= 0")
    return c


def aot_assignment_fast(
    sorted_coeffs: Sequence[float],
    m_fake: int,
    n_real: int,
    freqs: Sequence[float],
    params: OueParams,
) -> Assignment:
    """Best front-loaded assignment via incremental threshold tracking.

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
    value = assignment_objective(c, f, counts.astype(np.float64), n_real, m_fake, params)
    return Assignment(counts, value)


def aot_zero_coeff_strategy(
    strategy: str, lo: np.ndarray, hi: np.ndarray, query: RangeQuery
) -> np.ndarray:
    """Per-node bit pattern for layers whose coefficients are all zero.

    The layer's nodes are the intervals ``[lo, hi)``.  ``zero`` sets nothing,
    ``one`` sets every node, ``path`` sets exactly the nodes whose interval
    intersects the target query.
    """
    n_nodes = len(lo)
    if strategy == "zero":
        return np.zeros(n_nodes, dtype=np.uint8)
    if strategy == "one":
        return np.ones(n_nodes, dtype=np.uint8)
    if strategy == "path":
        q_lo, q_hi = query.intervals[0]
        return ((np.asarray(lo) < q_hi) & (np.asarray(hi) > q_lo)).astype(np.uint8)
    raise ValueError(f"unknown strategy {strategy!r} (expected zero|one|path)")


class OptimalTreeAttack:
    """Layer hook implementing the optimal-assignment tree attack.

    At each served layer the attacker rebuilds the tree whose leaves are the
    frontier, extends it with the growth it predicts under a uniform-data
    assumption, computes per-node coefficients for the target query, and
    spreads its fake 1-bits according to the optimal front-loaded assignment.
    Layers where every coefficient vanishes fall back to a simple bit
    strategy (``zero`` / ``one`` / ``path``).
    """

    def __init__(
        self,
        config: TreeConfig,
        query: RangeQuery,
        assumed_n: int,
        rho: float,
        strategy: str = "one",
    ):
        if assumed_n < 1:
            raise ValueError("assumed_n must be >= 1")
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must be in (0, 1)")
        if strategy not in ("zero", "one", "path"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.config = config
        self.query = query
        self.assumed_n = assumed_n
        self.strategy = strategy
        depth = config.depth
        assumed_m = int(round(assumed_n * rho / (1.0 - rho)))
        self._real_sizes = _partition_sizes(assumed_n, depth, config.layer_user_fractions)
        self._fake_sizes = _partition_sizes(assumed_m, depth, config.layer_user_fractions)
        self.layer = 0

    def __call__(
        self, lo: np.ndarray, hi: np.ndarray, m_fake: int, rng: np.random.Generator
    ) -> np.ndarray:
        n_nodes = len(lo)
        config = self.config
        tree, frontier = Tree.from_leaves(config.domain_size, config.fanout, lo, hi)
        # Predict growth under uniform data: a node's frequency is its share
        # of the domain, split with the protocol's rule at each future layer.
        nodes = frontier
        for future in range(self.layer, config.depth):
            theta = config.threshold_for(self._real_sizes[future] + self._fake_sizes[future])
            width = tree.hi[nodes] - tree.lo[nodes]
            nodes = tree.split(nodes, width / config.domain_size >= theta)
            if nodes is None:
                break
        coeffs = tree_coefficients(tree, self.query)[frontier]
        layer = min(self.layer, config.depth - 1)
        self.layer += 1

        if m_fake == 0:
            return np.zeros((0, n_nodes), dtype=np.uint8)
        if not np.any(coeffs > 0):
            bits = aot_zero_coeff_strategy(self.strategy, lo, hi, self.query)
            return np.tile(bits, (m_fake, 1))

        order = np.argsort(-coeffs, kind="stable")
        freqs = (np.asarray(hi) - np.asarray(lo)) / config.domain_size
        n_real = max(self._real_sizes[layer], 1)
        params = OueParams(config.epsilon, n_nodes)
        result = aot_assignment_fast(coeffs[order], m_fake, n_real, freqs[order], params)
        counts = np.zeros(n_nodes, dtype=np.int64)
        counts[order] = result.counts
        return (np.arange(m_fake)[:, None] < counts[None, :]).astype(np.uint8)


# ---------------------------------------------------------------------------
# Adaptive (detection-aware) wrapper
# ---------------------------------------------------------------------------

def aaot_transform(
    report: np.ndarray, n: int, q: float, rng: np.random.Generator
) -> np.ndarray:
    """Resample a fake report's 1-count from the honest OUE law.

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


class AdaptiveTreeAttack:
    """Wraps a tree attack hook, resampling each fake report's 1-count."""

    def __init__(self, inner, epsilon: float):
        self.inner = inner
        self.epsilon = epsilon

    def __call__(
        self, lo: np.ndarray, hi: np.ndarray, m_fake: int, rng: np.random.Generator
    ) -> np.ndarray:
        matrix = np.asarray(self.inner(lo, hi, m_fake, rng), dtype=np.uint8)
        n = len(lo)
        q = OueParams(self.epsilon, max(n, 1)).q
        for row in range(matrix.shape[0]):
            matrix[row] = aaot_transform(matrix[row], n, q, rng)
        return matrix
