"""Poisoning attacks against the tree protocol.

Three attack families:

* a max-gain baseline where every fake report sets all in-range bits plus a
  count-matching number of random out-of-range bits;
* an optimal layer-assignment attack that maximizes the target query's
  post-consistency estimate through per-node coefficients and a search over
  the provably sufficient family of "front-loaded" assignments, found by a
  fast incremental search (a brute-force reference lives in the tests);
* an adaptive wrapper that re-samples each fake report's 1-count from the
  honest distribution to evade the ones-count detector, one batch per
  layer.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..freq_oracles import OueParams, debias_counts
from ..postprocess import norm_sub_deltas
from ..query import RangeQuery
from ..tree_protocol import Tree, TreeConfig, query_cover

__all__ = [
    "mga_tree",
    "MgaTreeAttack",
    "tree_coefficients",
    "expected_layer_estimates",
    "aot_assignment_fast",
    "ZERO_COEFF_STRATEGIES",
    "aot_zero_coeff_strategy",
    "OptimalTreeAttack",
    "aaot_transform",
    "AdaptiveTreeAttack",
]


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
    ``extra = max(floor(p + (L-1)q - k), 0)`` out-of-range nodes, matching
    the expected honest 1-count when possible.  A report pads its ``extra``
    lowest-keyed out-of-range nodes under uniform keys, one per cell of
    an ``(m_fake, out-of-range)`` draw.
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
    if extra:
        keys = rng.random((m_fake, out_idx.size))
        picked = np.argpartition(keys, extra - 1, axis=1)[:, :extra]
        np.put_along_axis(reports, out_idx[picked], 1, axis=1)
    return reports


class MgaTreeAttack:
    """Layer hook emitting max-gain baseline reports for a fixed target query."""

    def __init__(self, query: RangeQuery, epsilon: float):
        self.query = query
        self.epsilon = epsilon

    def __call__(
        self, tree: Tree, frontier: np.ndarray, m_fake: int, rng: np.random.Generator
    ) -> np.ndarray:
        params = OueParams(self.epsilon, frontier.size)
        return mga_tree(tree.lo[frontier], tree.hi[frontier], self.query, m_fake, params, rng)


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
    return debias_counts(counts, total, params)


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
) -> np.ndarray:
    """Best front-loaded assignment via incremental threshold tracking.

    Returns the fake reports' ``int64`` 1-count per node, in the order of
    ``sorted_coeffs``.

    For each base assignment (first ``i`` nodes at M) a trailing count ``t``
    on node ``i`` sweeps [0, M].  The normalization threshold and objective
    are piecewise linear in ``t`` — the threshold is flat while node ``i``
    sits below it and then rises at rate 1/|active set|, with active nodes
    dropping out in ascending order of their fixed values — so the maximum
    over integers is attained at a segment endpoint.  The ``L`` base
    assignments are one ``(L, L)`` matrix: their expected estimates,
    Norm-Sub thresholds and exit orders come from one batched pass each,
    and only the sweeps run per row.  Cost: O(L^2 log L) time and O(L^2)
    float64 memory, with ``L`` at most the domain size, instead of
    O(L * M) normalizations.
    """
    c = _check_search_inputs(np.asarray(sorted_coeffs), m_fake)
    f = np.asarray(freqs, dtype=np.float64)
    n_nodes = c.size
    m = float(m_fake)
    total = n_real + m_fake
    unit = 1.0 / (total * (params.p - params.q))

    # Row i is base assignment i: its first i nodes at M.
    values = expected_layer_estimates(f, np.tri(n_nodes, k=-1) * m, n_real, m_fake, params)
    deltas = norm_sub_deltas(values)
    active = values > deltas[:, None]
    clipped = np.maximum(values - deltas[:, None], 0.0)
    # A row's stable order, filtered to its active nodes other than node i,
    # is the order in which they leave the active set.
    order = np.argsort(values, axis=1, kind="stable")
    exiting = np.take_along_axis(active, order, axis=1) & (order != np.arange(n_nodes)[:, None])
    coeffs, own_values = c.tolist(), values.diagonal().tolist()
    a_sizes, own_active = active.sum(axis=1).tolist(), active.diagonal().tolist()

    best_val = -math.inf
    best_i = 0
    best_t = 0

    def record(i: int, t_int: int, val: float) -> None:
        nonlocal best_val, best_i, best_t
        if val > best_val + 1e-15:
            best_val = val
            best_i = i
            best_t = t_int

    for i, delta in enumerate(deltas.tolist()):
        obj = float(np.dot(c, clipped[i]))
        a_size = a_sizes[i]
        s_c = float(c[active[i]].sum())
        t = 0.0
        record(i, 0, obj)
        if not own_active[i]:
            # Flat until node i's value reaches the threshold.
            t_enter = (delta - own_values[i]) / unit
            if t_enter >= m:
                continue
            t = t_enter
            a_size += 1
            s_c += coeffs[i]

        exits = order[i][exiting[i]]
        exit_vals, exit_coeffs = values[i][exits].tolist(), c[exits].tolist()
        n_exits = len(exit_vals)
        ptr = 0
        while t < m:
            slope = unit * (coeffs[i] - s_c / a_size)
            if ptr < n_exits:
                t_exit = t + (exit_vals[ptr] - delta) * a_size / unit
            else:
                t_exit = math.inf
            seg_end = min(t_exit, m)
            lo_int = math.ceil(t - 1e-12)
            hi_int = math.floor(seg_end + 1e-12)
            if lo_int <= hi_int:
                record(i, lo_int, obj + slope * (lo_int - t))
                record(i, hi_int, obj + slope * (hi_int - t))
            if seg_end >= m:
                break
            obj += slope * (t_exit - t)
            delta = exit_vals[ptr]
            t = t_exit
            while ptr < n_exits and exit_vals[ptr] <= delta:
                s_c -= exit_coeffs[ptr]
                a_size -= 1
                ptr += 1

    counts = np.zeros(n_nodes, dtype=np.int64)
    counts[:best_i] = m_fake
    counts[best_i] = best_t
    return counts


ZERO_COEFF_STRATEGIES = ("zero", "one", "path")


def aot_zero_coeff_strategy(
    strategy: str, lo: np.ndarray, hi: np.ndarray, query: RangeQuery
) -> np.ndarray:
    """Per-node bit pattern for layers whose coefficients are all zero.

    The layer's nodes are the intervals ``[lo, hi)``.  ``zero`` sets nothing,
    ``one`` sets every node, ``path`` sets exactly the nodes whose interval
    intersects the target query.
    """
    if strategy not in ZERO_COEFF_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r} (expected one of {ZERO_COEFF_STRATEGIES})")
    if strategy == "path":
        q_lo, q_hi = query.intervals[0]
        return ((np.asarray(lo) < q_hi) & (np.asarray(hi) > q_lo)).astype(np.uint8)
    return np.full(len(lo), strategy == "one", dtype=np.uint8)


class OptimalTreeAttack:
    """Layer hook implementing the optimal-assignment tree attack.

    At each served layer the attacker copies the structure of the
    protocol's tree (it never writes the tree itself), extends the copy with
    the growth it predicts from uniform data and the protocol's own
    ``layer_plan(n_real, n_fake)`` and ``threshold_for`` (every layer's
    threshold is read once, at construction), computes per-node
    coefficients for the target query, and spreads its fake 1-bits by the
    optimal front-loaded assignment.  Layers where every coefficient
    vanishes fall back to one of the ``ZERO_COEFF_STRATEGIES``.  The hook
    keeps no state between calls: ``len(tree.rounds)`` is the layer served.
    """

    def __init__(
        self,
        config: TreeConfig,
        query: RangeQuery,
        n_real: int,
        n_fake: int,
        strategy: str = "one",
    ):
        if n_real < 1:
            raise ValueError("n_real must be >= 1")
        if strategy not in ZERO_COEFF_STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.config = config
        self.query = query
        self.strategy = strategy
        self._real_sizes, self._fake_sizes = config.layer_plan(n_real, n_fake)
        self._thresholds = [
            config.threshold_for(r + f) for r, f in zip(self._real_sizes, self._fake_sizes)
        ]

    def __call__(
        self, tree: Tree, frontier: np.ndarray, m_fake: int, rng: np.random.Generator
    ) -> np.ndarray:
        n_nodes = frontier.size
        config = self.config
        layer = len(tree.rounds)
        lo, hi = tree.lo[frontier], tree.hi[frontier]
        grown = Tree(config.domain_size, config.fanout)
        grown.exists[:] = tree.exists
        # Predict growth under uniform data: a node's frequency is its share
        # of the domain, split with the protocol's rule at each future layer.
        nodes = frontier
        for theta in self._thresholds[layer : config.depth - 1]:
            width = grown.hi[nodes] - grown.lo[nodes]
            nodes = grown.split(nodes, width / config.domain_size >= theta)
            if nodes is None:
                break
        coeffs = tree_coefficients(grown, self.query)[frontier]
        n_real = max(self._real_sizes[layer], 1)

        if not np.any(coeffs > 0):
            bits = aot_zero_coeff_strategy(self.strategy, lo, hi, self.query)
            return np.tile(bits, (m_fake, 1))

        order = np.argsort(-coeffs, kind="stable")
        freqs = (hi - lo) / config.domain_size
        params = OueParams(config.epsilon, n_nodes)
        counts = np.zeros(n_nodes, dtype=np.int64)
        counts[order] = aot_assignment_fast(coeffs[order], m_fake, n_real, freqs[order], params)
        return (np.arange(m_fake)[:, None] < counts[None, :]).astype(np.uint8)


# ---------------------------------------------------------------------------
# Adaptive (detection-aware) wrapper
# ---------------------------------------------------------------------------

def aaot_transform(
    reports: np.ndarray, n: int, q: float, rng: np.random.Generator
) -> np.ndarray:
    """Resample every fake report's 1-count from the honest OUE law.

    ``reports`` is an ``(m, n)`` 0/1 matrix; a new uint8 matrix is returned.
    Draws all ``m`` targets ``X ~ Bin(n-1, q)``, then all ``m`` coins added
    to them, then one uniform key per cell of the matrix.  A row with ``k``
    ones sets its ``X - k`` lowest-keyed zeros or clears its ``k - X``
    lowest-keyed ones, so it keeps its targeting bits whenever the count
    allows and the flipped bits are a uniformly random subset.
    """
    out = np.array(reports, dtype=np.uint8)
    if out.ndim != 2 or out.shape[1] != n:
        raise ValueError(f"reports must be an (m, {n}) matrix, got shape {out.shape}")
    m = out.shape[0]
    target = rng.binomial(n - 1, q, m) + (rng.random(m) < 0.5)
    delta = (target - out.sum(axis=1, dtype=np.int64))[:, None]
    keys = rng.random((m, n))
    # Only zeros may flip in a row that gains ones, only ones in a row that
    # loses them: every other cell sorts after all candidates.
    keys[(out == 1) == (delta > 0)] = 2.0
    order = np.argsort(keys, axis=1)
    r, rank = np.nonzero(np.arange(n) < np.abs(delta))
    out[r, order[r, rank]] ^= 1
    return out


class AdaptiveTreeAttack:
    """Wraps a tree attack hook, resampling each fake report's 1-count.

    One :func:`aaot_transform` call per layer resamples the whole layer.
    """

    def __init__(self, inner, epsilon: float):
        self.inner = inner
        self.epsilon = epsilon

    def __call__(
        self, tree: Tree, frontier: np.ndarray, m_fake: int, rng: np.random.Generator
    ) -> np.ndarray:
        n = frontier.size
        q = OueParams(self.epsilon, max(n, 1)).q
        return aaot_transform(self.inner(tree, frontier, m_fake, rng), n, q, rng)
