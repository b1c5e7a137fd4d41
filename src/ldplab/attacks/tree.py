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
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from ..freq_oracles import OueParams, debias_counts
from ..postprocess import norm_sub
from ..query import RangeQuery
from ..tree_protocol import Tree, TreeConfig, query_cover

__all__ = [
    "Assignment",
    "mga_tree",
    "MgaTreeAttack",
    "tree_coefficients",
    "expected_layer_estimates",
    "assignment_objective",
    "aot_assignment_fast",
    "ZERO_COEFF_STRATEGIES",
    "aot_zero_coeff_strategy",
    "OptimalTreeAttack",
    "aaot_transform",
    "AdaptiveTreeAttack",
]


# Row chunks of about this many cells bound the key matrices' memory.
_CHUNK = 65536


def _key_chunks(
    rng: np.random.Generator, m: int, width: int
) -> Iterator[Tuple[slice, np.ndarray]]:
    """Uniform ``(rows, width)`` keys for ``m`` rows, in row chunks of about
    ``_CHUNK`` cells (at least one row).  The chunks stacked are equal to
    one ``rng.random((m, width))`` draw."""
    step = max(1, _CHUNK // width)
    for start in range(0, m, step):
        rows = slice(start, min(start + step, m))
        yield rows, rng.random((rows.stop - rows.start, width))


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
    ``extra = max(floor(p + (L-1)q - k), 0)`` out-of-range nodes, matching
    the expected honest 1-count when possible.  A report pads its ``extra``
    lowest-keyed out-of-range nodes under uniform keys, drawn in row chunks
    of about 65,536 cells (equal to one draw of all keys).
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
        for rows, keys in _key_chunks(rng, m_fake, out_idx.size):
            picked = np.argpartition(keys, extra - 1, axis=1)[:, :extra]
            np.put_along_axis(reports[rows], out_idx[picked], 1, axis=1)
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
    return debias_counts(counts, total, params)


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

    At each served layer the attacker rebuilds the tree whose leaves are the
    frontier, extends it with the growth it predicts from uniform data and
    the protocol's own ``layer_plan(n_real, n_fake)`` and ``threshold_for``,
    computes per-node coefficients for the target query, and spreads its fake
    1-bits by the optimal front-loaded assignment.  Layers where every
    coefficient vanishes fall back to one of the ``ZERO_COEFF_STRATEGIES``.
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
        n_real = max(self._real_sizes[self.layer], 1)
        self.layer += 1

        if not np.any(coeffs > 0):
            bits = aot_zero_coeff_strategy(self.strategy, lo, hi, self.query)
            return np.tile(bits, (m_fake, 1))

        order = np.argsort(-coeffs, kind="stable")
        freqs = (np.asarray(hi) - np.asarray(lo)) / config.domain_size
        params = OueParams(config.epsilon, n_nodes)
        result = aot_assignment_fast(coeffs[order], m_fake, n_real, freqs[order], params)
        counts = np.zeros(n_nodes, dtype=np.int64)
        counts[order] = result.counts
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
    to them, then one uniform key per cell in row chunks as in
    :func:`mga_tree`.  A row with ``k`` ones sets its ``X - k``
    lowest-keyed zeros or clears its ``k - X`` lowest-keyed ones, so it
    keeps its targeting bits whenever the count allows and the flipped bits
    are a uniformly random subset.
    """
    out = np.array(reports, dtype=np.uint8)
    if out.ndim != 2 or out.shape[1] != n:
        raise ValueError(f"reports must be an (m, {n}) matrix, got shape {out.shape}")
    m = out.shape[0]
    target = rng.binomial(n - 1, q, m) + (rng.random(m) < 0.5)
    delta = target - out.sum(axis=1, dtype=np.int64)
    for rows, keys in _key_chunks(rng, m, n):
        chunk, d = out[rows], delta[rows, None]
        # Only zeros may flip in a row that gains ones, only ones in a row
        # that loses them: every other cell sorts after all candidates.
        keys[(chunk == 1) == (d > 0)] = 2.0
        order = np.argsort(keys, axis=1)
        r, rank = np.nonzero(np.arange(n) < np.abs(d))
        chunk[r, order[r, rank]] ^= 1
    return out


class AdaptiveTreeAttack:
    """Wraps a tree attack hook, resampling each fake report's 1-count.

    One :func:`aaot_transform` call per layer resamples the whole layer.
    """

    def __init__(self, inner, epsilon: float):
        self.inner = inner
        self.epsilon = epsilon

    def __call__(
        self, lo: np.ndarray, hi: np.ndarray, m_fake: int, rng: np.random.Generator
    ) -> np.ndarray:
        n = len(lo)
        q = OueParams(self.epsilon, max(n, 1)).q
        return aaot_transform(self.inner(lo, hi, m_fake, rng), n, q, rng)
