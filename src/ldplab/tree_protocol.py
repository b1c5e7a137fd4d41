"""Adaptive interval-tree range-query protocol (OUE based).

The server decomposes the value domain ``[0, c)`` layer by layer.  Each layer
owns a disjoint group of users who report the current leaf containing their
value through OUE.  After aggregating and normalizing a layer, leaves whose
estimated frequency reaches a split threshold are divided into ``fanout``
children and the next layer repeats on the refined frontier.  A final
bottom-up consistency pass reconciles parents with children, and range
queries are answered by summing post-consistency frequencies over the
deepest nodes covering the query.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .freq_oracles import OueParams, oue_aggregate_counts, oue_perturb_batch
from .postprocess import norm_sub, tree_consistency

__all__ = [
    "TreeNode",
    "TreeConfig",
    "RangeQuery",
    "oue_sigma",
    "run_tree_protocol",
    "split_frontier",
    "query_cover",
    "query_decomposition",
    "estimate_query",
    "tree_to_json",
]


@dataclass
class TreeNode:
    """Node of the decomposition tree over the half-open interval [lo, hi)."""

    lo: int
    hi: int
    f_hat: float = 0.0
    f_tilde: float = 0.0
    children: List["TreeNode"] = field(default_factory=list)

    @property
    def length(self) -> int:
        return self.hi - self.lo

    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class TreeConfig:
    """Configuration of the tree protocol.

    ``split_threshold``: explicit threshold, or ``None`` to use twice the
    analytic OUE standard deviation of the layer's estimate (a configurable
    stand-in; attack code always reads the threshold through this config).
    """

    domain_size: int = 1024
    fanout: int = 2
    epsilon: float = 1.0
    split_threshold: Optional[float] = None
    layer_user_fractions: Optional[Sequence[float]] = None

    def __post_init__(self) -> None:
        if self.fanout < 2:
            raise ValueError("fanout must be >= 2")
        depth = round(math.log(self.domain_size, self.fanout))
        if self.fanout**depth != self.domain_size:
            raise ValueError("domain_size must be a power of fanout")
        if self.split_threshold is not None and self.split_threshold < 0:
            raise ValueError("split_threshold must be >= 0")

    @property
    def depth(self) -> int:
        """Number of estimated layers (leaf layer has unit intervals)."""
        return round(math.log(self.domain_size, self.fanout))

    def threshold_for(self, layer_users: int) -> float:
        if self.split_threshold is not None:
            return self.split_threshold
        return 2.0 * oue_sigma(self.epsilon, max(layer_users, 1))


@dataclass(frozen=True)
class RangeQuery:
    """Per-attribute half-open intervals over a subset of attributes."""

    attrs: Tuple[int, ...]
    intervals: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.attrs:
            raise ValueError("query must concern at least one attribute")
        if len(self.attrs) != len(self.intervals):
            raise ValueError("attrs and intervals must align")
        for lo, hi in self.intervals:
            if not 0 <= lo < hi:
                raise ValueError(f"invalid interval [{lo}, {hi})")

    def interval_for(self, attr: int) -> Tuple[int, int]:
        return self.intervals[self.attrs.index(attr)]


def oue_sigma(epsilon: float, n_users: int) -> float:
    """Analytic standard deviation of a single OUE frequency estimate."""
    q = 1.0 / (np.exp(epsilon) + 1.0)
    return float(np.sqrt(q * (1.0 - q)) / ((0.5 - q) * np.sqrt(n_users)))


def _partition_sizes(total: int, parts: int, fractions: Optional[Sequence[float]]) -> List[int]:
    """Split ``total`` into ``parts`` integer group sizes (largest remainder)."""
    if fractions is None:
        fractions = [1.0 / parts] * parts
    if len(fractions) != parts or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("layer_user_fractions must have one entry per layer and sum to 1")
    raw = [total * f for f in fractions]
    sizes = [int(math.floor(x)) for x in raw]
    remainder = total - sum(sizes)
    order = sorted(range(parts), key=lambda i: raw[i] - sizes[i], reverse=True)
    for i in order[:remainder]:
        sizes[i] += 1
    return sizes


def run_tree_protocol(
    real_values: Sequence[int],
    config: TreeConfig,
    hook: Optional[Callable[[List[TreeNode], int, np.random.Generator], np.ndarray]] = None,
    rho: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    observer: Optional[Callable[[List[TreeNode], np.ndarray, Optional[np.ndarray]], None]] = None,
) -> TreeNode:
    """Run the full protocol and return the post-processed tree root.

    ``hook``: called once per layer with (layer nodes, fake count, rng); must
    return a ``(fake count, len(nodes))`` bit matrix of fabricated reports.
    ``observer``: called per layer with (nodes, real reports, fake reports);
    used by the harness to feed detectors.
    """
    rng = rng if rng is not None else np.random.default_rng()
    values = np.asarray(real_values, dtype=np.int64)
    if values.size == 0:
        raise ValueError("empty user set")
    if values.min() < 0 or values.max() >= config.domain_size:
        raise ValueError("values outside domain")
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must be in [0, 1)")

    depth = config.depth
    n_real = values.size
    n_fake = int(round(n_real * rho / (1.0 - rho))) if rho > 0 else 0

    perm = rng.permutation(n_real)
    real_sizes = _partition_sizes(n_real, depth, config.layer_user_fractions)
    fake_sizes = _partition_sizes(n_fake, depth, config.layer_user_fractions)
    real_groups: List[np.ndarray] = []
    offset = 0
    for size in real_sizes:
        real_groups.append(values[perm[offset : offset + size]])
        offset += size

    root = TreeNode(0, config.domain_size, f_hat=1.0)
    frontier = split_frontier([root], [True], config.fanout)

    for layer in range(depth):
        group = real_groups[layer]
        m_fake = fake_sizes[layer]
        n_nodes = len(frontier)
        params = OueParams(config.epsilon, n_nodes)

        los = np.array([node.lo for node in frontier])
        node_idx = np.searchsorted(los, group, side="right") - 1
        real_reports = oue_perturb_batch(node_idx, params, rng)

        fake_reports: Optional[np.ndarray] = None
        if hook is not None and m_fake > 0:
            fake_reports = np.asarray(hook(frontier, m_fake, rng), dtype=np.uint8)
            if fake_reports.shape != (m_fake, n_nodes):
                raise ValueError(
                    f"attack hook returned shape {fake_reports.shape}, "
                    f"expected ({m_fake}, {n_nodes})"
                )
        if observer is not None:
            observer(frontier, real_reports, fake_reports)

        counts = real_reports.sum(axis=0, dtype=np.float64)
        total_users = group.size
        if fake_reports is not None:
            counts += fake_reports.sum(axis=0, dtype=np.float64)
            total_users += m_fake
        if total_users == 0:
            continue
        freqs = norm_sub(oue_aggregate_counts(counts, total_users, params)).normalized
        for node, f in zip(frontier, freqs):
            node.f_hat = float(f)

        theta = config.threshold_for(total_users)
        grow = [node.f_hat >= theta and node.length >= config.fanout for node in frontier]
        if not any(grow):
            break
        frontier = split_frontier(frontier, grow, config.fanout)

    return tree_consistency(root)


def split_frontier(
    frontier: Sequence[TreeNode], grow_mask: Sequence[bool], fanout: int
) -> List[TreeNode]:
    """Split each masked frontier node into ``fanout`` equal children.

    Returns the next frontier: every split node replaced in place by its
    children, every other node kept, so interval order is preserved.
    """
    out: List[TreeNode] = []
    for node, grow in zip(frontier, grow_mask):
        if not grow:
            out.append(node)
            continue
        width = node.length // fanout
        node.children = [
            TreeNode(node.lo + i * width, node.lo + (i + 1) * width) for i in range(fanout)
        ]
        out.extend(node.children)
    return out


def query_cover(
    root: TreeNode, lo: int, hi: int
) -> Tuple[List[TreeNode], List[Tuple[TreeNode, float]]]:
    """Deepest-available disjoint cover of [lo, hi).

    Returns ``(full, partial)`` where ``full`` are nodes fully inside the
    query (and whose parent is not) and ``partial`` are leaves that straddle a
    query endpoint, with their overlap fraction.
    """
    full: List[TreeNode] = []
    partial: List[Tuple[TreeNode, float]] = []

    def visit(node: TreeNode) -> None:
        if node.hi <= lo or node.lo >= hi:
            return
        if lo <= node.lo and node.hi <= hi:
            full.append(node)
            return
        if node.is_leaf():
            overlap = min(hi, node.hi) - max(lo, node.lo)
            partial.append((node, overlap / node.length))
            return
        for child in node.children:
            visit(child)

    if not 0 <= lo < hi <= root.hi:
        raise ValueError("query interval outside domain")
    visit(root)
    return full, partial


def query_decomposition(root: TreeNode, query: RangeQuery) -> List[TreeNode]:
    """Nodes whose intervals exactly tile the query (ignoring partial leaves)."""
    if len(query.attrs) != 1:
        raise ValueError("tree protocol answers 1-D queries")
    lo, hi = query.intervals[0]
    full, _ = query_cover(root, lo, hi)
    return full


def estimate_query(root: TreeNode, query: RangeQuery) -> float:
    """Sum of post-consistency frequencies over the query's node cover.

    Leaves straddling a query endpoint contribute proportionally to the
    overlap (uniformity assumption within a leaf).
    """
    if len(query.attrs) != 1:
        raise ValueError("tree protocol answers 1-D queries")
    lo, hi = query.intervals[0]
    full, partial = query_cover(root, lo, hi)
    total = sum(node.f_tilde for node in full)
    total += sum(node.f_tilde * frac for node, frac in partial)
    return float(total)


def tree_to_json(root: TreeNode) -> str:
    """Serialize a tree to JSON (interval, f_hat, f_tilde, children)."""

    def encode(node: TreeNode) -> dict:
        return {
            "interval": [node.lo, node.hi],
            "f_hat": node.f_hat,
            "f_tilde": node.f_tilde,
            "children": [encode(child) for child in node.children],
        }

    return json.dumps(encode(root))
