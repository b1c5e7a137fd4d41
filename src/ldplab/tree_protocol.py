"""Adaptive interval-tree range-query protocol (OUE based).

The server decomposes the value domain ``[0, c)`` layer by layer.  Each layer
owns a disjoint group of users who report the current leaf containing their
value through OUE.  After aggregating and normalizing a layer, leaves whose
estimated frequency reaches a split threshold are divided into ``fanout``
children and the next layer repeats on the refined frontier.  A final
bottom-up consistency pass reconciles parents with children, and range
queries are answered by summing post-consistency frequencies over the
deepest nodes covering the query.

The tree is one :class:`Tree` of flat arrays in heap order, so every level
of the decomposition is one contiguous slice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .freq_oracles import OueParams, _check_fake_count, debias_counts, oue_perturb_batch
from .postprocess import norm_sub, tree_consistency
from .query import RangeQuery

__all__ = [
    "Tree",
    "TreeConfig",
    "oue_sigma",
    "run_tree_protocol",
    "query_cover",
    "estimate_query",
    "tree_to_json",
]


class Tree:
    """Decomposition tree of ``[0, domain_size)`` as flat heap-ordered arrays.

    Node ``i`` has children ``i*fanout + 1 ... i*fanout + fanout`` and parent
    ``(i - 1) // fanout``, so the nodes ``k`` steps below the root are the
    contiguous slice ``level(k)``.
    Every node of the complete tree has a slot (``lo``, ``hi``, ``f_hat``,
    ``f_tilde``); ``exists`` marks the nodes actually built.  The root always
    exists, and a node's children exist all together or not at all.
    """

    def __init__(self, domain_size: int, fanout: int):
        self.domain_size = domain_size
        self.fanout = fanout
        self.depth = TreeConfig(domain_size, fanout).depth
        sizes = fanout ** np.arange(self.depth + 1)
        self.lo = np.concatenate([np.arange(n) * (domain_size // n) for n in sizes])
        self.hi = self.lo + np.repeat(domain_size // sizes, sizes)
        self.exists = np.zeros(self.lo.size, dtype=bool)
        self.exists[0] = True
        self.f_hat = np.zeros(self.lo.size)
        self.f_tilde = np.zeros(self.lo.size)

    def level(self, k: int) -> slice:
        """Slots of the nodes ``k`` steps below the root, in ``lo`` order."""
        start = (self.fanout**k - 1) // (self.fanout - 1)
        return slice(start, start + self.fanout**k)

    def children(self, ids: np.ndarray) -> np.ndarray:
        """Child ids of each node in ``ids``, grouped per node in ``lo`` order."""
        return (np.asarray(ids)[:, None] * self.fanout + np.arange(1, self.fanout + 1)).ravel()

    def leaves(self) -> np.ndarray:
        """Mask of the existing nodes that have no children."""
        has_children = np.zeros_like(self.exists)
        has_children[: self.level(self.depth).start] = self.exists[1 :: self.fanout]
        return self.exists & ~has_children

    def node_ids(self, lo, hi) -> np.ndarray:
        """Ids of the nodes whose intervals are ``[lo, hi)``."""
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        width = np.maximum(hi - lo, 1)
        ids = (self.domain_size // width - 1) // (self.fanout - 1) + lo // width
        ids = np.clip(ids, 0, self.lo.size - 1)
        if np.any(self.lo[ids] != lo) or np.any(self.hi[ids] != hi):
            raise ValueError("intervals are not nodes of the tree")
        return ids

    def split(self, frontier: np.ndarray, grow: np.ndarray) -> Optional[np.ndarray]:
        """Split every masked frontier node wider than one cell into its children.

        Returns the next frontier (every split node replaced by its children,
        in ``lo`` order), or ``None`` when no node splits.
        """
        grow = grow & (self.hi[frontier] - self.lo[frontier] >= self.fanout)
        if not grow.any():
            return None
        kids = self.children(frontier[grow])
        self.exists[kids] = True
        nxt = np.concatenate([frontier[~grow], kids])
        return nxt[np.argsort(self.lo[nxt])]

    @classmethod
    def from_leaves(cls, domain_size: int, fanout: int, lo, hi) -> Tuple["Tree", np.ndarray]:
        """The smallest tree holding the nodes ``[lo, hi)``, and their ids.

        Builds every ancestor of the given nodes with all of its children, so
        a frontier that tiles the domain comes back as exactly the leaves.
        """
        tree = cls(domain_size, fanout)
        ids = tree.node_ids(lo, hi)
        marked = np.zeros_like(tree.exists)
        marked[ids] = True
        for k in range(tree.depth - 1, -1, -1):
            inner = marked[tree.level(k + 1)].reshape(-1, fanout).any(axis=1)
            marked[tree.level(k)] |= inner
            tree.exists[tree.level(k + 1)] = np.repeat(inner, fanout)
        return tree, ids


@dataclass
class TreeConfig:
    """Configuration of the tree protocol.

    The protocol and the optimal tree attack read the layer schedule through
    this config only: :meth:`layer_plan` gives each layer's real and fake
    user counts, and :meth:`threshold_for` the split threshold of a layer.
    """

    domain_size: int = 1024
    fanout: int = 2
    epsilon: float = 1.0

    def __post_init__(self) -> None:
        if self.fanout < 2:
            raise ValueError("fanout must be >= 2")
        if self.fanout**self.depth != self.domain_size:
            raise ValueError("domain_size must be a power of fanout")

    @property
    def depth(self) -> int:
        """Number of estimated layers (leaf layer has unit intervals)."""
        return round(math.log(self.domain_size, self.fanout))

    def layer_plan(self, n_real: int, n_fake: int) -> Tuple[List[int], ...]:
        """``(real_sizes, fake_sizes)``: ``n_real`` users and ``n_fake`` fakes,
        each split into ``depth`` near-equal layer groups, larger ones first."""
        _check_fake_count(n_fake)
        plan = []
        for total in (n_real, n_fake):
            base, extra = divmod(total, self.depth)
            plan.append([base + 1] * extra + [base] * (self.depth - extra))
        return tuple(plan)

    def threshold_for(self, layer_users: int) -> float:
        """Twice the analytic OUE standard deviation of a layer's estimate."""
        return 2.0 * oue_sigma(self.epsilon, max(layer_users, 1))


def oue_sigma(epsilon: float, n_users: int) -> float:
    """Analytic standard deviation of a single OUE frequency estimate."""
    params = OueParams(epsilon, 1)  # p and q do not depend on the vector length
    q = params.q
    return float(np.sqrt(q * (1.0 - q)) / ((params.p - q) * np.sqrt(n_users)))


def run_tree_protocol(
    real_values: Sequence[int],
    config: TreeConfig,
    hook: Optional[Callable[[np.ndarray, np.ndarray, int, np.random.Generator], np.ndarray]] = None,
    n_fake: int = 0,
    *,
    rng: np.random.Generator,
    observer: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
) -> Tree:
    """Run the full protocol and return the post-processed tree.

    ``n_fake``: fakes planned by :meth:`TreeConfig.layer_plan` with the users.
    ``hook``: called once per layer with (frontier ``lo``, frontier ``hi``,
    fake count, rng); must return a ``(fake count, frontier size)`` bit
    matrix of fabricated reports.
    ``observer``: called per layer with (frontier ids, the 1-count of every
    report of the layer, real reports first, then fakes); used by the
    harness to feed detectors.

    A layer's real reports exist only as their 1-counts (see
    :func:`oue_perturb_batch`); the hook's fake matrix is summed by column,
    and by row only for an observer.

    The split rule also runs after the last layer, so nodes split there get
    ``fanout`` children that no layer estimates; they keep ``f_hat = 0``, and
    consistency cuts their parent's ``f_tilde`` to ``fanout / (fanout + 1)``
    of its ``f_hat``.
    """
    values = np.asarray(real_values, dtype=np.int64)
    if values.size == 0:
        raise ValueError("empty user set")
    if values.min() < 0 or values.max() >= config.domain_size:
        raise ValueError("values outside domain")

    real_sizes, fake_sizes = config.layer_plan(values.size, n_fake)
    real_groups = np.split(values[rng.permutation(values.size)], np.cumsum(real_sizes)[:-1])

    tree = Tree(config.domain_size, config.fanout)
    tree.f_hat[0] = 1.0
    frontier = tree.split(np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool))

    for group, m_fake in zip(real_groups, fake_sizes):
        n_nodes = frontier.size
        params = OueParams(config.epsilon, n_nodes)

        # The frontier tiles [0, domain) in lo order, so a domain-wide owner
        # table maps each value to its frontier node.
        los, his = tree.lo[frontier], tree.hi[frontier]
        owner = np.repeat(np.arange(n_nodes), his - los)
        real = oue_perturb_batch(owner[group], params, rng)
        counts = real.support.astype(np.float64)
        total_users = group.size

        ones = real.ones
        if hook is not None and m_fake > 0:
            fake_reports = np.asarray(hook(los, his, m_fake, rng), dtype=np.uint8)
            if fake_reports.shape != (m_fake, n_nodes):
                raise ValueError(
                    f"attack hook returned shape {fake_reports.shape}, "
                    f"expected ({m_fake}, {n_nodes})"
                )
            counts += fake_reports.sum(axis=0, dtype=np.float64)
            total_users += m_fake
            if observer is not None:
                ones = np.concatenate([ones, fake_reports.sum(axis=1, dtype=np.int64)])
        if observer is not None:
            observer(frontier, ones)
        if total_users == 0:
            continue
        freqs = norm_sub(debias_counts(counts, total_users, params)).normalized
        tree.f_hat[frontier] = freqs

        theta = config.threshold_for(total_users)
        frontier = tree.split(frontier, freqs >= theta)
        if frontier is None:
            break

    return tree_consistency(tree)


def query_cover(tree: Tree, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deepest-available disjoint cover of [lo, hi).

    Returns ``(full, partial, fractions)``: ``full`` are the ids of nodes
    fully inside the query whose parent is not, ``partial`` the ids of leaves
    that straddle a query endpoint, with their overlap ``fractions``.  Both
    id arrays are in ``lo`` order.
    """
    if not 0 <= lo < hi <= tree.domain_size:
        raise ValueError("query interval outside domain")
    inside = (lo <= tree.lo) & (tree.hi <= hi)
    parent_inside = inside[(np.arange(inside.size) - 1) // tree.fanout]
    parent_inside[0] = False  # the root has no parent
    overlap = np.minimum(hi, tree.hi) - np.maximum(lo, tree.lo)
    full = np.flatnonzero(tree.exists & inside & ~parent_inside)
    partial = np.flatnonzero(tree.leaves() & ~inside & (overlap > 0))
    full = full[np.argsort(tree.lo[full])]
    partial = partial[np.argsort(tree.lo[partial])]
    return full, partial, overlap[partial] / (tree.hi[partial] - tree.lo[partial])


def estimate_query(tree: Tree, query: RangeQuery) -> float:
    """Sum of post-consistency frequencies over the query's node cover.

    Leaves straddling a query endpoint contribute proportionally to the
    overlap (uniformity assumption within a leaf).
    """
    if len(query.attrs) != 1:
        raise ValueError("tree protocol answers 1-D queries")
    lo, hi = query.intervals[0]
    full, partial, fractions = query_cover(tree, lo, hi)
    # Plain left-to-right float sums in ``lo`` order keep seeded answers
    # bit-stable; numpy's pairwise summation rounds differently.
    total = sum(tree.f_tilde[full].tolist())
    total += sum((tree.f_tilde[partial] * fractions).tolist())
    return float(total)


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
