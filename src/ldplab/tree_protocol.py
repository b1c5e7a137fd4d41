"""Adaptive interval-tree range-query protocol (OUE based).

The server decomposes the value domain ``[0, c)`` layer by layer.  Each layer
owns a disjoint group of users who report the current leaf containing their
value through OUE.  After aggregating and normalizing a layer, leaves whose
estimated frequency reaches a split threshold are divided into ``fanout``
children and the next layer repeats on the refined frontier.  A final
bottom-up consistency pass reconciles parents with children, and range
queries are answered by summing post-consistency frequencies over the
coarsest nodes covering the query.  The layer groups depend on the real
users alone, so one :func:`collect_tree_groups` serves an honest run and
any number of poisoned runs of :func:`run_tree_protocol`.

The tree is one :class:`Tree` of flat arrays in heap order, so every level
of the decomposition is one contiguous slice.
"""

from __future__ import annotations

import functools
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
    "collect_tree_groups",
    "run_tree_protocol",
    "query_cover",
    "estimate_query",
]


class Tree:
    """Decomposition tree of ``[0, domain_size)`` as flat heap-ordered arrays.

    Node ``i`` has children ``i*fanout + 1 ... i*fanout + fanout`` and parent
    ``(i - 1) // fanout``, so the nodes ``k`` steps below the root are the
    contiguous slice ``level(k)``.
    Every node of the complete tree has a slot (``lo``, ``hi``, ``f_hat``,
    ``f_tilde``); ``exists`` marks the nodes actually built.  The root always
    exists, and a node's children exist all together or not at all.  ``lo``
    and ``hi`` are read-only and shared by every tree of the same shape.
    """

    def __init__(self, domain_size: int, fanout: int):
        self.domain_size = domain_size
        self.fanout = fanout
        self.depth, self.lo, self.hi = _skeleton(domain_size, fanout)
        self.exists = np.zeros(self.lo.size, dtype=bool)
        self.exists[0] = True
        self.f_hat = np.zeros(self.lo.size)
        self.f_tilde = np.zeros(self.lo.size)
        self.rounds: List[Tuple[np.ndarray, Optional[np.ndarray]]] = []

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


@functools.lru_cache(maxsize=8)
def _skeleton(domain_size: int, fanout: int) -> Tuple[int, np.ndarray, np.ndarray]:
    """Depth and read-only node intervals ``lo``/``hi`` of a complete tree;
    raises unless ``fanout >= 2`` and ``domain_size`` is a power of it (1
    gives the one-node tree)."""
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    depth = round(math.log(domain_size, fanout))
    if fanout**depth != domain_size:
        raise ValueError("domain_size must be a power of fanout")
    sizes = fanout ** np.arange(depth + 1)
    lo = np.concatenate([np.arange(n) * (domain_size // n) for n in sizes])
    hi = lo + np.repeat(domain_size // sizes, sizes)
    lo.setflags(write=False)
    hi.setflags(write=False)
    return depth, lo, hi


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
        # A one-node tree (domain_size 1) has no layer to estimate.
        if self.domain_size < self.fanout:
            raise ValueError(f"domain_size must be >= fanout ({self.fanout}), got {self.domain_size!r}")
        _skeleton(self.domain_size, self.fanout)  # raises unless domain_size is a power of fanout >= 2
        OueParams(self.epsilon, 1)  # raises unless epsilon > 0 and e^epsilon is finite

    @property
    def depth(self) -> int:
        """Number of estimated layers (leaf layer has unit intervals)."""
        return _skeleton(self.domain_size, self.fanout)[0]

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


def collect_tree_groups(records, config: TreeConfig, *, rng: np.random.Generator) -> Tuple[np.ndarray, ...]:
    """The real users' read-only layer groups: their ``n`` values (shape ``(n,)``
    or ``(n, 1)``) shuffled by one ``rng.permutation(n)`` and cut by the real
    sizes of :meth:`TreeConfig.layer_plan`, in layer order."""
    values = np.asarray(records, dtype=np.int64).reshape(len(records))
    if values.size == 0:
        raise ValueError("empty user set")
    if values.min() < 0 or values.max() >= config.domain_size:
        raise ValueError("values outside domain")
    shuffled = values[rng.permutation(values.size)]
    shuffled.flags.writeable = False  # every run of the collection reads the groups
    return tuple(np.split(shuffled, np.cumsum(config.layer_plan(values.size, 0)[0])[:-1]))


def run_tree_protocol(
    real_groups: Sequence[np.ndarray],
    config: TreeConfig,
    hook: Optional[Callable[[Tree, np.ndarray, int, np.random.Generator], np.ndarray]] = None,
    n_fake: int = 0,
    *,
    rng: np.random.Generator,
    keep_reports: bool = False,
) -> Tree:
    """Run the full protocol on collected real users; returns the post-processed tree.

    ``real_groups``: the layer groups of :func:`collect_tree_groups` on the
    same config, which this function does not change.
    ``n_fake``: fakes planned by :meth:`TreeConfig.layer_plan` with the users.
    ``hook``: called once per layer with (the tree being built, the
    layer's frontier ids in ``lo`` order, fake count, rng); must return a
    ``(fake count, frontier size)`` matrix of fabricated reports whose
    every entry is 0 or 1 (anything else is a ``ValueError``).  It
    may read the tree's ``lo``, ``hi``, ``exists`` and ``len(rounds)``
    (the index of the layer served) but never writes the tree.
    The tree's ``rounds`` hold one ``(frontier ids, reports)`` pair per
    layer; ``reports`` is each report's 1-count, real then fake (the
    ones-count detector's input), with ``keep_reports``, otherwise ``None``.

    A layer's real reports exist only as their 1-counts (see
    :func:`oue_perturb_batch`); the hook's fake matrix is summed by column,
    and by row only with ``keep_reports``.  Without it (every honest run and
    every undefended poisoned run) each layer's real column counts are drawn
    from their binomial law, ``Bin(n_j, p) + Bin(m - n_j, q)`` over the
    layer's ``m`` users, ``n_j`` of them in node ``j``; with it they come
    from per-report bits, which give each report's 1-count.  The split rule
    runs after every layer but the last, so every node of the tree is
    estimated.
    """
    real_sizes, fake_sizes = config.layer_plan(sum(group.size for group in real_groups), n_fake)
    if [group.size for group in real_groups] != real_sizes:
        raise ValueError("real_groups must be the layer groups of collect_tree_groups on this config")

    tree = Tree(config.domain_size, config.fanout)
    tree.f_hat[0] = 1.0
    frontier = tree.split(np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool))

    for layer, (group, m_fake) in enumerate(zip(real_groups, fake_sizes)):
        n_nodes = frontier.size
        params = OueParams(config.epsilon, n_nodes)

        # The frontier tiles [0, domain) in lo order, so a domain-wide owner
        # table maps each value to its frontier node.
        owner = np.repeat(np.arange(n_nodes), tree.hi[frontier] - tree.lo[frontier])
        real = oue_perturb_batch(owner[group], params, rng, per_report=keep_reports)
        counts = real.support.astype(np.float64)
        total_users = group.size

        ones = real.ones
        if hook is not None and m_fake > 0:
            fake_reports = np.asarray(hook(tree, frontier, m_fake, rng))
            if fake_reports.shape != (m_fake, n_nodes):
                raise ValueError(f"attack hook returned shape {fake_reports.shape}, expected {(m_fake, n_nodes)}")
            if not ((fake_reports == 0) | (fake_reports == 1)).all():
                raise ValueError("attack hook returned entries other than 0 and 1")
            counts += fake_reports.sum(axis=0, dtype=np.float64)
            total_users += m_fake
            if keep_reports:
                ones = np.concatenate([ones, fake_reports.sum(axis=1, dtype=np.int64)])
        if total_users == 0:
            break  # later layers are empty too
        tree.rounds.append((frontier, ones))
        freqs = norm_sub(debias_counts(counts, total_users, params)).normalized
        tree.f_hat[frontier] = freqs
        if layer == config.depth - 1:
            break
        frontier = tree.split(frontier, freqs >= config.threshold_for(total_users))
        if frontier is None:
            break

    return tree_consistency(tree)


def query_cover(tree: Tree, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coarsest disjoint cover of [lo, hi).

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
    overlap (uniformity assumption within a leaf).  Unlike the grid
    protocol's answer, the sum is not clipped to [0, 1], so a tree
    efficiency is not bounded by ``(1 - f_true) / rho``.
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

