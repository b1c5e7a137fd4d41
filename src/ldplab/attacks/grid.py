"""Poisoning attacks against the grid protocol.

Every attack picks OLH (function, key) report pairs from one support scan of
a grid (:func:`scan_supports`): per pair, the size of its support and the
part of the support inside the target range, both counted over the family's
cell-key table.  The query-independent sizes are cached once per (hash
family, cell count) and shared by every hook and thread.  Pairs are compared
by one exact integer, :meth:`GridSupports.rank`: least out-of-range spill
first, then the larger support, on a base common to every grid of a config,
so the adaptive attack's matching compares all grids' ranks together.

Attack families:

* a max-gain baseline: every fake user in a grid reports the hash pair whose
  support covers the most in-range cells;
* a constraint-driven attack that, per grid, searches for a hash pair whose
  support lies entirely inside the target range, meets an analytic minimum
  support size, and agrees column-by-column with the pairs already chosen
  for grids sharing an attribute (so that one consistency + normalization
  pass concentrates all mass in the target range);
* a heuristic fallback ranking hash pairs by (violation, support size);
* an adaptive variant that caps per-function usage as if the max-load
  detector fired at its threshold (it fires above it) and spreads fakes over
  many functions via a quota matching between grids and functions.

OLH keeps a report's hashed key with probability ``p`` (``OlhParams.p``);
the size bounds read it through ``GridConfig.olh_params()``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..defenses import binomial_pmf, max_load_cdf
from ..freq_oracles import HashFamily
from ..grid_protocol import GridConfig, GridKey, cells_in_range, grid_keys
from ..query import RangeQuery

__all__ = [
    "SizeConstraints",
    "ColumnBook",
    "GridSupports",
    "scan_supports",
    "mga_grid",
    "MgaGridAttack",
    "aog_size_constraints",
    "GridRangeAttack",
    "haog_best_pair",
    "HeuristicGridAttack",
    "aaog_compute_load_limit",
    "match_functions_to_grids",
    "AdaptiveGridAttack",
]

# A report pair as the grid attacks pick it: (fn_id, key).
_Pair = Tuple[int, int]


@dataclass(frozen=True)
class SizeConstraints:
    """Analytic minimum support sizes for 1-D and 2-D grids."""

    w1: float
    w2: float

    @property
    def w1_int(self) -> int:
        return int(math.ceil(self.w1))

    @property
    def w2_int(self) -> int:
        return int(math.ceil(self.w2))


# ---------------------------------------------------------------------------
# Support scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSupports:
    """Support statistics of every (function, key) pair on one grid.

    Rows follow :meth:`HashFamily.random_fn_ids`.  ``table`` is the family's
    cell-key table, so the support of row ``f``'s key ``k`` is ``table[f] ==
    k``; ``sizes[f, k]`` counts its cells and ``inter[f, k]`` those inside
    the range.  ``table`` and ``sizes`` are shared and read-only.  ``scale``
    is the grid's cells per ``g2``-cell of its attributes (``g1/g2`` for a
    1-D grid, 1 for a 2-D grid) and ``layout`` the config's ``(g1, g2)``.
    :meth:`rank` is the one heuristic order; the heuristic attack, the
    constraint-driven fallback and the adaptive attack all read it.
    """

    fn_ids: np.ndarray
    table: np.ndarray
    sizes: np.ndarray
    inter: np.ndarray
    scale: float
    layout: Tuple[int, int]

    def rank(self) -> np.ndarray:
        """Heuristic order of each (function, key) as one exact integer.

        A support with less out-of-range spill (``spill = sizes - inter``)
        ranks first; among equal spill a larger support does, both divided
        by ``scale`` so that grids with different cell counts compare.  The
        rank is ``f*sizes - M*f*spill``, with ``f = (g1/g2)/scale`` (1 on a
        1-D grid, ``g1/g2`` on a 2-D one) and ``M = g1*g2 + 1``: the two
        scaled terms times ``g1/g2``, integers on every grid of the config,
        with ``0 <= f*sizes <= g1*g2 < M``.  So it orders and ties across
        all grids of a config (a per-grid base does not: at ``g1 = 16, g2 =
        4`` a 1-D spill of 4 and a 2-D spill of 1 are the same scaled
        spill).  Its dtype is the narrowest signed one holding ``±M**2``, so
        no term wraps: int16 at ``g1 = 16, g2 = 4``.
        """
        g1, g2 = self.layout
        weight = g1 * g2 + 1
        dtype = np.min_scalar_type(-weight * weight)
        factor = dtype.type(round(g1 / g2 / self.scale))
        sizes = self.sizes.astype(dtype)
        spill = sizes - self.inter.astype(dtype)
        return factor * sizes - factor * dtype.type(weight) * spill


def _count_keys(rows: np.ndarray, g: int) -> np.ndarray:
    """int64 ``counts[f, k]`` of key ``k`` in column ``f`` of the cell-major
    ``rows``, each summed in an unsigned dtype holding every count and
    stored key-major (the result is the transposed view)."""
    counts = np.empty((g, rows.shape[1]), dtype=np.int64)
    dtype = np.min_scalar_type(rows.shape[0])
    for key in range(g):
        counts[key] = (rows == key).view(np.uint8).sum(axis=0, dtype=dtype)
    return counts.T


@functools.lru_cache(maxsize=4)
def _key_sizes(family: HashFamily, n_cells: int) -> np.ndarray:
    """Read-only support sizes: key counts over all ``n_cells`` cells."""
    sizes = _count_keys(family.key_table(n_cells).T, family.g)
    sizes.flags.writeable = False
    return sizes


def scan_supports(
    family: HashFamily, in_range: np.ndarray, scale: float, layout: Tuple[int, int]
) -> GridSupports:
    """Count each key over the family's cell-key rows of the in-range cells.

    When fewer cells lie outside the range, ``inter`` is ``sizes`` minus the
    count over the out-of-range rows, so a grid with no query attribute
    counts nothing.  ``scale`` and ``layout`` are carried to
    :meth:`GridSupports.rank`.
    """
    in_range = np.asarray(in_range, dtype=bool)
    table = family.key_table(in_range.size)
    sizes = _key_sizes(family, in_range.size)
    if 2 * np.count_nonzero(in_range) <= in_range.size:
        inter = _count_keys(table.T[in_range], family.g)
    else:
        inter = sizes - _count_keys(table.T[~in_range], family.g)
    return GridSupports(family.random_fn_ids(), table, sizes, inter, scale, layout)


def _where(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, keys)`` of the true entries of a (row, key) mask, in
    row-major order.  They are found over ``mask.T``, which is contiguous
    for masks built from the key-major scans, and then sorted."""
    n_rows, g = mask.shape
    keys, rows = np.divmod(np.flatnonzero(mask.T), n_rows)
    return np.divmod(np.sort(rows * g + keys), g)


def _best_pairs(values: np.ndarray, fn_ids: np.ndarray) -> np.ndarray:
    """``(fn_id, key)`` rows of every maximum of ``values[row, key]``, in
    row-major order."""
    rows, keys = _where(values == values.max())
    return np.column_stack([fn_ids[rows], keys])


def _pick(pairs: np.ndarray, rng: np.random.Generator) -> _Pair:
    fn_id, key = pairs[rng.integers(0, len(pairs))]
    return int(fn_id), int(key)


def _repeat(pair: _Pair, m_fake: int) -> Tuple[np.ndarray, np.ndarray]:
    fn_id, key = pair
    return np.full(m_fake, fn_id, dtype=np.int64), np.full(m_fake, key, dtype=np.int64)


class _GridHook:
    """Set-up shared by the grid hooks: config, target query, hash family;
    :meth:`supports` scans one grid (the scans are not kept)."""

    def __init__(self, config: GridConfig, query: RangeQuery):
        self.config = config
        self.query = query
        self.family = config.family()

    def supports(self, key: GridKey) -> GridSupports:
        mask = cells_in_range(self.config, self.query, key)
        scale = mask.size / self.config.g2 ** len(self.config.shape(key))
        return scan_supports(self.family, mask, scale, (self.config.g1, self.config.g2))


# ---------------------------------------------------------------------------
# Max-gain baseline
# ---------------------------------------------------------------------------

def mga_grid(supports: GridSupports, rng: np.random.Generator) -> _Pair:
    """``(fn_id, key)`` with the largest in-range support, ties broken uniformly."""
    if not supports.inter.any():
        raise ValueError("query covers no cell of this grid")
    return _pick(_best_pairs(supports.inter, supports.fn_ids), rng)


class MgaGridAttack(_GridHook):
    """Grid hook: all fakes in a grid report the max-gain pair."""

    def __call__(
        self, key: GridKey, m_fake: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        return _repeat(mga_grid(self.supports(key), rng), m_fake)


# ---------------------------------------------------------------------------
# Constraint-driven attack
# ---------------------------------------------------------------------------

def aog_size_constraints(rho: float, config: GridConfig) -> SizeConstraints:
    """Minimum in-range support sizes guaranteeing full concentration.

    Derived bounds on how much mass normalization can strip from the target
    cells, from the grid layout (``g1``, ``g2``, ``d``) and the OLH
    ``p - q`` of ``config``; infeasible (non-positive denominator)
    configurations raise.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0 for the size constraints")
    olh = config.olh_params()
    g1, g2, d = config.g1, config.g2, config.d
    factor = (olh.p - olh.q) / rho
    den1 = (d - 1) * (g1 - 2 * g2) + g2 * g2
    if den1 <= 0:
        raise ValueError(f"1-D size constraint infeasible at d={d}, g1={g1}, g2={g2}: "
                         "non-positive denominator")
    w1 = factor * ((d - 1) * g1 + g2 * g2) / den1
    den2 = g2 - 3.0 + 3.0 * g1 / (g1 * (d - 1) + g2 * g2)
    if den2 <= 0:
        raise ValueError(f"2-D size constraint infeasible at d={d}, g1={g1}, g2={g2}: "
                         "non-positive denominator")
    w2 = factor * g2 / den2
    return SizeConstraints(w1, w2)


@dataclass
class ColumnBook:
    """Per-attribute record of per-column support counts across grids.

    The first grid that picks a pair for an attribute records its whole
    column vector; later grids must match every recorded column count up
    to +1.
    """

    counts: Dict[int, np.ndarray] = field(default_factory=dict)

    def admits(self, attr: int, col_counts: np.ndarray) -> np.ndarray:
        """Per row of ``col_counts`` (one candidate's counts per row), whether
        it matches every recorded column of ``attr`` up to +1."""
        col_counts = np.atleast_2d(col_counts)
        recorded = self.counts.get(attr)
        if recorded is None:
            return np.ones(col_counts.shape[0], dtype=bool)
        diff = col_counts - recorded
        return ((diff == 0) | (diff == 1)).all(axis=1)

    def record(self, attr: int, col_counts: np.ndarray) -> None:
        self.counts.setdefault(attr, np.array(col_counts, dtype=np.int64))


_Candidates = Tuple[np.ndarray, Dict[int, np.ndarray]]

# Planning attempts of the constraint-driven attack before it falls back.
_MAX_RESTARTS = 50


class GridRangeAttack(_GridHook):
    """Grid hook for the constraint-driven attack (fresh instance per run).

    ``begin`` plans a compliant pair for every grid before the rounds start.
    Each attempt scans the grids in order and, per grid, takes the first
    candidate in a seeded random order whose column counts extend the column
    book; an attempt that leaves some grid without a compliant pair restarts
    with a fresh order (up to ``_MAX_RESTARTS`` attempts).  A fixed ascending
    order would always reach the maximally skewed single-column supports
    first, whose recorded column counts are mutually unsatisfiable across
    grids sharing two attributes.  The attempt with the fewest failed grids
    is kept.  A grid with no candidate takes no part in the attempts.  The
    relevant grids left out of the kept plan, and the grids with no query
    attribute, take a heuristic pair: a uniform pick among the maxima of
    :meth:`GridSupports.rank`.  ``chosen`` maps every grid to its
    pair, and ``fallback_keys`` lists the relevant grids that got no
    compliant pair (empty when every one did).
    """

    def __init__(self, config: GridConfig, query: RangeQuery, rho: float):
        super().__init__(config, query)
        self.constraints = aog_size_constraints(rho, config)
        self.fallback_keys: List[GridKey] = []
        self.chosen: Dict[GridKey, _Pair] = {}

    def _relevant_keys(self) -> List[GridKey]:
        keys = grid_keys(self.config.d)
        return [k for k in keys if any(a in self.query.attrs for a in k[1:])]

    def _candidates(self, key: GridKey, scan: GridSupports) -> _Candidates:
        """Subset/size-compliant (fn_id, key) rows of one grid and their
        per-attribute column counts (one row per pair)."""
        eye = np.eye(self.config.g2, dtype=np.int64)
        w = self.constraints.w1_int if key[0] == "1d" else self.constraints.w2_int
        rows, keys = _where((scan.sizes == scan.inter) & (scan.sizes >= w))
        support = (scan.table[rows] == keys[:, None]).astype(np.int64)
        counts = {
            attr: support @ eye[cols]
            for attr, cols in self.config.columns(key).items()
            if attr in self.query.attrs
        }
        return np.column_stack([scan.fn_ids[rows], keys]), counts

    def _plan_once(
        self,
        keys: List[GridKey],
        candidates: Dict[GridKey, _Candidates],
        rng: np.random.Generator,
        book: ColumnBook,
    ) -> Tuple[Dict[GridKey, _Pair], List[GridKey]]:
        """One greedy pass over ``keys``, extending ``book`` in place.

        Per grid, every candidate is checked against the book at once and
        the first admitted one in a seeded random order is taken.  Returns
        the chosen pair per grid and the grids left without one.
        """
        chosen: Dict[GridKey, _Pair] = {}
        failed: List[GridKey] = []
        for key in keys:
            pairs, counts = candidates[key]
            order = rng.permutation(len(pairs))
            admitted = np.ones(len(pairs), dtype=bool)
            for attr, cc in counts.items():
                admitted &= book.admits(attr, cc)
            hits = np.flatnonzero(admitted[order])
            if hits.size == 0:
                failed.append(key)
                continue
            idx = order[hits[0]]
            for attr, cc in counts.items():
                book.record(attr, cc[idx])
            chosen[key] = (int(pairs[idx, 0]), int(pairs[idx, 1]))
        return chosen, failed

    def begin(
        self, fake_counts: Dict[GridKey, int], n_total: int, rng: np.random.Generator
    ) -> None:
        keys = self._relevant_keys()
        # One scan per grid: the candidate search reads it, and its heuristic
        # ties are kept for the grids that fall back (the scans themselves
        # are not kept; holding them costs more page faults than the ties).
        candidates, ties = {}, {}
        for key in grid_keys(self.config.d):
            scan = self.supports(key)
            if key in keys:
                candidates[key] = self._candidates(key, scan)
            ties[key] = _best_pairs(scan.rank(), scan.fn_ids)
        plannable = [key for key in keys if len(candidates[key][0])]
        self.chosen = {}
        for _ in range(_MAX_RESTARTS):
            chosen, failed = self._plan_once(plannable, candidates, rng, ColumnBook())
            if len(chosen) > len(self.chosen):
                self.chosen = chosen
            if not failed:
                break
        self.fallback_keys = [key for key in keys if key not in self.chosen]
        # Fallback grids first, then the grids with no query attribute.
        others = [k for k in grid_keys(self.config.d) if k not in keys]
        for key in self.fallback_keys + others:
            self.chosen[key] = _pick(ties[key], rng)

    def __call__(
        self, key: GridKey, m_fake: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        if key not in self.chosen:
            raise RuntimeError("begin() was not called before the grid rounds")
        return _repeat(self.chosen[key], m_fake)


# ---------------------------------------------------------------------------
# Heuristic attack
# ---------------------------------------------------------------------------

def haog_best_pair(supports: GridSupports, rng: np.random.Generator) -> _Pair:
    """``(fn_id, key)`` maximizing :meth:`GridSupports.rank`, ties uniform."""
    return _pick(_best_pairs(supports.rank(), supports.fn_ids), rng)


class HeuristicGridAttack(_GridHook):
    """Grid hook: all fakes in a grid report the heuristic-best pair."""

    def __call__(
        self, key: GridKey, m_fake: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        return _repeat(haog_best_pair(self.supports(key), rng), m_fake)


# ---------------------------------------------------------------------------
# Adaptive (detection-aware) attack
# ---------------------------------------------------------------------------

def aaog_compute_load_limit(
    threshold: float,
    beta: float,
    m_round: int,
    n_round_real: int,
    family_size: int,
) -> int:
    """Largest per-function usage cap that keeps detection risk below beta.

    For candidate cap ``l`` the attacker spreads its ``m_round`` reports over
    ``ceil(m_round / l)`` functions.  It plans as if the detector fired when
    a load reaches ``threshold`` (``grid_detect`` fires only above it, so the
    cap is one load unit tighter than it needs to be; ROADMAP.md item 2(b)
    changes the rule): a round is safe if the honest occupancy of every
    chosen function stays below ``threshold - l``.  Each function's honest
    occupancy is exactly ``Bin(n_round_real, 1 / family_size)``; treating
    the attacker's functions as independent draws of it, the round failure
    probability is ``1 - (1 - tail)^n_fns``.  Returns 0 when no cap is safe.
    """
    if m_round < 1:
        return 0
    # tail[k] = P[honest load of one function >= k].
    tail = binomial_pmf(n_round_real, 1.0 / family_size)[::-1].cumsum()[::-1]
    l_max = min(int(math.ceil(threshold)) - 1, m_round)
    for cap in range(l_max, 0, -1):
        n_fns = math.ceil(m_round / cap)
        if n_fns > family_size:
            continue
        # A chosen function fails if its honest load reaches threshold - cap.
        k_bad = int(math.ceil(threshold - cap))
        p_bad = tail[k_bad] if k_bad <= n_round_real else 0.0
        if 1.0 - (1.0 - p_bad) ** n_fns <= beta:
            return cap
    return 0


def match_functions_to_grids(values: np.ndarray, quotas: Sequence[int]) -> List[List[int]]:
    """Assign each function to at most one grid under per-grid quotas.

    ``values[g, f]`` is the common worth of function ``f`` to grid ``g``
    (both sides rank by the same matrix, so the greedy best-pair-first
    assignment is a stable matching).  Returns the list of function columns
    matched to each grid.  The greedy visits the distinct values from the
    highest down; at each value every grid, in index order, takes its first
    free functions of that value, in ascending order, up to the quota it has
    left, and it stops once every quota is met.  Its cost grows with the
    number of values visited: the adaptive attack passes
    :meth:`GridSupports.rank` values, which take few.
    """
    n_grids, n_fns = values.shape
    if sum(quotas) > n_fns:
        raise ValueError("not enough functions to fill all quotas")
    remaining = list(quotas)
    free = np.ones(n_fns, dtype=bool)
    matched: List[List[int]] = [[] for _ in range(n_grids)]
    for level in np.unique(values)[::-1]:
        if not any(remaining):
            break
        for g in range(n_grids):
            if remaining[g]:
                fns = np.flatnonzero((values[g] == level) & free)[: remaining[g]]
                free[fns] = False
                remaining[g] -= fns.size
                matched[g].extend(fns.tolist())
    return matched


class AdaptiveGridAttack(_GridHook):
    """Grid hook spreading fake reports to evade the max-load detector.

    ``begin`` (called by the protocol before any grid round) computes the
    detector's threshold, the safe per-function cap L, and a stable quota
    matching of hash functions to grids; each matched function is then used
    by at most L fake users with its best key for that grid.  ``beta`` is the
    tolerated probability of being flagged in *any* round, split evenly
    across the rounds that carry fakes.
    """

    def __init__(
        self,
        config: GridConfig,
        query: RangeQuery,
        alpha: float = 0.005,
        beta: float = 0.1,
    ):
        super().__init__(config, query)
        self.alpha = alpha
        self.beta = beta
        self.load_limit: Optional[int] = None
        self._plan: Dict[GridKey, Tuple[np.ndarray, np.ndarray]] = {}

    def begin(
        self, fake_counts: Dict[GridKey, int], n_total: int, rng: np.random.Generator
    ) -> None:
        family_size = self.family.n_random_functions
        n_groups = self.config.n_groups
        round_size = max(n_total // n_groups, 1)
        cdf = max_load_cdf(round_size, family_size)
        threshold = cdf.threshold(self.alpha)
        m_round = max(fake_counts.values()) if fake_counts else 0
        # beta bounds the chance of being caught anywhere; the detector runs
        # once per grid round, so split the budget across the rounds that
        # carry fakes.
        n_rounds = sum(1 for m in fake_counts.values() if m > 0)
        beta_round = (
            1.0 - (1.0 - self.beta) ** (1.0 / n_rounds) if n_rounds else self.beta
        )
        self.load_limit = aaog_compute_load_limit(
            threshold,
            beta_round,
            m_round,
            max(round_size - m_round, 0),
            family_size,
        )
        if self.load_limit < 1:
            raise RuntimeError(
                "adaptive grid attack infeasible: no per-function cap is safe "
                f"at threshold {threshold} and beta {self.beta}"
            )

        keys = [k for k, m in fake_counts.items() if m > 0]
        quotas = [math.ceil(fake_counts[k] / self.load_limit) for k in keys]
        if sum(quotas) > family_size:
            raise RuntimeError(
                f"adaptive grid attack infeasible: {sum(quotas)} functions needed at cap "
                f"{self.load_limit}, the family has {family_size}"
            )
        fn_ids = self.family.random_fn_ids()
        # One row per grid of each function's best key and its rank, both in
        # narrow dtypes.
        best_keys, values = (np.stack(rows) for rows in zip(*map(self._best_keys, keys)))
        matched = match_functions_to_grids(values, quotas)
        for g_idx, key in enumerate(keys):
            # Each matched function in turn takes up to load_limit fakes.
            cap = self.load_limit
            cols = np.asarray(matched[g_idx], dtype=np.int64)
            uses = np.clip(fake_counts[key] - cap * np.arange(cols.size), 0, cap)
            self._plan[key] = (
                np.repeat(fn_ids[cols], uses),
                np.repeat(best_keys[g_idx, cols], uses),
            )

    def _best_keys(self, key: GridKey) -> Tuple[np.ndarray, np.ndarray]:
        """Each universal function's best key for grid ``key``, in the
        family's narrow key dtype, and its rank.

        A function of its own, so one grid's (functions x g) ranks are freed
        before the next grid is ranked.
        """
        rank = self.supports(key).rank()
        top = rank.max(axis=1)
        # The first key reaching the top, as argmax(axis=1) would pick it.
        best = np.zeros(top.size, dtype=np.min_scalar_type(self.family.g - 1))
        for k in reversed(range(rank.shape[1])):
            np.putmask(best, rank[:, k] == top, k)
        return best, top

    def __call__(
        self, key: GridKey, m_fake: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        if key not in self._plan:
            raise RuntimeError("begin() was not called before the grid rounds")
        return self._plan[key]
