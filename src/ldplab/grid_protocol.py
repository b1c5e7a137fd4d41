"""Hybrid 1-D/2-D grid range-query protocol (OLH based).

For ``d`` attributes the server prepares ``d`` 1-D grids of ``g1`` cells and
``C(d,2)`` 2-D grids of ``g2 x g2`` cells.  Users are randomly divided into
``d + C(d,2)`` near-equal groups, one per grid; each user reports the grid
cell containing their record through OLH.  Post-processing alternates a
cross-grid consistency pass with per-grid Norm-Sub.  Multi-attribute range
queries are answered by combining, for every attribute pair in the query,
the mass of a response matrix built from the pair's 2-D grid refined by the
two 1-D grids.

Every grid is one flat row-major vector of cells.  Only :class:`GridConfig`
knows a grid's shape: ``shape(key)`` gives its cells per attribute and
``columns(key)`` the ``g2``-column of every cell per attribute; cell mapping,
range masks, consistency and the attacks all derive from these two.

A run has two steps.  :func:`collect_grid_reports` partitions the real users
over the grids and perturbs and counts their reports; it does not depend on
any fake user.  :func:`run_grid_protocol` adds fake reports to those counts
and post-processes, so one collection serves an honest run and any number of
poisoned runs, as in a threat model where fakes join a population whose
genuine reports are fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .freq_oracles import HashFamily, OlhParams, debias_counts, olh_aggregate, olh_perturb_batch
from .freq_oracles import _check_fake_count, smallest_prime_above
from .postprocess import grid_consistency, norm_sub
from .query import RangeQuery

__all__ = [
    "GridConfig",
    "GridSet",
    "GridRound",
    "grid_keys",
    "cells_in_range",
    "collect_grid_reports",
    "run_grid_protocol",
    "build_response_matrix",
    "estimate_query",
]

GridKey = Tuple  # ("1d", i) or ("2d", i, j)


@dataclass
class GridConfig:
    """Configuration of the grid protocol."""

    d: int = 5
    g1: int = 16
    g2: int = 4
    domain_size: int = 64
    epsilon: float = 1.0
    pp_rounds: int = 1
    prime: Optional[int] = None

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("d must be >= 2")
        for name in ("g1", "g2", "domain_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.g2 < 2:
            raise ValueError(f"g2 must be >= 2, got {self.g2!r}: one column spans the domain")
        if self.domain_size % self.g1 or self.domain_size % self.g2:
            raise ValueError("g1 and g2 must divide domain_size")
        if self.g1 % self.g2:
            raise ValueError("g1 must be divisible by g2")
        if self.pp_rounds < 1:
            raise ValueError("pp_rounds must be >= 1")
        max_cells = max(self.g1, self.g2 * self.g2)
        if self.prime is None:
            self.prime = smallest_prime_above(max_cells)
        elif self.prime <= max_cells:
            raise ValueError("prime must exceed the largest cell count")
        g = self.family().g  # raises unless prime is a prime
        if g > self.prime:
            # Hash values lie in [0, prime): a key at or above it is never one.
            raise ValueError(
                f"OLH key count g = {g} exceeds the hash prime {self.prime}: "
                "lower epsilon or raise family_prime to at least g"
            )

    @property
    def n_groups(self) -> int:
        return self.d + self.d * (self.d - 1) // 2

    @property
    def col_width(self) -> int:
        return self.domain_size // self.g2

    @property
    def cell_width(self) -> int:
        return self.domain_size // self.g1

    def fake_counts(self, n_fake: int) -> Dict[GridKey, int]:
        """Each grid's share of ``n_fake`` fakes, in :func:`grid_keys` order:
        a near-equal split with no draw, the first ``n_fake % n_groups``
        grids taking one more."""
        _check_fake_count(n_fake)
        base, extra = divmod(int(n_fake), self.n_groups)
        return {key: base + (i < extra) for i, key in enumerate(grid_keys(self.d))}

    def olh_params(self) -> OlhParams:
        return OlhParams(self.epsilon)

    def family(self) -> HashFamily:
        return HashFamily(self.prime, self.olh_params().g)

    def shape(self, key: GridKey) -> Tuple[int, ...]:
        """Cells along each attribute of the grid, in the key's attribute order."""
        return (self.g1,) if key[0] == "1d" else (self.g2, self.g2)

    def columns(self, key: GridKey) -> Dict[int, np.ndarray]:
        """Per attribute of the grid, the ``g2``-column of every (row-major) cell."""
        shape = self.shape(key)
        coords = np.unravel_index(np.arange(math.prod(shape)), shape)
        return {attr: c * self.g2 // n for attr, c, n in zip(key[1:], coords, shape)}


class GridRound(NamedTuple):
    """One grid's real reports, as :func:`collect_grid_reports` keeps them.

    ``users`` is the number of reports, ``support`` their read-only int64
    support count per cell (:func:`olh_aggregate`), and ``fn_ids`` each
    report's read-only function id, or ``None`` when the collection did not
    keep them.
    """

    users: int
    support: np.ndarray
    fn_ids: Optional[np.ndarray]


@dataclass
class GridSet:
    """Post-processed grid frequencies (one flat cell vector per grid key) and the rounds."""

    config: GridConfig
    freqs: Dict[GridKey, np.ndarray]
    rounds: List[Tuple[GridKey, Optional[np.ndarray]]]


def grid_keys(d: int) -> List[GridKey]:
    """All grid identifiers: 2-D pairs ascending, then 1-D dims ascending."""
    keys: List[GridKey] = [("2d", i, j) for i, j in combinations(range(d), 2)]
    keys.extend(("1d", i) for i in range(d))
    return keys


def cells_in_range(config: GridConfig, query: RangeQuery, key: GridKey) -> np.ndarray:
    """Boolean mask of the grid's cells whose columns lie inside the snapped query."""
    query = query.snapped(config.col_width, config.domain_size)
    mask = np.ones(math.prod(config.shape(key)), dtype=bool)
    for attr, cols in config.columns(key).items():
        if attr in query.attrs:
            lo, hi = query.interval_for(attr)
            mask &= (cols >= lo // config.col_width) & (cols < hi // config.col_width)
    return mask


def collect_grid_reports(
    records, config: GridConfig, *, rng: np.random.Generator, keep_reports: bool = False
) -> Dict[GridKey, GridRound]:
    """Collect the real users' reports: one :class:`GridRound` per grid, in
    :func:`grid_keys` order.

    The users are split into ``n_groups`` near-equal groups by one draw,
    ``rng.permutation(arange(n_real) % n_groups)``, and each group reports
    its grid's cell through OLH.  ``keep_reports`` keeps each report's
    fn_id, the max-load detector's input; it changes no draw.
    """
    records = np.asarray(records, dtype=np.int64)
    if records.ndim != 2 or records.shape[1] != config.d:
        raise ValueError(f"records must have shape (n, {config.d})")
    if records.size == 0:
        raise ValueError("empty input")
    if records.min() < 0 or records.max() >= config.domain_size:
        raise ValueError("records outside domain")
    if len(records) < config.n_groups:
        raise ValueError("fewer users than groups")

    groups = rng.permutation(np.arange(len(records)) % config.n_groups)
    params = config.olh_params()
    family = config.family()

    # One stable sort lists every grid's users in record order; the bounds
    # of grid ``gidx`` are ``starts[gidx]:starts[gidx + 1]``.
    by_group = np.argsort(groups.astype(np.min_scalar_type(config.n_groups)), kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(groups, minlength=config.n_groups))))

    reports: Dict[GridKey, GridRound] = {}
    for gidx, key in enumerate(grid_keys(config.d)):
        members = by_group[starts[gidx] : starts[gidx + 1]]
        shape = config.shape(key)
        widths = [config.domain_size // n for n in shape]
        coords = tuple(records[members, a] // w for a, w in zip(key[1:], widths))
        fn_ids, keys = olh_perturb_batch(np.ravel_multi_index(coords, shape), family, params, rng)
        support = olh_aggregate((fn_ids, keys), family, np.arange(math.prod(shape)))
        # Every run of the collection reads these arrays; none may write them.
        support.flags.writeable = False
        fn_ids.flags.writeable = False
        reports[key] = GridRound(members.size, support, fn_ids if keep_reports else None)
    return reports


def run_grid_protocol(
    reports: Dict[GridKey, GridRound],
    config: GridConfig,
    hook: Optional[Callable[[GridKey, int, np.random.Generator], Tuple[np.ndarray, np.ndarray]]] = None,
    n_fake: int = 0,
    *,
    rng: np.random.Generator,
    keep_reports: bool = False,
) -> GridSet:
    """Add fake reports to collected real ones and post-process; returns the
    final :class:`GridSet`.

    ``reports``: the real reports of :func:`collect_grid_reports` on the
    same config, which this function does not change.
    ``n_fake``: fakes split over the grids by :meth:`GridConfig.fake_counts`.
    ``hook``: called per grid with (grid key, fake count, rng); must return
    ``(fn_ids, keys)`` arrays of fabricated reports for that grid's round.
    Their support counts are added to the real ones.
    A hook with a ``begin`` method has it called once before the rounds,
    with the fake count per grid, when ``n_fake > 0``.  Only the hook draws
    from ``rng``.
    The result's ``rounds`` hold one ``(grid key, reports)`` pair per grid;
    ``reports`` is each report's fn_id, real then fake (the max-load
    detector's input), with ``keep_reports``, which needs a collection that
    kept them; otherwise ``None``.
    """
    fake_counts = config.fake_counts(n_fake)
    keys_order = grid_keys(config.d)
    if list(reports) != keys_order:
        raise ValueError("reports must hold one round per grid of the config, in grid_keys order")
    if keep_reports and any(real.fn_ids is None for real in reports.values()):
        raise ValueError("keep_reports needs reports collected with keep_reports")

    params = config.olh_params()
    family = config.family()
    if hook is not None and n_fake > 0 and hasattr(hook, "begin"):
        n_real = sum(real.users for real in reports.values())
        hook.begin(fake_counts, n_real + n_fake, rng)

    freqs: Dict[GridKey, np.ndarray] = {}
    rounds: List[Tuple[GridKey, Optional[np.ndarray]]] = []
    for key, (users, support, fn_ids) in reports.items():
        m_fake = fake_counts[key]
        if hook is not None and m_fake > 0:
            fake_fns, fake_keys = hook(key, m_fake, rng)
            fake_fns = np.asarray(fake_fns, dtype=np.int64)
            fake_keys = np.asarray(fake_keys, dtype=np.int64)
            if fake_fns.size != m_fake or fake_keys.size != m_fake:
                raise ValueError("attack hook must return one report per fake user")
            support = support + olh_aggregate((fake_fns, fake_keys), family, np.arange(support.size))
            users += m_fake
            if keep_reports:
                fn_ids = np.concatenate([fn_ids, fake_fns])
        rounds.append((key, fn_ids if keep_reports else None))
        freqs[key] = debias_counts(support, users, params)

    columns = {key: config.columns(key) for key in keys_order}
    for _ in range(config.pp_rounds):
        freqs = grid_consistency(freqs, columns, config.g2)
        freqs = {key: norm_sub(v).normalized for key, v in freqs.items()}

    return GridSet(config, freqs, rounds)


def build_response_matrix(grids: GridSet, i: int, j: int) -> np.ndarray:
    """Refine the (i, j) 2-D grid to ``g1 x g1`` using the 1-D marginals.

    Each coarse cell's mass is spread over its fine sub-cells proportionally
    to the corresponding 1-D frequencies (uniformly when a column of the 1-D
    grid carries no mass).  The matrix sums to the 2-D grid's total mass.
    """
    config = grids.config
    span = config.g1 // config.g2

    def weights(attr: int) -> np.ndarray:
        blocks = grids.freqs[("1d", attr)].reshape(config.g2, span)
        totals = blocks.sum(axis=1, keepdims=True)
        uniform = np.full_like(blocks, 1.0 / span)
        return np.divide(blocks, totals, out=uniform, where=totals > 0).ravel()

    coarse = grids.freqs[("2d", i, j)].reshape(config.shape(("2d", i, j)))
    cols = config.columns(("1d", i))[i]
    return coarse[np.ix_(cols, cols)] * weights(i)[:, None] * weights(j)[None, :]


def estimate_query(grids: GridSet, query: RangeQuery) -> float:
    """Estimate a multi-attribute range query from the grid set.

    For every attribute pair in the query, the response-matrix mass inside
    the pair's rectangle gives a pairwise answer; the pairwise answers are
    combined by geometric mean with exponent ``1/(|A_q|-1)``, which is exact
    when attributes are independent.  The result is clipped to [0, 1].
    """
    config = grids.config
    attrs = sorted(query.attrs)
    if not 2 <= len(attrs) <= config.d:
        raise ValueError("query must concern between 2 and d attributes")
    if any(a not in range(config.d) for a in attrs):
        raise ValueError("attribute outside grid set")
    trimmed = query.snapped(config.col_width, config.domain_size)

    def fine_range(attr: int) -> slice:
        lo, hi = trimmed.interval_for(attr)
        return slice(lo // config.cell_width, hi // config.cell_width)

    pair_answers = []
    for i, j in combinations(attrs, 2):
        matrix = build_response_matrix(grids, i, j)
        pair_answers.append(matrix[fine_range(i), fine_range(j)].sum())
    answers = np.clip(np.asarray(pair_answers), 0.0, 1.0)
    combined = float(np.prod(answers) ** (1.0 / (len(attrs) - 1)))
    return min(max(combined, 0.0), 1.0)

