"""Hybrid 1-D/2-D grid range-query protocol (OLH based).

For ``d`` attributes the server prepares ``d`` 1-D grids of ``g1`` cells and
``C(d,2)`` 2-D grids of ``g2 x g2`` cells.  Users are randomly divided into
``d + C(d,2)`` near-equal groups, one per grid; each user reports the grid
cell containing their record through OLH.  Post-processing alternates a
cross-grid consistency pass with per-grid Norm-Sub.  Multi-attribute range
queries are answered by combining, for every attribute pair in the query,
the mass of a response matrix built from the pair's 2-D grid refined by the
two 1-D grids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .freq_oracles import HashFamily, OlhParams, olh_aggregate, olh_perturb_batch, smallest_prime_above
from .postprocess import grid_consistency, norm_sub
from .tree_protocol import RangeQuery

__all__ = [
    "GridConfig",
    "GridSet",
    "assign_user_groups",
    "grid_keys",
    "cells_in_range",
    "trim_query",
    "run_grid_protocol",
    "build_response_matrix",
    "estimate_query",
    "grids_to_json",
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
        self.family()  # raises unless prime is a prime

    @property
    def n_groups(self) -> int:
        return self.d + self.d * (self.d - 1) // 2

    @property
    def col_width(self) -> int:
        return self.domain_size // self.g2

    @property
    def cell_width(self) -> int:
        return self.domain_size // self.g1

    def olh_params(self) -> OlhParams:
        return OlhParams(self.epsilon)

    def family(self) -> HashFamily:
        return HashFamily(self.prime, self.olh_params().g)


@dataclass
class GridSet:
    """Post-processed grid frequencies plus the hash-family metadata."""

    config: GridConfig
    one_d: List[np.ndarray]
    two_d: Dict[Tuple[int, int], np.ndarray]
    family: HashFamily
    group_sizes: Dict[GridKey, int] = field(default_factory=dict)


def grid_keys(d: int) -> List[GridKey]:
    """All grid identifiers: 2-D pairs ascending, then 1-D dims ascending."""
    keys: List[GridKey] = [("2d", i, j) for i, j in combinations(range(d), 2)]
    keys.extend(("1d", i) for i in range(d))
    return keys


def assign_user_groups(total_users: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Random near-equal partition of users into ``d + C(d,2)`` groups."""
    n_groups = d + d * (d - 1) // 2
    if total_users < n_groups:
        raise ValueError("fewer users than groups")
    base = np.arange(total_users) % n_groups
    return rng.permutation(base)


def trim_query(query: RangeQuery, config: GridConfig) -> RangeQuery:
    """Snap every interval outward to 2-D column boundaries."""
    width = config.col_width
    intervals = []
    for lo, hi in query.intervals:
        lo2 = (lo // width) * width
        hi2 = int(math.ceil(hi / width)) * width
        intervals.append((lo2, min(hi2, config.domain_size)))
    return RangeQuery(query.attrs, tuple(intervals))


def cells_in_range(config: GridConfig, query: RangeQuery, key: GridKey) -> np.ndarray:
    """Boolean mask of the grid's cells lying inside the (trimmed) query."""
    query = trim_query(query, config)

    def axis_mask(attr: int, n_cells: int, width: int) -> np.ndarray:
        if attr not in query.attrs:
            return np.ones(n_cells, dtype=bool)
        lo, hi = query.interval_for(attr)
        cells = np.arange(n_cells)
        return (cells * width >= lo) & ((cells + 1) * width <= hi)

    if key[0] == "1d":
        return axis_mask(key[1], config.g1, config.cell_width)
    _, i, j = key
    rows = axis_mask(i, config.g2, config.col_width)
    cols = axis_mask(j, config.g2, config.col_width)
    return (rows[:, None] & cols[None, :]).ravel()


def _record_to_cell(records: np.ndarray, config: GridConfig, key: GridKey) -> np.ndarray:
    if key[0] == "1d":
        return records[:, key[1]] // config.cell_width
    _, i, j = key
    rows = records[:, i] // config.col_width
    cols = records[:, j] // config.col_width
    return rows * config.g2 + cols


def run_grid_protocol(
    records,
    config: GridConfig,
    hook: Optional[Callable[[GridKey, int, np.random.Generator], Tuple[np.ndarray, np.ndarray]]] = None,
    rho: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    observer: Optional[Callable[[GridKey, np.ndarray], None]] = None,
) -> GridSet:
    """Run collection and post-processing; returns the final :class:`GridSet`.

    ``hook``: called per grid with (grid key, fake count, rng); must return
    ``(fn_ids, keys)`` arrays of fabricated reports for that grid's round.
    ``observer``: called per grid with the fn_ids of every report in the
    round (real then fake), for the max-load detector.
    """
    rng = rng if rng is not None else np.random.default_rng()
    records = np.asarray(records, dtype=np.int64)
    if records.ndim != 2 or records.shape[1] != config.d:
        raise ValueError(f"records must have shape (n, {config.d})")
    if records.size == 0:
        raise ValueError("empty input")
    if records.min() < 0 or records.max() >= config.domain_size:
        raise ValueError("records outside domain")
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must be in [0, 1)")

    n_real = records.shape[0]
    n_fake = int(round(n_real * rho / (1.0 - rho))) if rho > 0 else 0
    groups = assign_user_groups(n_real + n_fake, config.d, rng)
    real_groups = groups[:n_real]
    fake_groups = groups[n_real:]

    params = config.olh_params()
    family = config.family()
    keys_order = grid_keys(config.d)

    if hook is not None and hasattr(hook, "begin"):
        fake_counts = {
            key: int((fake_groups == gidx).sum()) for gidx, key in enumerate(keys_order)
        }
        hook.begin(fake_counts, n_real + n_fake, rng)

    one_d: List[np.ndarray] = [np.zeros(config.g1) for _ in range(config.d)]
    two_d: Dict[Tuple[int, int], np.ndarray] = {}
    group_sizes: Dict[GridKey, int] = {}

    for gidx, key in enumerate(keys_order):
        member_mask = real_groups == gidx
        m_fake = int((fake_groups == gidx).sum())
        cells = _record_to_cell(records[member_mask], config, key)
        fn_ids, rep_keys = olh_perturb_batch(cells, family, params, rng)
        if hook is not None and m_fake > 0:
            fake_fns, fake_keys = hook(key, m_fake, rng)
            fake_fns = np.asarray(fake_fns, dtype=np.int64)
            fake_keys = np.asarray(fake_keys, dtype=np.int64)
            if fake_fns.size != m_fake or fake_keys.size != m_fake:
                raise ValueError("attack hook must return one report per fake user")
            fn_ids = np.concatenate([fn_ids, fake_fns])
            rep_keys = np.concatenate([rep_keys, fake_keys])
        if observer is not None:
            observer(key, fn_ids)
        n_cells = config.g1 if key[0] == "1d" else config.g2 * config.g2
        freqs = olh_aggregate(
            (fn_ids, rep_keys), family, np.arange(n_cells), params, n_users=fn_ids.size
        )
        group_sizes[key] = int(fn_ids.size)
        if key[0] == "1d":
            one_d[key[1]] = freqs
        else:
            two_d[(key[1], key[2])] = freqs.reshape(config.g2, config.g2)

    for _ in range(config.pp_rounds):
        one_d, two_d = grid_consistency(one_d, two_d, config.g1, config.g2, config.d)
        one_d = [norm_sub(v).normalized for v in one_d]
        two_d = {
            k: norm_sub(v.ravel()).normalized.reshape(config.g2, config.g2)
            for k, v in two_d.items()
        }

    return GridSet(config, one_d, two_d, family, group_sizes)


def build_response_matrix(grids: GridSet, i: int, j: int) -> np.ndarray:
    """Refine the (i, j) 2-D grid to ``g1 x g1`` using the 1-D marginals.

    Each coarse cell's mass is spread over its fine sub-cells proportionally
    to the corresponding 1-D frequencies (uniformly when a column of the 1-D
    grid carries no mass).  The matrix sums to the 2-D grid's total mass.
    """
    config = grids.config
    span = config.g1 // config.g2
    coarse = grids.two_d[(i, j)]

    def weights(dim: int) -> np.ndarray:
        fine = grids.one_d[dim]
        w = np.empty(config.g1)
        for c in range(config.g2):
            block = fine[c * span : (c + 1) * span]
            total = block.sum()
            if total > 0:
                w[c * span : (c + 1) * span] = block / total
            else:
                w[c * span : (c + 1) * span] = 1.0 / span
        return w

    wi, wj = weights(i), weights(j)
    cols_i = np.arange(config.g1) // span
    cols_j = np.arange(config.g1) // span
    return coarse[np.ix_(cols_i, cols_j)] * wi[:, None] * wj[None, :]


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
    trimmed = trim_query(query, config)

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


def grids_to_json(grids: GridSet) -> str:
    payload = {
        "config": {
            "d": grids.config.d,
            "g1": grids.config.g1,
            "g2": grids.config.g2,
            "domain_size": grids.config.domain_size,
            "epsilon": grids.config.epsilon,
            "pp_rounds": grids.config.pp_rounds,
            "prime": grids.config.prime,
        },
        "one_d": [v.tolist() for v in grids.one_d],
        "two_d": {f"{i},{j}": v.tolist() for (i, j), v in grids.two_d.items()},
    }
    return json.dumps(payload)
