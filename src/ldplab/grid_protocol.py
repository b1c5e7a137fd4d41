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
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .freq_oracles import HashFamily, OlhParams, olh_aggregate, olh_perturb_batch, smallest_prime_above
from .freq_oracles import _check_fake_count
from .postprocess import grid_consistency, norm_sub
from .query import RangeQuery

__all__ = [
    "GridConfig",
    "GridSet",
    "grid_keys",
    "cells_in_range",
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

    def round_plan(self, n_real: int, n_fake: int, rng: np.random.Generator) -> Tuple:
        """``(groups, fake_counts)``: each real user's grid round and each
        round's fake count, from one random near-equal partition of all users."""
        _check_fake_count(n_fake)
        if n_real + n_fake < self.n_groups:
            raise ValueError("fewer users than groups")
        groups = rng.permutation(np.arange(n_real + n_fake) % self.n_groups)
        return groups[:n_real], np.bincount(groups[n_real:], minlength=self.n_groups)

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


@dataclass
class GridSet:
    """Post-processed grid frequencies: one flat cell vector per grid key."""

    config: GridConfig
    freqs: Dict[GridKey, np.ndarray]


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


def run_grid_protocol(
    records,
    config: GridConfig,
    hook: Optional[Callable[[GridKey, int, np.random.Generator], Tuple[np.ndarray, np.ndarray]]] = None,
    n_fake: int = 0,
    *,
    rng: np.random.Generator,
    observer: Optional[Callable[[GridKey, np.ndarray], None]] = None,
) -> GridSet:
    """Run collection and post-processing; returns the final :class:`GridSet`.

    ``n_fake``: fakes planned by :meth:`GridConfig.round_plan` with the users.
    ``hook``: called per grid with (grid key, fake count, rng); must return
    ``(fn_ids, keys)`` arrays of fabricated reports for that grid's round.
    ``observer``: called per grid with the fn_ids of every report in the
    round (real then fake), for the max-load detector.
    """
    records = np.asarray(records, dtype=np.int64)
    if records.ndim != 2 or records.shape[1] != config.d:
        raise ValueError(f"records must have shape (n, {config.d})")
    if records.size == 0:
        raise ValueError("empty input")
    if records.min() < 0 or records.max() >= config.domain_size:
        raise ValueError("records outside domain")

    real_groups, fake_counts = config.round_plan(len(records), n_fake, rng)

    params = config.olh_params()
    family = config.family()
    keys_order = grid_keys(config.d)

    # One stable sort lists every grid's users in record order; the bounds
    # of grid ``gidx`` are ``starts[gidx]:starts[gidx + 1]``.
    by_group = np.argsort(real_groups.astype(np.min_scalar_type(config.n_groups)), kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(real_groups, minlength=config.n_groups))))

    if hook is not None and hasattr(hook, "begin"):
        hook.begin(dict(zip(keys_order, fake_counts.tolist())), len(records) + n_fake, rng)

    freqs: Dict[GridKey, np.ndarray] = {}

    for gidx, key in enumerate(keys_order):
        members = by_group[starts[gidx] : starts[gidx + 1]]
        m_fake = int(fake_counts[gidx])
        shape = config.shape(key)
        widths = [config.domain_size // n for n in shape]
        coords = tuple(records[members, a] // w for a, w in zip(key[1:], widths))
        cells = np.ravel_multi_index(coords, shape)
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
        freqs[key] = olh_aggregate((fn_ids, rep_keys), family, np.arange(math.prod(shape)), params)

    columns = {key: config.columns(key) for key in keys_order}
    for _ in range(config.pp_rounds):
        freqs = grid_consistency(freqs, columns, config.g2)
        freqs = {key: norm_sub(v).normalized for key, v in freqs.items()}

    return GridSet(config, freqs)


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
