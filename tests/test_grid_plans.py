"""The grid attacks' plans at the bench grid config are pinned to a fixture.

Each case plans one grid attack for one seeded query on ``GridConfig(d=5,
prime=211)`` with the fake counts of a 30k-user run at ``rho = 0.1`` and
compares the sha256 of the plan's JSON with ``data/grid_plan_sha256.json``.
A plan is:

* ``mga`` / ``haog``: the pair ``mga_grid`` / ``haog_best_pair`` picks on
  every grid, drawn in grid order from one seeded generator;
* ``aog``: ``GridRangeAttack.chosen`` and ``fallback_keys`` after ``begin``;
* ``aaog``: ``AdaptiveGridAttack.load_limit`` and the (functions, keys) it
  emits for every grid.

The ``h*-aog`` cases pin the heavy tail of ``aog`` planning: queries drawn
by the grid-attack bench (seed 3) on which every restart walks all the
candidates of some grid, about 320k-400k column-book checks per plan.

So any change to the support scan, the tie-breaking draws or the planners
shows.  Regenerate only for a change meant to alter attack plans, and say so
where the change is recorded::

    PYTHONPATH=src python -m tests.test_grid_plans --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ldplab.attacks import grid as grid_attacks
from ldplab.attacks import (
    AdaptiveGridAttack,
    GridRangeAttack,
    HeuristicGridAttack,
    MgaGridAttack,
    haog_best_pair,
    mga_grid,
)
from ldplab.grid_protocol import GridConfig, grid_keys
from ldplab.harness import gen_queries
from ldplab.query import RangeQuery

FIXTURE = Path(__file__).parent / "data" / "grid_plan_sha256.json"

CONFIG = GridConfig(d=5, prime=211)
RHO = 0.1
N_REAL = 30_000
N_QUERIES = 6
ATTACKS = ("mga", "haog", "aog", "aaog")
HEAVY_QUERIES = [
    RangeQuery(attrs=(0, 3, 4), intervals=((48, 64), (16, 64), (48, 64))),
    RangeQuery(attrs=(1, 3, 4), intervals=((16, 32), (0, 48), (0, 16))),
    RangeQuery(attrs=(1, 3, 4), intervals=((16, 64), (0, 32), (32, 64))),
]
CASES = [f"q{i}-{attack}" for i in range(N_QUERIES) for attack in ATTACKS] + [
    f"h{i}-aog" for i in range(len(HEAVY_QUERIES))
]


def _fake_counts(config=CONFIG, n_real=N_REAL):
    n_fake = round(n_real * RHO / (1 - RHO))
    return config.fake_counts(n_fake), n_real + n_fake


def _name(key) -> str:
    return "-".join(str(part) for part in key)


def _plan(attack: str, query, rng: np.random.Generator, config=CONFIG, n_real=N_REAL) -> dict:
    keys = grid_keys(config.d)
    fake_counts, n_total = _fake_counts(config, n_real)
    if attack in ("mga", "haog"):
        hook = (MgaGridAttack if attack == "mga" else HeuristicGridAttack)(config, query)
        pick = mga_grid if attack == "mga" else haog_best_pair
        pairs = {_name(key): pick(hook.supports(key), rng) for key in keys}
        return {name: list(pair) for name, pair in pairs.items()}
    if attack == "aog":
        hook = GridRangeAttack(config, query, RHO)
        hook.begin(fake_counts, n_total, rng)
        return {
            "chosen": {_name(k): list(p) for k, p in sorted(hook.chosen.items())},
            "fallback_keys": [_name(k) for k in hook.fallback_keys],
        }
    hook = AdaptiveGridAttack(config, query)
    hook.begin(fake_counts, n_total, rng)
    plan = {}
    for key in keys:
        fns, rep_keys = hook(key, fake_counts[key], rng)
        plan[_name(key)] = [fns.tolist(), rep_keys.tolist()]
    return {"load_limit": hook.load_limit, "plan": plan}


def _queries():
    return gen_queries(
        N_QUERIES, CONFIG.domain_size, CONFIG.d, 3, np.random.default_rng(2110), snap=CONFIG.col_width
    )


def _digest(case: str) -> str:
    qname, attack = case.split("-")
    index = int(qname[1:])
    if qname[0] == "h":
        query, entropy = HEAVY_QUERIES[index], [2112, index]
    else:
        query, entropy = _queries()[index], [2111, index]
    plan = _plan(attack, query, np.random.default_rng(np.random.SeedSequence(entropy)))
    return hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_grid_plan_matches_fixture(case):
    assert _digest(case) == json.loads(FIXTURE.read_text())[case]


# A query at the bench config whose plan leaves grids with compliant pairs
# but no pair agreeing with the column book: ("2d", 2, 4) and ("1d", 2).
CONFLICT_QUERY = RangeQuery(attrs=(1, 2, 3), intervals=((0, 16), (0, 48), (0, 32)))


def test_range_attack_begin_scans_each_grid_once(monkeypatch):
    calls = []
    scan = grid_attacks.scan_supports
    monkeypatch.setattr(
        grid_attacks, "scan_supports", lambda *args: calls.append(args) or scan(*args)
    )
    fake_counts, n_total = _fake_counts()
    hooks = []
    for index, query in enumerate(_queries() + [CONFLICT_QUERY]):
        calls.clear()
        hook = GridRangeAttack(CONFIG, query, RHO)
        hook.begin(fake_counts, n_total, np.random.default_rng(index))
        assert len(calls) == len(grid_keys(CONFIG.d)), index
        hooks.append(hook)
    # Both kinds of fallback grid occur: with no candidate at all, and with
    # candidates that all conflict with the column book.
    fallbacks = [(hook, key) for hook in hooks for key in hook.fallback_keys]
    has_candidates = [len(hook._candidates(key, hook.supports(key))[0]) > 0 for hook, key in fallbacks]
    assert not all(has_candidates)
    assert any(has_candidates)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_grid_plans --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({case: _digest(case) for case in CASES}, indent=1) + "\n")
    print(f"wrote {FIXTURE} ({len(CASES)} plans)")
