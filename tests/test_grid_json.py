"""The serialized grids of seeded honest runs are pinned to a fixture.

Each case collects seeded Gaussian data with ``collect_grid_reports``, runs
``run_grid_protocol`` on the reports with no fakes and compares the
sha256 of the ``grids_to_json`` bytes with ``data/grid_json_sha256.json``, so
any change to cell mapping, aggregation, consistency, Norm-Sub or the JSON
encoding shows.  The cases vary ``d``, ``g1``, ``g2``, the domain, the prime
and the number of post-processing rounds.  The serializer is fixture code, so
it lives in ``tests/oracles.py``.  Regenerate only for a change meant to
alter honest grids, and say so where the change is recorded::

    PYTHONPATH=src python -m tests.test_grid_json --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ldplab.grid_protocol import GridConfig, collect_grid_reports, run_grid_protocol

from .oracles import grids_to_json

FIXTURE = Path(__file__).parent / "data" / "grid_json_sha256.json"

# name -> (GridConfig keywords, seed); 20k users centred on the domain.
CASES = {
    "d5-g16-g4-p211": (dict(d=5, g1=16, g2=4, prime=211), 1),
    "d3-g32-g4-pp2": (dict(d=3, g1=32, pp_rounds=2), 2),
    "d4-g64-g8-dom128-pp3": (dict(d=4, g1=64, g2=8, domain_size=128, pp_rounds=3), 3),
    "d2-g16-g4-p67": (dict(d=2, prime=67), 4),
}


def _digest(name: str) -> str:
    kwargs, seed = CASES[name]
    config = GridConfig(**kwargs)
    rng = np.random.default_rng(seed)
    domain = config.domain_size
    records = rng.normal(domain / 2, domain / 6, (20_000, config.d))
    records = np.clip(np.rint(records), 0, domain - 1).astype(int)
    grids = run_grid_protocol(collect_grid_reports(records, config, rng=rng), config, rng=rng)
    return hashlib.sha256(grids_to_json(grids).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_json_matches_fixture(name):
    assert _digest(name) == json.loads(FIXTURE.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_grid_json --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({name: _digest(name) for name in sorted(CASES)}, indent=1) + "\n")
    print(f"wrote {FIXTURE} ({len(CASES)} grid sets)")
