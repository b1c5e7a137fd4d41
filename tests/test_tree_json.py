"""The serialized tree of seeded honest runs is pinned to a fixture.

Each case collects seeded Gaussian data with ``collect_tree_groups``, runs
``run_tree_protocol`` on the groups and compares the sha256 of the
``tree_to_json`` bytes with ``data/tree_json_sha256.json``, so any change to
tree shape, estimates, consistency or the JSON encoding shows.
The serializer is fixture code, so it lives in ``tests/oracles.py``.
Regenerate only for a change meant to alter honest trees, and say so where
the change is recorded::

    PYTHONPATH=src python -m tests.test_tree_json --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ldplab.tree_protocol import TreeConfig, collect_tree_groups, run_tree_protocol

from .oracles import tree_to_json

FIXTURE = Path(__file__).parent / "data" / "tree_json_sha256.json"

# name -> (domain_size, fanout, std, seed); 50k users centred on the domain.
CASES = {
    "d1024-f2-std40": (1024, 2, 40.0, 1),
    "d1024-f2-std250": (1024, 2, 250.0, 2),
    "d4096-f4-std400": (4096, 4, 400.0, 3),
    "d64-f2-std8": (64, 2, 8.0, 4),
}


def _digest(name: str) -> str:
    domain, fanout, std, seed = CASES[name]
    rng = np.random.default_rng(seed)
    values = np.clip(np.rint(rng.normal(domain / 2, std, 50_000)), 0, domain - 1).astype(int)
    config = TreeConfig(domain_size=domain, fanout=fanout, epsilon=1.0)
    tree = run_tree_protocol(collect_tree_groups(values, config, rng=rng), config, rng=rng)
    return hashlib.sha256(tree_to_json(tree).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_tree_json_matches_fixture(name):
    assert _digest(name) == json.loads(FIXTURE.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_tree_json --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({name: _digest(name) for name in sorted(CASES)}, indent=1) + "\n")
    print(f"wrote {FIXTURE} ({len(CASES)} trees)")
