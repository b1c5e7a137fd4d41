"""Seeded trial results are pinned to a fixture.

One small seeded config per attack token of each protocol runs through
``run_experiment``; every ``TrialResult`` field except ``elapsed_s`` must
match ``data/seeded_results.json`` (floats within 1e-12 relative).  A change
that is meant to keep behaviour must keep this file green unchanged.

Regenerate the fixture only for a change that is meant to alter seeded
results, and say so where the change is recorded.  Name the entries the
change moves, so the regeneration touches only those keys (no names rewrites
every entry)::

    PYTHONPATH=src python -m tests.test_seeded_results --write [NAME ...]
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from ldplab.harness import ExperimentConfig, run_experiment

FIXTURE = Path(__file__).parent / "data" / "seeded_results.json"
REL_TOL = 1e-12

_COMMON = {"epsilon": 1.0, "rho": 0.1, "defense": True, "n_queries": 2, "seeds": (3,)}
CONFIGS = {
    **{
        f"ahead-{attack}": {
            "protocol": "ahead",
            "dataset": {"kind": "gaussian", "count": 30_000, "mean": 512.0, "std": 40.0},
            "attack": attack,
            **_COMMON,
        }
        for attack in ("none", "mga", "aot", "aaot")
    },
    **{
        f"hdg-{attack}": {
            "protocol": "hdg",
            "dataset": {"kind": "gaussian", "count": 30_000, "mean": 32.0, "std": 10.0},
            "dims_total": 5,
            "family_prime": 211,
            "attack": attack,
            **_COMMON,
        }
        for attack in ("none", "mga", "haog", "aog", "aaog")
    },
}


def _trials(name: str) -> list:
    results, _ = run_experiment(ExperimentConfig(**CONFIGS[name]))
    out = []
    for result in results:
        row = asdict(result)
        del row["elapsed_s"]
        out.append(json.loads(json.dumps(row)))  # tuples -> lists, as stored
    return out


def _assert_same(actual, expected, path: str) -> None:
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        assert math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0), (
            f"{path}: {actual!r} != {expected!r}"
        )
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), path
        for key in expected:
            _assert_same(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_same(a, e, f"{path}[{i}]")
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_seeded_results_match_fixture(name):
    expected = json.loads(FIXTURE.read_text())
    _assert_same(_trials(name), expected[name], name)


def write_fixture(names) -> None:
    """Rewrite the named fixture entries; with no names, rewrite the file."""
    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        raise SystemExit(f"unknown entries {unknown}; known: {sorted(CONFIGS)}")
    data = json.loads(FIXTURE.read_text()) if names else {}
    names = names or sorted(CONFIGS)
    data.update({name: _trials(name) for name in names})
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {', '.join(names)} to {FIXTURE}")


def test_writer_touches_only_named_entries(tmp_path, monkeypatch):
    fixture = tmp_path / "seeded_results.json"
    fixture.write_text(json.dumps({"ahead-none": "old", "hdg-none": "old"}))
    monkeypatch.setattr(sys.modules[__name__], "FIXTURE", fixture)
    monkeypatch.setattr(sys.modules[__name__], "_trials", lambda name: f"new {name}")
    write_fixture(["hdg-none"])
    assert json.loads(fixture.read_text()) == {"ahead-none": "old", "hdg-none": "new hdg-none"}
    with pytest.raises(SystemExit, match="unknown entries"):
        write_fixture(["hdg-none", "bogus"])
    write_fixture([])
    assert json.loads(fixture.read_text()) == {name: f"new {name}" for name in CONFIGS}


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit("usage: python -m tests.test_seeded_results --write [NAME ...]")
    write_fixture(sys.argv[2:])
