"""Workload definitions of the ldplab benchmark.

A workload is a fixed list of experiment configurations (``ExperimentConfig``
fields without ``seeds``).  A run of a workload executes whole rounds: one
``run_experiment`` call per configuration, so every round has the same trial
mix and the timing metrics of two runs compare like with like.
"""

from __future__ import annotations

from typing import List

TREE_ATTACKS = ("none", "mga", "aot", "aaot")
GRID_ATTACKS = ("mga", "haog", "aog", "aaog")


def _gaussian(count: int, mean: float, std: float) -> dict:
    return {"kind": "gaussian", "count": count, "mean": mean, "std": std}


def _tree_attack() -> List[dict]:
    # Narrow data keeps the OUE frontier small (<= ~55 nodes), so attack
    # planning and detection dominate rather than perturbation.
    return [
        {
            "protocol": "ahead",
            "dataset": _gaussian(100_000, 512.0, 40.0),
            "domain_size": 1024,
            "epsilon": 1.0,
            "rho": 0.1,
            "attack": attack,
            "defense": True,
            "n_queries": 3,
        }
        for attack in TREE_ATTACKS
    ]


def _grid_attack() -> List[dict]:
    # Two user counts: the round size sets the detector threshold and the
    # adaptive attack's load cap.  At 100k users hdg + aaog finds no safe cap
    # today; that config stays so the failure shows in fail_ratio.
    return [
        {
            "protocol": "hdg",
            "dataset": _gaussian(count, 32.0, 10.0),
            "dims_total": 5,
            "family_prime": 211,
            "epsilon": 1.0,
            "rho": 0.1,
            "attack": attack,
            "defense": True,
            "n_queries": 1,
        }
        for count in (30_000, 100_000)
        for attack in GRID_ATTACKS
    ]


def _honest_scale() -> List[dict]:
    # Honest only at 10^6 users: perturbation and aggregation dominate and the
    # working set is the largest; attacks and detectors do no work.
    common = {"epsilon": 1.0, "rho": 0.0, "attack": "none", "defense": False, "n_queries": 2}
    return [
        {"protocol": "ahead", "dataset": _gaussian(1_000_000, 512.0, 250.0),
         "domain_size": 1024, **common},
        {"protocol": "hdg", "dataset": _gaussian(1_000_000, 32.0, 10.0),
         "dims_total": 5, **common},
    ]


WORKLOADS = {
    "tree-attack": _tree_attack,
    "grid-attack": _grid_attack,
    "honest-scale": _honest_scale,
}

SMOKE_SHRINK = 50  # smoke mode divides every user count by this


def specs(name: str, smoke: bool = False) -> List[dict]:
    """Configuration dicts of workload ``name``; tiny ones in smoke mode."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    out = WORKLOADS[name]()
    if smoke:
        for spec in out:
            spec["dataset"] = {**spec["dataset"], "count": spec["dataset"]["count"] // SMOKE_SHRINK}
            spec["n_queries"] = 1
    return out


def run_seed(seed: int, round_index: int, config_index: int) -> int:
    """Experiment seed of one config in one round of a run with workload ``seed``.

    Every (round, config) pair gets its own seed, so all trials of a run are
    independent samples.
    """
    return seed * 100_000 + round_index * 100 + config_index
