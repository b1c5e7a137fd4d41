"""Experiment orchestration: datasets, queries, metrics, and the trial loop.

A single :class:`ExperimentConfig` describes one experiment: protocol
(``ahead`` = tree, ``hdg`` = grid), dataset, privacy budget, fake-user
fraction, attack, defense, and query generation.  ``run_experiment``
executes every (seed, query) trial, recording the honest response, the
poisoned response, the attack efficiency, and optional detection outcomes;
results are written as JSON lines plus a CSV summary.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import defenses
from .attacks import (
    AdaptiveGridAttack,
    AdaptiveTreeAttack,
    GridRangeAttack,
    HeuristicGridAttack,
    MgaGridAttack,
    MgaTreeAttack,
    OptimalTreeAttack,
)
from .grid_protocol import GridConfig, estimate_query as grid_estimate, run_grid_protocol, trim_query
from .tree_protocol import (
    RangeQuery,
    TreeConfig,
    estimate_query as tree_estimate,
    run_tree_protocol,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TrialResult",
    "gen_synthetic",
    "load_csv",
    "true_frequency",
    "gen_queries",
    "efficiency",
    "prism_violation_ratio",
    "prism_bruteforce_ratio",
    "run_experiment",
    "write_results",
]

TREE_ATTACKS = ("none", "mga", "aot", "aaot")
GRID_ATTACKS = ("none", "mga", "haog", "aog", "aaog")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    protocol: str = "ahead"  # ahead (tree) | hdg (grid)
    dataset: dict = field(
        default_factory=lambda: {"kind": "gaussian", "count": 100_000, "mean": 512.0, "std": 40.0}
    )
    epsilon: float = 1.0
    rho: float = 0.1
    attack: str = "none"
    strategy: str = "one"  # zero-coefficient fallback for the tree attack
    beta: float = 0.1  # adaptive grid attack risk tolerance
    alpha: float = 0.005  # detector significance
    defense: bool = False
    n_queries: int = 20
    dims_total: Optional[int] = None  # default: 1 (ahead) / 5 (hdg)
    dims_query: Optional[int] = None  # default: 1 (ahead) / 3 (hdg)
    domain_size: Optional[int] = None  # default: 1024 (ahead) / 64 (hdg)
    fanout: int = 2
    g1: int = 16
    g2: int = 4
    pp_rounds: int = 1
    family_prime: Optional[int] = None
    attacker_n: Optional[int] = None  # attacker-assumed user count (tree attack)
    seeds: Tuple[int, ...] = (0,)
    threads: int = 1
    out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.protocol not in ("ahead", "hdg"):
            raise ConfigError(f"unknown protocol {self.protocol!r} (expected ahead|hdg)")
        if self.dims_total is None:
            self.dims_total = 1 if self.protocol == "ahead" else 5
        if self.dims_query is None:
            self.dims_query = 1 if self.protocol == "ahead" else min(3, self.dims_total)
        if self.domain_size is None:
            self.domain_size = 1024 if self.protocol == "ahead" else 64
        valid = TREE_ATTACKS if self.protocol == "ahead" else GRID_ATTACKS
        if self.attack not in valid:
            raise ConfigError(
                f"attack {self.attack!r} not supported for {self.protocol}: choose from {valid}"
            )
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError("rho must be in [0, 1)")
        if self.rho == 0.0 and self.attack != "none":
            raise ConfigError("rho must be > 0 when an attack is enabled")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be > 0")
        if self.n_queries < 1:
            raise ConfigError("n_queries must be >= 1")
        if self.dims_query > self.dims_total:
            raise ConfigError("dims_query must not exceed dims_total")
        if self.protocol == "ahead" and self.dims_query != 1:
            raise ConfigError("the tree protocol answers 1-D queries")
        if not self.seeds:
            raise ConfigError("at least one seed required")
        self.seeds = tuple(int(s) for s in self.seeds)
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")

    def tree_config(self) -> TreeConfig:
        return TreeConfig(
            domain_size=self.domain_size, fanout=self.fanout, epsilon=self.epsilon
        )

    def grid_config(self) -> GridConfig:
        return GridConfig(
            d=self.dims_total,
            g1=self.g1,
            g2=self.g2,
            domain_size=self.domain_size,
            epsilon=self.epsilon,
            pp_rounds=self.pp_rounds,
            prime=self.family_prime,
        )


@dataclass
class TrialResult:
    seed: int
    query_id: int
    attrs: Tuple[int, ...]
    intervals: Tuple[Tuple[int, int], ...]
    f_true: float
    honest_response: float
    poisoned_response: float
    efficiency: Optional[float]
    detected: Optional[bool]
    detection_statistic: Optional[float]
    detection_threshold: Optional[float]
    elapsed_s: float


# ---------------------------------------------------------------------------
# Datasets, queries, metrics
# ---------------------------------------------------------------------------

def gen_synthetic(
    kind: str,
    count: int,
    mean: float,
    std: float,
    domain: int,
    dims: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """I.i.d. per-dimension draws rounded and clipped into [0, domain)."""
    if count < 1:
        raise ValueError("count must be > 0")
    if kind == "gaussian":
        raw = rng.normal(mean, std, size=(count, dims))
    elif kind == "laplace":
        raw = rng.laplace(mean, std, size=(count, dims))
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    return np.clip(np.rint(raw), 0, domain - 1).astype(np.int64)


def load_csv(path: str, columns: Sequence[str], domain: int) -> np.ndarray:
    """Load selected CSV columns, min-max rescaled and floored into [0, domain).

    Rows with missing or non-numeric entries in the selected columns are
    dropped; raises if the file is missing, a column is absent, or no valid
    rows remain.
    """
    file = Path(path)
    if not file.exists():
        raise FileNotFoundError(path)
    rows: List[List[float]] = []
    with file.open(newline="") as handle:
        reader = csv.DictReader(handle)
        for name in columns:
            if reader.fieldnames is None or name not in reader.fieldnames:
                raise ValueError(f"column {name!r} not found in {path}")
        for record in reader:
            try:
                rows.append([float(record[name]) for name in columns])
            except (TypeError, ValueError):
                continue
    if not rows:
        raise ValueError("no well-formed rows after filtering")
    data = np.asarray(rows, dtype=np.float64)
    lo = data.min(axis=0)
    span = data.max(axis=0) - lo
    span[span == 0] = 1.0
    scaled = (data - lo) / span * domain
    return np.clip(np.floor(scaled), 0, domain - 1).astype(np.int64)


def true_frequency(records: np.ndarray, query: RangeQuery) -> float:
    """Exact fraction of records inside every interval of the query."""
    records = np.asarray(records)
    if records.ndim == 1:
        records = records[:, None]
    if records.shape[0] == 0:
        raise ValueError("empty record set")
    mask = np.ones(records.shape[0], dtype=bool)
    for attr, (lo, hi) in zip(query.attrs, query.intervals):
        mask &= (records[:, attr] >= lo) & (records[:, attr] < hi)
    return float(mask.mean())


def gen_queries(
    count: int,
    domain: int,
    dims_total: int,
    dims_query: int,
    rng: np.random.Generator,
    snap: Optional[int] = None,
) -> List[RangeQuery]:
    """Random range queries: uniform centers, lengths uniform in [c/8, 3c/8].

    ``snap`` (grid protocol): snap every interval outward to multiples of the
    given width.
    """
    if dims_query > dims_total:
        raise ValueError("dims_query must not exceed dims_total")
    queries = []
    for _ in range(count):
        attrs = tuple(sorted(int(a) for a in rng.choice(dims_total, dims_query, replace=False)))
        intervals = []
        for _ in attrs:
            length = int(rng.integers(domain // 8, 3 * domain // 8 + 1))
            center = int(rng.integers(0, domain))
            lo = max(center - length // 2, 0)
            hi = min(lo + length, domain)
            lo = min(lo, hi - 1)
            if snap:
                lo = (lo // snap) * snap
                hi = min(int(math.ceil(hi / snap)) * snap, domain)
            intervals.append((lo, hi))
        queries.append(RangeQuery(attrs, tuple(intervals)))
    return queries


def efficiency(f_true: float, f_poisoned: float, rho: float) -> float:
    """Per-unit-of-fakes boost of the target query: (poisoned - true) / rho."""
    if rho <= 0:
        raise ValueError("efficiency undefined for rho = 0")
    return (f_poisoned - f_true) / rho


# ---------------------------------------------------------------------------
# PRISM analytic check
# ---------------------------------------------------------------------------

def prism_violation_ratio(epsilon: float) -> float:
    """Worst-case output likelihood ratio of the 3-bit range encoding.

    With per-bit randomized response (keep probability ``p = e^eps/(e^eps+1)``),
    the all-zeros output is ``p^2 q`` likely under value 0 but only ``q^3``
    likely under value 2, a ratio of ``e^{2 eps}`` — exceeding the claimed
    ``e^eps`` bound.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    p = math.exp(epsilon) / (math.exp(epsilon) + 1.0)
    q = 1.0 / (math.exp(epsilon) + 1.0)
    return (p * p * q) / (q * q * q)


def _prism_encode(value: int, d: int) -> np.ndarray:
    """Range encoding: bit i set iff the value is at least i."""
    return (value >= np.arange(d)).astype(np.int64)


def prism_bruteforce_ratio(epsilon: float, output=(0, 0, 0), v_low: int = 0, v_high: int = 2) -> float:
    """Exact likelihood ratio of ``output`` under two encoded values."""
    p = math.exp(epsilon) / (math.exp(epsilon) + 1.0)
    d = len(output)
    out = np.asarray(output)

    def likelihood(value: int) -> float:
        bits = _prism_encode(value, d)
        per_bit = np.where(bits == out, p, 1.0 - p)
        return float(np.prod(per_bit))

    return likelihood(v_low) / likelihood(v_high)


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

def _build_dataset(config: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    spec = dict(config.dataset)
    kind = spec.get("kind", "gaussian")
    if kind == "csv":
        return load_csv(spec["path"], spec["columns"], config.domain_size)
    return gen_synthetic(
        kind,
        int(spec.get("count", 100_000)),
        float(spec.get("mean", config.domain_size / 2)),
        float(spec.get("std", config.domain_size / 25)),
        config.domain_size,
        config.dims_total,
        rng,
    )


def _tree_hook(config: ExperimentConfig, query: RangeQuery, n_real: int):
    if config.attack == "none":
        return None
    if config.attack == "mga":
        return MgaTreeAttack(query, config.epsilon)
    assumed_n = config.attacker_n or n_real
    inner = OptimalTreeAttack(
        config.tree_config(), query, assumed_n, config.rho, strategy=config.strategy
    )
    if config.attack == "aot":
        return inner
    return AdaptiveTreeAttack(inner, config.epsilon)


def _grid_hook(config: ExperimentConfig, query: RangeQuery):
    gc = config.grid_config()
    if config.attack == "none":
        return None
    if config.attack == "mga":
        return MgaGridAttack(gc, query)
    if config.attack == "haog":
        return HeuristicGridAttack(gc, query)
    if config.attack == "aog":
        return GridRangeAttack(gc, query, config.rho)
    return AdaptiveGridAttack(gc, query, alpha=config.alpha, beta=config.beta)


def _run_tree_trial(
    config: ExperimentConfig,
    values: np.ndarray,
    query: RangeQuery,
    rng: np.random.Generator,
    collect_detection: bool,
):
    tc = config.tree_config()
    hook = _tree_hook(config, query, values.size)
    rounds: List[Tuple[np.ndarray, int]] = []

    def observer(frontier, real_reports, fake_reports):
        if not collect_detection:
            return
        counts = real_reports.sum(axis=1)
        if fake_reports is not None and fake_reports.size:
            counts = np.concatenate([counts, fake_reports.sum(axis=1)])
        rounds.append((counts, len(frontier)))

    tree = run_tree_protocol(
        values, tc, hook=hook, rho=config.rho, rng=rng, observer=observer
    )
    response = tree_estimate(tree, query)
    detection = None
    if collect_detection:
        params = defenses.TreeDefenseParams(alpha=config.alpha)
        detection = _fold_detection([
            defenses.tree_detect(counts, n_nodes, config.epsilon, params)
            for counts, n_nodes in rounds
        ])
    return response, detection


def _run_grid_trial(
    config: ExperimentConfig,
    records: np.ndarray,
    query: RangeQuery,
    rng: np.random.Generator,
    collect_detection: bool,
):
    gc = config.grid_config()
    hook = _grid_hook(config, query)
    rounds: List[np.ndarray] = []

    def observer(key, fn_ids):
        if collect_detection:
            rounds.append(fn_ids)

    grids = run_grid_protocol(
        records, gc, hook=hook, rho=config.rho, rng=rng, observer=observer
    )
    response = grid_estimate(grids, query)
    detection = None
    if collect_detection:
        family_size = gc.family().n_random_functions
        detection = _fold_detection([
            defenses.grid_detect(fn_ids, family_size, alpha=config.alpha)
            for fn_ids in rounds
        ])
    return response, detection


def _fold_detection(results: List[defenses.DetectionResult]) -> defenses.DetectionResult:
    """One trial outcome from the per-round detector results.

    The trial is flagged when any round is; the statistic and threshold are
    those of the round whose statistic comes closest to (or furthest past)
    its threshold.
    """
    worst = max(results, key=lambda r: r.statistic - r.threshold)
    return defenses.DetectionResult(
        detected=any(r.detected for r in results),
        statistic=worst.statistic,
        threshold=worst.threshold,
    )


def _run_seed(config: ExperimentConfig, seed: int) -> List[TrialResult]:
    data_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    records = _build_dataset(config, data_rng)
    query_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    snap = None
    if config.protocol == "hdg":
        snap = config.domain_size // config.g2
    queries = gen_queries(
        config.n_queries,
        config.domain_size,
        config.dims_total,
        config.dims_query,
        query_rng,
        snap=snap,
    )

    if config.protocol == "ahead":
        flat, run_trial = records[:, 0], _run_tree_trial
    else:
        flat, run_trial = records, _run_grid_trial
    honest_cfg = ExperimentConfig(**{**asdict(config), "attack": "none", "rho": 0.0})

    results: List[TrialResult] = []
    for qid, query in enumerate(queries):
        started = time.perf_counter()
        honest_rng = np.random.default_rng(np.random.SeedSequence([seed, 2, qid]))
        honest, _ = run_trial(honest_cfg, flat, query, honest_rng, False)

        poison_rng = np.random.default_rng(np.random.SeedSequence([seed, 3, qid]))
        if config.rho > 0:
            poisoned, detection = run_trial(config, flat, query, poison_rng, config.defense)
        else:
            poisoned, detection = honest, None

        f_true = true_frequency(records, query)
        eff = efficiency(f_true, poisoned, config.rho) if config.rho > 0 else None
        results.append(
            TrialResult(
                seed=seed,
                query_id=qid,
                attrs=query.attrs,
                intervals=query.intervals,
                f_true=f_true,
                honest_response=honest,
                poisoned_response=poisoned,
                efficiency=eff,
                detected=None if detection is None else detection.detected,
                detection_statistic=None if detection is None else detection.statistic,
                detection_threshold=None if detection is None else detection.threshold,
                elapsed_s=time.perf_counter() - started,
            )
        )
    return results


def run_experiment(config: ExperimentConfig) -> Tuple[List[TrialResult], Dict]:
    """Run all (seed, query) trials; write results if an output path is set."""
    if config.threads > 1 and len(config.seeds) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            blocks = list(pool.map(lambda s: _run_seed(config, s), config.seeds))
    else:
        blocks = [_run_seed(config, seed) for seed in config.seeds]
    results = [r for block in blocks for r in block]

    responses = np.array([r.poisoned_response for r in results])
    effs = [r.efficiency for r in results if r.efficiency is not None]
    detected = [r.detected for r in results if r.detected is not None]
    summary = {
        "protocol": config.protocol,
        "attack": config.attack,
        "epsilon": config.epsilon,
        "rho": config.rho,
        "n_trials": len(results),
        "mean_response": float(responses.mean()),
        "std_response": float(responses.std()),
        "mean_true": float(np.mean([r.f_true for r in results])),
        "mean_efficiency": float(np.mean(effs)) if effs else None,
        "detection_rate": float(np.mean(detected)) if detected else None,
    }
    if config.out:
        write_results(config.out, results, summary)
    return results, summary


def write_results(out: str, results: List[TrialResult], summary: Dict) -> None:
    """JSON-lines per trial plus a one-row CSV summary next to it."""
    base = Path(out)
    base.parent.mkdir(parents=True, exist_ok=True)
    jsonl = base if base.suffix == ".jsonl" else base.with_suffix(".jsonl")
    with jsonl.open("w") as handle:
        for r in results:
            handle.write(json.dumps(asdict(r), sort_keys=True) + "\n")
    csv_path = jsonl.with_suffix(".summary.csv")
    with csv_path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=sorted(summary))
        writer.writeheader()
        writer.writerow(summary)
