"""Experiment orchestration: datasets, queries, metrics, and the trial loop.

A single :class:`ExperimentConfig` describes one experiment: protocol
(``ahead`` = tree, ``hdg`` = grid), dataset, privacy budget, fake-user
fraction, attack, defense, and query generation.  ``run_experiment``
executes every (seed, query) trial, recording the honest response, the
poisoned response, the attack efficiency, and optional detection outcomes;
results are written as JSON lines plus a CSV summary.

Each seed collects its real users once and runs the honest protocol once,
both inside its first trial (whose ``elapsed_s`` carries that cost).  The
collection is a grid's perturbed reports
(:func:`~ldplab.grid_protocol.collect_grid_reports`) or a tree's layer groups
(:func:`~ldplab.tree_protocol.collect_tree_groups`), which each tree run
perturbs itself.  The honest run answers all the seed's queries, and each
query gets its own poisoned run on the same collection, so a seed's honest
answers are correlated, and so are its poisoned answers.  The efficiency
reads only the poisoned answer.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
    ZERO_COEFF_STRATEGIES,
    aog_size_constraints,
)
from .grid_protocol import (
    GridConfig,
    collect_grid_reports,
    estimate_query as grid_estimate,
    run_grid_protocol,
)
from .query import RangeQuery
from .tree_protocol import TreeConfig, collect_tree_groups, estimate_query as tree_estimate, run_tree_protocol

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TrialResult",
    "gen_synthetic",
    "load_csv",
    "true_frequency",
    "gen_queries",
    "efficiency",
    "run_experiment",
    "write_results",
]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# Fields that count or index something: a float there would be truncated or
# fail mid-run, so it is rejected when the config is built.
_INTEGER_FIELDS = (
    "n_queries", "dims_total", "dims_query", "domain_size", "fanout", "g1", "g2", "pp_rounds", "threads",
)


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; anything but an ``int`` or ``np.integer``
    (a bool or a whole float included) is a :class:`ConfigError`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
    seeds: Tuple[int, ...] = (0,)
    threads: int = 1
    out: Optional[str] = None

    # The protocol's own config, built and checked once from the fields above.
    protocol_config: Union[TreeConfig, GridConfig] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.protocol not in ("ahead", "hdg"):
            raise ConfigError(f"unknown protocol {self.protocol!r} (expected ahead|hdg)")
        if self.dims_total is None:
            self.dims_total = 1 if self.protocol == "ahead" else 5
        if self.dims_query is None:
            self.dims_query = 1 if self.protocol == "ahead" else min(3, self.dims_total)
        if self.domain_size is None:
            self.domain_size = 1024 if self.protocol == "ahead" else 64
        for name in _INTEGER_FIELDS:
            setattr(self, name, _integer(name, getattr(self, name)))
        if self.family_prime is not None:
            self.family_prime = _integer("family_prime", self.family_prime)
        self.seeds = tuple(_integer("seeds", s) for s in self.seeds)
        valid = tuple(token for protocol, token in _HOOKS if protocol == self.protocol)
        if self.attack not in valid:
            raise ConfigError(
                f"attack {self.attack!r} not supported for {self.protocol}: choose from {valid}"
            )
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError("rho must be in [0, 1)")
        if self.rho == 0.0 and self.attack != "none":
            raise ConfigError("rho must be > 0 when an attack is enabled")
        if self.strategy not in ZERO_COEFF_STRATEGIES:
            raise ConfigError(f"strategy must be one of {ZERO_COEFF_STRATEGIES}")
        if not 0.0 < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        for name in ("alpha", "beta"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in (0, 1)")
        if self.n_queries < 1:
            raise ConfigError("n_queries must be >= 1")
        if self.dims_query > self.dims_total:
            raise ConfigError("dims_query must not exceed dims_total")
        if self.protocol == "ahead" and (self.dims_total, self.dims_query) != (1, 1):
            raise ConfigError("the tree protocol reads one attribute: dims_total and dims_query must be 1")
        if self.protocol == "hdg" and self.dims_query < 2:
            raise ConfigError("the grid protocol answers queries on 2 or more attributes")
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("seeds must be one or more non-negative integers")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        self._check_dataset()
        try:
            if self.protocol == "ahead":
                self.protocol_config = TreeConfig(
                    domain_size=self.domain_size, fanout=self.fanout, epsilon=self.epsilon
                )
            else:
                self.protocol_config = GridConfig(
                    d=self.dims_total,
                    g1=self.g1,
                    g2=self.g2,
                    domain_size=self.domain_size,
                    epsilon=self.epsilon,
                    pp_rounds=self.pp_rounds,
                    prime=self.family_prime,
                )
                if self.attack == "aog":  # its size floors depend on the layout alone
                    aog_size_constraints(self.rho, self.protocol_config)
        except ValueError as exc:
            raise ConfigError(f"{self.protocol} config: {exc}") from exc
        # A csv dataset's row count is known only once it is loaded.
        groups = self.protocol_config.n_groups if self.protocol == "hdg" else 1
        if self.dataset["kind"] != "csv" and self.dataset["count"] < groups:
            raise ConfigError(f"dataset count must be >= {groups}, one user per grid group")

    def fake_count(self, n_real: int) -> int:
        """Fakes making up ``rho`` of all users next to ``n_real`` real ones."""
        return int(round(n_real * self.rho / (1.0 - self.rho)))

    def _check_dataset(self) -> None:
        spec = self.dataset
        if not isinstance(spec, dict):
            raise ConfigError("dataset must be an object with a 'kind'")
        kind = spec.get("kind", "gaussian")
        if kind == "csv":
            columns = spec.get("columns")
            if "path" not in spec:
                raise ConfigError("csv dataset needs a path")
            if not isinstance(columns, (list, tuple)) or len(columns) != self.dims_total:
                raise ConfigError(f"csv dataset needs {self.dims_total} columns (dims_total)")
        elif kind in ("gaussian", "laplace"):
            count = _integer("dataset count", spec.get("count", 100_000))
            try:
                filled = {
                    "kind": kind,
                    "count": count,
                    "mean": float(spec.get("mean", self.domain_size / 2)),
                    "std": float(spec.get("std", self.domain_size / 25)),
                }
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"dataset mean and std must be numbers: {exc}") from exc
            if filled["count"] < 1:
                raise ConfigError("dataset count must be >= 1")
            if not math.isfinite(filled["mean"]) or not 0.0 <= filled["std"] < math.inf:
                raise ConfigError("dataset mean must be finite and std finite and >= 0")
            self.dataset = {**spec, **filled}
        else:
            raise ConfigError(f"unknown dataset kind {kind!r} (expected gaussian|laplace|csv)")


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
    # Wall time of the trial; a seed's first trial also runs its one honest
    # collection, which the later trials of the seed reuse.
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
    np.rint(raw, out=raw)
    np.clip(raw, 0, domain - 1, out=raw)
    return raw.astype(np.int64)


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
    """Random range queries: uniform centers, lengths uniform in [c/8, 3c/8]
    (at least 1).

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
            length = int(rng.integers(max(domain // 8, 1), max(3 * domain // 8, 1) + 1))
            center = int(rng.integers(0, domain))
            lo = max(center - length // 2, 0)
            hi = min(lo + length, domain)
            intervals.append((min(lo, hi - 1), hi))
        query = RangeQuery(attrs, tuple(intervals))
        queries.append(query.snapped(snap, domain) if snap else query)
    return queries


def efficiency(f_true: float, f_poisoned: float, rho: float) -> float:
    """Per-unit-of-fakes boost of the target query: (poisoned - true) / rho."""
    if rho <= 0:
        raise ValueError("efficiency undefined for rho = 0")
    return (f_poisoned - f_true) / rho


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

def _build_dataset(config: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    spec = config.dataset  # defaults filled by ExperimentConfig
    if spec["kind"] == "csv":
        return load_csv(spec["path"], spec["columns"], config.domain_size)
    return gen_synthetic(
        spec["kind"],
        spec["count"],
        spec["mean"],
        spec["std"],
        config.domain_size,
        config.dims_total,
        rng,
    )


# (protocol, attack token) -> hook constructor of (config, query, real user
# count).  The keys are also the attack tokens each protocol accepts.
_HOOKS = {
    ("ahead", "none"): lambda c, q, n: None,
    ("ahead", "mga"): lambda c, q, n: MgaTreeAttack(q, c.epsilon),
    ("ahead", "aot"): lambda c, q, n: OptimalTreeAttack(c.protocol_config, q, n, c.fake_count(n), c.strategy),
    ("ahead", "aaot"): lambda c, q, n: AdaptiveTreeAttack(_HOOKS["ahead", "aot"](c, q, n), c.epsilon),
    ("hdg", "none"): lambda c, q, n: None,
    ("hdg", "mga"): lambda c, q, n: MgaGridAttack(c.protocol_config, q),
    ("hdg", "haog"): lambda c, q, n: HeuristicGridAttack(c.protocol_config, q),
    ("hdg", "aog"): lambda c, q, n: GridRangeAttack(c.protocol_config, q, c.rho),
    ("hdg", "aaog"): lambda c, q, n: AdaptiveGridAttack(
        c.protocol_config, q, alpha=c.alpha, beta=c.beta
    ),
}


def _run_protocol(
    config: ExperimentConfig,
    data,
    n_real: int,
    query: RangeQuery,
    rng: np.random.Generator,
):
    """One protocol run of ``config``, its attack aimed at ``query``.

    ``data`` is the collection of ``n_real`` real users: the tree's layer
    groups (:func:`collect_tree_groups`) or the grids' reports
    (:func:`collect_grid_reports`).
    Returns ``(result, detection)``: the protocol's ``Tree`` or ``GridSet``,
    and with ``config.defense`` the detector results of its rounds (the
    ones-count test per tree layer, the max-load test per grid) folded into
    one outcome, otherwise None.
    """
    # Functions are looked up here, not stored, so patched module attributes
    # (such as a tracer's wrappers) are the ones called.
    tree = config.protocol == "ahead"
    run = run_tree_protocol if tree else run_grid_protocol
    hook = _HOOKS[config.protocol, config.attack](config, query, n_real)
    n_fake = config.fake_count(n_real)
    result = run(data, config.protocol_config, hook=hook, n_fake=n_fake, rng=rng, keep_reports=config.defense)
    if not config.defense:
        return result, None
    if tree:
        found = [defenses.tree_detect(ones, len(ids), config.epsilon, config.alpha) for ids, ones in result.rounds]
    else:
        family_size = config.protocol_config.family().n_random_functions
        found = [defenses.grid_detect(fn_ids, family_size, alpha=config.alpha) for _, fn_ids in result.rounds]
    return result, _fold_detection(found)


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
    snap = config.protocol_config.col_width if config.protocol == "hdg" else None
    queries = gen_queries(
        config.n_queries,
        config.domain_size,
        config.dims_total,
        config.dims_query,
        query_rng,
        snap=snap,
    )

    honest_cfg = replace(config, attack="none", rho=0.0, defense=False)
    tree = config.protocol == "ahead"
    estimate = tree_estimate if tree else grid_estimate
    # No attack, or a tiny dataset whose fakes round to 0: no fake user, no
    # efficiency.
    injects = config.attack != "none" and config.fake_count(len(records)) > 0

    results: List[TrialResult] = []
    for qid, query in enumerate(queries):
        started = time.perf_counter()
        if qid == 0:
            # Neither depends on the query: one collection and one honest run
            # per seed, inside the first trial, whose elapsed_s carries them.
            honest_rng = np.random.default_rng(np.random.SeedSequence([seed, 2, 0]))
            collect = collect_tree_groups if tree else partial(collect_grid_reports, keep_reports=config.defense)
            data = collect(records, config.protocol_config, rng=honest_rng)
            honest_run, _ = _run_protocol(honest_cfg, data, len(records), query, honest_rng)
        honest = estimate(honest_run, query)

        if config.rho > 0:
            poison_rng = np.random.default_rng(np.random.SeedSequence([seed, 3, qid]))
            poisoned_run, detection = _run_protocol(config, data, len(records), query, poison_rng)
            poisoned = estimate(poisoned_run, query)
        else:
            poisoned, detection = honest, None

        f_true = true_frequency(records, query)
        eff = efficiency(f_true, poisoned, config.rho) if injects else None
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
