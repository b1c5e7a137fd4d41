"""Benchmark worker: set up and run one workload in this process.

``run.py`` starts one worker process per workload, with the numeric thread
pools already capped in its environment, and reads the JSON object on the
last line of the worker's standard output.  With ``--probe`` the worker only
sets up (imports, configs, inputs) and reports how long that took.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from statistics import median_low
from typing import Dict, List, Optional

import numpy as np

import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ldplab"


def import_harness():
    """Import ``ldplab.harness`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(PACKAGE.parent))
    import ldplab
    from ldplab import harness

    if Path(ldplab.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"ldplab was imported from {ldplab.__file__}, not from {PACKAGE}")
    return harness


def set_up(name: str, seed: int, smoke: bool):
    """Imports, config validation and one generation of every input set.

    Each distinct dataset of the workload is drawn once through the public
    ``gen_synthetic`` / ``gen_queries`` at the workload's size, which is what
    a user pays before the first trial of an experiment.
    """
    harness = import_harness()
    configs = [harness.ExperimentConfig(**spec) for spec in workloads.specs(name, smoke)]
    rng = np.random.default_rng(seed)
    done = set()
    for config in configs:
        key = (config.protocol, json.dumps(config.dataset, sort_keys=True))
        if key in done:
            continue
        done.add(key)
        data = config.dataset
        harness.gen_synthetic(data["kind"], data["count"], data["mean"], data["std"],
                              config.domain_size, config.dims_total, rng)
        harness.gen_queries(config.n_queries, config.domain_size, config.dims_total,
                            config.dims_query, rng)
    return harness, configs


@dataclass
class RunOutcome:
    """One ``run_experiment`` call: a (config, round seed) pair."""

    config_index: int
    round_index: int
    seed: int
    wall_s: float
    results: Optional[list] = None
    error: Optional[str] = None
    refs: List[float] = field(default_factory=list)  # reference times right before
    ref_s: Optional[float] = None  # median reference time before and after the run


def run_once(harness, config, index: int, round_index: int, seed: int) -> RunOutcome:
    """One ``run_experiment`` call; an exception is recorded, not raised."""
    started = time.perf_counter()
    try:
        results, _ = harness.run_experiment(replace(config, seeds=(seed,)))
    except Exception as exc:  # a failed run is a trial outcome, not a bench crash
        return RunOutcome(index, round_index, seed, time.perf_counter() - started,
                          error=f"{type(exc).__name__}: {exc}")
    return RunOutcome(index, round_index, seed, time.perf_counter() - started, results=results)


def run_rounds(harness, configs, seed: int, seconds: float, rounds: Optional[int] = None,
               tracer=None):
    """Run whole rounds until ``seconds`` have passed (at least one round),
    or exactly ``rounds`` rounds when given.

    Untraced rounds time the reference kernel before every run and once more
    after the last; each run's ``ref_s`` is the median of the samples on both
    sides of it.  The returned wall time leaves the reference time out.
    """
    outcomes: List[RunOutcome] = []
    ref_total = 0.0
    started = time.perf_counter()
    round_index = 0
    trial_base = 0
    while True:
        for index, config in enumerate(configs):
            refs = reference.time_samples() if tracer is None else []
            ref_total += sum(refs)
            if tracer is not None:
                tracer.trial_id = trial_base
            outcome = run_once(harness, config, index, round_index,
                               workloads.run_seed(seed, round_index, index))
            outcome.refs = refs
            outcomes.append(outcome)
            trial_base += config.n_queries
        round_index += 1
        done = round_index == rounds if rounds else \
            time.perf_counter() - started - ref_total >= seconds
        if done:
            break
    if tracer is None:
        after = reference.time_samples()
        ref_total += sum(after)
        for this, following in zip(outcomes, [o.refs for o in outcomes[1:]] + [after]):
            this.ref_s = float(np.median(this.refs + following))
    return outcomes, time.perf_counter() - started - ref_total, round_index


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def check_outputs(configs, outcomes: List[RunOutcome], rounds: int) -> List[str]:
    """Output checks; returns one message per violation."""
    problems: List[str] = []
    attempted = sum(configs[o.config_index].n_queries for o in outcomes)
    expected = rounds * sum(c.n_queries for c in configs)
    if len(outcomes) != rounds * len(configs) or attempted != expected:
        problems.append(f"attempted {attempted} trials, workload defines {expected}")
    for o in outcomes:
        if o.results is None:
            continue
        config = configs[o.config_index]
        where = f"config {o.config_index} seed {o.seed}"
        if [r.query_id for r in o.results] != list(range(config.n_queries)):
            problems.append(f"{where}: trials {[r.query_id for r in o.results]}")
        for r in o.results:
            if r.seed != o.seed:
                problems.append(f"{where}: trial reports seed {r.seed}")
            if not _finite(r.f_true) or not 0.0 <= r.f_true <= 1.0:
                problems.append(f"{where} q{r.query_id}: f_true {r.f_true}")
            for field in ("honest_response", "poisoned_response"):
                if not _finite(getattr(r, field)):
                    problems.append(f"{where} q{r.query_id}: {field} {getattr(r, field)}")
            if r.efficiency is not None and not _finite(r.efficiency):
                problems.append(f"{where} q{r.query_id}: efficiency {r.efficiency}")
    return problems


def _comparable(outcome: RunOutcome):
    if outcome.results is None:
        return outcome.error
    return [{k: v for k, v in asdict(r).items() if k != "elapsed_s"} for r in outcome.results]


def check_repeat(harness, configs, outcomes: List[RunOutcome], seed: int) -> List[str]:
    """Run one (config, seed) of the timed section again and compare results."""
    first = outcomes[seed % len(configs)]  # round 0; the config rotates with the seed
    again = run_once(harness, configs[first.config_index], first.config_index,
                     first.round_index, first.seed)
    if _comparable(again) != _comparable(first):
        return [f"config {first.config_index} seed {first.seed}: a second run differs"]
    return []


def summarize(configs, outcomes: List[RunOutcome], wall_s: float) -> Dict:
    """End-to-end figures of one timed section (setup_s is added by run.py)."""
    trials = [r for o in outcomes if o.results for r in o.results]
    attempted = sum(configs[o.config_index].n_queries for o in outcomes)
    times = sorted(r.elapsed_s for r in trials)
    n = len(times)
    # The same times in reference units: each divided by its run's ref_s.
    referenced = all(o.ref_s for o in outcomes)
    ref_times = sorted(r.elapsed_s / o.ref_s for o in outcomes if o.results
                       for r in o.results) if referenced else []
    # The typical round: every config's median run (the lower middle one of
    # an even count).  A rare slow (config, seed) run, such as an aog query
    # whose plan restarts many times, then moves trials_per_s only when it is
    # the majority of that config's runs.
    per_config = [[o for o in outcomes if o.config_index == i] for i in range(len(configs))]
    typical_trials = sum(median_low([len(o.results or ()) for o in runs]) for runs in per_config)
    typical_wall = sum(median_low([o.wall_s for o in runs]) for runs in per_config)
    typical_ref = sum(median_low([o.wall_s / o.ref_s for o in runs])
                      for runs in per_config) if referenced else None
    # Tail: the highest percentile with at least ten trials beyond it, i.e.
    # the 11th-largest trial time (the maximum if fewer than 11 trials ran).
    tail_rank = n - 10 if n > 10 else n
    gains = [r.efficiency for o in outcomes if o.results
             if configs[o.config_index].attack != "none" for r in o.results]
    return {
        "attempted": attempted,
        "failed": attempted - n,
        "completed": n,
        "wall_s": wall_s,
        "trials_per_s": float(typical_trials / typical_wall),
        "trials_per_ref": float(typical_trials / typical_ref) if referenced else None,
        "mean_trials_per_s": n / wall_s,
        "trial_s_p50": float(np.median(times)) if n else None,
        "trial_s_tail": times[tail_rank - 1] if n else None,
        "trial_ref_p50": float(np.median(ref_times)) if n and referenced else None,
        "trial_ref_tail": ref_times[tail_rank - 1] if n and referenced else None,
        "ref_s": float(np.median([t for o in outcomes for t in o.refs])) if referenced else None,
        "tail_percentile": 100.0 * tail_rank / n if n else None,
        "tail_beyond": n - tail_rank if n else 0,
        "fail_ratio": (attempted - n) / attempted,
        "honest_mae": float(np.mean([abs(r.honest_response - r.f_true) for r in trials]))
        if n else None,
        "attack_gain": float(np.mean(gains)) if gains else None,
        "errors": dict(Counter(o.error for o in outcomes if o.error)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true", help="set up only")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent when it started this process")
    args = parser.parse_args(argv)

    harness, configs = set_up(args.workload, args.seed, args.smoke)
    setup_s = time.monotonic() - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    reference.time_samples()  # first calls pay numpy's one-time costs

    # A traced run times its untraced section for half the time, then repeats
    # the same rounds traced.
    seconds = args.seconds / 2 if args.trace else args.seconds
    outcomes, wall_s, rounds = run_rounds(harness, configs, args.seed, seconds)
    result = summarize(configs, outcomes, wall_s)
    problems = check_outputs(configs, outcomes, rounds)

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_wall, _ = run_rounds(harness, configs, args.seed, 0.0, rounds, tracer)
        finally:
            tracer.uninstall()
        for plain, with_spans in zip(outcomes, traced):
            if _comparable(plain) != _comparable(with_spans):
                problems.append(f"config {plain.config_index} seed {plain.seed}: "
                                "traced results differ from untraced ones")
        # Round 0 fills per-process caches, so the overhead compares later rounds.
        warm = 1 if rounds > 1 else 0
        overhead = (sum(o.wall_s for o in traced if o.round_index >= warm)
                    / sum(o.wall_s for o in outcomes if o.round_index >= warm))
        traced_summary = summarize(configs, traced, traced_wall)
        result["per_layer"] = tracer.metrics(traced_wall, traced_summary["attempted"], overhead)
        result["traced"] = {k: traced_summary[k] for k in ("attempted", "failed", "wall_s")}
        spans_file = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans_file)
        result["spans_file"] = str(spans_file.relative_to(ROOT))
        result["spans"] = len(tracer.start)

    problems += check_repeat(harness, configs, outcomes, args.seed)
    result.update({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
        "problems": problems,
        "numpy": np.__version__,
    })
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
