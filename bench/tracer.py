"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions and methods of each ldplab layer
wherever the package binds them (every ``ldplab.*`` module attribute that is
the same object, and the class attribute for methods).  Each call records a
span: name, start, end, parent span and trial id, kept in compact arrays and
written out when the run ends.  Self time is a span's duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (defining module, function or Class.method, span name).  Names start with
# the layer (the package module) so that equal function names stay distinct.
SPANS: List[Tuple[str, str, str]] = [
    ("ldplab.freq_oracles", "oue_perturb_batch", "freq_oracles.oue_perturb_batch"),
    ("ldplab.freq_oracles", "olh_perturb_batch", "freq_oracles.olh_perturb_batch"),
    ("ldplab.freq_oracles", "olh_aggregate", "freq_oracles.olh_aggregate"),
    ("ldplab.freq_oracles", "HashFamily.key_table", "freq_oracles.key_table"),
    ("ldplab.postprocess", "norm_sub", "postprocess.norm_sub"),
    ("ldplab.postprocess", "tree_consistency", "postprocess.tree_consistency"),
    ("ldplab.postprocess", "grid_consistency", "postprocess.grid_consistency"),
    ("ldplab.tree_protocol", "run_tree_protocol", "tree_protocol.run_tree_protocol"),
    ("ldplab.tree_protocol", "estimate_query", "tree_protocol.estimate_query"),
    ("ldplab.grid_protocol", "run_grid_protocol", "grid_protocol.run_grid_protocol"),
    ("ldplab.grid_protocol", "estimate_query", "grid_protocol.estimate_query"),
    ("ldplab.attacks.tree", "MgaTreeAttack.__call__", "attacks.tree.hook"),
    ("ldplab.attacks.tree", "OptimalTreeAttack.__call__", "attacks.tree.hook"),
    ("ldplab.attacks.tree", "AdaptiveTreeAttack.__call__", "attacks.tree.hook"),
    ("ldplab.attacks.tree", "tree_coefficients", "attacks.tree.tree_coefficients"),
    ("ldplab.attacks.tree", "aot_assignment_fast", "attacks.tree.aot_assignment_fast"),
    ("ldplab.attacks.tree", "mga_tree", "attacks.tree.mga_tree"),
    ("ldplab.attacks.tree", "aaot_transform", "attacks.tree.aaot_transform"),
    ("ldplab.attacks.grid", "GridRangeAttack.begin", "attacks.grid.begin"),
    ("ldplab.attacks.grid", "AdaptiveGridAttack.begin", "attacks.grid.begin"),
    ("ldplab.attacks.grid", "MgaGridAttack.__call__", "attacks.grid.hook"),
    ("ldplab.attacks.grid", "HeuristicGridAttack.__call__", "attacks.grid.hook"),
    ("ldplab.attacks.grid", "GridRangeAttack.__call__", "attacks.grid.hook"),
    ("ldplab.attacks.grid", "AdaptiveGridAttack.__call__", "attacks.grid.hook"),
    ("ldplab.attacks.grid", "mga_grid", "attacks.grid.mga_grid"),
    ("ldplab.attacks.grid", "haog_best_pair", "attacks.grid.haog_best_pair"),
    ("ldplab.attacks.grid", "aaog_compute_load_limit", "attacks.grid.aaog_compute_load_limit"),
    ("ldplab.attacks.grid", "match_functions_to_grids", "attacks.grid.match_functions_to_grids"),
    ("ldplab.defenses", "tree_detect", "defenses.tree_detect"),
    ("ldplab.defenses", "grid_detect", "defenses.grid_detect"),
    ("ldplab.defenses", "max_load_cdf", "defenses.max_load_cdf"),
    ("ldplab.harness", "gen_synthetic", "harness.gen_synthetic"),
    ("ldplab.harness", "gen_queries", "harness.gen_queries"),
    ("ldplab.harness", "true_frequency", "harness.true_frequency"),
    ("ldplab.harness", "run_experiment", "harness.run_experiment"),
]

SPAN_NAMES: List[str] = list(dict.fromkeys(name for _, _, name in SPANS))

# Per-layer metrics beyond calls / s / self_s of every span: name -> unit.
# Every metric is per attempted trial of the traced section unless a ratio.
EXTRA_METRICS: Dict[str, str] = {
    "freq_oracles.oue_perturb_batch.bits": "bits/trial",
    "freq_oracles.oue_perturb_batch.bytes_computed": "B/trial",
    "freq_oracles.olh_perturb_batch.reports": "reports/trial",
    "freq_oracles.olh_aggregate.hash_evals": "evals/trial",
    "freq_oracles.key_table.entries": "entries/trial",
    "tree_protocol.layer_nodes": "nodes/trial",
    "attacks.grid.plan_fallback_ratio": "ratio",
    "defenses.max_load_cdf.hit_ratio": "ratio",
    "defenses.flagged_rounds": "ratio",
    "harness.protocol_runs_per_trial": "runs/trial",
    "bench.traced_wall.s": "s/trial",
    "bench.untraced_remainder.s": "s/trial",
    "bench.trace_overhead": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "calls/trial"
        units[f"{name}.s"] = "s/trial"
        units[f"{name}.self_s"] = "s/trial"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    """In-memory spans plus per-boundary counters for one traced section."""

    def __init__(self) -> None:
        self.names: List[str] = list(SPAN_NAMES)
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self.counters: Dict[str, float] = defaultdict(float)
        self.trial_id = 0
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []
        self._cdf_seen: Dict[int, object] = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        counters = _counters(self)
        for module_name, target, span in SPANS:
            module = sys.modules[module_name]
            if "." in target:
                cls_name, attr = target.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(original, span, counters.get(target)))
                continue
            original = getattr(module, target)
            wrapper = self._wrap(original, span, counters.get(target))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "ldplab" or mod_name.startswith("ldplab.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, original: Callable, span: str, count: Optional[Callable]) -> Callable:
        name_id = self._name_ids[span]
        signature = inspect.signature(original)
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.trial.append(self.trial_id)
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self._stack.pop()
            if count is not None:
                count(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "trial": np.frombuffer(self.trial, dtype=np.int32).copy(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self, wall_s: float, trials: int, overhead: float) -> Dict[str, float]:
        """Per-layer metrics of the traced section, per attempted trial.

        ``overhead`` is untraced over traced trials_per_s on the same rounds.
        """
        spans = self.arrays()
        name, parent = spans["name"], spans["parent"]
        duration = spans["end"] - spans["start"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=duration.size)
        self_time = duration - child_time
        # A span inside a same-name span (one hook wrapping another) adds no
        # busy time of its own name.
        shadowed = np.zeros(duration.size, dtype=bool)
        ancestor = parent.copy()
        while np.any(ancestor >= 0):
            live = ancestor >= 0
            shadowed[live] |= name[ancestor[live]] == name[live]
            ancestor[live] = parent[ancestor[live]]

        per = 1.0 / max(trials, 1)
        calls = dict(zip(self.names, np.bincount(name, minlength=len(self.names)).tolist()))
        out: Dict[str, float] = {}
        for i, span in enumerate(self.names):
            mine = name == i
            out[f"{span}.calls"] = calls[span] * per
            out[f"{span}.s"] = float(duration[mine & ~shadowed].sum()) * per
            out[f"{span}.self_s"] = float(self_time[mine].sum()) * per

        c = self.counters
        out["freq_oracles.oue_perturb_batch.bits"] = c["oue_bits"] * per
        out["freq_oracles.oue_perturb_batch.bytes_computed"] = c["oue_bytes"] * per
        out["freq_oracles.olh_perturb_batch.reports"] = c["olh_reports"] * per
        out["freq_oracles.olh_aggregate.hash_evals"] = c["olh_hash_evals"] * per
        out["freq_oracles.key_table.entries"] = c["key_table_entries"] * per
        out["tree_protocol.layer_nodes"] = c["layer_nodes"] * per
        out["attacks.grid.plan_fallback_ratio"] = _ratio(c["fallback_grids"], c["relevant_grids"])
        out["defenses.max_load_cdf.hit_ratio"] = _ratio(
            c["cdf_hits"], calls["defenses.max_load_cdf"])
        out["defenses.flagged_rounds"] = _ratio(
            c["flagged_rounds"], calls["defenses.tree_detect"] + calls["defenses.grid_detect"])
        out["harness.protocol_runs_per_trial"] = (
            calls["tree_protocol.run_tree_protocol"] + calls["grid_protocol.run_grid_protocol"]
        ) * per
        roots = float(duration[~has_parent].sum())
        out["bench.traced_wall.s"] = wall_s * per
        out["bench.untraced_remainder.s"] = (wall_s - roots) * per
        out["bench.trace_overhead"] = overhead
        return out


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was counted."""
    return float(num) / float(den) if den else 0.0


def _counters(tracer: Tracer) -> Dict[str, Callable]:
    """Counting callbacks keyed like ``SPANS`` targets: (bound args, result)."""
    c = tracer.counters

    def oue(args, result):
        users = np.asarray(args["true_indices"]).size
        c["oue_bits"] += users * args["params"].n
        c["oue_bytes"] += np.asarray(result).nbytes
        c["layer_nodes"] += args["params"].n

    def olh_perturb(args, result):
        c["olh_reports"] += np.asarray(args["true_cells"]).size

    def olh_aggregate(args, result):
        pairs = args["pairs"]
        reports = np.asarray(pairs[0]).size if isinstance(pairs, tuple) else len(pairs)
        c["olh_hash_evals"] += reports * np.asarray(args["cells"]).size

    def key_table(args, result):
        c["key_table_entries"] += np.asarray(result).size

    def grid_plan(args, result):
        from ldplab.grid_protocol import grid_keys

        attack = args["self"]
        attrs = attack.query.attrs
        relevant = [k for k in grid_keys(attack.config.d) if any(a in attrs for a in k[1:])]
        c["relevant_grids"] += len(relevant)
        c["fallback_grids"] += len(attack.fallback_keys)

    def detect(args, result):
        c["flagged_rounds"] += bool(result.detected)

    def max_load_cdf(args, result):
        # The detector's cache hands back the object it stored, so a result
        # seen before is a hit.  Holding the objects keeps their ids unique.
        if id(result) in tracer._cdf_seen:
            c["cdf_hits"] += 1
        else:
            tracer._cdf_seen[id(result)] = result

    def true_frequency(args, result):
        tracer.trial_id += 1  # one true frequency closes each trial

    return {
        "oue_perturb_batch": oue,
        "olh_perturb_batch": olh_perturb,
        "olh_aggregate": olh_aggregate,
        "HashFamily.key_table": key_table,
        "GridRangeAttack.begin": grid_plan,
        "tree_detect": detect,
        "grid_detect": detect,
        "max_load_cdf": max_load_cdf,
        "true_frequency": true_frequency,
    }
