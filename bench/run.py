"""ldplab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload tree-attack --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Each workload runs in its own worker process (``worker.py``), one at a time,
with the numpy/BLAS/OpenMP thread pools capped at one thread.  ``setup_s`` is
the median over several cold starts: the worker's own plus extra set-up-only
worker processes.  With ``--trace 0`` the last line of standard output holds
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds the
per-layer metrics of a traced section timed after an untraced one.  The
lines before it print every metric by name and unit.  The exit code is
non-zero, and no result line is printed, when the program cannot be run;
an output check that fails prints ``"correct": false`` and exits 1.

``--smoke`` runs every workload at a tiny size in both modes and checks that
every metric is printed with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "ldplab"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # cold starts per run whose median is setup_s
THREAD_CAP = 1  # runs are single-threaded (threads=1), so one thread: never above nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKER_TIMEOUT_S = 150

# Every end-to-end figure the bench prints; BENCHMARK.json gates a subset.
# The *_ref figures are the timings in units of the reference kernel's time
# around each run (reference.py), which cancels most of the host's drift.
END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "trial_s_p50": "s",
    "trial_s_tail": "s",
    "trials_per_ref": "trials/ref",
    "trial_ref_p50": "ref",
    "trial_ref_tail": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "honest_mae": "fraction",
    "attack_gain": "fraction/rho",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREAD_CAP)
    return env


def run_worker(args: List[str]) -> Tuple[int, dict]:
    """Start a worker, wait for it, and parse its last stdout line."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"worker exited with {proc.returncode} and no result") from None


def src_loc() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(PACKAGE.rglob("*.py")))


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> Tuple[List[str], dict]:
    """Run one workload; returns the printed lines and the raw figures."""
    common = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])

    def probe() -> float:
        return run_worker(common + ["--probe"])[1]["setup_s"]

    # Set-up-only workers run before and after the measured one, so the
    # samples do not all fall into one phase of the machine's load.
    before = [probe() for _ in range(SETUP_SAMPLES // 2)]
    code, raw = run_worker(common + ["--seconds", str(seconds), "--trace", str(trace)])
    after = [probe() for _ in range(SETUP_SAMPLES - 1 - len(before))]
    setups = before + [raw["setup_s"]] + after
    raw["setup_s"] = statistics.median(setups)
    raw["setup_samples"] = setups
    raw["exit_code"] = code
    return report(name, seed, seconds, trace, raw), raw


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def report(name: str, seed: int, seconds: float, trace: int, raw: dict) -> List[str]:
    """Human-readable lines: information fields and every metric with its unit."""
    configs = workloads.specs(name)
    lines = [
        f"# ldplab bench: workload {name}, seed {seed}, {seconds:g} s, trace {trace}",
        f"# info: nproc {os.cpu_count()}, thread cap {THREAD_CAP}, "
        f"python {platform.python_version()}, numpy {raw['numpy']}, src LOC {src_loc()}",
        f"# {len(configs)} configs x {raw['rounds']} rounds; "
        f"{raw['completed']} trials completed of {raw['attempted']} attempted "
        f"in {raw['wall_s']:.3f} s, {raw['mean_trials_per_s']:.6g} trials/s overall"
        + (" (untraced section)" if trace else ""),
        f"# reference kernel: median {raw['ref_s'] * 1e3:.4f} ms = 1 ref",
    ]
    notes = {
        "trials_per_s": f"typical round: the median run of each config over {raw['rounds']} rounds",
        "trial_s_tail": f"p{_fmt(raw['tail_percentile'])} of {raw['completed']} trials, "
                        f"{raw['tail_beyond']} beyond",
        "trials_per_ref": "typical round, each run's wall time over its reference time",
        "trial_ref_p50": "each trial's time over its run's reference time",
        "trial_ref_tail": f"p{_fmt(raw['tail_percentile'])} of the same",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in raw["setup_samples"]),
        "fail_ratio": f"{raw['failed']} of {raw['attempted']} trials failed",
        "attack_gain": "mean efficiency over attacking configs",
    }
    for metric, unit in END_TO_END_UNITS.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        lines.append(f"{metric:<16} {_fmt(raw[metric]):>12} {unit}{note}")
    for error, count in raw["errors"].items():
        lines.append(f"# failed runs x{count}: {error}")
    if trace:
        layer = raw["per_layer"]
        units = tracer.per_layer_units()
        lines.append(f"# traced section: {raw['traced']['attempted']} trials attempted in "
                     f"{raw['traced']['wall_s']:.3f} s, {raw['spans']} spans "
                     f"written to {raw['spans_file']}; per-layer figures are per trial")
        for metric, unit in units.items():
            lines.append(f"{metric:<52} {_fmt(layer[metric]):>12} {unit}")
        self_sum = sum(layer[f"{s}.self_s"] for s in tracer.SPAN_NAMES)
        lines.append(
            f"# traced wall {layer['bench.traced_wall.s']:.6f} s/trial = layer self times "
            f"{self_sum:.6f} + untraced remainder {layer['bench.untraced_remainder.s']:.6f}")
        lines.append(f"# tracing overhead: untraced/traced trials_per_s = "
                     f"{layer['bench.trace_overhead']:.4f}")
    for problem in raw["problems"]:
        lines.append(f"# CHECK FAILED: {problem}")
    return lines


def gated_metrics(raw: dict, trace: int) -> Dict[str, dict]:
    """The BENCHMARK.json metrics of this mode, as {name: {value, unit}}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = raw["per_layer"] if trace else raw
    out = {}
    for metric in listed:
        value = values.get(metric["name"])
        if value is None:
            raise BenchError(f"metric {metric['name']} was not measured")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def result_line(raw: dict, trace: int) -> dict:
    attempted = raw["attempted"] + (raw["traced"]["attempted"] if trace else 0)
    failed = raw["failed"] + (raw["traced"]["failed"] if trace else 0)
    return {
        "correct": raw["exit_code"] == 0 and not raw["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": gated_metrics(raw, trace),
    }


def smoke() -> int:
    """Every workload, tiny, in both modes: every metric printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing: List[str] = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            lines, raw = run_workload(name, 0, 0.0, trace, smoke=True)
            print("\n".join(lines))
            result = result_line(raw, trace)
            print(json.dumps(result))
            if not result["correct"]:
                missing.append(f"{name} trace {trace}: output checks failed")
            expected = tracer.per_layer_units() if trace else END_TO_END_UNITS
            printed = {(words[0], words[2]) for words in map(str.split, lines)
                       if len(words) > 2 and not words[0].startswith("#")}
            for metric, unit in expected.items():
                if (metric, unit) not in printed:
                    missing.append(f"{name} trace {trace}: {metric} [{unit}] not printed")
            for metric in spec["per_layer" if trace else "end_to_end"]:
                if expected.get(metric["name"]) != metric["unit"]:
                    missing.append(f"{name} trace {trace}: BENCHMARK.json unit of "
                                   f"{metric['name']} differs from the bench's")
    for problem in missing:
        print(f"SMOKE FAILED: {problem}")
    print("smoke: ok" if not missing else f"smoke: {len(missing)} problems")
    return 1 if missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ldplab benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the printout")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"bench: no ldplab sources at {PACKAGE}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        lines, raw = run_workload(args.workload, args.seed, args.seconds, args.trace)
        result = result_line(raw, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
