"""Command-line interface.

Subcommands:
  run          execute one experiment config
  sweep        run a grid of (epsilon, rho, attack) variations of a config
  detect       run with detectors enabled and report detection rates
  prism-check  print the analytic privacy-violation ratio check

Configs are JSON files whose keys mirror ExperimentConfig fields.  The
whole config, the protocol's own settings and the dataset spec included, is
checked when it is loaded (``sweep`` checks every combination before its
first run), so a bad config exits before any data is generated or any file
is written.  Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

from .harness import ConfigError, ExperimentConfig, prism_bruteforce_ratio, prism_violation_ratio, run_experiment

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    payload = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("config file must hold a JSON object")
    if args.seed is not None:
        payload["seeds"] = [args.seed]
    if args.out is not None:
        payload["out"] = args.out
    if args.threads is not None:
        payload["threads"] = args.threads
    try:
        return ExperimentConfig(**payload)
    except (TypeError, ValueError) as exc:  # unknown fields, values of the wrong type
        raise ConfigError(str(exc)) from exc


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    _, summary = run_experiment(config)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _load_config(args)
    try:
        epsilons = [float(x) for x in args.epsilons.split(",")] if args.epsilons else [base.epsilon]
        rhos = [float(x) for x in args.rhos.split(",")] if args.rhos else [base.rho]
    except ValueError as exc:
        raise ConfigError(f"--epsilons and --rhos take comma-separated numbers: {exc}") from exc
    attacks = args.attacks.split(",") if args.attacks else [base.attack]
    out_dir = Path(base.out) if base.out else None
    configs = []
    for attack, epsilon, rho in product(attacks, epsilons, rhos):
        name = f"{base.protocol}_{attack}_eps{epsilon}_rho{rho}.jsonl"
        out = str(out_dir / name) if out_dir is not None else None
        configs.append(replace(base, attack=attack, epsilon=epsilon, rho=rho, out=out))
    for config in configs:
        _, summary = run_experiment(config)
        print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    config = replace(_load_config(args), defense=True)
    _, summary = run_experiment(config)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_prism(args: argparse.Namespace) -> int:
    epsilon = args.epsilon
    ratio = prism_violation_ratio(epsilon)
    brute = prism_bruteforce_ratio(epsilon)
    print(
        json.dumps(
            {
                "epsilon": epsilon,
                "closed_form_ratio": ratio,
                "bruteforce_ratio": brute,
                "claimed_bound": math.exp(epsilon),
                "violates_claimed_bound": ratio > math.exp(epsilon),
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldplab",
        description="Poisoning-attack laboratory for LDP range-query protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override: run a single seed")
        p.add_argument("--out", help="override: output path")
        p.add_argument("--threads", type=int, help="override: worker threads")

    run_p = sub.add_parser("run", help="run one experiment")
    common(run_p)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a grid of configurations")
    common(sweep_p)
    sweep_p.add_argument("--epsilons", help="comma-separated epsilon values")
    sweep_p.add_argument("--rhos", help="comma-separated rho values")
    sweep_p.add_argument("--attacks", help="comma-separated attack names")
    sweep_p.set_defaults(func=_cmd_sweep)

    detect_p = sub.add_parser("detect", help="run with detectors enabled")
    common(detect_p)
    detect_p.set_defaults(func=_cmd_detect)

    prism_p = sub.add_parser("prism-check", help="print the analytic privacy check")
    prism_p.add_argument("--epsilon", type=float, default=1.0)
    prism_p.set_defaults(func=_cmd_prism)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
