"""Command-line surface for the experiment harness.

Subcommands map onto the pipeline stages plus the three phantom studies.
Stage commands (calibrate .. evaluate) recompute the deterministic pipeline
from the config up to and including the named stage and write that prefix's
artifacts; since every run is a pure function of (config, seed), recomputing
is byte-identical to resuming.

Exit codes: 0 success, 2 configuration error, 3 degenerate region (nothing
to cut or segment), 4 solver failure, 1 any other pipeline failure. A
failure raised inside a pipeline stage ends its message with
``(stage <name>)``.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    CollinearTags,
    ConfigError,
    DegenerateAxis,
    DegenerateConfiguration,
    EmptyRegion,
    EmptySurface,
    IllConditioned,
    NonConvergence,
    ParallelRay,
    PipelineError,
    TooFewTumorTags,
    Unreachable,
)
from .harness import (
    E2E_STAGES,
    ExperimentConfig,
    run_end_to_end,
    run_marker_experiment,
    run_roi_experiment,
    run_trajectory_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_SOLVER = 4

_DEGENERATE = (TooFewTumorTags, EmptyRegion, EmptySurface, CollinearTags)
_SOLVER = (NonConvergence, IllConditioned, Unreachable,
           DegenerateConfiguration, DegenerateAxis, ParallelRay)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resectsim",
        description="Desk-scale laser tumor mapping and resection simulator",
    )
    parser.add_argument("--config", help="experiment config JSON")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", default="runs/out", help="output directory")
    parser.add_argument("--profile", choices=["diode", "tumorid", "fiber"],
                        help="override the laser profile")
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in E2E_STAGES:
        sub.add_parser(stage, help=f"run the pipeline through '{stage}'")
    sub.add_parser("e2e", help="run the full pipeline")
    phantom = sub.add_parser("phantom", help="phantom accuracy studies")
    phantom.add_argument("study", choices=["marker", "trajectory", "roi"])
    return parser


def load_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
    else:
        if args.seed is None:
            raise ConfigError("give --config or at least --seed")
        cfg = ExperimentConfig(seed=args.seed)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.profile is not None:
        overrides["profile"] = args.profile
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    return cfg


def _stage(exc: PipelineError) -> str:
    """`` (stage <name>)`` for a failure raised inside a stage, else ``""``."""
    return f" (stage {exc.stage})" if exc.stage else ""


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command == "phantom":
            runner = {
                "marker": run_marker_experiment,
                "trajectory": run_trajectory_experiment,
                "roi": run_roi_experiment,
            }[args.study]
            result = runner(cfg, args.out)
        elif args.command == "e2e":
            result = run_end_to_end(cfg, args.out)
        else:
            result = run_end_to_end(cfg, args.out, through_stage=args.command)
    except ConfigError as exc:
        print(f"config error: {exc}{_stage(exc)}", file=sys.stderr)
        return EXIT_CONFIG
    except _DEGENERATE as exc:
        print(f"degenerate region: {type(exc).__name__}: {exc}"
              f"{_stage(exc)}", file=sys.stderr)
        return EXIT_DEGENERATE
    except _SOLVER as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}{_stage(exc)}",
              file=sys.stderr)
        return EXIT_SOLVER
    except PipelineError as exc:
        print(f"pipeline failure: {type(exc).__name__}: {exc}"
              f"{_stage(exc)}", file=sys.stderr)
        return 1
    for name, path in sorted(result.artifacts.items()):
        print(f"{name}: {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
