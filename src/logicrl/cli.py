"""Command-line front end.

Verbs: train, eval, plot, value-grid, check-constraint. Exit codes: 0 on
success, 2 on configuration and I/O errors, 3 on runtime failures. Output
bits do not depend on the BLAS thread count (see tensor.mlp_backward).
"""
from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    CONFIG_KEYS,
    build_run_config,
    check_constraint,
    emit_curves,
    export_value_grid,
    parse_kv_file,
    run_eval,
    run_train,
)
from .training import TrainingDiverged

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logicrl",
        description="Constraint-shaped actor-critic training harness",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_train = sub.add_parser("train", help="train one experiment across seeds")
    p_train.add_argument("--config", help="key=value run config file")
    p_train.add_argument("--parallel-seeds", action="store_true",
                         help="run seeds as isolated worker processes")
    for key, *_ in CONFIG_KEYS:  # flags override config-file values
        p_train.add_argument("--" + key.replace("_", "-"), dest=f"kv_{key}", default=None)

    p_eval = sub.add_parser("eval", help="greedy evaluation of a checkpoint")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("--eval-horizon", type=int, default=1000)
    p_eval.add_argument("--constraint", default=None,
                        help=".fl file overriding the trained constraint; 'none' disables")
    p_eval.add_argument("--seed", type=int, default=None)

    p_plot = sub.add_parser("plot", help="emit smoothed curves from metrics files")
    p_plot.add_argument("metrics", nargs="+")
    p_plot.add_argument("--out", default="plots")
    p_plot.add_argument("--window-scores", type=int, default=20)
    p_plot.add_argument("--window-errors", type=int, default=10)

    p_grid = sub.add_parser("value-grid", help="export V(s) over all grid cells")
    p_grid.add_argument("checkpoint")
    p_grid.add_argument("--out", default="value_grid.csv")
    p_grid.add_argument("--svg", default=None, help="heatmap path (default: csv path with .svg)")

    p_check = sub.add_parser("check-constraint", help="parse and bind a .fl file")
    p_check.add_argument("file")
    p_check.add_argument("--env", default="gridworld")
    p_check.add_argument("--layout", default="default")

    return parser


def _cmd_train(args) -> int:
    values: dict[str, str] = {}
    if args.config:
        values.update(parse_kv_file(args.config))
    for key, *_ in CONFIG_KEYS:
        flag_value = getattr(args, f"kv_{key}")
        if flag_value is not None:
            values[key] = flag_value
    config = build_run_config(values)
    run_dirs = run_train(config, parallel=args.parallel_seeds)
    for run_dir in run_dirs:
        print(f"run complete: {run_dir}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    ev, row = run_eval(args.checkpoint, args.eval_horizon, args.constraint, args.seed)
    print(
        f"mean_return={ev.mean_return!r} satisfaction={ev.satisfaction_rate!r} "
        f"violations={ev.violation_count} episodes={ev.episodes} "
        f"ends={ev.end_counts}"
    )
    print(row)
    return EXIT_OK


def _cmd_plot(args) -> int:
    written, skipped = emit_curves(args.metrics, args.out, args.window_scores, args.window_errors)
    for path in written:
        print(path)
    if skipped:
        print(f"warning: skipped {skipped} malformed rows", file=sys.stderr)
    return EXIT_OK


def _cmd_value_grid(args) -> int:
    svg = args.svg if args.svg is not None else os.path.splitext(args.out)[0] + ".svg"
    export_value_grid(args.checkpoint, args.out, svg)
    print(args.out)
    print(svg)
    return EXIT_OK


def _cmd_check(args) -> int:
    print(check_constraint(args.file, args.env, args.layout))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "eval": _cmd_eval,
        "plot": _cmd_plot,
        "value-grid": _cmd_value_grid,
        "check-constraint": _cmd_check,
    }
    try:
        return handlers[args.verb](args)
    except (ValueError, OSError) as exc:  # ConfigError, the .fl errors, unusable paths
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
