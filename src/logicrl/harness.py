"""Experiment orchestration: run configs, training runs with periodic
checkpoint-and-evaluate, metrics CSV emission, curve plotting and the value
grid export.

Run configs are flat key=value text files; command-line flags override file
values. Every run directory receives a config snapshot that reproduces the
run exactly (criterion: metrics.csv is byte-identical on re-runs).
"""
from __future__ import annotations

import os
import shutil
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import constraints as fl
from .envs import GridLayout, make_env
from .plots import heatmap_svg, line_chart_svg, rolling_mean
from .tensor import numeric_setting
from .training import (
    EvalResult,
    System3Config,
    Trainer,
    TrainingDiverged,
    VERSION_TAG,
)

METRICS_HEADER = (
    "step,iteration,mean_env_return,constraint_satisfaction,"
    "violations,forward_loss,policy_loss,entropy,seed"
)
# train_log.csv columns: the keys of Trainer.train_iteration's metrics dict
TRAIN_LOG_KEYS = (
    "iteration", "steps", "mean_env_return", "episodes_completed", "rc_rate",
    "true_satisfaction_rate", "disagreement_rate", "forward_loss", "policy_loss",
    "value_loss", "entropy", "combined_loss",
)
TRAIN_LOG_HEADER = ",".join(TRAIN_LOG_KEYS)


class ConfigError(ValueError):
    """Bad run configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    """Everything one experiment needs; CONFIG_KEYS maps the key names."""

    experiment: str = "run"
    env: str = "gridworld"
    layout: str = "default"
    constraint: str = "none"
    seeds: tuple[int, ...] = (0,)
    eval_every: int = 400
    eval_horizon: int = 1000
    out: str = "runs"
    d: int = 1
    sys3: System3Config = field(default_factory=System3Config)

    def __post_init__(self):
        if self.env not in ("gridworld", "cartpole"):
            raise ConfigError(f"unknown env {self.env!r} (gridworld or cartpole)")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            # two runs of one seed would share (and clobber) one run directory
            raise ConfigError(f"duplicate seeds: {','.join(map(str, repeated))}")
        negative = [s for s in self.seeds if s < 0]
        if negative:
            raise ConfigError(f"seeds must be >= 0, got {','.join(map(str, negative))}")
        if self.eval_every < 1 or self.eval_horizon < 1:
            raise ConfigError("eval_every and eval_horizon must be >= 1")
        if self.d < 1:
            raise ConfigError("d must be >= 1")


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers; empty items are skipped."""
    return tuple(int(s) for s in text.split(",") if s.strip())


# Every run-config key, in config.snapshot order: the key as written in config
# files (and, with "_" as "-", as a `logicrl train` flag), the config object
# that holds it ("run" is RunConfig, "sys3" is System3Config), that object's
# field, and the parser of the key's text. Defaults live on the dataclasses.
CONFIG_KEYS = (
    ("experiment", "run", "experiment", str),
    ("env", "run", "env", str),
    ("layout", "run", "layout", str),
    ("constraint", "run", "constraint", str),
    ("seeds", "run", "seeds", _parse_ints),
    ("eval_every", "run", "eval_every", int),
    ("eval_horizon", "run", "eval_horizon", int),
    ("out", "run", "out", str),
    ("d", "run", "d", int),
    ("lambda", "sys3", "lam", float),
    ("beta", "sys3", "beta", float),
    ("gamma", "sys3", "gamma", float),
    ("gae_lambda", "sys3", "gae_lambda", float),
    ("lr", "sys3", "learning_rate", float),
    ("rollout_length", "sys3", "rollout_length", int),
    ("batch_size", "sys3", "batch_size", int),
    ("steps", "sys3", "total_steps", int),
    ("constraint_weight", "sys3", "constraint_reward_weight", float),
    ("use_env_reward", "sys3", "use_env_reward", _parse_bool),
    ("entropy_coef", "sys3", "entropy_coef", float),
    ("value_coef", "sys3", "value_coef", float),
    ("hidden", "sys3", "hidden", _parse_ints),
)
_KEY_ROWS = {row[0]: row for row in CONFIG_KEYS}


def parse_kv_file(path) -> dict[str, str]:
    """Flat `key = value` lines; '#' comments; later keys win."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    with open(path) as fp:
        for lineno, raw in enumerate(fp, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def build_run_config(values: dict[str, str]) -> RunConfig:
    """Typed RunConfig from flat string key/values; unknown keys rejected."""
    kwargs: dict[str, dict] = {"run": {}, "sys3": {}}
    for key, text in values.items():
        if key not in _KEY_ROWS:
            raise ConfigError(f"unknown config key {key!r}")
        _, section, fieldname, parse = _KEY_ROWS[key]
        try:
            kwargs[section][fieldname] = parse(str(text))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {text!r}") from exc
    try:
        config = RunConfig(sys3=System3Config(**kwargs["sys3"]), **kwargs["run"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if config.constraint != "none" and not os.path.exists(config.constraint):
        raise ConfigError(f"constraint file not found: {config.constraint}")
    if config.env == "gridworld" and config.layout != "default" and not os.path.exists(config.layout):
        raise ConfigError(f"layout file not found: {config.layout}")
    return config


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def setting_text(setting: dict) -> str:
    """A numeric_setting() record as one line of text."""
    return (f"numpy {setting['numpy']}, BLAS {setting['blas']} {setting['blas_version']}, "
            f"BLAS threads {setting['blas_threads']}")


def snapshot_text(config: RunConfig, seed: int) -> str:
    """Flat key=value snapshot that re-runs this seed identically, under
    the numeric setting its comment line records."""
    sections = {"run": replace(config, seeds=(seed,)), "sys3": config.sys3}
    lines = [f"# {VERSION_TAG}", f"# {setting_text(numeric_setting())}"]
    for key, section, fieldname, _ in CONFIG_KEYS:
        lines.append(f"{key} = {_format_value(getattr(sections[section], fieldname))}")
    return "\n".join(lines) + "\n"


def _metrics_row(step, iteration, ev: EvalResult, train_metrics: dict, seed: int) -> str:
    return ",".join(
        [
            str(step),
            str(iteration),
            repr(float(ev.mean_return)),
            repr(float(ev.satisfaction_rate)),
            str(int(ev.violation_count)),
            repr(float(train_metrics.get("forward_loss", 0.0))),
            repr(float(train_metrics.get("policy_loss", 0.0))),
            repr(float(train_metrics.get("entropy", 0.0))),
            str(seed),
        ]
    )


def run_dir_for(config: RunConfig, seed: int) -> str:
    return os.path.join(config.out, config.experiment, f"seed_{seed}")


def _layout_for(env: str, layout: str):
    """The grid layout a config's `layout` names; None, the env's own
    default, for "default" and for cart-pole."""
    if env != "gridworld" or layout == "default":
        return None
    return GridLayout.from_file(layout)


def train_one_seed(config: RunConfig, seed: int) -> str:
    """Train one seed to completion; returns the run directory.

    Evaluation (and a checkpoint) happens whenever the step counter crosses a
    multiple of eval_every, snapped to the iteration boundary; the actual
    step count is what lands in metrics.csv. The layout, the formula and
    the trainer are built before the run directory is touched, so a config
    that fails to load or bind leaves an earlier run there as it was.
    """
    layout = _layout_for(config.env, config.layout)
    formula = fl.load_constraint_file(config.constraint) if config.constraint != "none" else None
    trainer = Trainer(config.sys3, config.env, seed=seed, layout=layout, d=config.d,
                      formula=formula)
    run_dir = run_dir_for(config, seed)
    checkpoints = os.path.join(run_dir, "checkpoints")
    # a fresh run starts from no bundle, so checkpoints/ and metrics.csv
    # describe the same run: whatever an earlier run left there goes,
    # staging directories of saves cut short by a hard kill included
    shutil.rmtree(checkpoints, ignore_errors=True)
    try:
        os.makedirs(checkpoints)
    except OSError as exc:  # e.g. a plain file where a directory must go
        raise ConfigError(f"cannot create {checkpoints}: {exc.strerror}") from exc
    with open(os.path.join(run_dir, "config.snapshot"), "w") as fp:
        fp.write(snapshot_text(config, seed))

    next_eval_at = config.eval_every
    metrics_path = os.path.join(run_dir, "metrics.csv")
    train_log_path = os.path.join(run_dir, "train_log.csv")
    last = {}
    with open(metrics_path, "w") as metrics_fp, open(train_log_path, "w") as log_fp:
        metrics_fp.write(METRICS_HEADER + "\n")
        log_fp.write(TRAIN_LOG_HEADER + "\n")
        try:
            while trainer.steps < config.sys3.total_steps:
                last = trainer.train_iteration()
                # every value is a Python int or float, so repr is its text
                log_fp.write(",".join(repr(last[k]) for k in TRAIN_LOG_KEYS) + "\n")
                if trainer.steps >= next_eval_at:
                    # a kill after the bundle must not leave the log behind it
                    log_fp.flush()
                    ckpt = os.path.join(checkpoints, f"step_{trainer.steps:09d}")
                    trainer.save_checkpoint(ckpt)
                    try:
                        ev = trainer.evaluate(config.eval_horizon)
                    except (ValueError, FloatingPointError) as exc:
                        # a diverged policy fails here first (NonFiniteLogits)
                        raise TrainingDiverged(
                            f"evaluation at iteration {trainer.iteration} aborted: {exc}",
                            {"iteration": trainer.iteration, "steps": trainer.steps,
                             "cause": str(exc)},
                        ) from exc
                    metrics_fp.write(
                        _metrics_row(trainer.steps, trainer.iteration, ev, last, seed) + "\n"
                    )
                    metrics_fp.flush()
                    next_eval_at = (trainer.steps // config.eval_every + 1) * config.eval_every
        except TrainingDiverged as exc:
            # keep partial artifacts and surface the diagnostics
            with open(os.path.join(run_dir, "diverged.txt"), "w") as fp:
                fp.write(f"{exc}\n{exc.dump!r}\n")
            raise
    return run_dir


def run_train(config: RunConfig, parallel: bool = False) -> list[str]:
    """Train every seed; sequential by default, one process per seed if asked."""
    if parallel and len(config.seeds) > 1:
        import multiprocessing  # only here: a sequential run skips its import cost

        with multiprocessing.Pool(min(len(config.seeds), os.cpu_count() or 1)) as pool:
            return pool.starmap(train_one_seed, [(config, s) for s in config.seeds])
    return [train_one_seed(config, seed) for seed in config.seeds]


# ---------------------------------------------------------------------------
# Standalone evaluation


def run_eval(
    checkpoint: str,
    eval_horizon: int = 1000,
    constraint: str | None = None,
    seed: int | None = None,
) -> tuple[EvalResult, str]:
    """Deterministic greedy evaluation of a saved checkpoint.

    Without an explicit seed this reproduces the training loop's own
    evaluation at the checkpointed step (same derived seed, same horizon).
    Returns the result and the metrics.csv-formatted row. When the bundle
    was written under another numeric setting than this process runs,
    prints one warning line to stderr: the row may then differ in its last
    bits from the one training wrote.
    """
    if eval_horizon < 1:
        raise ConfigError("eval_horizon must be >= 1")
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    trainer = Trainer.load_checkpoint(checkpoint)
    here = numeric_setting()
    if trainer.recorded_setting != here:
        print(f"warning: {checkpoint} was written under {setting_text(trainer.recorded_setting)}; "
              f"this process runs {setting_text(here)}", file=sys.stderr)
    if constraint == "none":
        trainer.bound = None
    elif constraint is not None:
        if not os.path.exists(constraint):
            raise ConfigError(f"constraint file not found: {constraint}")
        formula = fl.load_constraint_file(constraint)
        trainer.bound = fl.bind(formula, trainer.registry, trainer.schema)
    ev = trainer.evaluate(eval_horizon, seed)
    row = _metrics_row(trainer.steps, trainer.iteration, ev, {}, trainer.seed)
    return ev, row


# ---------------------------------------------------------------------------
# Curves


# every metrics.csv column but the step, iteration and seed bookkeeping
_METRIC_COLUMNS = {
    name: col for col, name in enumerate(METRICS_HEADER.split(","))
    if name not in ("step", "iteration", "seed")
}
_SCORE_METRICS = ("mean_env_return",)


def read_metrics_csv(path) -> tuple[list[list[float]], int]:
    """Rows of parsed floats plus the count of malformed rows skipped."""
    rows: list[list[float]] = []
    skipped = 0
    with open(path) as fp:
        header = fp.readline().strip()
        if header != METRICS_HEADER:
            raise ConfigError(f"{path}: unexpected metrics header")
        for line in fp:
            if not line.strip():
                continue
            parts = line.strip().split(",")
            if len(parts) != len(METRICS_HEADER.split(",")):
                skipped += 1
                continue
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                skipped += 1
    return rows, skipped


def emit_curves(
    metrics_paths,
    out_dir,
    window_scores: int = 20,
    window_errors: int = 10,
) -> tuple[list[str], int]:
    """Per-metric SVG chart (seed mean line, min-max band) plus smoothed CSV.

    Returns written file paths and the number of malformed rows skipped.
    Row i of each file is averaged with row i of the others, over the rows
    all of them have, so a file whose steps there differ from the first
    file's is refused. The input CSVs are never modified, and nothing is
    written unless every check passes.
    """
    if not metrics_paths:
        raise ConfigError("need at least one metrics.csv")
    for name, window in (("window_scores", window_scores), ("window_errors", window_errors)):
        if window < 1:
            raise ConfigError(f"{name} must be >= 1, got {window}")
    all_rows, used_paths = [], []
    skipped = 0
    for path in metrics_paths:
        rows, bad = read_metrics_csv(path)
        skipped += bad
        if rows:
            all_rows.append(rows)
            used_paths.append(path)
    if not all_rows:
        raise ConfigError("no usable rows in the given metrics files")
    length = min(len(rows) for rows in all_rows)
    steps = np.array([r[0] for r in all_rows[0][:length]])
    for path, rows in zip(used_paths[1:], all_rows[1:]):
        differ = np.flatnonzero(np.array([r[0] for r in rows[:length]]) != steps)
        if len(differ):
            i = differ[0]
            raise ConfigError(
                f"{path}: usable row {i + 1} is at step {rows[i][0]:.15g}, but in "
                f"{used_paths[0]} at step {steps[i]:.15g}; curves average rows of one step only"
            )
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    for metric, col in _METRIC_COLUMNS.items():
        window = window_scores if metric in _SCORE_METRICS else window_errors
        smoothed = np.stack(
            [rolling_mean([r[col] for r in rows[:length]], window) for rows in all_rows]
        )
        mean = smoothed.mean(axis=0)
        lo = smoothed.min(axis=0)
        hi = smoothed.max(axis=0)
        csv_path = os.path.join(out_dir, f"curve_{metric}.csv")
        with open(csv_path, "w") as fp:
            fp.write("step,mean,min,max\n")
            for i in range(length):
                fp.write(
                    f"{int(steps[i])},{float(mean[i])!r},{float(lo[i])!r},{float(hi[i])!r}\n"
                )
        svg_path = os.path.join(out_dir, f"curve_{metric}.svg")
        with open(svg_path, "w") as fp:
            fp.write(
                line_chart_svg(
                    steps, mean, lo, hi,
                    title=f"{metric} (window {window}, {len(all_rows)} seeds)",
                    y_label=metric,
                )
            )
        written += [csv_path, svg_path]
    return written, skipped


# ---------------------------------------------------------------------------
# Value grid


def export_value_grid(checkpoint: str, out_csv: str, out_svg: str | None = None) -> np.ndarray:
    """Evaluate the value head at every grid cell; write CSV (+ SVG heatmap)."""
    trainer = Trainer.load_checkpoint(checkpoint)
    if trainer.layout is None:
        raise ConfigError("value-grid export needs a gridworld checkpoint")
    w, h = trainer.layout.width, trainer.layout.height
    cells = np.array([[x, y] for y in range(h) for x in range(w)], dtype=np.float64)
    values = trainer.agent.values_batch(cells).reshape(h, w)
    os.makedirs(os.path.dirname(os.path.abspath(out_csv)), exist_ok=True)
    with open(out_csv, "w") as fp:
        fp.write("y," + ",".join(f"x{x}" for x in range(w)) + "\n")
        for y in range(h):
            fp.write(str(y) + "," + ",".join(repr(float(v)) for v in values[y]) + "\n")
    if out_svg is not None:
        with open(out_svg, "w") as fp:
            fp.write(heatmap_svg(values, title="state values V(s)"))
    return values


# ---------------------------------------------------------------------------
# Constraint checking


def check_constraint(path: str, env_id: str, layout: str = "default") -> str:
    """Parse and bind a .fl file against an environment; returns a report.

    Raises ConfigError (missing file), FLSyntaxError or BindError on trouble.
    """
    if not os.path.exists(path):
        raise ConfigError(f"constraint file not found: {path}")
    formula = fl.load_constraint_file(path)
    env = make_env(env_id, 0, _layout_for(env_id, layout), 1)
    registry = env.registry()
    fl.bind(formula, registry, env.schema)
    sets = ", ".join(f"{n}[{len(registry.points(n))}]" for n in registry.names()) or "(none)"
    return (
        f"ok: {path}\n"
        f"formula: {fl.to_text(formula)}\n"
        f"schema: {', '.join(env.schema.names)} (size {env.schema.size})\n"
        f"registry sets: {sets}"
    )
