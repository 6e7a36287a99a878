import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from logicrl import cli
from logicrl import constraints as fl
from logicrl.cli import main
from logicrl.harness import (
    CONFIG_KEYS,
    METRICS_HEADER,
    TRAIN_LOG_HEADER,
    ConfigError,
    RunConfig,
    build_run_config,
    check_constraint,
    emit_curves,
    export_value_grid,
    parse_kv_file,
    read_metrics_csv,
    run_eval,
    run_dir_for,
    run_train,
    snapshot_text,
    train_one_seed,
)
from logicrl.plots import heatmap_svg, line_chart_svg, rolling_mean
from logicrl.training import Trainer, System3Config
from oracles import paramset_with


def tiny_values(tmp_path, **overrides):
    values = {
        "experiment": "mini",
        "env": "gridworld",
        "constraint": "none",
        "seeds": "0",
        "steps": "160",
        "rollout_length": "10",
        "batch_size": "2",
        "eval_every": "40",
        "eval_horizon": "50",
        "out": str(tmp_path / "runs"),
    }
    values.update(overrides)
    return values


def _src_env():
    """os.environ with this checkout's src/ first on PYTHONPATH, for child
    processes that import logicrl."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# -- config parsing ---------------------------------------------------------------


def test_parse_kv_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nenv = cartpole\nsteps=5000  # inline\n\nd = 3\n")
    assert parse_kv_file(path) == {"env": "cartpole", "steps": "5000", "d": "3"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("oops\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_kv_file(bad)
    with pytest.raises(ConfigError, match="not found"):
        parse_kv_file(tmp_path / "missing.cfg")


def test_build_run_config_types_and_defaults():
    cfg = build_run_config({"env": "cartpole", "seeds": "3,4", "lambda": "0.2",
                            "hidden": "32,16", "use_env_reward": "false"})
    assert cfg.seeds == (3, 4)
    assert cfg.sys3.lam == 0.2
    assert cfg.sys3.hidden == (32, 16)
    assert cfg.sys3.use_env_reward is False
    assert cfg.eval_every == 400 and cfg.eval_horizon == 1000


def test_build_run_config_errors():
    with pytest.raises(ConfigError, match="unknown config key"):
        build_run_config({"spaghetti": "1"})
    with pytest.raises(ConfigError, match="seeds"):
        build_run_config({"seeds": "a,b"})
    with pytest.raises(ConfigError, match="constraint file not found"):
        build_run_config({"constraint": "missing/keepout.fl"})
    with pytest.raises(ConfigError, match="layout file not found"):
        build_run_config({"env": "gridworld", "layout": "missing.map"})
    with pytest.raises(ConfigError):
        build_run_config({"env": "pong"})
    with pytest.raises(ConfigError):
        build_run_config({"beta": "7"})


@pytest.mark.parametrize("seeds, flags, message", [
    ("0,0", [], "duplicate seeds: 0"),
    ("0,0", ["--parallel-seeds"], "duplicate seeds: 0"),
    ("2,0,1,0,2", [], "duplicate seeds: 0,2"),
    ("0,-1", [], "seeds must be >= 0, got -1"),
])
def test_cli_rejects_repeated_or_negative_seeds_before_writing(tmp_path, capsys, seeds,
                                                                flags, message):
    """Two runs of one seed would share one run directory, and a negative
    seed cannot seed a generator: exit 2, one line naming the seeds,
    nothing written."""
    out = tmp_path / "out"
    assert main(["train", "--seeds", seeds, "--steps", "40", "--out", str(out), *flags]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_train_refuses_negative_steps_and_keeps_zero(tmp_path, capsys):
    """A negative step budget would train nothing and exit 0: exit 2 naming
    it, nothing written. A budget of 0 stays valid (it writes the run
    directory and checks the inputs without training)."""
    out = tmp_path / "out"
    assert main(["train", "--seeds", "0", "--steps", "-5", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: total_steps must be >= 0, got -5\n"
    with pytest.raises(ConfigError, match="total_steps must be >= 0"):
        build_run_config(tiny_values(tmp_path, steps="-1"))
    assert main(["train", "--seeds", "0", "--steps", "0", "--out", str(out)]) == 0
    assert out.exists()


def test_snapshot_round_trips(tmp_path):
    cfg = build_run_config(tiny_values(tmp_path, constraint="configs/grid_keepout.fl"))
    text = snapshot_text(cfg, seed=0)
    parsed = build_run_config(
        dict(line.split(" = ") for line in text.strip().split("\n") if not line.startswith("#"))
    )
    assert parsed.sys3 == cfg.sys3
    assert parsed.seeds == (0,)
    assert parsed.env == cfg.env


def test_readme_config_table_matches_config_keys():
    """README's run-config table lists the CONFIG_KEYS keys in order, each
    with its dataclass default as config.snapshot writes it."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fp:
        readme = fp.read()
    table = readme.split("| key | default | meaning |\n| --- | --- | --- |\n", 1)[1]
    rows = [line.split(" | ")[:2] for line in table.split("\n\n", 1)[0].splitlines()]
    documented = [(key.strip("| `"), default) for key, default in rows]
    assert [key for key, _ in documented] == [row[0] for row in CONFIG_KEYS]
    snapshot = snapshot_text(RunConfig(), seed=0).splitlines()[1:]
    assert documented == [tuple(line.split(" = ")) for line in snapshot]


def test_config_keys_are_exactly_the_config_fields():
    """CONFIG_KEYS sets each field of System3Config and of RunConfig (less
    `sys3`) by exactly one key, and names no other field: a knob removed from
    a dataclass leaves no dangling key, and a new one cannot be unsettable."""
    pairs = [(section, fieldname) for _, section, fieldname, _ in CONFIG_KEYS]
    fields = [("sys3", f.name) for f in dataclasses.fields(System3Config)]
    fields += [("run", f.name) for f in dataclasses.fields(RunConfig) if f.name != "sys3"]
    assert len(set(pairs)) == len(pairs)
    assert sorted(pairs) == sorted(fields)


# -- training runs ------------------------------------------------------------------


def test_run_train_writes_artifacts(tmp_path):
    cfg = build_run_config(tiny_values(tmp_path, seeds="0,1"))
    run_dirs = run_train(cfg)
    assert len(run_dirs) == 2
    for run_dir in run_dirs:
        rows, skipped = read_metrics_csv(os.path.join(run_dir, "metrics.csv"))
        assert skipped == 0 and len(rows) == 4  # 160 steps, eval every 40
        assert os.path.exists(os.path.join(run_dir, "config.snapshot"))
        assert os.path.exists(os.path.join(run_dir, "train_log.csv"))
        checkpoints = os.listdir(os.path.join(run_dir, "checkpoints"))
        assert len(checkpoints) == 4
    # seed column distinguishes the files
    rows0, _ = read_metrics_csv(os.path.join(run_dirs[0], "metrics.csv"))
    rows1, _ = read_metrics_csv(os.path.join(run_dirs[1], "metrics.csv"))
    assert rows0[0][-1] == 0.0 and rows1[0][-1] == 1.0


def test_run_train_byte_identical_reruns(tmp_path):
    cfg = build_run_config(tiny_values(tmp_path, constraint="configs/grid_keepout.fl"))
    run_dir = train_one_seed(cfg, 0)
    with open(os.path.join(run_dir, "metrics.csv"), "rb") as fp:
        first = fp.read()
    train_one_seed(cfg, 0)
    with open(os.path.join(run_dir, "metrics.csv"), "rb") as fp:
        second = fp.read()
    assert first == second


_DIE_IN_EVALUATION = """
import os, sys
from logicrl import harness, training
k, out = int(sys.argv[1]), sys.argv[2]
evaluate, calls = training.Trainer.evaluate, []

def evaluate_then_die(self, *args):
    calls.append(None)
    if len(calls) == k:
        os._exit(0)  # a hard kill: no unwinding, no file closed or flushed
    return evaluate(self, *args)

training.Trainer.evaluate = evaluate_then_die
harness.train_one_seed(harness.build_run_config({
    "env": "gridworld", "seeds": "0", "steps": "160", "rollout_length": "10",
    "batch_size": "2", "eval_every": "40", "eval_horizon": "50", "out": out}), 0)
"""


def test_train_log_holds_every_iteration_up_to_the_last_bundle_after_a_kill(tmp_path):
    """A process killed during the 3rd evaluation (after the step-120
    bundle was written) leaves train_log.csv with the header and the six
    iterations up to step 120, not an empty file."""
    out = tmp_path / "runs"
    proc = subprocess.run([sys.executable, "-c", _DIE_IN_EVALUATION, "3", str(out)],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    run_dir = out / "run" / "seed_0"
    assert sorted(os.listdir(run_dir / "checkpoints"))[-1] == "step_000000120"
    lines = (run_dir / "train_log.csv").read_text().splitlines()
    assert lines[0] == TRAIN_LOG_HEADER
    assert [row.split(",")[:2] for row in lines[1:]] == [
        [str(i), str(20 * i)] for i in range(1, 7)]


def test_importing_the_harness_does_not_import_multiprocessing():
    """Only a parallel run needs multiprocessing, so start-up skips it."""
    code = ("import sys, logicrl.harness; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_run_train_removes_partial_checkpoints_left_by_a_hard_kill(tmp_path):
    """A `.step_*.partial` staging directory (a save cut short by a hard
    kill) is gone after the next run into the directory, and so is a
    complete bundle from an earlier run that this run does not overwrite:
    checkpoints/ holds this run's bundles only, as metrics.csv describes."""
    cfg = build_run_config(tiny_values(tmp_path))
    checkpoints = os.path.join(run_dir_for(cfg, 0), "checkpoints")
    partial = os.path.join(checkpoints, ".step_000000090.partial")
    stale = os.path.join(checkpoints, "step_000000001")
    for path, text in ((partial, b"half a bundle"), (stale, b"an earlier run's bundle")):
        os.makedirs(path)
        with open(os.path.join(path, "policy.params"), "wb") as fp:
            fp.write(text)
    train_one_seed(cfg, 0)
    assert sorted(os.listdir(checkpoints)) == [
        "step_000000040", "step_000000080", "step_000000120", "step_000000160"]


def test_cli_train_into_checkpoints_with_a_stray_file_exits_0(tmp_path, capsys):
    """A plain file in checkpoints/ whose name looks like a bundle's does
    not stop a fresh run; it goes with the rest of the earlier contents."""
    checkpoints = tmp_path / "run" / "seed_0" / "checkpoints"
    checkpoints.mkdir(parents=True)
    (checkpoints / "step_notes.txt").write_text("not a bundle\n")
    code = main(["train", "--env", "gridworld", "--seeds", "0", "--steps", "40",
                 "--eval-every", "20", "--rollout-length", "10", "--batch-size", "2",
                 "--eval-horizon", "10", "--out", str(tmp_path)])
    assert code == 0
    assert sorted(os.listdir(checkpoints)) == ["step_000000020", "step_000000040"]
    capsys.readouterr()


@pytest.mark.parametrize("blocker", ["run/seed_0/checkpoints", "run/seed_0"])
def test_cli_train_where_a_run_directory_is_a_file_exits_2(tmp_path, capsys, blocker):
    """A plain file where the run needs a directory is a one-line config
    error, not a traceback, and the run writes nothing."""
    path = tmp_path / blocker
    path.parent.mkdir(parents=True)
    path.write_text("not a directory\n")
    code = main(["train", "--env", "gridworld", "--seeds", "0", "--steps", "40",
                 "--eval-every", "20", "--rollout-length", "10", "--batch-size", "2",
                 "--eval-horizon", "10", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create ") and err.count("\n") == 1
    assert path.read_text() == "not a directory\n"
    assert sorted(os.listdir(path.parent)) == [path.name]


def test_run_train_parallel_seeds_matches_sequential(tmp_path):
    seq = build_run_config(tiny_values(tmp_path, seeds="0,1", out=str(tmp_path / "seq")))
    par = build_run_config(tiny_values(tmp_path, seeds="0,1", out=str(tmp_path / "par")))
    seq_dirs = run_train(seq)
    par_dirs = run_train(par, parallel=True)
    for a, b in zip(seq_dirs, par_dirs):
        with open(os.path.join(a, "metrics.csv"), "rb") as fp:
            first = fp.read()
        with open(os.path.join(b, "metrics.csv"), "rb") as fp:
            second = fp.read()
        assert first == second


def test_diverged_run_preserves_partial_artifacts(tmp_path, monkeypatch):
    from logicrl.training import Trainer, TrainingDiverged

    calls = {"n": 0}
    original = Trainer.train_iteration

    def exploding(self):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise TrainingDiverged("synthetic blow-up", {"iteration": self.iteration})
        return original(self)

    monkeypatch.setattr(Trainer, "train_iteration", exploding)
    cfg = build_run_config(tiny_values(tmp_path))
    with pytest.raises(TrainingDiverged):
        train_one_seed(cfg, 0)
    run_dir = os.path.join(str(tmp_path / "runs"), "mini", "seed_0")
    assert os.path.exists(os.path.join(run_dir, "diverged.txt"))
    assert os.path.exists(os.path.join(run_dir, "metrics.csv"))
    with open(os.path.join(run_dir, "train_log.csv")) as fp:
        assert len(fp.read().strip().split("\n")) == 3  # header + 2 iterations


def test_cli_maps_divergence_to_exit_3(tmp_path, monkeypatch, capsys):
    from logicrl.training import TrainingDiverged

    def fake_run_train(config, parallel=False):
        raise TrainingDiverged("synthetic blow-up")

    monkeypatch.setattr(cli, "run_train", fake_run_train)
    code = main(["train", "--env", "gridworld", "--seeds", "0",
                 "--steps", "40", "--out", str(tmp_path)])
    assert code == 3
    capsys.readouterr()


def test_cli_maps_divergence_in_evaluation_to_exit_3(tmp_path, monkeypatch, capsys):
    from logicrl.actor_critic import ActorCritic, NonFiniteLogits

    def diverged(self, states):
        raise NonFiniteLogits("synthetic NaN logits")

    monkeypatch.setattr(ActorCritic, "greedy_batch", diverged)
    code = main(["train", "--env", "gridworld", "--seeds", "0", "--steps", "40",
                 "--eval-every", "20", "--rollout-length", "10", "--batch-size", "2",
                 "--out", str(tmp_path)])
    assert code == 3
    dump = (tmp_path / "run" / "seed_0" / "diverged.txt").read_text()
    assert "'iteration': 1" in dump and "'steps': 20" in dump
    assert "diverged" in capsys.readouterr().err


def test_cli_maps_nan_prediction_in_evaluation_to_exit_3(tmp_path, monkeypatch, capsys):
    """A NaN model prediction during the in-loop evaluation is caught when
    the predictions are scored after the loop: training exits 3 with a dump,
    and `logicrl eval` of the checkpoint it left exits 2."""
    from logicrl.dynamics import ForwardModel

    predict_batch = ForwardModel.predict_batch

    def nan_predict(self, states, actions):
        # the evaluation predicts one row at a time; the rollout's two rows
        # per step stay real
        z = predict_batch(self, states, actions)
        return np.full_like(z, np.nan) if len(z) == 1 else z

    monkeypatch.setattr(ForwardModel, "predict_batch", nan_predict)
    code = main(["train", "--env", "gridworld", "--constraint", "configs/grid_keepout.fl",
                 "--seeds", "0", "--steps", "40", "--eval-every", "20",
                 "--rollout-length", "10", "--batch-size", "2", "--out", str(tmp_path)])
    assert code == 3
    run_dir = tmp_path / "run" / "seed_0"
    dump = (run_dir / "diverged.txt").read_text()
    assert "'iteration': 1" in dump and "'steps': 20" in dump
    assert "non-finite state components" in dump
    assert "diverged" in capsys.readouterr().err
    ckpt = run_dir / "checkpoints" / "step_000000020"
    assert main(["eval", str(ckpt), "--eval-horizon", "10"]) == 2
    assert "non-finite state components" in capsys.readouterr().err


def test_run_eval_reproduces_training_loop_eval(tmp_path):
    cfg = build_run_config(tiny_values(tmp_path, constraint="configs/grid_keepout.fl"))
    run_dir = train_one_seed(cfg, 0)
    rows, _ = read_metrics_csv(os.path.join(run_dir, "metrics.csv"))
    checkpoints = sorted(os.listdir(os.path.join(run_dir, "checkpoints")))
    last_row = rows[-1]
    ev, _ = run_eval(os.path.join(run_dir, "checkpoints", checkpoints[-1]),
                     eval_horizon=cfg.eval_horizon)
    assert ev.satisfaction_rate == last_row[3]
    assert ev.violation_count == int(last_row[4])
    assert ev.mean_return == last_row[2]


def test_run_eval_overrides_and_errors(tmp_path):
    cfg = build_run_config(tiny_values(tmp_path, constraint="configs/grid_keepout.fl"))
    run_dir = train_one_seed(cfg, 0)
    ckpt = os.path.join(run_dir, "checkpoints",
                        sorted(os.listdir(os.path.join(run_dir, "checkpoints")))[-1])
    taut = tmp_path / "taut.fl"
    taut.write_text("forall u in unsafe: 0 <= norm2(s - u)\n")
    ev, _ = run_eval(ckpt, eval_horizon=100, constraint=str(taut))
    assert ev.satisfaction_rate == 1.0
    ev_none, _ = run_eval(ckpt, eval_horizon=100, constraint="none")
    assert ev_none.violation_count == 0
    with pytest.raises(ConfigError):
        run_eval(ckpt, eval_horizon=0)
    with pytest.raises(ConfigError, match="not found"):
        run_eval(ckpt, eval_horizon=10, constraint="nope.fl")
    with pytest.raises(ValueError):
        run_eval(str(tmp_path), eval_horizon=10)  # not a checkpoint


# -- curves -------------------------------------------------------------------------


def test_rolling_mean_identity_and_constant():
    data = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    assert np.array_equal(rolling_mean(data, 1), data)
    assert np.allclose(rolling_mean(np.full(7, 2.5), 4), np.full(7, 2.5))
    assert np.allclose(rolling_mean(data, 2), [3.0, 2.0, 2.5, 2.5, 3.0])
    with pytest.raises(ValueError):
        rolling_mean(data, 0)


def _write_metrics(path, rows):
    with open(path, "w") as fp:
        fp.write(METRICS_HEADER + "\n")
        for row in rows:
            fp.write(",".join(str(v) for v in row) + "\n")


def test_emit_curves_band_and_smoothing(tmp_path):
    paths = []
    for seed, offset in enumerate((0.0, 1.0, 2.0)):
        rows = [[step, step // 40, 5.0 + offset, 0.9, 10 + seed, 0.1, 0.2, 1.5, seed]
                for step in (40, 80, 120)]
        path = tmp_path / f"metrics_{seed}.csv"
        _write_metrics(path, rows)
        paths.append(str(path))
    written, skipped = emit_curves(paths, tmp_path / "plots", window_scores=1, window_errors=1)
    assert skipped == 0
    by_name = {os.path.basename(p): p for p in written}
    with open(by_name["curve_mean_env_return.csv"]) as fp:
        lines = fp.read().strip().split("\n")
    assert lines[0] == "step,mean,min,max"
    step, mean, lo, hi = lines[1].split(",")
    assert (float(mean), float(lo), float(hi)) == (6.0, 5.0, 7.0)
    with open(by_name["curve_mean_env_return.svg"]) as fp:
        svg = fp.read()
    assert svg.startswith("<svg") and "polyline" in svg and "polygon" in svg


def test_emit_curves_skips_malformed_rows(tmp_path):
    path = tmp_path / "metrics.csv"
    with open(path, "w") as fp:
        fp.write(METRICS_HEADER + "\n")
        fp.write("40,1,1.0,0.5,3,0.1,0.2,1.5,0\n")
        fp.write("garbage,row\n")
        fp.write("80,2,not_a_number,0.5,3,0.1,0.2,1.5,0\n")
    written, skipped = emit_curves([str(path)], tmp_path / "plots")
    assert skipped == 2 and written


def test_emit_curves_window_one_equals_raw(tmp_path):
    rows = [[40 * (i + 1), i, float(i * i), 0.5, i, 0.0, 0.0, 0.0, 0] for i in range(6)]
    path = tmp_path / "m.csv"
    _write_metrics(path, rows)
    emit_curves([str(path)], tmp_path / "plots", window_scores=1, window_errors=1)
    with open(tmp_path / "plots" / "curve_mean_env_return.csv") as fp:
        lines = fp.read().strip().split("\n")[1:]
    means = [float(line.split(",")[1]) for line in lines]
    assert means == [float(i * i) for i in range(6)]


def test_emit_curves_requires_input(tmp_path):
    with pytest.raises(ConfigError):
        emit_curves([], tmp_path)


# -- value grid ---------------------------------------------------------------------


def test_export_value_grid_zero_head_and_round_trip(tmp_path):
    trainer = Trainer(System3Config(rollout_length=4, batch_size=2, total_steps=8),
                      "gridworld", seed=0)
    trainer.agent.value_params = paramset_with(trainer.agent.value_params, fill=0.0)
    ckpt = tmp_path / "ckpt"
    trainer.save_checkpoint(ckpt)
    csv_path = tmp_path / "grid.csv"
    svg_path = tmp_path / "grid.svg"
    values = export_value_grid(str(ckpt), str(csv_path), str(svg_path))
    assert values.shape == (20, 20)
    assert np.all(values == 0.0)
    assert np.array_equal(np.loadtxt(csv_path, delimiter=",", skiprows=1)[:, 1:], values)
    with open(svg_path) as fp:
        assert fp.read().startswith("<svg")


def test_export_value_grid_exact_round_trip(tmp_path):
    trainer = Trainer(System3Config(rollout_length=4, batch_size=2, total_steps=8),
                      "gridworld", seed=3)
    trainer.train_iteration()
    ckpt = tmp_path / "ckpt"
    trainer.save_checkpoint(ckpt)
    csv_path = tmp_path / "grid.csv"
    values = export_value_grid(str(ckpt), str(csv_path))
    # repr is exact
    assert np.array_equal(np.loadtxt(csv_path, delimiter=",", skiprows=1)[:, 1:], values)


def test_cli_value_grid_default_svg_sits_beside_the_csv(tmp_path, monkeypatch, capsys):
    """Without --svg the heatmap goes to the --out path with its extension
    swapped for .svg; a dot in a directory name is not an extension."""
    trainer = Trainer(System3Config(rollout_length=4, batch_size=2, total_steps=8),
                      "gridworld", seed=0)
    trainer.save_checkpoint(tmp_path / "ckpt")
    monkeypatch.chdir(tmp_path)
    for out, svg in (("out.d/values", "out.d/values.svg"), ("grid.csv", "grid.svg")):
        assert main(["value-grid", "ckpt", "--out", out]) == 0
        assert capsys.readouterr().out.split() == [out, svg]
        assert (tmp_path / out).is_file() and (tmp_path / svg).is_file()
    assert not (tmp_path / "out.svg").exists()


def test_export_value_grid_rejects_cartpole(tmp_path):
    trainer = Trainer(System3Config(rollout_length=4, batch_size=2, total_steps=8),
                      "cartpole", seed=0)
    ckpt = tmp_path / "ckpt"
    trainer.save_checkpoint(ckpt)
    with pytest.raises(ConfigError, match="gridworld"):
        export_value_grid(str(ckpt), str(tmp_path / "grid.csv"))


# -- constraint checking ---------------------------------------------------------------


def test_check_constraint_report():
    report = check_constraint("configs/grid_keepout.fl", "gridworld")
    assert "ok" in report and "unsafe[36]" in report


def test_check_constraint_errors(tmp_path):
    with pytest.raises(ConfigError):
        check_constraint("missing.fl", "gridworld")
    bad = tmp_path / "bad.fl"
    bad.write_text("forall u in : 1 <= s[0]\n")
    from logicrl.constraints import BindError, FLSyntaxError
    with pytest.raises(FLSyntaxError):
        check_constraint(str(bad), "gridworld")
    unknown = tmp_path / "unknown.fl"
    unknown.write_text("forall h in hazards: 1 <= norm2(s - h)\n")
    with pytest.raises(BindError):
        check_constraint(str(unknown), "gridworld")


# -- CLI ------------------------------------------------------------------------------


def test_cli_train_and_plot_and_value_grid(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code = main([
        "train", "--env", "gridworld", "--constraint", "configs/grid_keepout.fl",
        "--seeds", "0", "--steps", "120", "--rollout-length", "10",
        "--batch-size", "2", "--eval-every", "60", "--eval-horizon", "40",
        "--out", out, "--experiment", "cli",
    ])
    assert code == 0
    run_dir = os.path.join(out, "cli", "seed_0")
    assert os.path.exists(os.path.join(run_dir, "metrics.csv"))

    code = main(["plot", os.path.join(run_dir, "metrics.csv"), "--out", str(tmp_path / "plots")])
    assert code == 0

    ckpt = os.path.join(run_dir, "checkpoints",
                        sorted(os.listdir(os.path.join(run_dir, "checkpoints")))[-1])
    code = main(["eval", ckpt, "--eval-horizon", "30"])
    assert code == 0
    code = main(["value-grid", ckpt, "--out", str(tmp_path / "v.csv")])
    assert code == 0
    assert os.path.exists(tmp_path / "v.svg")
    code = main(["check-constraint", "configs/grid_keepout.fl", "--env", "gridworld"])
    assert code == 0
    capsys.readouterr()


def test_cli_train_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    """`logicrl train` runs numpy's OpenBLAS on one thread, so a grid run with
    OPENBLAS_NUM_THREADS=2 writes the same bytes as one with =1. Without the
    pin the loss columns differ in their last bits within 20k steps."""
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = {**_src_env(), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "logicrl", "train", "--config",
                               "configs/grid_bridge.cfg", "--seeds", "0", "--steps", "20000",
                               "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        run_dir = out / "grid_bridge" / "seed_0"
        written.append([(run_dir / name).read_bytes() for name in ("metrics.csv", "train_log.csv")])
    assert written[0][0].count(b"\n") == 2  # header and the 20k-step evaluation
    assert written[0] == written[1]


def test_cli_restores_the_callers_blas_thread_count(monkeypatch, capsys):
    """A verb runs on one BLAS thread, and an in-process caller gets its own
    count back."""
    threads = cli._bundled_openblas_threads()
    if threads is None:
        pytest.skip("numpy does not use its bundled OpenBLAS")
    get, set_ = threads
    seen = []
    monkeypatch.setattr(cli, "check_constraint", lambda *args: seen.append(get()) or "ok")
    caller = get()
    set_(2)
    try:
        assert main(["check-constraint", "configs/grid_keepout.fl"]) == 0
        assert seen == [1] and get() == 2
    finally:
        set_(caller)
    capsys.readouterr()


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--constraint", "missing.fl", "--seeds", "0"]) == 2
    assert main(["eval", str(tmp_path), "--eval-horizon", "10"]) == 2
    bad = tmp_path / "bad.fl"
    bad.write_text("1 <=\n")
    assert main(["check-constraint", str(bad)]) == 2
    assert main(["plot", str(tmp_path / "missing.csv")]) == 2
    assert not (tmp_path / "plots").exists()  # a failed plot leaves no output dir
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    capsys.readouterr()


def test_cli_check_constraint_with_an_overflowing_number_exits_2(tmp_path, capsys):
    """A number too large for a float is a syntax error at its token, not
    an infinite constant whose norm folds inf - inf to NaN."""
    overflow = tmp_path / "overflow.fl"
    overflow.write_text("norm2([1e999,0] - [1e999,0]) <= 1\n")
    assert main(["check-constraint", str(overflow), "--env", "cartpole"]) == 2
    err = capsys.readouterr().err
    assert err == "error: number 1e999 is too large for a float (line 1, column 8)\n"


def test_cli_check_constraint_with_a_quantifier_variable_named_s_exits_2(tmp_path, capsys):
    """`s` in a norm operand is the state, so `forall s in unsafe` would
    score the state and ignore the anchors; the file is refused instead."""
    shadow = tmp_path / "shadow.fl"
    shadow.write_text("forall s in unsafe: 1.5 <= norm2(s - [0,0])\n")
    assert main(["check-constraint", str(shadow), "--env", "gridworld"]) == 2
    err = capsys.readouterr().err
    assert err == "error: quantifier variable 's' would be read as the state; rename it\n"


@pytest.mark.parametrize("verb", ["plot_out_is_a_file", "plot_out_under_a_file",
                                  "plot_a_directory", "value_grid_out_is_a_directory"])
def test_cli_unusable_path_exits_2(tmp_path, capsys, verb):
    """A path the verb cannot read or write is an I/O error: exit 2 with one
    `error:` line, no traceback."""
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(METRICS_HEADER + "\n0,0,1.0,1.0,0,0.5,0.1,1.3,0\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    if verb == "value_grid_out_is_a_directory":
        Trainer(System3Config(rollout_length=4, batch_size=2, total_steps=8),
                "gridworld", seed=0).save_checkpoint(tmp_path / "ckpt")
    argv = {
        "plot_out_is_a_file": ["plot", str(metrics), "--out", str(blocker)],
        "plot_out_under_a_file": ["plot", str(metrics), "--out", str(blocker / "sub")],
        "plot_a_directory": ["plot", str(tmp_path)],
        "value_grid_out_is_a_directory": ["value-grid", str(tmp_path / "ckpt"),
                                          "--out", str(tmp_path)],
    }[verb]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags, named", [
    (["--gamma", "2"], "gamma"),
    (["--beta", "2"], "beta"),
    (["--hidden", ","], "hidden"),
    (["--lr", "nan"], "learning_rate"),
    (["--eval-every", "x"], "eval_every"),
    (["--batch-size", "0"], "batch_size"),
    (["--lambda", "nan"], "lam"),
    (["--entropy-coef", "nan"], "entropy_coef"),
    (["--value-coef", "inf"], "value_coef"),
    (["--constraint-weight", "inf"], "constraint_reward_weight"),
])
def test_cli_rejects_bad_values_before_writing(tmp_path, capsys, flags, named):
    """A bad config value exits 2, names the key, and leaves no run directory."""
    out = tmp_path / "out"
    assert main(["train", "--seeds", "0", "--steps", "40", "--out", str(out), *flags]) == 2
    assert not out.exists()
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--policy-features", "bogus"],
    ["--env", "cartpole", "--policy-features", "onehot"],
    ["--model-warmup-iters", "1"],
    ["--optimizer", "adam"],
])
def test_cli_rejects_removed_option_flags(tmp_path, capsys, flags):
    """The policy input follows the env, there is no model warm-up and Adam
    is the only optimizer, so their flags are unknown: argparse exits 2
    before any run directory."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--seeds", "0", "--steps", "40", "--out", str(out), *flags])
    assert exc.value.code == 2
    assert not out.exists()
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["policy_features", "model_warmup_iters", "optimizer"])
def test_config_file_with_removed_option_exits_2(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seeds = 0\nsteps = 40\n{key} = 0\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_cli_eval_of_damaged_checkpoint_exits_2(tmp_path, capsys):
    run_dir = train_one_seed(build_run_config(tiny_values(tmp_path)), 0)
    checkpoints = os.path.join(run_dir, "checkpoints")
    ckpt = os.path.join(checkpoints, sorted(os.listdir(checkpoints))[-1])
    policy = os.path.join(ckpt, "policy.params")
    with open(policy, "rb") as fp:
        data = fp.read()
    with open(policy, "wb") as fp:
        fp.write(data[: len(data) // 2])
    assert main(["eval", ckpt, "--eval-horizon", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable checkpoint at ")
    assert "policy.params" in err and "Traceback" not in err


def test_cli_eval_of_tampered_state_exits_2(tmp_path, capsys):
    """A state.json with a key removed is an unreadable checkpoint (exit 2),
    not a traceback."""
    ckpt = tmp_path / "ckpt"
    Trainer(System3Config(rollout_length=4, batch_size=2, total_steps=8),
            "gridworld", seed=0).save_checkpoint(ckpt)
    state = json.loads((ckpt / "state.json").read_text())
    del state["eval_count"]
    (ckpt / "state.json").write_text(json.dumps(state))
    assert main(["eval", str(ckpt), "--eval-horizon", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable checkpoint at ")
    assert "eval_count" in err and "Traceback" not in err


# each top-level value of state.json is replaced in turn by every one of these;
# 10**400 is a JSON integer too large for a float
STATE_MUTANTS = ["x", -1, 1.5, None, [], {}, float("nan"), 2**70, 10**400]


@pytest.mark.parametrize("env_id", ["gridworld", "cartpole"])
def test_cli_eval_of_mutated_state_exits_0_or_2(tmp_path, capsys, env_id):
    """A bundle whose state.json has any one top-level value swapped for a
    value of another kind or range is evaluated (exit 0) or refused as a
    configuration error (exit 2); no exception escapes `main`. Cart-pole
    runs behind the d = 5 delayed-reward wrapper."""
    if env_id == "gridworld":
        formula, d = fl.parse("forall u in unsafe: 1.5 <= norm2(s - u)"), 1
    else:
        formula, d = fl.load_constraint_file("configs/cartpole_theta.fl"), 5
    trainer = Trainer(System3Config(rollout_length=4, batch_size=2, total_steps=8, hidden=(8,)),
                      env_id, seed=0, d=d, formula=formula)
    trainer.train_iteration()
    ckpt = tmp_path / "ckpt"
    trainer.save_checkpoint(ckpt)
    good = json.loads((ckpt / "state.json").read_text())
    for key in sorted(good):
        for value in STATE_MUTANTS:
            (ckpt / "state.json").write_text(json.dumps({**good, key: value}))
            assert main(["eval", str(ckpt), "--eval-horizon", "10"]) in (0, 2), (key, value)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("mutation", ["pending_true", "state_bools", "pending_huge_int"])
def test_cli_eval_of_env_snapshot_with_a_non_number_exits_2(tmp_path, capsys, mutation):
    """An env snapshot whose delayed-reward pending sum or cart-pole state
    holds a JSON boolean, or an integer too large for a float, is an
    unreadable checkpoint: JSON true is not the number 1.0."""
    trainer = Trainer(System3Config(rollout_length=4, batch_size=2, total_steps=8, hidden=(8,)),
                      "cartpole", seed=0, d=5, formula=fl.load_constraint_file("configs/cartpole_theta.fl"))
    trainer.train_iteration()
    ckpt = tmp_path / "ckpt"
    trainer.save_checkpoint(ckpt)
    state = json.loads((ckpt / "state.json").read_text())
    assert main(["eval", str(ckpt), "--eval-horizon", "10"]) == 0
    snapshot = state["env_snapshots"][1]
    if mutation == "pending_true":
        snapshot["pending"] = True
    elif mutation == "state_bools":
        snapshot["inner"]["state"] = [True, False, 0.0, 0.0]
        snapshot["inner"]["done"] = False
    else:
        snapshot["pending"] = 10**400
    (ckpt / "state.json").write_text(json.dumps(state))
    assert main(["eval", str(ckpt), "--eval-horizon", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable checkpoint at ") and "env snapshot 1" in err
    assert "Traceback" not in err


def test_cli_eval_with_a_negative_seed_exits_2_naming_it(tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    Trainer(System3Config(rollout_length=4, batch_size=2, total_steps=8),
            "gridworld", seed=0).save_checkpoint(ckpt)
    assert main(["eval", str(ckpt), "--eval-horizon", "10", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    with pytest.raises(ConfigError, match="seed must be >= 0, got -5"):
        run_eval(str(ckpt), eval_horizon=10, seed=-5)


def test_cli_eval_of_checkpoint_with_too_few_envs_exits_2(tmp_path, capsys):
    """A bundle whose ep_returns and env_snapshots were both cut to one entry
    (batch size 2) is refused before any environment resumes from it."""
    ckpt = tmp_path / "ckpt"
    Trainer(System3Config(rollout_length=4, batch_size=2, total_steps=8),
            "gridworld", seed=0).save_checkpoint(ckpt)
    state = json.loads((ckpt / "state.json").read_text())
    state["ep_returns"] = state["ep_returns"][:1]
    state["env_snapshots"] = state["env_snapshots"][:1]
    (ckpt / "state.json").write_text(json.dumps(state))
    assert main(["eval", str(ckpt), "--eval-horizon", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable checkpoint at ")
    assert "Traceback" not in err


def test_cli_eval_of_checkpoint_with_foreign_net_exits_2(tmp_path, capsys):
    """A policy.params written for another net shape (hidden 32,32 in a
    bundle whose state.json says 64,64) is refused, not evaluated."""
    run_dir = train_one_seed(build_run_config(tiny_values(tmp_path)), 0)
    small_dir = train_one_seed(build_run_config(
        tiny_values(tmp_path, hidden="32,32", out=str(tmp_path / "small"))), 0)
    name = sorted(os.listdir(os.path.join(run_dir, "checkpoints")))[-1]
    ckpt = os.path.join(run_dir, "checkpoints", name)
    shutil.copyfile(os.path.join(small_dir, "checkpoints", name, "policy.params"),
                    os.path.join(ckpt, "policy.params"))
    assert main(["eval", ckpt, "--eval-horizon", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable checkpoint at ")
    assert "policy.params" in err and "Traceback" not in err


def test_cli_eval_of_checkpoint_with_params_of_another_seed_exits_2(tmp_path, capsys):
    """A policy.params from a same-shape run of another seed fits the net,
    but its untouched elements would come from this seed's initialisation:
    refused by the digest of the untrained net, not evaluated."""
    config = build_run_config(tiny_values(tmp_path))
    run_dir, other_dir = (train_one_seed(config, seed) for seed in (0, 1))
    name = sorted(os.listdir(os.path.join(run_dir, "checkpoints")))[-1]
    ckpt = os.path.join(run_dir, "checkpoints", name)
    assert main(["eval", ckpt, "--eval-horizon", "10"]) == 0
    shutil.copyfile(os.path.join(other_dir, "checkpoints", name, "policy.params"),
                    os.path.join(ckpt, "policy.params"))
    capsys.readouterr()
    assert main(["eval", ckpt, "--eval-horizon", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable checkpoint at ")
    assert "policy.params" in err and "not the digest" in err and "Traceback" not in err


def test_heatmap_and_line_chart_svg_wellformed():
    svg = heatmap_svg(np.arange(12, dtype=float).reshape(3, 4), title="t")
    assert svg.startswith("<svg") and svg.count("<rect") >= 12
    svg = line_chart_svg([1, 2, 3], [0.1, 0.5, 0.2], [0.0, 0.4, 0.1], [0.2, 0.6, 0.3])
    assert "polyline" in svg and "polygon" in svg
