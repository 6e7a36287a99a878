"""Span tracer that wraps logicrl's layer functions from outside the package.

Each wrapped call records one span: name, start, end, parent span and run id,
plus the rows it processed or the bytes it wrote where that applies. Spans are
kept in memory and written out when the run ends. Nothing under `src/` is
changed: the tracer rebinds every name a layer function is bound under in the
loaded `logicrl` modules (modules that import a function by name hold their
own reference to it) and puts the originals back on `uninstall`.
"""
from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np


def _rows(arg_index):
    def rows(args, kwargs, result):
        shape = np.shape(args[arg_index])
        return shape[0] if len(shape) >= 2 else 1
    return rows


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _dir_bytes(args, kwargs, result):
    directory = args[1]
    return sum(os.path.getsize(os.path.join(directory, f)) for f in os.listdir(directory))


def _eval_steps(args, kwargs, result):
    return args[3] if len(args) > 3 else kwargs["eval_steps"]


# (span name, module, attribute path, what the span's `rows` field counts)
# A grid world's distinct layout is recorded as the span's `key`, so the
# construction-per-layout ratio can be formed.
LAYERS = [
    ("envs.construct", "envs", "GridWorld.__init__", None),
    ("envs.construct", "envs", "CartPole.__init__", None),
    ("envs.step", "envs", "GridWorld.step", None),
    ("envs.step", "envs", "CartPole.step", None),
    ("envs.step", "envs", "DelayedReward.step", None),
    ("envs.reset", "envs", "GridWorld.reset", None),
    ("envs.reset", "envs", "CartPole.reset", None),
    ("envs.reset", "envs", "DelayedReward.reset", None),
    ("constraints.parse", "constraints", "parse", None),
    ("constraints.bind", "constraints", "bind", None),
    ("constraints.evaluate_batch", "constraints", "BoundFormula.evaluate_batch", _rows(1)),
    ("constraints.evaluate", "constraints", "BoundFormula.evaluate", None),
    ("dynamics.predict_batch", "dynamics", "ForwardModel.predict_batch", _rows(1)),
    ("dynamics.predict", "dynamics", "ForwardModel.predict", None),
    ("dynamics.loss_and_grads", "dynamics", "ForwardModel.loss_and_grads", None),
    ("dynamics.update_normalizer", "dynamics", "ForwardModel.update_normalizer", None),
    ("actor_critic.act_batch", "actor_critic", "ActorCritic.act_batch", _rows(1)),
    ("actor_critic.values_batch", "actor_critic", "ActorCritic.values_batch", _rows(1)),
    ("actor_critic.greedy_batch", "actor_critic", "ActorCritic.greedy_batch", _rows(1)),
    ("actor_critic.gae", "actor_critic", "gae_batch", None),
    ("actor_critic.policy_value_loss", "actor_critic", "policy_value_loss", None),
    ("tensor.mlp_forward", "tensor", "mlp_forward", _rows(2)),
    ("tensor.mlp_backward", "tensor", "mlp_backward", None),
    ("tensor.optimizer_step", "tensor", "Optimizer.step", None),
    ("tensor.save_paramset_file", "tensor", "save_paramset_file", None),
    ("tensor.load_paramset_file", "tensor", "load_paramset_file", None),
    ("training.trainer_init", "training", "Trainer.__init__", None),
    ("training.train_iteration", "training", "Trainer.train_iteration", None),
    ("training.save_checkpoint", "training", "Trainer.save_checkpoint", None),
    ("training.load_checkpoint", "training", "Trainer.load_checkpoint", None),
    ("training.evaluate", "training", "Trainer.evaluate", None),
    ("training.evaluate_policy", "training", "evaluate_policy", _eval_steps),
    ("harness.train_one_seed", "harness", "train_one_seed", None),
    ("harness.run_eval", "harness", "run_eval", None),
]

_BYTES = {
    "tensor.save_paramset_file": _file_bytes,
    "training.save_checkpoint": _dir_bytes,
}


def _layout_key(args):
    layout = getattr(args[0], "layout", None)
    return layout.to_text() if layout is not None else type(args[0]).__name__


class Tracer:
    """Collects spans while installed; `summary()` turns them into per-name
    calls, rows, bytes, inclusive and self seconds."""

    def __init__(self):
        self.spans: list = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "logicrl" or name.startswith("logicrl."))]
        for name, module_name, path, rows in LAYERS:
            owner = sys.modules[f"logicrl.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__, rows))
                else:
                    wrapped = self._wrap(name, raw, rows)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, rows)
            # every module-level name bound to the function, not only the
            # defining module: `from .tensor import mlp_forward` makes a copy
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def unpatched_names(self) -> list[str]:
        """Names in the loaded logicrl modules still bound to an original
        layer function while installed; empty when patching is complete."""
        originals = {id(orig) for _, _, orig in self._patches}
        stale = []
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "logicrl" or name.startswith("logicrl.")):
                continue
            for key, value in vars(module).items():
                if id(value) in originals:
                    stale.append(f"{name}.{key}")
        return stale

    def _wrap(self, name, fn, rows_of):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        bytes_of = _BYTES.get(name)
        keyed = name == "envs.construct"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a wrapper env stepping its inner env is one step, not two
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, 0.0, 0.0, parent, tracer.run_id, 0, 0, "", ""])
            stack.append(index)
            error = ""
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                span = spans[index]
                span[1], span[2], span[7] = start, end, error
            if rows_of is not None:
                span[5] = rows_of(args, kwargs, result)
            if bytes_of is not None:
                span[6] = bytes_of(args, kwargs, result)
            if keyed:
                span[8] = _layout_key(args)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fp:
            fp.write("span,parent,run,name,start,end,rows,bytes,error\n")
            for i, (name, start, end, parent, run, rows, nbytes, error, _) in enumerate(self.spans):
                fp.write(f"{i},{parent},{run},{name},{start!r},{end!r},{rows},{nbytes},{error}\n")

    def summary(self, run_id=None) -> dict:
        """Per-name totals over the spans of one run id (all when None)."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        # parents come before their children, so one pass marks every span
        # with a train_iteration span among its ancestors
        in_training = [False] * len(spans)
        for i, (_, _, _, parent, *_) in enumerate(spans):
            if parent >= 0:
                in_training[i] = in_training[parent] or \
                    spans[parent][0] == "training.train_iteration"
        out: dict[str, dict] = {}
        layouts: set = set()
        stall = 0.0
        for i, (name, start, end, parent, run, rows, nbytes, error, key) in enumerate(spans):
            if run_id is not None and run != run_id:
                continue
            agg = out.setdefault(name, {"calls": 0, "rows": 0, "bytes": 0, "s": 0.0,
                                        "self_s": 0.0, "errors": {}, "train_calls": 0,
                                        "train_rows": 0})
            agg["calls"] += 1
            agg["rows"] += rows
            if in_training[i]:
                agg["train_calls"] += 1
                agg["train_rows"] += rows
            agg["bytes"] += nbytes
            agg["s"] += end - start
            agg["self_s"] += end - start - child_s[i]
            if error:
                agg["errors"][error] = agg["errors"].get(error, 0) + 1
            if key:
                layouts.add(key)
            if name in ("training.save_checkpoint", "training.evaluate") and parent >= 0 \
                    and spans[parent][0] == "harness.train_one_seed":
                stall += end - start
        out["_derived"] = {"layouts": len(layouts), "stall_s": stall}
        return out

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Count of `child_name` spans with a `parent_name` span as ancestor."""
        spans = self.spans
        count = 0
        for name, _, _, parent, *_ in spans:
            if name != child_name:
                continue
            while parent >= 0:
                if spans[parent][0] == parent_name:
                    count += 1
                    break
                parent = spans[parent][3]
        return count


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metric values of one unit, by benchmark metric name."""
    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    derived = summary.get("_derived", {"layouts": 0, "stall_s": 0.0})
    m: dict[str, float] = {}
    for name in {layer[0] for layer in LAYERS}:
        for field in ("calls", "rows", "bytes", "s", "self_s"):
            m[f"{name}.{field}"] = get(name, field)
        # rows per call of the T x B training rollout only; evaluation calls
        # are one row each and are counted in .calls and .rows
        m[f"{name}.rows_per_call"] = ratio(get(name, "train_rows"), get(name, "train_calls"))
    m["envs.construct.per_layout"] = ratio(get("envs.construct", "calls"), derived["layouts"])
    m["training.evaluate_policy.steps"] = get("training.evaluate_policy", "rows")
    m["training.stall.s"] = derived["stall_s"]
    m["training.diverged.count"] = sum(
        n for err, n in summary.get("training.train_iteration", {}).get("errors", {}).items()
        if err == "TrainingDiverged")
    return m
