"""Safe-exploration reinforcement learning with logical state constraints.

Safety knowledge is written as first-order formulas over p-norm distances in
state space, evaluated on a learned model's next-state prediction, and fed
back to a synchronous actor-critic as an extra reward channel.
"""

from .actor_critic import (
    ActorCritic,
    gae_batch,
    policy_value_loss,
    standardize_advantages,
)
from .constraints import (
    BindError,
    BoundFormula,
    FLSyntaxError,
    ObjectRegistry,
    bind,
    load_constraint_file,
    parse,
    to_text,
)
from .dynamics import ForwardModel, RunningNorm
from .envs import (
    ActionSpec,
    CartPole,
    DelayedReward,
    EpisodeOver,
    GridLayout,
    GridWorld,
    StateSchema,
    make_env,
)
from .tensor import (
    MLPConfig,
    Optimizer,
    ParamSet,
    UpdateRejected,
    load_paramset_file,
    mlp_backward,
    mlp_forward,
    mlp_init,
    save_paramset_file,
    softmax,
)
from .training import (
    EvalResult,
    System3Config,
    Trainer,
    TrainingDiverged,
    evaluate_policy,
)

__version__ = "0.1.0"
