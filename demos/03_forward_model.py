"""Learning one-step dynamics with the MSE regressor.

Trained on slippery-grid transitions, the model's point predictions converge
to the conditional mean of the next-state distribution, which is what lets
the constraint evaluator anticipate where an action will probably land.
"""
import numpy as np

from logicrl import ForwardModel, GridWorld, Optimizer

env = GridWorld(seed=3)
rng = np.random.default_rng(3)

states, actions, nexts = [], [], []
for _ in range(4000):
    a = int(rng.integers(5))
    states.append(env.state)
    actions.append(a)
    next_state, _, done = env.step(a)
    nexts.append(next_state)
    if done:
        env.reset()
states, actions, nexts = np.array(states), np.array(actions), np.array(nexts)

model = ForwardModel(2, 5, seed=2)
model.update_normalizer(states)
# Adam starts from +0.0 moments, one per parameter element
optimizer = Optimizer(model.params.n_params(), 1e-3)
batch_rng = np.random.default_rng(7)
for step in range(2001):
    idx = batch_rng.integers(0, len(states), size=256)
    loss, grads = model.loss_and_grads((states[idx], actions[idx], nexts[idx]))
    model.params = optimizer.step(model.params, grads)
    if step % 400 == 0:
        print(f"step {step:5d}  loss {loss:.5f}")

labels = ("left", "right", "up", "down", "stay")
print("\npredictions from (8, 5) against the analytic conditional mean:")
for a in range(5):
    pred = model.predict_batch([[8.0, 5.0]], [a])[0]
    mean = sum(cell * float(p) for cell, p in env.transition_distribution([8, 5], a))
    print(f"  {labels[a]:>5}: predicted {np.round(pred, 2)}  analytic mean {np.round(mean, 2)}")
