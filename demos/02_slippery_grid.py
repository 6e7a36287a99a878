"""The slippery grid world: exact transition probabilities and rollouts.

Every action succeeds with probability 0.85; the remaining 0.15 spreads
uniformly over the von Neumann neighbourhood including the current cell.
Probabilities are kept as exact fractions so they always sum to one.
"""
import numpy as np

from logicrl import GridWorld

env = GridWorld(seed=0)
print(env.layout.to_text())

print("transition distribution from (5, 5), action 'up':")
for cell, p in env.transition_distribution(np.array([5.0, 5.0]), 2):
    print(f"  -> {tuple(int(v) for v in cell)}  with probability {p}  ({float(p):.2f})")

print("\nsame cell, action 'left' from the corner (0, 0) clamps and respreads:")
for cell, p in env.transition_distribution(np.array([0.0, 0.0]), 0):
    print(f"  -> {tuple(int(v) for v in cell)}  with probability {p}")

mean = sum(cell * float(p) for cell, p in env.transition_distribution([5, 5], 2))
print(f"\nconditional mean of the next state for 'up' at (5,5): {mean}")

# A random walk: most episodes die in the unsafe band long before finding
# the bridge, which is what makes the safety shaping interesting.
rng = np.random.default_rng(1)
outcomes = {"target": 0, "unsafe": 0, "cap": 0}
for _ in range(200):
    env.reset()
    while True:
        next_state, _, done = env.step(int(rng.integers(5)))
        if done:
            label = env.layout.label((int(next_state[0]), int(next_state[1])))
            outcomes[label if label in outcomes else "cap"] += 1
            break
print(f"\n200 random-walk episodes end as: {outcomes}")
