"""A tour of the constraint language: parsing, binding, evaluation.

Safety knowledge is written as text formulas over the state vector: distance
atoms (norm1/norm2/norminf between the state and anchor points) and component
bounds, combined with and/or/not and bounded quantifiers over named sets.
"""
import numpy as np

from logicrl import GridWorld, bind, parse, to_text

env = GridWorld()
registry = env.registry()
print(f"grid registry: { {n: len(registry.points(n)) for n in registry.names()} }")

# The running safety property: stay at least 1.5 cells away from every
# unsafe cell, for all 36 of them at once.
formula = parse("forall u in unsafe: 1.5 <= norm2(s - u)")
print("formula:  ", to_text(formula))

bound = bind(formula, registry, env.schema)
for state in ([0.0, 0.0], [5.0, 8.0], [5.0, 9.0], [9.0, 9.0], [9.0, 12.0]):
    print(f"  phi({state}) = {bound.evaluate_batch([state])[0]}")

# Component bounds work the same way; this is the cart-pole style box.
box = parse("(-2.4 <= s[0] and s[0] <= 2.4) and (-0.2095 <= s[2] and s[2] <= 0.2095)")
print("\ncart-pole box:", to_text(box))

# Quantifiers expand over whatever the registry holds; an empty set is
# vacuously true, and `exists` is sugar for not-forall-not.
near_target = parse("exists t in target: norm2(s - t) <= 3")
bound_near = bind(near_target, registry, env.schema)
print("\nnear the target?")
for state in ([19.0, 19.0], [17.0, 17.0], [0.0, 0.0]):
    print(f"  {state} -> {bound_near.evaluate_batch([state])[0]}")

# Batch evaluation scores many states in one call.
states = np.random.default_rng(0).uniform(0, 19, size=(100_000, 2))
rate = bound.evaluate_batch(states).mean()
print(f"\nsatisfaction rate over 1e5 uniform states: {rate:.3f}")

