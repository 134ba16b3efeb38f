"""Reference ``STL'``: the per-cell dynamic program the model shipped before PR 24.

Every (level, time step) cell of the full ``time_steps x len(levels)``
rectangle is filled, recomputing the blocking rate and the exponential in each
one.  ``ThroughputLossModel.stl_prime`` hoists the per-level factors and skips
the cells that cannot reach level 0, with the same float expression in the
same order for every cell it keeps, so the two must agree with ``==``.
"""

from __future__ import annotations

import math

from repro.selection.parameters import SystemLoadParameters


def blocking_rate(load: SystemLoadParameters, loss: float) -> float:
    lambda_a = load.system_throughput
    if lambda_a <= 0 or loss >= lambda_a:
        return 0.0
    k = max(1.0, load.requests_per_transaction)
    blocked_fraction = min(1.0, max(0.0, loss / lambda_a))
    probability = 1.0 - (1.0 - blocked_fraction) ** (k - 1.0)
    return (lambda_a - loss) * probability


def loss_increment(load: SystemLoadParameters) -> float:
    return load.write_throughput + (1.0 - load.read_fraction) * load.read_throughput


def reference_stl_prime(
    load: SystemLoadParameters,
    initial_loss: float,
    duration: float,
    *,
    time_steps: int = 32,
    max_levels: int = 64,
) -> float:
    lambda_a = load.system_throughput
    if duration <= 0 or lambda_a <= 0:
        return 0.0
    initial_loss = max(0.0, initial_loss)
    if initial_loss >= lambda_a:
        return lambda_a * duration

    step_gain = loss_increment(load)
    if step_gain <= 0:
        return initial_loss * duration

    levels = [initial_loss]
    while levels[-1] < lambda_a and len(levels) < max_levels:
        levels.append(min(lambda_a, levels[-1] + step_gain))
    dt = duration / time_steps
    # current[i] holds STL'(levels[i], t) for the current horizon t.
    current = [0.0] * len(levels)
    for _ in range(time_steps):
        previous = current
        current = [0.0] * len(levels)
        for index, loss in enumerate(levels):
            block_rate = blocking_rate(load, loss)
            p_block = 1.0 - math.exp(-block_rate * dt) if block_rate > 0 else 0.0
            next_index = min(index + 1, len(levels) - 1)
            current[index] = (
                loss * dt
                + p_block * previous[next_index]
                + (1.0 - p_block) * previous[index]
            )
    return current[0]
