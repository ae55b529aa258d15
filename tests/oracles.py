"""Independent brute-force oracles shared by the test modules."""

import itertools
import math

from opnet.family import budget_limit


def brute_force_count(measures, grid_values, net_size, p, r):
    """Count family members by exhaustive enumeration over magnitude tuples.

    Each cell picks a grid magnitude; the zero magnitude contributes one
    function regardless of direction, a nonzero one contributes `net_size`.
    """
    limit = budget_limit(p, r)
    n_cells = len(measures)
    total = 0
    for combo in itertools.product(range(len(grid_values)), repeat=n_cells):
        used = math.fsum(
            measures[i] * grid_values[j] ** p for i, j in enumerate(combo)
        )
        if used > limit:
            continue
        factor = 1
        for j in combo:
            if j > 0:
                factor *= net_size
        total += factor
    return total


def square_budget_count(n_cells, levels, budget, net_size):
    """Members whose magnitude indices j_i in 0..levels satisfy
    sum j_i^2 <= budget, counted in integers; a nonzero index contributes
    `net_size` directions.

    Equals the family count on equal cells when mu * (gamma * j / levels)^p
    summed over cells is at most r^p exactly when sum j_i^2 <= budget.
    """
    ways = [1] + [0] * budget  # ways[s]: weighted prefixes with sum j^2 == s
    for _ in range(n_cells):
        nxt = [0] * (budget + 1)
        for s, n in enumerate(ways):
            for j in range(levels + 1):
                if s + j * j > budget:
                    break
                nxt[s + j * j] += n * (net_size if j else 1)
        ways = nxt
    return sum(ways)
