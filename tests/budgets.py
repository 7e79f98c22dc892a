"""Per-row selection budgets for strategy comparisons at any shape.

The library routes only integral budgets K = k*D_B/E (effective_k rejects
the rest). Comparing strategies at equal total selection count B*L*k on a
shape where some strategy's K is fractional, as criterion 1 does, needs a
budget for each row instead; this is that split, kept with the tests.
"""

import numpy as np

from moelab.routing import RoutingStrategy


def row_budgets(strategy: RoutingStrategy, B: int, L: int, E: int, k: int) -> np.ndarray:
    """Per-row budgets summing to B*L*k.

    Where K is integral this is the uniform budget [K] * D_A. Otherwise the
    total is spread as evenly as possible, the remainder going to the
    lowest-index rows.
    """
    d_a, _ = strategy.extents(B, L, E)
    base, rem = divmod(B * L * k, d_a)
    budgets = np.full(d_a, base, dtype=np.int64)
    budgets[:rem] += 1
    return budgets
