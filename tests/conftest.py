"""Helpers shared by the test modules."""

import numpy as np


def loss_scale(col, rho):
    """0.5 * (R * rho + max_m ||y_m||)^2: the size of the terms a task's
    residual is formed from, for iterates of norm at most ``rho`` on the
    collection ``col``.  A loss at the rounding floor of its residual moves by
    more than any relative tolerance when the order of a sum changes, so
    losses computed in different orders are compared relative to the loss or
    to this scale."""
    y_max = max(float(np.linalg.norm(t.y)) for t in col.tasks)
    return 0.5 * (col.radius * rho + y_max) ** 2
